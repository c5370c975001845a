"""Shared exception base, and the one way each JSON or JSONL input file is read and fails.

Every fault in an input's shape is worded here: a value that is not a JSON
object, a missing field, a field of another JSON type, text UTF-8 cannot
encode.  A reader declares its fields with ``typed``, ``typed_array`` and
``encodable`` and words only its domain rules.
"""

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class Pref2ConstraintError(Exception):
    """Base class for all domain errors raised by this package."""


class LineError(Pref2ConstraintError):
    """A fault on one line of a JSONL file; the message reads ``line N: …``."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# The JSON name of each type that json.loads returns.
_JSON_TYPES = {
    type(None): "null", bool: "boolean", int: "number", float: "number",
    str: "string", list: "array", dict: "object",
}
# Each kind a field is read as: its Python types, and what one value or each entry "must be".
_KINDS = {
    "object": ((dict,), "an object", "objects"),
    "array": ((list,), "an array", "arrays"),
    "string": ((str,), "a string", "strings"),
    "integer": ((int,), "an integer", "integers"),  # a boolean is no integer
    "number": ((int, float), "a number", "numbers"),
    "true or false": ((bool,), "true or false", "true or false"),
}


def typed(data: dict, name: str, kind: str):
    """``data[name]`` if it is a JSON ``kind`` (a number comes back as a float); else a TypeError."""
    value = data[name]
    types, one, _ = _KINDS[kind]
    if type(value) not in types:
        raise TypeError(f"{name!r} must be {one}, got {json.dumps(value)}")
    return float(value) if kind == "number" else value


def typed_array(data: dict, name: str, kind: str) -> list:
    """``data[name]`` if it is a JSON array of ``kind`` entries (numbers as floats); else a TypeError."""
    values = typed(data, name, "array")
    types, _, entries = _KINDS[kind]
    for value in values:
        if type(value) not in types:
            raise TypeError(f"{name!r} entries must be {entries}, got {json.dumps(value)}")
    return [float(value) for value in values] if kind == "number" else values


def encodable(text: str, name: str, error: Callable[[str], Exception] = ValueError) -> str:
    """``text`` if UTF-8 can encode it; else ``error`` naming ``name`` and the lone surrogate in it.

    A JSON escape such as ``\\ud800`` decodes to one, as does a command-line
    byte that is not UTF-8 (``\\xff`` becomes ``\\udcff``), and no file could
    then be written with the text.
    """
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        raise error(
            f"{name} holds the lone surrogate {exc.object[exc.start]!r}, which UTF-8 cannot encode"
        ) from None
    return text


def _parse_object(value: object, parse: Callable[[dict], T], error: Callable[[str], Exception]) -> T:
    """``parse(value)`` if ``value`` is a JSON object; any fault raises ``error(message)``."""
    try:
        if type(value) is not dict:
            raise TypeError(f"expected a JSON object, got {_JSON_TYPES[type(value)]}")
        return parse(value)
    except KeyError as exc:  # parse looked up a field the object lacks
        raise error(f"missing field {exc}") from exc
    except (ValueError, TypeError, Pref2ConstraintError) as exc:
        raise error(str(exc)) from exc


# json.loads's C scanner and whitespace pattern.  A line the scanner reads whole
# needs none of json.loads's other steps; any other line goes to json.loads.
_scan = json.JSONDecoder().scan_once
_whitespace = json.decoder.WHITESPACE.match


def json_lines(
    lines: Iterable[bytes], error: type[LineError], parse: Callable[[dict], T]
) -> Iterator[tuple[int, T]]:
    """(line number, ``parse`` of its JSON object) of each non-blank line; a fault raises ``error``."""
    for line_number, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8")
            try:
                value, end = _scan(text, 0)
            except (StopIteration, ValueError):
                end = -1
            if end < 0 or _whitespace(text, end).end() != len(text):
                if not text.strip():
                    continue
                value = json.loads(text)
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise error(f"not UTF-8 JSON: {exc}", line_number) from exc
        yield line_number, _parse_object(value, parse, lambda message: error(message, line_number))


def read_json_object(path: str | Path, error: type[Exception], parse: Callable[[dict], T]) -> T:
    """``parse`` of the JSON object in a file; any fault in it is ``error("<path>: …")``."""
    try:
        data = json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise error(f"{path}: not UTF-8 JSON: {exc}") from exc
    return _parse_object(data, parse, lambda message: error(f"{path}: {message}"))
