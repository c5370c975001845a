"""Shared exception base, and the one way each JSON or JSONL input file is read and fails."""

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


def json_lines(lines: Iterable[bytes], error: type[LineError]) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line; one not UTF-8 JSON raises ``error``."""
    for line_number, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8")
            if not text.strip():
                continue
            value = json.loads(text)
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise error(f"not UTF-8 JSON: {exc}", line_number) from exc
        yield line_number, value


def read_json_object(path: str | Path, error: type[Exception], parse: Callable[[dict], T]) -> T:
    """``parse`` of the JSON object in a file; any fault in it is ``error("<path>: …")``."""
    try:
        data = json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise error(f"{path}: not UTF-8 JSON: {exc}") from exc
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return parse(data)
    except KeyError as exc:  # parse looked up a field the object lacks
        raise error(f"{path}: missing field {exc}") from exc
    except (ValueError, TypeError, Pref2ConstraintError) as exc:
        raise error(f"{path}: {exc}") from exc


def int_field(data: dict, name: str) -> int:
    """``data[name]`` if it is a JSON integer (not a float or a boolean); else a TypeError."""
    value = data[name]
    if type(value) is not int:
        raise TypeError(f"{name!r} must be an integer, got {json.dumps(value)}")
    return value


def str_field(data: dict, name: str) -> str:
    """``data[name]`` if it is a JSON string; else a TypeError."""
    value = data[name]
    if not isinstance(value, str):
        raise TypeError(f"{name!r} must be a string, got {json.dumps(value)}")
    return value


def json_number(value: object, rule: str) -> float:
    """``value`` as a float if it is a JSON number (not a boolean); else a TypeError citing ``rule``."""
    if type(value) not in (int, float):
        raise TypeError(f"{rule}, got {json.dumps(value)}")
    return float(value)
