"""Annotated utterance corpus: JSONL loading, validation, and XML tagging.

Each record is one Italian utterance with the character spans that express
usage preferences and the gold constraints those spans map to.  File format
is JSONL (UTF-8, one object per line) with exactly these fields::

    {"id": "u01",
     "text": "ho bisogno che l'acqua calda sia disponibile dalle 7 alle 8,30",
     "spans": [{"start": 45, "end": 62, "kind": "time"}],
     "constraints": ["s_t = 1 ∀ 07:00 ≤ t ≤ 08:30"]}

Offsets are Unicode code-point indices into ``text`` (Python string
indices).  Gold constraint strings must parse under the strict grammar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable

from .constraints import Constraint, ConstraintError, parse_constraint, render_constraint
from .errors import LineError, Pref2ConstraintError, json_lines, typed, typed_array

SPAN_KINDS = ("time", "temperature")

# XML tag vocabulary used when feeding utterances to a model; the "kind"
# value "temperature" is abbreviated to "temp" in the tag attribute.
TAG_NAME = "pref"
TAG_TYPES = {"time": "time", "temperature": "temp"}

PILOT_CORPUS_RESOURCE = "pilot_it.jsonl"


class DatasetError(Pref2ConstraintError):
    pass


class SchemaError(DatasetError, LineError):
    """A record violates the file schema (fields, offsets, span overlap)."""


class ConstraintParseError(DatasetError, LineError):
    """A gold constraint string failed the strict parse."""


@dataclass(frozen=True)
class Span:
    start: int
    end: int
    kind: str


@dataclass(frozen=True)
class GoldRecord:
    id: str
    text: str
    spans: tuple[Span, ...]
    constraints: tuple[Constraint, ...]
    constraint_texts: tuple[str, ...]

    # Rendered on first use and kept; not fields, so equality, hash and to_dict ignore them.
    @cached_property
    def tagged(self) -> str:
        """The utterance with its preference spans tagged (``tag_utterance``)."""
        return tag_utterance(self)

    @cached_property
    def canonical(self) -> tuple[str, ...]:
        """The gold constraints in canonical form (``render_constraint``), in order."""
        return tuple(render_constraint(c) for c in self.constraints)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "spans": [{"start": s.start, "end": s.end, "kind": s.kind} for s in self.spans],
            "constraints": list(self.constraint_texts),
        }


def _spans(text: str, raw_spans: list[dict]) -> tuple[Span, ...]:
    spans = []
    for raw in raw_spans:
        start, end = typed(raw, "start", "integer"), typed(raw, "end", "integer")
        kind = typed(raw, "kind", "string")
        if kind not in SPAN_KINDS:
            raise ValueError(f"span kind must be one of {SPAN_KINDS}, got {kind!r}")
        if not 0 <= start < end <= len(text):
            raise ValueError(
                f"span offsets [{start}, {end}) out of bounds for text of length {len(text)}"
            )
        spans.append(Span(start, end, kind))
    ordered = sorted(spans, key=lambda s: s.start)
    for left, right in zip(ordered, ordered[1:]):
        if right.start < left.end:
            raise ValueError(
                f"spans [{left.start}, {left.end}) and [{right.start}, {right.end}) overlap"
            )
    return tuple(spans)


def _encodable(raw: dict, name: str) -> str:
    """The string ``raw[name]``, refused if it holds a lone surrogate, which UTF-8 cannot encode.

    A JSON escape such as ``\\ud800`` decodes to one, and no prompt digest or
    outputs line could then be written for the record.
    """
    value = typed(raw, name, "string")
    try:
        value.encode()
    except UnicodeEncodeError as exc:
        raise ValueError(
            f"{name!r} holds the lone surrogate {exc.object[exc.start]!r}, which UTF-8 cannot encode"
        ) from None
    return value


def _record_fields(raw: dict) -> tuple[str, str, tuple[Span, ...], tuple[str, ...]]:
    """(id, text, spans, constraint texts) of a corpus line; the constraints are parsed later."""
    record_id, text = _encodable(raw, "id"), _encodable(raw, "text")
    spans = _spans(text, typed_array(raw, "spans", "object"))
    constraint_texts = tuple(typed_array(raw, "constraints", "string"))
    if spans and not constraint_texts:
        raise ValueError("record with preference spans must carry at least one constraint")
    return record_id, text, spans, constraint_texts


def load_dataset(path: str | Path) -> list[GoldRecord]:
    """Load and validate a JSONL corpus, preserving record order."""
    records = []
    seen_ids: set[str] = set()
    with open(path, "rb") as handle:
        for line_number, (record_id, text, spans, constraint_texts) in json_lines(
            handle, SchemaError, _record_fields
        ):
            constraints = []
            for constraint_text in constraint_texts:
                try:
                    constraints.append(parse_constraint(constraint_text))
                except ConstraintError as exc:
                    raise ConstraintParseError(
                        f"gold constraint {constraint_text!r}: {exc}", line_number
                    ) from exc
            if record_id in seen_ids:
                raise SchemaError(f"duplicate record id {record_id!r}", line_number)
            seen_ids.add(record_id)
            records.append(GoldRecord(record_id, text, spans, tuple(constraints), constraint_texts))
    return records


def dump_dataset(records: Iterable[GoldRecord], path: str | Path) -> None:
    """Re-serialize records to JSONL; loading the result yields equal records."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")


def resource_path(*parts: str) -> Path:
    """Filesystem path of a file shipped under the package's ``resources/``."""
    return Path(resources.files("pref2constraint").joinpath("resources", *parts))


def pilot_corpus_path() -> Path:
    """Filesystem path of the shipped Italian pilot corpus."""
    return resource_path("data", PILOT_CORPUS_RESOURCE)


def mock_fixtures_path() -> Path:
    """Filesystem path of the mock responses for the pilot corpus's default run."""
    return resource_path("mock", "mock_responses.json")


def load_pilot_corpus() -> list[GoldRecord]:
    return load_dataset(pilot_corpus_path())


def tag_utterance(record: GoldRecord) -> str:
    """Wrap each preference span of the utterance in an XML tag.

    Spans are applied right-to-left so earlier offsets stay valid; text
    outside the spans is preserved byte-for-byte.
    """
    text = record.text
    for span in sorted(record.spans, key=lambda s: s.start, reverse=True):
        tag_type = TAG_TYPES[span.kind]
        text = (
            text[: span.start]
            + f'<{TAG_NAME} type="{tag_type}">'
            + text[span.start : span.end]
            + f"</{TAG_NAME}>"
            + text[span.end :]
        )
    return text
