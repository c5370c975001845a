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
from importlib import resources
from pathlib import Path
from typing import Iterable

from .constraints import Constraint, ConstraintError, parse_constraint
from .errors import LineError, Pref2ConstraintError, json_lines

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

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "spans": [{"start": s.start, "end": s.end, "kind": s.kind} for s in self.spans],
            "constraints": list(self.constraint_texts),
        }


def _validate_spans(text: str, raw_spans: list, line_number: int) -> tuple[Span, ...]:
    spans = []
    for raw in raw_spans:
        if not isinstance(raw, dict):
            raise SchemaError("each span must be a JSON object", line_number)
        missing = {"start", "end", "kind"} - set(raw)
        if missing:
            raise SchemaError(f"span missing field(s) {sorted(missing)}", line_number)
        start, end, kind = raw["start"], raw["end"], raw["kind"]
        if not (type(start) is int and type(end) is int):  # JSON integers, not booleans
            raise SchemaError("span offsets must be integers", line_number)
        if kind not in SPAN_KINDS:
            raise SchemaError(f"span kind must be one of {SPAN_KINDS}, got {kind!r}", line_number)
        if not 0 <= start < end <= len(text):
            raise SchemaError(
                f"span offsets [{start}, {end}) out of bounds for text of length {len(text)}",
                line_number,
            )
        spans.append(Span(start, end, kind))
    ordered = sorted(spans, key=lambda s: s.start)
    for left, right in zip(ordered, ordered[1:]):
        if right.start < left.end:
            raise SchemaError(
                f"spans [{left.start}, {left.end}) and [{right.start}, {right.end}) overlap",
                line_number,
            )
    return tuple(spans)


def _record_from_dict(raw: object, line_number: int) -> GoldRecord:
    if not isinstance(raw, dict):
        raise SchemaError("a record must be a JSON object", line_number)
    missing = {"id", "text", "spans", "constraints"} - set(raw)
    if missing:
        raise SchemaError(f"missing field(s) {sorted(missing)}", line_number)
    record_id, text = raw["id"], raw["text"]
    if not isinstance(record_id, str) or not isinstance(text, str):
        raise SchemaError("'id' and 'text' must be strings", line_number)
    if not isinstance(raw["spans"], list) or not isinstance(raw["constraints"], list):
        raise SchemaError("'spans' and 'constraints' must be arrays", line_number)
    spans = _validate_spans(text, raw["spans"], line_number)
    constraint_texts = tuple(raw["constraints"])
    if not all(isinstance(c, str) for c in constraint_texts):
        raise SchemaError("each constraint must be a string", line_number)
    if spans and not constraint_texts:
        raise SchemaError("record with preference spans must carry at least one constraint", line_number)
    constraints = []
    for constraint_text in constraint_texts:
        try:
            constraints.append(parse_constraint(constraint_text))
        except ConstraintError as exc:
            raise ConstraintParseError(
                f"gold constraint {constraint_text!r}: {exc}", line_number
            ) from exc
    return GoldRecord(record_id, text, spans, tuple(constraints), constraint_texts)


def load_dataset(path: str | Path) -> list[GoldRecord]:
    """Load and validate a JSONL corpus, preserving record order."""
    records = []
    seen_ids: set[str] = set()
    with open(path, "rb") as handle:
        for line_number, raw in json_lines(handle, SchemaError):
            record = _record_from_dict(raw, line_number)
            if record.id in seen_ids:
                raise SchemaError(f"duplicate record id {record.id!r}", line_number)
            seen_ids.add(record.id)
            records.append(record)
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
