"""A run's files: the outputs JSONL and the manifest beside it.

An outputs file holds one JSON line per completion, an ``OutputsLine``
({record_id, shot, prompt_digest, response_text}); the ``RunManifest``
next to it records how the run was made.  A run writes both, through
``OutputsLine.encode`` and ``write_manifest``; a resumed run and evaluation
read the outputs back the same way, ``parse_outputs`` of ``read_lines``
(a torn last line set apart; ``read_outputs`` drops it), and the manifest
through ``read_manifest``: only this module knows the format.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import (
    LineError, Pref2ConstraintError, encodable, json_lines, read_json_object, typed, typed_array,
)
from .prompting import MAX_FEW_SHOT, SHOT_LABELS, ShotSetting


class ManifestMismatchError(Pref2ConstraintError):
    pass


class CorruptManifestError(Pref2ConstraintError):
    pass


class ConfigError(Pref2ConstraintError, ValueError):
    pass


class CorruptOutputsError(LineError, ValueError):
    pass


@dataclass(frozen=True)
class DecodingConfig:
    temperature: float = 0.1
    top_k: int = 20
    top_p: float = 0.9
    max_new_tokens: int = 30

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if self.top_k < 0:
            raise ConfigError("top_k must be >= 0")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    dataset_path: str
    dataset_sha256: str
    template_id: str
    shot_labels: tuple[str, ...]
    few_shot_k: int
    model_id: str
    decoding: DecodingConfig
    seed: int
    timestamp: str

    def __post_init__(self) -> None:
        for name in ("dataset_path", "model_id", "template_id"):  # each is written to the manifest
            encodable(getattr(self, name), repr(name), ConfigError)
        if not self.shot_labels:
            raise ConfigError("shot labels must not be empty")
        if len(set(self.shot_labels)) != len(self.shot_labels):
            raise ConfigError(f"shot labels must not repeat, got {','.join(self.shot_labels)}")
        for label in self.shot_labels:  # an unknown label, or fs with k outside 2..5, raises
            ShotSetting.from_label(label, self.few_shot_k)

    @classmethod
    def create(
        cls,
        dataset_path: str | Path,
        template_id: str,
        shot_labels: tuple[str, ...],
        model_id: str,
        decoding: DecodingConfig = DecodingConfig(),
        seed: int = 0,
        few_shot_k: int = MAX_FEW_SHOT,
    ) -> "RunManifest":
        # Imported here: only a new manifest reads the clock, and every command
        # and import that makes none would pay the start-up time for nothing.
        from datetime import datetime, timezone

        return cls(
            dataset_path=str(dataset_path),
            dataset_sha256=file_sha256(dataset_path),
            template_id=template_id,
            shot_labels=tuple(shot_labels),
            few_shot_k=few_shot_k,
            model_id=model_id,
            decoding=decoding,
            seed=seed,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    @property
    def shots(self) -> tuple[ShotSetting, ...]:
        return tuple(
            ShotSetting.from_label(label, self.few_shot_k) for label in self.shot_labels
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        # Every field is read before any is checked, so a KeyError names the first missing one.
        values = {f.name: data[f.name] for f in fields(cls)}
        decoding = typed(values, "decoding", "object")
        unknown = [name for name in decoding if name not in DecodingConfig.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r}")
        kinds = {"str": "string", "int": "integer", "float": "number"}  # annotations are strings
        return cls(
            **{f.name: typed(values, f.name, kinds[f.type]) for f in fields(cls) if f.type in kinds},
            shot_labels=tuple(typed_array(values, "shot_labels", "string")),
            decoding=DecodingConfig(
                **{f.name: typed(decoding, f.name, kinds[f.type]) for f in fields(DecodingConfig)}
            ),
        )


def manifest_path_for(outputs_path: str | Path) -> Path:
    outputs_path = Path(outputs_path)
    return outputs_path.with_name(outputs_path.stem + ".manifest.json")


def read_manifest(outputs_path: str | Path) -> RunManifest | None:
    """The manifest kept next to an outputs file, or None if there is none."""
    manifest_file = manifest_path_for(outputs_path)
    if not manifest_file.exists():
        return None
    return read_json_object(manifest_file, CorruptManifestError, RunManifest.from_dict)


def write_manifest(manifest: RunManifest, outputs_path: str | Path) -> None:
    """Write ``manifest`` next to an outputs file, a relative dataset path made
    relative to the manifest's folder so that it resolves from any directory."""
    manifest_file = manifest_path_for(outputs_path)
    written = manifest.to_dict()
    if not Path(manifest.dataset_path).is_absolute():
        written["dataset_path"] = os.path.relpath(manifest.dataset_path, manifest_file.parent)
    text = json.dumps(written, ensure_ascii=False, indent=2)
    manifest_file.write_text(text + "\n", encoding="utf-8")


def find_corpus(outputs_path: str | Path, manifest: RunManifest) -> Path:
    """The corpus named by ``manifest``, the manifest of ``outputs_path``.

    A relative path is read from the manifest's folder, then, as older runs
    wrote it, from the current directory; the first candidate with the run's
    hash is the corpus.  If none has it, ManifestMismatchError.
    """
    manifest_file = manifest_path_for(outputs_path)
    recorded = Path(manifest.dataset_path)
    candidates = list(dict.fromkeys([manifest_file.parent / recorded, recorded]))
    found = [path for path in candidates if path.is_file()]
    for path in found:
        if file_sha256(path) == manifest.dataset_sha256:
            return path
    path, fault = (found[0], "changed since the run") if found else (candidates[0], "is missing")
    raise ManifestMismatchError(
        f"{manifest_file}: dataset file {path} {fault}; pass --gold to name the gold corpus"
    )


def differing_fields(existing: RunManifest, manifest: RunManifest) -> list[str]:
    """The fields that keep a run made as ``manifest`` from resuming one made as ``existing``.

    The dataset is compared by hash, the timestamp not at all, and
    ``few_shot_k`` only when either has an ``fs`` shot.
    """
    ignored = {"dataset_path", "timestamp"}
    if "fs" not in existing.shot_labels + manifest.shot_labels:
        ignored.add("few_shot_k")
    return [
        f.name
        for f in fields(RunManifest)
        if f.name not in ignored and getattr(existing, f.name) != getattr(manifest, f.name)
    ]


class OutputsLine(NamedTuple):
    """One line of an outputs file: the completion of one (record, shot) pair."""

    record_id: str
    shot: str
    prompt_digest: str
    response_text: str

    def encode(self) -> bytes:
        """The line as written to an outputs file: UTF-8 JSON, non-ASCII kept, then a newline,
        each value through the string encoder of ``json.dumps(..., ensure_ascii=False)``."""
        return (_LINE % tuple(map(encode_basestring, self))).encode("utf-8")

    @classmethod
    def from_dict(cls, data: dict) -> "OutputsLine":
        # Field by field, each looked up and type-checked before the next, so the
        # first missing or mistyped field is the one named.
        line = cls._make([typed(data, name, "string") for name in cls._fields])
        if line.shot not in SHOT_LABELS:
            ShotSetting.from_label(line.shot)  # raises, naming the label
        return line


# '{"record_id": %s, "shot": %s, "prompt_digest": %s, "response_text": %s}\n'
_LINE = "{" + ", ".join(f'"{name}": %s' for name in OutputsLine._fields) + "}\n"


def parse_outputs(lines: Iterable[bytes]) -> dict[tuple[str, str], tuple[int, OutputsLine]]:
    """{(record_id, shot): (line number, line)} of outputs lines, in order.

    Blank lines are skipped.  The first line that is not a UTF-8 JSON object
    with string ``record_id``, ``shot``, ``prompt_digest`` and
    ``response_text``, whose shot is not ``0s``, ``1s`` or ``fs``, or that
    repeats a (record, shot) pair, raises CorruptOutputsError.
    """
    rows: dict[tuple[str, str], tuple[int, OutputsLine]] = {}
    for line_number, line in json_lines(lines, CorruptOutputsError, OutputsLine.from_dict):
        pair = line.record_id, line.shot
        if pair in rows:
            raise CorruptOutputsError(
                f"duplicate row for record {line.record_id!r}, shot {line.shot!r}", line_number
            )
        rows[pair] = line_number, line
    return rows


def read_lines(outputs_path: str | Path) -> tuple[list[bytes], bytes]:
    """The lines of an outputs file less a torn last line, and that line (or b"").

    A run killed mid-write leaves an unterminated fragment as the last line.
    An unterminated last line that is not UTF-8 JSON is such a fragment; one
    that is JSON is read like any other line.
    """
    with open(outputs_path, "rb") as handle:
        lines = handle.readlines()
    if lines and not lines[-1].endswith(b"\n"):
        try:
            json.loads(lines[-1].decode("utf-8"))
        except ValueError:  # UnicodeDecodeError is one too
            torn = lines.pop()
            return lines, torn
    return lines, b""


def read_outputs(outputs_path: str | Path) -> dict[tuple[str, str], tuple[int, OutputsLine]]:
    """``parse_outputs`` of an outputs file, less a torn last line (``read_lines``)."""
    return parse_outputs(read_lines(outputs_path)[0])


def end_outputs(outputs_path: Path, torn: bytes) -> None:
    """Cut the torn last line ``torn`` off the outputs file, if there is one, and
    end its last line with a newline, so appended lines join neither."""
    if not outputs_path.exists():
        return
    with open(outputs_path, "rb+") as handle:
        end = handle.seek(0, os.SEEK_END) - len(torn)
        handle.truncate(end)
        handle.seek(max(end - 1, 0))
        if handle.read(1) not in (b"", b"\n"):
            handle.write(b"\n")
