"""Deterministic prompt construction for zero/one/few-shot runs.

A prompt always carries five sections in a fixed order: task introduction,
XML tag semantics, constraint format, optional in-context examples, and
the target utterance.  A template is one UTF-8 file, ``templates/<id>.txt``,
with ``{{examples}}`` and ``{{target}}`` placeholders; its labels and headings
are read from that text.  Prompts are byte-stable, pinned by golden files.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from .dataset import GoldRecord, resource_path
from .constraints import Constraint
from .errors import Pref2ConstraintError

MAX_FEW_SHOT = 5
SHOT_LABELS = ("0s", "1s", "fs")  # zero-, one- and few-shot, by example count
EXAMPLES, TARGET = "{{examples}}", "{{target}}"  # template placeholders


class PromptingError(Pref2ConstraintError):
    pass


class UnknownTemplateError(PromptingError):
    pass


class UnknownExampleError(PromptingError):
    pass


class LeakageError(PromptingError):
    """The target record shows up among the in-context examples."""


class InsufficientDataError(PromptingError):
    pass


@dataclass(frozen=True)
class ShotSetting:
    """Number of in-context examples: 0 (zero-shot), 1, or 2..5 (few-shot)."""

    n_examples: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_examples <= MAX_FEW_SHOT:
            raise PromptingError(
                f"n_examples must be between 0 and {MAX_FEW_SHOT}, got {self.n_examples}"
            )

    @property
    def label(self) -> str:
        return SHOT_LABELS[min(self.n_examples, 2)]

    @classmethod
    def from_label(cls, label: str, few_shot_k: int = MAX_FEW_SHOT) -> "ShotSetting":
        if label not in SHOT_LABELS:
            expected = f"{', '.join(SHOT_LABELS[:-1])} or {SHOT_LABELS[-1]}"
            raise PromptingError(f"unknown shot label {label!r} (expected {expected})")
        if label != "fs":
            return cls(SHOT_LABELS.index(label))
        if not 2 <= few_shot_k <= MAX_FEW_SHOT:
            raise PromptingError(f"few-shot k must be in 2..{MAX_FEW_SHOT}, got {few_shot_k}")
        return cls(few_shot_k)


@dataclass(frozen=True)
class PromptTemplate:
    text: str
    example_label: str  # text before " {{target}}" on its line
    constraints_label: str  # the line after the target line
    examples_header: str  # the line above "{{examples}}"
    section_markers: tuple[str, ...]  # the "## " lines, in file order
    pieces: tuple[tuple[str, ...], ...]  # split at each "{{target}}", then at "{{examples}}"
    zero_shot_pieces: tuple[str, ...]  # the same, less "<examples_header>\n{{examples}}\n\n"


DEFAULT_TEMPLATE_ID = "it"


@dataclass(frozen=True)
class PromptSpec:
    template_id: str
    shot: ShotSetting
    example_ids: tuple[str, ...]
    target: GoldRecord

    def __post_init__(self) -> None:
        if len(self.example_ids) != self.shot.n_examples:
            raise PromptingError(
                f"{self.shot.label} prompt needs {self.shot.n_examples} example id(s), "
                f"got {len(self.example_ids)}"
            )
        if self.target.id in self.example_ids:
            raise LeakageError(f"target record {self.target.id!r} listed among examples")


@functools.cache
def get_template(template_id: str) -> PromptTemplate:
    """The template ``templates/<template_id>.txt``, read once."""
    files = {path.stem: path for path in resource_path("templates").glob("*.txt")}
    if template_id not in files:
        raise UnknownTemplateError(f"unknown template {template_id!r}; available: {sorted(files)}")
    text = files[template_id].read_text(encoding="utf-8")
    lines = text.split("\n")
    target = next(i for i, line in enumerate(lines) if line.endswith(f" {TARGET}"))
    examples_header = lines[lines.index(EXAMPLES) - 1]
    pieces = text.split(TARGET)
    return PromptTemplate(
        text=text,
        example_label=lines[target].removesuffix(f" {TARGET}"),
        constraints_label=lines[target + 1],
        examples_header=examples_header,
        section_markers=tuple(line for line in lines if line.startswith("## ")),
        pieces=tuple(tuple(piece.split(EXAMPLES)) for piece in pieces),
        zero_shot_pieces=tuple(p.replace(f"{examples_header}\n{EXAMPLES}\n\n", "") for p in pieces),
    )


def build_prompt(spec: PromptSpec, dataset: list[GoldRecord]) -> str:
    """Assemble the prompt for a spec; identical inputs give identical bytes.

    Each record renders its tagged utterance and canonical gold constraints
    once (``GoldRecord.tagged``, ``GoldRecord.canonical``), so later prompts
    that show it reuse them.  The template was split at its placeholders when read,
    so only its text is searched: an utterance holding a placeholder goes in as written.
    """
    template = get_template(spec.template_id)
    by_id = {record.id: record for record in dataset}
    blocks = []
    for example_id in spec.example_ids:
        if example_id not in by_id:
            raise UnknownExampleError(f"example id {example_id!r} not in dataset")
        example = by_id[example_id]
        head = f"{template.example_label} {example.tagged}\n{template.constraints_label}"
        blocks.append("\n".join((head, *example.canonical)))
    if not blocks:
        return spec.target.tagged.join(template.zero_shot_pieces)
    examples = "\n\n".join(blocks)
    return spec.target.tagged.join([examples.join(parts) for parts in template.pieces])


class ExamplePool:
    """In-context example selection over one dataset and seed.

    Built once per run: it indexes records by id (``records``) and record
    ids by gold constraint, so each constraint is hashed once, not once per
    (target, candidate) pair.  Record ids must be unique: a repeated id
    raises ``PromptingError``.

    ``select(target_id, k)`` picks k example ids, never the target,
    deterministically from the seed.  Records sharing a gold constraint
    with the target are skipped too, so no example block ever spells out
    the target's own answer.  Each target draws from its own stream: draw
    d takes the SHA-256 of "seed:target id:d", reads its first 8 bytes as
    a big-endian integer and uses it, modulo the record count, as an index
    into the sorted record ids.  A draw that hits the target, a record
    sharing a gold constraint with it or an id already chosen is skipped,
    and drawing stops at k.  So the choice is a uniform ordered sample
    without replacement (up to a modulo bias of at most N / 2**64 for N
    records), stable across platforms, Python versions and record order,
    and it costs about k hashes per target.  The stream ignores k, so
    ``select(target_id, k)[:j] == select(target_id, j)`` for every j <= k.
    """

    def __init__(self, dataset: list[GoldRecord], seed: int):
        self.records: dict[str, GoldRecord] = {}
        self._seed = seed
        self._holders: dict[Constraint, set[str]] = {}  # gold constraint -> record ids
        for record in dataset:
            if record.id in self.records:
                raise PromptingError(f"duplicate record id {record.id!r}")
            self.records[record.id] = record
            for constraint in record.constraints:
                self._holders.setdefault(constraint, set()).add(record.id)
        self._ids = sorted(self.records)

    def select(self, target_id: str, k: int) -> list[str]:
        if k < 0:
            raise PromptingError(f"k must be >= 0, got {k}")
        target = self.records.get(target_id)
        # Left out: the target and every holder of one of its gold constraints.
        holders = [self._holders[c] for c in target.constraints] if target is not None else []
        # Their count is at most 1 + the holder counts; it is counted only when that bound
        # leaves fewer than k, so a target costs O(k), not O(records left out).
        if k > len(self.records) - 1 - sum(map(len, holders)):
            available = len(self.records) - len({target_id}.union(*holders) & self.records.keys())
            if k > available:
                raise InsufficientDataError(
                    f"need {k} examples but only {available} records are available "
                    f"besides the target"
                )
        # k <= available, so the loop ends: each draw can hit any id still free.
        chosen: list[str] = []
        draw = 0
        while len(chosen) < k:
            digest = hashlib.sha256(f"{self._seed}:{target_id}:{draw}".encode("utf-8")).digest()
            candidate = self._ids[int.from_bytes(digest[:8], "big") % len(self._ids)]
            if not (
                candidate == target_id
                or candidate in chosen
                or any(candidate in holder_ids for holder_ids in holders)
            ):
                chosen.append(candidate)
            draw += 1
        return chosen


def select_examples(
    dataset: list[GoldRecord], target_id: str, k: int, seed: int
) -> list[str]:
    """Pick k example ids for one target; see ``ExamplePool`` for the rule.

    This builds the index for a single call.  A caller that selects for
    many targets builds one ``ExamplePool`` and calls ``select`` on it, as
    every caller in the package and its scripts does.  Only the benchmark
    (``perfbench``) still needs it: it imports this function, and traces
    its re-export ``llm.select_examples`` by name.
    """
    return ExamplePool(dataset, seed).select(target_id, k)
