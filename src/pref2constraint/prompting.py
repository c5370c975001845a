"""Deterministic prompt construction for zero/one/few-shot runs.

A prompt always carries five sections in a fixed order: task introduction,
XML tag semantics, constraint format, optional in-context examples, and
the target utterance.  Templates are UTF-8 text files with ``{{examples}}``
and ``{{target}}`` placeholders; each template fixes its own example labels
so prompts are byte-stable and easy to pin in golden-file tests.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
from dataclasses import dataclass

from .dataset import GoldRecord, resource_path, tag_utterance
from .constraints import Constraint, render_constraint
from .errors import Pref2ConstraintError

MAX_FEW_SHOT = 5


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
        if self.n_examples == 0:
            return "0s"
        if self.n_examples == 1:
            return "1s"
        return "fs"

    @classmethod
    def zero_shot(cls) -> "ShotSetting":
        return cls(0)

    @classmethod
    def one_shot(cls) -> "ShotSetting":
        return cls(1)

    @classmethod
    def few_shot(cls, k: int = MAX_FEW_SHOT) -> "ShotSetting":
        if not 2 <= k <= MAX_FEW_SHOT:
            raise PromptingError(f"few-shot k must be in 2..{MAX_FEW_SHOT}, got {k}")
        return cls(k)

    @classmethod
    def from_label(cls, label: str, few_shot_k: int = MAX_FEW_SHOT) -> "ShotSetting":
        if label == "0s":
            return cls.zero_shot()
        if label == "1s":
            return cls.one_shot()
        if label == "fs":
            return cls.few_shot(few_shot_k)
        raise PromptingError(f"unknown shot label {label!r} (expected 0s, 1s or fs)")


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    resource: str
    example_label: str
    constraints_label: str
    examples_header: str
    section_markers: tuple[str, str, str, str, str]


TEMPLATES: dict[str, PromptTemplate] = {
    "it": PromptTemplate(
        template_id="it",
        resource="it.txt",
        example_label="Frase:",
        constraints_label="Vincoli:",
        examples_header="## Esempi",
        section_markers=(
            "## Compito",
            "## Etichette XML",
            "## Formato dei vincoli",
            "## Esempi",
            "## Frase da convertire",
        ),
    ),
    "en": PromptTemplate(
        template_id="en",
        resource="en.txt",
        example_label="Sentence:",
        constraints_label="Constraints:",
        examples_header="## Examples",
        section_markers=(
            "## Task",
            "## XML tags",
            "## Constraint format",
            "## Examples",
            "## Sentence to convert",
        ),
    ),
}

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


def get_template(template_id: str) -> PromptTemplate:
    try:
        return TEMPLATES[template_id]
    except KeyError:
        raise UnknownTemplateError(
            f"unknown template {template_id!r}; available: {sorted(TEMPLATES)}"
        ) from None


@functools.cache
def _template_text(template: PromptTemplate) -> str:
    return resource_path("templates", template.resource).read_text(encoding="utf-8")


def _example_block(template: PromptTemplate, record: GoldRecord) -> str:
    lines = [f"{template.example_label} {tag_utterance(record)}", template.constraints_label]
    lines.extend(render_constraint(c) for c in record.constraints)
    return "\n".join(lines)


def build_prompt(spec: PromptSpec, dataset: list[GoldRecord]) -> str:
    """Assemble the prompt for a spec; identical inputs give identical bytes."""
    template = get_template(spec.template_id)
    by_id = {record.id: record for record in dataset}
    examples = []
    for example_id in spec.example_ids:
        if example_id not in by_id:
            raise UnknownExampleError(f"example id {example_id!r} not in dataset")
        examples.append(by_id[example_id])
    if examples:
        blocks = "\n\n".join(_example_block(template, r) for r in examples)
        examples_section = f"{template.examples_header}\n{blocks}\n\n"
    else:
        examples_section = ""
    text = _template_text(template)
    text = text.replace("{{examples}}", examples_section)
    text = text.replace("{{target}}", tag_utterance(spec.target))
    return text


class ExamplePool:
    """In-context example selection over one dataset and seed.

    Built once per run: it indexes record positions by id and by gold
    constraint, so each constraint is hashed once, not once per (target,
    candidate) pair.  Positions, not ids, are indexed so that a list with a
    repeated id is still judged record by record.

    ``select(target_id, k)`` picks k example ids, never the target,
    deterministically from the seed.  Records sharing a gold constraint
    with the target are skipped too, so no example block ever spells out
    the target's own answer.  Candidates are ranked by the
    SHA-256 of "seed:target id:candidate id", which keeps the choice stable
    across platforms and Python versions.  The rank ignores k, so
    ``select(target_id, k)[:j] == select(target_id, j)`` for every j <= k.
    """

    def __init__(self, dataset: list[GoldRecord], seed: int):
        self._records = list(dataset)
        self._seed = seed
        self._positions: dict[str, list[int]] = {}  # record id -> positions holding it
        self._holders: dict[Constraint, list[int]] = {}  # gold constraint -> positions
        for position, record in enumerate(self._records):
            self._positions.setdefault(record.id, []).append(position)
            for constraint in record.constraints:
                self._holders.setdefault(constraint, []).append(position)

    def select(self, target_id: str, k: int) -> list[str]:
        if k < 0:
            raise PromptingError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        positions = self._positions.get(target_id, [])
        taboo = set(positions)
        if positions:  # the first record with the id is the target
            for constraint in self._records[positions[0]].constraints:
                taboo.update(self._holders[constraint])
        candidates = [
            record.id for position, record in enumerate(self._records) if position not in taboo
        ]
        if k > len(candidates):
            raise InsufficientDataError(
                f"need {k} examples but only {len(candidates)} records are available "
                f"besides the target"
            )
        prefix = hashlib.sha256(f"{self._seed}:{target_id}:".encode("utf-8"))

        def rank(candidate_id: str) -> bytes:
            digest = prefix.copy()
            digest.update(candidate_id.encode("utf-8"))
            return digest.digest()  # orders like the hex digest

        return heapq.nsmallest(k, candidates, key=rank)


def select_examples(
    dataset: list[GoldRecord], target_id: str, k: int, seed: int
) -> list[str]:
    """Pick k example ids for one target; see ``ExamplePool`` for the rule.

    This builds the index for a single call.  A caller that selects for
    many targets builds one ``ExamplePool`` and calls ``select`` on it.
    """
    return ExamplePool(dataset, seed).select(target_id, k)
