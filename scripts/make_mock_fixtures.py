#!/usr/bin/env python3
"""Regenerate the mock backend fixtures for the shipped pilot corpus.

For every (record, shot) prompt of the default run configuration this
synthesizes a plausible model response — exact, sloppily formatted,
prose-wrapped, wrong, truncated, or refusing — chosen deterministically
from a hash of (record id, shot), with better odds of good answers at
higher shot counts.  The resulting digest→response map is what makes the
default pipeline runnable offline and byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pref2constraint.constraints import (  # noqa: E402
    All,
    Binary,
    Constraint,
    Degrees,
    From,
    Range,
    TimePoint,
    Until,
    render_constraint,
)
from pref2constraint.dataset import GoldRecord, load_pilot_corpus, mock_fixtures_path  # noqa: E402
from pref2constraint.llm import prompt_digest  # noqa: E402
from pref2constraint.prompting import SHOT_LABELS, ExamplePool, PromptSpec, ShotSetting, build_prompt  # noqa: E402

OUT = mock_fixtures_path()

TEMPLATE_ID = "it"
SEED = 0
SHOTS = tuple(map(ShotSetting.from_label, SHOT_LABELS))


def _stable_int(*parts: str) -> int:
    return int.from_bytes(hashlib.sha256("|".join(parts).encode("utf-8")).digest()[:8], "big")


def _sloppy(constraint: Constraint) -> str:
    """Render with the informal spellings the models tend to produce."""

    def time(tp) -> str:
        hours, minutes = tp.minutes // 60, tp.minutes % 60
        return f"{hours},{minutes:02d}" if minutes else str(hours)

    condition = constraint.condition
    if isinstance(condition, All):
        cond = "t"
    elif isinstance(condition, Range):
        cond = f"{time(condition.start)} <= t <= {time(condition.end)}"
    elif isinstance(condition, From):
        cond = f"t >= {time(condition.start)}"
    else:
        cond = f"t <= {time(condition.end)}"
    value = (
        str(constraint.value.value)
        if isinstance(constraint.value, Binary)
        else constraint.value.render().replace(".", ",")
    )
    return f"{constraint.variable.value} = {value} forall {cond}"


def _wrong_value(constraint: Constraint) -> Constraint:
    if isinstance(constraint.value, Binary):
        return Constraint(
            constraint.variable, Binary(1 - constraint.value.value), constraint.condition
        )
    return Constraint(
        constraint.variable, Degrees(constraint.value.value + 2.0), constraint.condition
    )


def _wrong_condition(constraint: Constraint) -> Constraint:
    condition = constraint.condition
    if isinstance(condition, Range):
        changed = Range(condition.start, TimePoint(min(condition.end.minutes + 60, 1440)))
    elif isinstance(condition, From):
        changed = Until(condition.start)
    elif isinstance(condition, Until):
        changed = From(condition.end)
    else:
        changed = From(TimePoint(720))
    return Constraint(constraint.variable, constraint.value, changed)


def synthesize(record: GoldRecord, shot_label: str) -> str:
    gold = list(record.constraints)
    canonical = "\n".join(render_constraint(c) for c in gold)
    choices = {
        # weights: zero-shot is noisy, few-shot mostly clean
        "0s": ["noise", "noise", "prose", "wrong_condition", "wrong_value", "sloppy",
               "truncated", "wrong_condition", "noise", "prose"],
        "1s": ["exact", "sloppy", "prose", "wrong_condition", "truncated", "sloppy",
               "noise", "exact", "sloppy", "wrong_value"],
        "fs": ["exact", "exact", "exact", "sloppy", "exact", "prose", "exact",
               "sloppy", "truncated", "exact"],
    }[shot_label]
    kind = choices[_stable_int(record.id, shot_label) % len(choices)]

    if kind == "exact":
        return canonical
    if kind == "sloppy":
        return "\n".join(_sloppy(c) for c in gold)
    if kind == "prose":
        return f"Il vincolo richiesto è: {render_constraint(gold[0])}."
    if kind == "wrong_value":
        return "\n".join(render_constraint(_wrong_value(c)) for c in gold)
    if kind == "wrong_condition":
        return "\n".join(render_constraint(_wrong_condition(c)) for c in gold)
    if kind == "truncated":
        cut = max(10, int(len(canonical) * 0.6))
        return canonical[:cut]
    return "Mi dispiace, non sono in grado di generare vincoli per questa frase."


def main() -> None:
    records = load_pilot_corpus()
    pool = ExamplePool(records, SEED)
    fixtures: dict[str, str] = {}
    for record in records:
        for shot in SHOTS:
            example_ids = tuple(pool.select(record.id, shot.n_examples))
            chosen = [pool.records[example_id] for example_id in example_ids]
            prompt = build_prompt(PromptSpec(TEMPLATE_ID, shot, example_ids, record), chosen)
            fixtures[prompt_digest(prompt)] = synthesize(record, shot.label)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(
        json.dumps(fixtures, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(fixtures)} fixtures to {OUT}")


if __name__ == "__main__":
    main()
