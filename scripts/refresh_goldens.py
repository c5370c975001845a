#!/usr/bin/env python3
"""Regenerate the golden files under tests/goldens/ through the commands they pin.

Every golden is made by ``pref2constraint.cli.main`` with each setting at
the command's default: the three prompt goldens (zero/one/few-shot for
target u01) by ``prompt --json``, and the two evaluation reports of the
mock-backend run over the shipped pilot corpus, mean per-utterance chrF
(``eval_report.json``) and pooled chrF (``eval_report_corpus_chrf.json``),
by ``run`` then ``eval --report``.  For each committed scheduling problem
``problem_<name>.json`` it writes ``schedule --problem P --json`` to
``schedule_<name>.json`` and one ``check-functional ... --json`` to
``check_functional_<name>.json``: ``readme`` is the README's contiguous example,
``ties`` a non-contiguous day with one slot forced on where more free slots tie
at the top gain than the appliance needs.  Rerun after any deliberate change to
templates, corpus, fixtures, scheduler, or report format, and review the diff
before committing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pref2constraint.cli import main as cli  # noqa: E402
from pref2constraint.prompting import SHOT_LABELS  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "goldens"
# The gold and generated constraints each problem's check-functional golden is run with.
FUNCTIONAL_CHECKS = {
    "readme": (["s_t = 1 ∀ 12:00 ≤ t ≤ 14:00"], ["s_t = 1 ∀ 12:00 ≤ t ≤ 14:00"]),
    "ties": (["s_t = 1 ∀ 09:00 ≤ t ≤ 10:00"], ["s_t = 0 ∀ t ≥ 15:00"]),
}


def run_cli(*argv: str) -> str:
    """The standard output of one command, which must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli(list(argv))
    if code:
        sys.exit(f"pref2constraint {' '.join(argv)} exited {code}")
    return out.getvalue()


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for shot in SHOT_LABELS:
        out = GOLDEN_DIR / f"prompt_{shot}.txt"
        printed = run_cli("prompt", "--target-id", "u01", "--shot", shot, "--json")
        out.write_text(json.loads(printed)["prompt"], encoding="utf-8")
        print(f"wrote {out}")
    with tempfile.TemporaryDirectory() as tmp:
        outputs = str(Path(tmp) / "run.jsonl")
        if json.loads(run_cli("run", "--out", outputs, "--json"))["failed"]:
            sys.exit("the mock run failed items; see stderr")
        for name, flags in (("eval_report", ()), ("eval_report_corpus_chrf", ("--corpus-chrf",))):
            out = GOLDEN_DIR / f"{name}.json"
            run_cli("eval", "--outputs", outputs, "--report", str(out), *flags)
            print(f"wrote {out}")
    for name, (gold, generated) in FUNCTIONAL_CHECKS.items():
        problem = str(GOLDEN_DIR / f"problem_{name}.json")
        for out, argv in (
            (f"schedule_{name}.json", ("schedule", "--problem", problem)),
            (
                f"check_functional_{name}.json",
                ("check-functional", "--problem", problem, "--gold", *gold, "--generated", *generated),
            ),
        ):
            (GOLDEN_DIR / out).write_text(run_cli(*argv, "--json"), encoding="utf-8")
            print(f"wrote {GOLDEN_DIR / out}")


if __name__ == "__main__":
    main()
