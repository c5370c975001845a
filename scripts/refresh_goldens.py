#!/usr/bin/env python3
"""Regenerate the golden files under tests/goldens/.

Covers the three prompt goldens (zero/one/few-shot for target u01, seed 0,
Italian template) and the two end-to-end evaluation reports of the
mock-backend run over the shipped pilot corpus: mean per-utterance chrF
(``eval_report.json``) and pooled chrF (``eval_report_corpus_chrf.json``).
Rerun after any deliberate change to templates, corpus, fixtures, or report
format, and review the diff before committing.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pref2constraint.dataset import load_pilot_corpus, mock_fixtures_path, pilot_corpus_path  # noqa: E402
from pref2constraint.llm import MockBackend, run_experiment  # noqa: E402
from pref2constraint.metrics import evaluate_run, reports_to_json  # noqa: E402
from pref2constraint.prompting import SHOT_LABELS, ExamplePool, PromptSpec, ShotSetting, build_prompt  # noqa: E402
from pref2constraint.runfile import RunManifest  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "goldens"

TARGET_ID = "u01"
SEED = 0
TEMPLATE_ID = "it"


def refresh_prompts() -> None:
    pool = ExamplePool(load_pilot_corpus(), SEED)
    target = pool.records[TARGET_ID]
    for shot in map(ShotSetting.from_label, SHOT_LABELS):
        example_ids = tuple(pool.select(TARGET_ID, shot.n_examples))
        chosen = [pool.records[example_id] for example_id in example_ids]
        prompt = build_prompt(PromptSpec(TEMPLATE_ID, shot, example_ids, target), chosen)
        out = GOLDEN_DIR / f"prompt_{shot.label}.txt"
        out.write_text(prompt, encoding="utf-8")
        print(f"wrote {out}")


def refresh_eval_report() -> None:
    records = load_pilot_corpus()
    manifest = RunManifest.create(
        dataset_path=pilot_corpus_path(),
        template_id=TEMPLATE_ID,
        shot_labels=SHOT_LABELS,
        model_id="mock-model",
        seed=SEED,
    )
    backend = MockBackend.from_file(mock_fixtures_path())
    with tempfile.TemporaryDirectory() as tmp:
        outputs = Path(tmp) / "run.jsonl"
        summary = run_experiment(manifest, records, backend, outputs)
        assert not summary.failures, summary.failures
        for name, corpus_chrf in (("eval_report", False), ("eval_report_corpus_chrf", True)):
            reports = evaluate_run(outputs, records, corpus_chrf=corpus_chrf)
            out = GOLDEN_DIR / f"{name}.json"
            out.write_text(reports_to_json(reports), encoding="utf-8")
            print(f"wrote {out}")


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    refresh_prompts()
    refresh_eval_report()


if __name__ == "__main__":
    main()
