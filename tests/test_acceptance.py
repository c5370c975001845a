"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The shipped reference baseline rows are not reproducible on a desk
(they came from hosted third-party models), so the gate is property- and
oracle-based, plus format checks on the report and the prompts.
"""

import random
import string
import tempfile
import time
from pathlib import Path

import pytest

from pref2constraint.constraints import (
    All,
    Binary,
    Constraint,
    Degrees,
    From,
    Range,
    TimePoint,
    Until,
    Variable,
    canonicalize,
    parse_constraint,
    render_constraint,
)
from pref2constraint.dataset import load_pilot_corpus, pilot_corpus_path
from pref2constraint.grounding import ConflictError, GroundedAssignment, Horizon, ground
from pref2constraint.llm import MockBackend, run_experiment
from pref2constraint.metrics import (
    acc_conditions,
    acc_variables,
    chrf,
    evaluate_run,
    render_table,
    reports_to_json,
)
from pref2constraint.prompting import PromptSpec, ShotSetting, build_prompt, get_template, select_examples
from pref2constraint.runfile import RunManifest
from pref2constraint.scheduler import Appliance, InfeasibleError, ScheduleProblem, solve

from oracles import chrf_oracle, ground_oracle, schedule_oracle
from reference_rows import REFERENCE_BASELINE_ROWS

GOLDEN_DIR = Path(__file__).parent / "goldens"
MOCK_FIXTURES = (
    Path(__file__).parents[1]
    / "src"
    / "pref2constraint"
    / "resources"
    / "mock"
    / "mock_responses.json"
)


def announce(criterion: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE PASS: {criterion} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{criterion}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"


def random_ast(rng: random.Random) -> Constraint:
    kind = rng.choice(["all", "range", "from", "until"])
    if kind == "all":
        condition = All()
    elif kind == "range":
        start = rng.randrange(0, 1440)
        condition = Range(TimePoint(start), TimePoint(rng.randrange(start + 1, 1441)))
    elif kind == "from":
        condition = From(TimePoint(rng.randrange(0, 1441)))
    else:
        condition = Until(TimePoint(rng.randrange(0, 1441)))
    if rng.random() < 0.6:
        return Constraint(Variable.STATE, Binary(rng.randrange(2)), condition)
    return Constraint(
        Variable.TEMPERATURE, Degrees(rng.randrange(100, 601) / 10), condition
    )


def test_parser_round_trip_criterion():
    started = time.perf_counter()
    rng = random.Random(1)
    for _ in range(1000):
        ast = random_ast(rng)
        assert parse_constraint(render_constraint(ast)) == ast
    for record in load_pilot_corpus():
        for text in record.constraint_texts:
            once = canonicalize(text)
            assert canonicalize(once) == once
    announce("parser round-trip and gold canonicalize idempotence", time.perf_counter() - started, 5.0)


def test_chrf_oracle_equivalence_criterion():
    started = time.perf_counter()
    rng = random.Random(2)
    alphabet = string.ascii_lowercase + "∀≤≥=_: "
    pairs_checked = 0
    while pairs_checked < 50:
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 40)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 40)))
        if not a.strip() or not b.strip():
            continue
        assert abs(chrf(a, b) - chrf_oracle(a, b)) < 1e-9
        pairs_checked += 1
    for _ in range(100):
        x = "".join(rng.choice("abcdefg") for _ in range(rng.randrange(1, 25)))
        assert chrf(x, x) == pytest.approx(100.0)
        disjoint = "".join(rng.choice("uvwxyz") for _ in range(rng.randrange(1, 25)))
        assert chrf(x, disjoint) == 0.0
    announce("chrf matches the brute-force oracle", time.perf_counter() - started, 5.0)


def test_accuracy_identities_criterion():
    from pref2constraint.dataset import GoldRecord

    def make_record(record_id, *texts):
        constraints = tuple(parse_constraint(t) for t in texts)
        return GoldRecord(record_id, record_id, (), constraints, tuple(texts))

    gold = [
        make_record("u1", "s_t = 1 ∀ 07:00 ≤ t ≤ 08:30", "h_t = 21 ∀ t"),
        make_record("u2", "s_t = 0 ∀ t ≤ 06:00"),
    ]
    perfect = {r.id: list(r.constraints) for r in gold}
    assert acc_variables(gold, perfect) == 1.0
    assert acc_conditions(gold, perfect) == 1.0

    partial = {
        "u1": [parse_constraint("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30")],
        "u2": [parse_constraint("s_t = 0 ∀ t ≤ 06:00")],
    }
    assert acc_variables(gold, partial) == 0.75  # (0.5 + 1.0) / 2, exact

    for row in REFERENCE_BASELINE_ROWS:
        expected = (row.acc_variables + row.acc_conditions) / 2
        # 5e-5 published-rounding tolerance, plus float-representation guard
        assert abs(expected - row.acc_avg) <= 5e-5 + 1e-12, row
    print("ACCEPTANCE PASS: accuracy identities (perfect run, hand case, stored baselines)")


def test_grounding_oracle_criterion():
    started = time.perf_counter()
    rng = random.Random(3)
    for _ in range(200):
        constraints = [random_ast(rng) for _ in range(rng.randrange(0, 5))]
        slot_minutes = rng.choice([30, 15])  # 48- and 96-slot horizons
        state, temperature, conflicts = ground_oracle(constraints, slot_minutes)
        if conflicts:
            with pytest.raises(ConflictError) as excinfo:
                ground(constraints, Horizon(slot_minutes))
            got = [(c.slot, c.variable) for c in excinfo.value.conflicts]
            assert got == conflicts
        else:
            assignment = ground(constraints, Horizon(slot_minutes))
            assert assignment.state == state
            assert assignment.temperature == temperature
    morning = ground([parse_constraint("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30")], Horizon(30))
    assert morning.forced_state_slots(1) == {14, 15, 16}
    announce("grounding matches per-slot containment oracle", time.perf_counter() - started, 10.0)


def test_scheduler_optimality_criterion():
    started = time.perf_counter()
    rng = random.Random(4)
    solved = 0
    for _ in range(100):
        slot_minutes = rng.choice([30, 60])  # 48- and 24-slot days
        horizon = Horizon(slot_minutes)
        n = horizon.num_slots
        forced = GroundedAssignment(horizon)
        for _ in range(rng.randrange(0, 4)):
            forced.state[rng.randrange(n)] = rng.randrange(2)
        problem = ScheduleProblem(
            horizon=horizon,
            pv=tuple(round(rng.uniform(0, 3), 3) for _ in range(n)),
            base_load=tuple(round(rng.uniform(0, 1), 3) for _ in range(n)),
            appliance=Appliance(
                power_kw=round(rng.uniform(0.5, 5.0), 2),
                duration_slots=rng.randrange(1, 7),
                contiguous=True,
            ),
            forced=forced,
        )
        expected = schedule_oracle(problem)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve(problem)
            continue
        schedule = solve(problem)
        assert sorted(schedule.on_slots) == expected[0]
        assert schedule.self_consumption_kwh == pytest.approx(expected[1], abs=1e-9)
        for slot, value in enumerate(problem.forced.state):
            if value == 1:
                assert slot in schedule.on_slots
            if value == 0:
                assert slot not in schedule.on_slots
        solved += 1
    assert solved >= 50
    announce("scheduler matches full enumeration", time.perf_counter() - started, 30.0)


def test_end_to_end_determinism_criterion():
    started = time.perf_counter()
    records = load_pilot_corpus()
    assert len(records) == 26
    manifest = RunManifest.create(
        dataset_path=pilot_corpus_path(),
        template_id="it",
        shot_labels=("0s", "1s", "fs"),
        model_id="mock-model",
        seed=0,
    )
    backend = MockBackend.from_file(MOCK_FIXTURES)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = Path(tmp) / "run.jsonl"
        summary = run_experiment(manifest, records, backend, outputs)
        assert summary.completed == 78 and not summary.failures
        assert len(outputs.read_text("utf-8").splitlines()) == 78
        reports = evaluate_run(outputs, records)
        pooled = evaluate_run(outputs, records, corpus_chrf=True)
    for name, got in (("eval_report", reports), ("eval_report_corpus_chrf", pooled)):
        golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert reports_to_json(got) == golden, f"{name} drifted from its golden file"

    table = render_table(reports)
    assert table.splitlines()[0].split() == [
        "prompt", "ChrF", "Acc_Variables", "Acc_Conditions", "Acc_Avg",
    ]
    announce("end-to-end mock run is byte-deterministic", time.perf_counter() - started, 10.0)


def test_prompt_golden_files_criterion():
    records = load_pilot_corpus()
    target = next(r for r in records if r.id == "u01")
    template = get_template("it")
    for label, expected_blocks in (("0s", 0), ("1s", 1), ("fs", 5)):
        shot = ShotSetting.from_label(label)
        example_ids = tuple(select_examples(records, target.id, shot.n_examples, 0))
        prompt = build_prompt(PromptSpec("it", shot, example_ids, target), records)
        golden = (GOLDEN_DIR / f"prompt_{label}.txt").read_text(encoding="utf-8")
        assert prompt == golden, f"{label} prompt drifted from its golden file"
        markers = [m for m in template.section_markers if m in prompt]
        expected_markers = [
            m
            for m in template.section_markers
            if m != template.examples_header or expected_blocks > 0
        ]
        assert markers == expected_markers
        positions = [prompt.index(m) for m in markers]
        assert positions == sorted(positions)
        assert prompt.count(template.example_label) == expected_blocks + 1
    print("ACCEPTANCE PASS: prompt golden files, section order, example counts")
