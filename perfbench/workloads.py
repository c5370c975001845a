"""Inputs, timed passes and output checks of the three benchmark workloads.

Every input is generated here from the workload seed and the shipped pilot
fixtures; the package only ever sees the generated files and objects.  The
traced layer functions are called through their module attributes
(``llm.run_experiment``, ``scheduler.check_functional``, ...) so that the
tracer can wrap them from outside the package.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from pref2constraint import dataset, llm, metrics, scheduler
from pref2constraint.constraints import extract_constraints
from pref2constraint.grounding import GroundedAssignment, Horizon
from pref2constraint.llm import (
    CompletionRequest,
    MockMissError,
    ModelResponse,
    RunManifest,
    manifest_path_for,
    prompt_digest,
)
from pref2constraint.prompting import (
    PromptSpec,
    ShotSetting,
    build_prompt,
    get_template,
    select_examples,
)

from hostclock import CALIBRATE_EVERY_S, host_seconds, reference_kernel

ROOT = Path(__file__).resolve().parents[1]
MOCK_FIXTURES = ROOT / "src" / "pref2constraint" / "resources" / "mock" / "mock_responses.json"
GOLDEN_REPORT = ROOT / "tests" / "goldens" / "eval_report.json"

SHOTS = ("0s", "1s", "fs")
TEMPLATE_ID = "it"
PILOT_SEED = 0  # the mock fixtures hold the prompts of seed 0
PILOT_MODEL = "mock-model"
REPLAY_MODEL = "replay-model"
# Load comes from one process with at most two threads: run_experiment's
# pool is the only one, and it never outnumbers the cores.
CONCURRENCY = max(1, min(2, os.cpu_count() or 1))

REPLICATED_COPIES = 20  # 26 * 20 = 520 records, 1560 (record, shot) items
RESCORE_COPIES = 38  # 26 * 38 * 3 = 2964 outputs lines

# kind -> (slot minutes, appliance run in slots, contiguous, problem-level
# forced window: none, 1-3 quiet hours off, or one slot on).  k >= 5 and
# 1-minute slots cost 0.4 s or more per call and are left out.  The windows
# stay with their kinds so that every seed has the same mix of cheap,
# forced calls; the median call is then the same kind of call for every seed.
FUNCTIONAL_KINDS = {
    "c15": (15, 8, True, 0),
    "c5": (5, 24, True, None),
    "n60k3": (60, 3, False, 1),
    "n60k4": (60, 4, False, None),
}


def kind_of(problem) -> str:
    spec = (
        problem.horizon.slot_minutes,
        problem.appliance.duration_slots,
        problem.appliance.contiguous,
    )
    for kind, kind_spec in FUNCTIONAL_KINDS.items():
        if kind_spec[:3] == spec:
            return kind
    return "other"


@dataclass
class Pilot:
    """The shipped corpus, its mock response per (record, shot) and the golden report."""

    records: list
    responses: dict[tuple[str, str], str]
    digests: dict[tuple[str, str], str]
    golden_text: str
    golden: dict[str, dict]

    @classmethod
    def load(cls) -> "Pilot":
        records = dataset.load_pilot_corpus()
        with open(MOCK_FIXTURES, encoding="utf-8") as handle:
            mock = json.load(handle)
        responses, digests = {}, {}
        for record in records:
            for label in SHOTS:
                shot = ShotSetting.from_label(label)
                example_ids = tuple(
                    select_examples(records, record.id, shot.n_examples, PILOT_SEED)
                )
                prompt = build_prompt(PromptSpec(TEMPLATE_ID, shot, example_ids, record), records)
                digests[record.id, label] = prompt_digest(prompt)
                responses[record.id, label] = mock[digests[record.id, label]]
        golden_text = GOLDEN_REPORT.read_text(encoding="utf-8")
        golden = {report["prompt"]: report for report in json.loads(golden_text)["reports"]}
        return cls(records, responses, digests, golden_text, golden)


class ReplayBackend:
    """Replays the pilot's mock response for a prompt's target utterance and shot.

    The key is (tagged target utterance, number of in-context examples), so
    every copy of a pilot record gets its source's response whatever
    examples the seed selected.  A missing key raises ``MockMissError``,
    which ``run_experiment`` records as a failed item.
    """

    name = "replay"

    def __init__(self, pilot: Pilot):
        template = get_template(TEMPLATE_ID)
        self._label = f"{template.example_label} "
        self._end = f"\n{template.constraints_label}"
        self._table = {
            (dataset.tag_utterance(record), ShotSetting.from_label(label).n_examples): (
                pilot.responses[record.id, label]
            )
            for record in pilot.records
            for label in SHOTS
        }

    def send(self, request: CompletionRequest) -> ModelResponse:
        prompt = request.prompt
        start = prompt.rfind(self._label)
        end = prompt.find(self._end, start)
        key = (prompt[start + len(self._label) : end], prompt.count(self._label) - 1)
        try:
            text = self._table[key]
        except KeyError:
            raise MockMissError(f"no replay entry for target {key[0]!r} with {key[1]} examples") from None
        return ModelResponse(text=text, latency_ms=0.0, backend=self.name)


def write_copies(pilot: Pilot, copies: int, path: Path) -> dict[str, str]:
    """Write the pilot corpus ``copies`` times under fresh ids; return copy id -> source id."""
    source = {}
    with open(path, "w", encoding="utf-8") as handle:
        for copy in range(copies):
            for record in pilot.records:
                copy_id = f"{record.id}-{copy:03d}"
                source[copy_id] = record.id
                handle.write(json.dumps(dict(record.to_dict(), id=copy_id), ensure_ascii=False) + "\n")
    return source


def check_reports(reports, source: dict[str, str], pilot: Pilot, model_id: str) -> list[str]:
    """Each shot scores every copy exactly as the golden report scores its source."""
    problems = []
    if sorted(report.shot for report in reports) != sorted(SHOTS):
        problems.append(f"report shots {[r.shot for r in reports]} != {list(SHOTS)}")
    for report in reports:
        got = report.to_dict()
        want = pilot.golden.get(report.shot)
        if want is None:
            continue
        if got["model_id"] != model_id:
            problems.append(f"{report.shot}: model_id {got['model_id']!r} != {model_id!r}")
        if got["n_utterances"] != len(source):
            problems.append(f"{report.shot}: n_utterances {got['n_utterances']} != {len(source)}")
        for key in ("chrf", "acc_variables", "acc_conditions", "acc_avg"):
            if got[key] != want[key]:
                problems.append(f"{report.shot}: {key} {got[key]} != golden {want[key]}")
        by_source = {row["record_id"]: row for row in want["per_utterance"]}
        for row in got["per_utterance"]:
            expected = by_source.get(source.get(row["record_id"]))
            if expected is None or dict(expected, record_id=row["record_id"]) != row:
                problems.append(f"{report.shot}: {row['record_id']} scored {row}, golden {expected}")
                break
    return problems


def check_pilot_golden(pilot: Pilot, workdir: Path) -> list[str]:
    """The shipped mock run and eval reproduce the golden report byte for byte."""
    outputs = workdir / "pilot.jsonl"
    manifest = RunManifest.create(
        dataset_path=dataset.pilot_corpus_path(),
        template_id=TEMPLATE_ID,
        shot_labels=SHOTS,
        model_id=PILOT_MODEL,
        seed=PILOT_SEED,
    )
    backend = llm.MockBackend.from_file(MOCK_FIXTURES)
    summary = llm.run_experiment(manifest, pilot.records, backend, outputs, concurrency=CONCURRENCY)
    text = metrics.reports_to_json(metrics.evaluate_run(outputs, pilot.records))
    problems = []
    if summary.completed != len(pilot.records) * len(SHOTS) or summary.failures:
        problems.append(f"pilot run: {summary.completed} completed, failures {summary.failures}")
    if text != pilot.golden_text:
        problems.append("pilot eval report differs from tests/goldens/eval_report.json")
    return problems


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Measurement:
    """Timed operations of one run, each a pass or one check_functional call.

    The reference kernel (see hostclock.py) runs before the first operation
    and then after every ``CALIBRATE_EVERY_S`` of operations.  An
    operation's host time uses the kernel runs just before and after it.

    Operations are grouped by input: a pass workload repeats one input, the
    functional workload cycles through its 312 calls.  An input's latency is
    the median of its repeats' host times, and the latency percentiles are
    taken over inputs, so on a pass workload p50 and p95 are both the median
    pass.
    """

    items_per_op: int
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    ops: list[tuple[int, float, int]] = field(default_factory=list)  # (input, wall s, kernel runs before)
    kernel_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    _uncalibrated_s: float = 0.0

    def __post_init__(self) -> None:
        self.kernel_s.append(reference_kernel())

    def add(self, index: int, seconds: float, attempted: int, failed: int) -> None:
        self.ops.append((index, seconds, len(self.kernel_s)))
        self.busy_s += seconds
        self.attempted += attempted
        self.failed += failed
        self._uncalibrated_s += seconds
        if self._uncalibrated_s >= CALIBRATE_EVERY_S:
            self.kernel_s.append(reference_kernel())
            self._uncalibrated_s = 0.0

    def by_input(self, host_time: bool = True) -> dict[int, list[float]]:
        grouped: dict[int, list[float]] = {}
        for index, seconds, runs in self.ops:
            if host_time:
                seconds = host_seconds(seconds, self.kernel_s[runs - 1 : runs + 1])
            grouped.setdefault(index, []).append(seconds)
        return grouped

    def latencies_s(self, host_time: bool = True) -> list[float]:
        """Each input's median latency."""
        return [statistics.median(samples) for samples in self.by_input(host_time).values()]

    def items_per_s(self, host_time: bool = True) -> float:
        medians = self.latencies_s(host_time)
        return len(medians) * self.items_per_op / sum(medians)

    def summary(self) -> dict:
        latencies_ms = [seconds * 1000 for seconds in self.latencies_s()]
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "items_per_s": self.items_per_s(),
            "latency_ms_p50": percentile(latencies_ms, 50),
            "latency_ms_p95": percentile(latencies_ms, 95),
            "latency_samples": len(latencies_ms),
            "ops": len(self.ops),
            "wall_items_per_s": self.items_per_s(host_time=False),
            "kernel_ms_median": statistics.median(self.kernel_s) * 1000,
            "ops_s": self.ops,
            "kernel_s": self.kernel_s,
        }


class NullTracer:
    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> None:
        pass


class Replicated:
    """`run` + `eval` in-process over the pilot corpus copied 20 times."""

    def __init__(self, pilot: Pilot, workdir: Path, seed: int):
        self.pilot = pilot
        self.workdir = workdir
        self.seed = seed
        self.corpus = workdir / "corpus.jsonl"
        self.source = write_copies(pilot, REPLICATED_COPIES, self.corpus)
        self.backend = ReplayBackend(pilot)
        self.items_per_pass = len(self.source) * len(SHOTS)

    def measure(self, seconds: float, tracer=NullTracer()) -> Measurement:
        m = Measurement(self.items_per_pass)
        while m.busy_s < seconds:
            outputs = self.workdir / f"pass{len(m.ops)}.jsonl"
            summary = reports = None
            tracer.begin_pass()
            started = perf_counter()
            try:
                records = dataset.load_dataset(self.corpus)
                manifest = llm.RunManifest.create(
                    dataset_path=self.corpus,
                    template_id=TEMPLATE_ID,
                    shot_labels=SHOTS,
                    model_id=REPLAY_MODEL,
                    seed=self.seed,
                )
                summary = llm.run_experiment(
                    manifest, records, self.backend, outputs, concurrency=CONCURRENCY
                )
                reports = metrics.evaluate_run(outputs, records)
                metrics.render_table(reports)
            except Exception as exc:  # a layer call failed: the whole pass is lost
                m.problems.append(f"replicated pass raised {exc!r}")
            elapsed = perf_counter() - started
            tracer.end_pass()
            failed = self.items_per_pass if reports is None else len(summary.failures)
            m.add(0, elapsed, self.items_per_pass, failed)
            if reports is not None:
                m.problems += check_reports(reports, self.source, self.pilot, REPLAY_MODEL)
            outputs.unlink(missing_ok=True)
            manifest_path_for(outputs).unlink(missing_ok=True)
        return m

    def verify(self) -> list[str]:
        return []


class Rescore:
    """`eval` alone over a prebuilt, seed-shuffled outputs file of 2964 lines."""

    def __init__(self, pilot: Pilot, workdir: Path, seed: int):
        self.pilot = pilot
        corpus = workdir / "corpus.jsonl"
        self.source = write_copies(pilot, RESCORE_COPIES, corpus)
        lines = [
            json.dumps(
                {
                    "record_id": copy_id,
                    "shot": label,
                    "prompt_digest": pilot.digests[source_id, label],
                    "response_text": pilot.responses[source_id, label],
                },
                ensure_ascii=False,
            )
            for copy_id, source_id in self.source.items()
            for label in SHOTS
        ]
        random.Random(seed).shuffle(lines)
        self.outputs = workdir / "outputs.jsonl"
        self.outputs.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        manifest = RunManifest.create(
            dataset_path=corpus,
            template_id=TEMPLATE_ID,
            shot_labels=SHOTS,
            model_id=PILOT_MODEL,
            seed=seed,
        )
        manifest_path_for(self.outputs).write_text(
            json.dumps(manifest.to_dict(), ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
        self.gold = dataset.load_dataset(corpus)
        self.items_per_pass = len(lines)

    def measure(self, seconds: float, tracer=NullTracer()) -> Measurement:
        m = Measurement(self.items_per_pass)
        while m.busy_s < seconds:
            reports = None
            tracer.begin_pass()
            started = perf_counter()
            try:
                reports = metrics.evaluate_run(self.outputs, self.gold)
                metrics.render_table(reports)
            except Exception as exc:
                m.problems.append(f"rescore pass raised {exc!r}")
            elapsed = perf_counter() - started
            tracer.end_pass()
            m.add(0, elapsed, self.items_per_pass, self.items_per_pass if reports is None else 0)
            if reports is not None:
                m.problems += check_reports(reports, self.source, self.pilot, PILOT_MODEL)
        return m

    def verify(self) -> list[str]:
        return []


def make_problem(kind: str, rng: random.Random):
    """A one-day PV and base-load profile for one appliance, maybe with a forced window."""
    slot_minutes, duration, contiguous, window = FUNCTIONAL_KINDS[kind]
    horizon = Horizon(slot_minutes)
    hours = slot_minutes / 60
    sunrise, sunset, peak_kw = rng.uniform(5.5, 7.5), rng.uniform(17.5, 20.5), rng.uniform(2.5, 5.0)
    pv, base_load = [], []
    for slot in range(horizon.num_slots):
        mid = (slot + 0.5) * hours
        sun = math.sin(math.pi * (mid - sunrise) / (sunset - sunrise)) if sunrise < mid < sunset else 0.0
        pv.append(round(peak_kw * sun * rng.uniform(0.6, 1.0) * hours, 4))
        base_load.append(round((0.2 + 0.4 * rng.random()) * hours, 4))
    forced = GroundedAssignment(horizon)
    if window is not None:
        width = 1 if window else rng.randint(1, 3) * 60 // slot_minutes
        start = rng.randrange(horizon.num_slots - width + 1)
        for slot in range(start, start + width):
            forced.state[slot] = window
    appliance = scheduler.Appliance(round(rng.uniform(1.0, 2.5), 2), duration, contiguous)
    return scheduler.ScheduleProblem(horizon, tuple(pv), tuple(base_load), appliance, forced)


class Functional:
    """`check_functional` for every pilot (record, shot) on four problem kinds."""

    def __init__(self, pilot: Pilot, workdir: Path, seed: int):
        rng = random.Random(seed)
        self.calls = [
            (list(record.constraints), generated, make_problem(kind, rng))
            for record in pilot.records
            for label in SHOTS
            for generated in [extract_constraints(pilot.responses[record.id, label])[0]]
            for kind in FUNCTIONAL_KINDS
        ]
        self.items_per_pass = len(self.calls)
        self.results: dict[int, object] = {}

    def measure(self, seconds: float, tracer=NullTracer()) -> Measurement:
        m = Measurement(1)
        n = len(self.calls)
        call = 0
        while m.busy_s < seconds:
            index = call % n
            if index == 0:
                tracer.begin_pass()
            gold, generated, problem = self.calls[index]
            started = perf_counter()
            try:
                result = scheduler.check_functional(gold, generated, problem)
            except Exception as exc:  # a crash, unlike passed=False, is a failed item
                result = exc
            elapsed = perf_counter() - started
            failed = isinstance(result, Exception)
            m.add(index, elapsed, 1, int(failed))
            if failed:
                m.problems.append(f"check_functional call {index} raised {result!r}")
            elif self.results.setdefault(index, result) != result:
                m.problems.append(f"check_functional call {index} gave two different results")
            call += 1
            if index == n - 1:
                tracer.end_pass()
        tracer.end_pass()
        return m

    def verify(self) -> list[str]:
        import oracle  # numpy stays out of set-up and the timed passes

        problems = []
        for index, result in sorted(self.results.items()):
            gold, generated, problem = self.calls[index]
            problem_text = oracle.check_functional_result(gold, generated, problem, result)
            if problem_text:
                problems.append(f"check_functional call {index} ({kind_of(problem)}): {problem_text}")
        return problems


WORKLOADS = {"replicated": Replicated, "rescore": Rescore, "functional": Functional}
