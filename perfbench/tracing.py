"""Spans around the package's layer calls, recorded from outside the package.

``Tracer.install`` replaces the module attributes through which the
pipeline reaches each layer (``pref2constraint.llm.select_examples``,
``pref2constraint.metrics.chrf_counts``, ``pref2constraint.scheduler.solve``
and so on) with wrappers that record a span: name, start, end, parent span
and the id of the pass it belongs to.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from pref2constraint import dataset, grounding, llm, metrics, scheduler

# (module, attribute the pipeline calls through, span name)
TARGETS = (
    (dataset, "load_dataset", "dataset.load_dataset"),
    (dataset, "parse_constraint", "constraints.parse_constraint"),
    (llm, "run_experiment", "llm.run_experiment"),
    (llm, "select_examples", "prompting.select_examples"),
    (llm, "build_prompt", "prompting.build_prompt"),
    (metrics, "evaluate_run", "metrics.evaluate_run"),
    (metrics, "extract_constraints", "constraints.extract_constraints"),
    (metrics, "chrf_counts", "metrics.chrf_counts"),
    (scheduler, "check_functional", "scheduler.check_functional"),
    (scheduler, "ground", "grounding.ground"),
    (scheduler, "merge", "grounding.merge"),
    (scheduler, "solve", "scheduler.solve"),
)
SEND = "llm.backend.send"
PASS = "pass"
KERNEL = "hostclock.kernel"
COUNTS = (
    "dataset.records",
    "constraints.issues",
    "llm.completed",
    "llm.failed",
    "llm.outputs_bytes",
    "grounding.conflicts",
    "scheduler.infeasible",
    "scheduler.passed",
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    pass_id: int
    name: str
    label: str | None
    start: float
    end: float


class Tracer:
    def __init__(self, kind_of, kinds):
        """``kind_of(problem)`` labels the spans under a check_functional call."""
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.label: str | None = None
        self._kind_of = kind_of
        self._kinds = tuple(kinds)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._pass: tuple[int, float] | None = None
        self._pass_id = -1

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A pool thread's first span belongs to what the main thread is running.
        main = self._main_stack
        return main[-1] if main else None

    def begin_pass(self) -> None:
        self.end_pass()
        self._pass_id += 1
        span_id = next(self._ids)
        self._main_stack.append(span_id)
        self._pass = (span_id, perf_counter())

    def end_pass(self) -> None:
        if self._pass is not None:
            span_id, start = self._pass
            self._main_stack.remove(span_id)
            self.spans.append(Span(span_id, None, self._pass_id, PASS, None, start, perf_counter()))
            self._pass = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "scheduler.check_functional":
                self.label = self._kind_of(args[2])
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent, self._pass_id, name, self.label, start, end)
                )
            self._count_result(name, args, kwargs, result)
            return result

        return traced

    def _count_error(self, exc: Exception) -> None:
        if isinstance(exc, grounding.ConflictError):
            self.counts["grounding.conflicts"] += 1
        elif isinstance(exc, scheduler.InfeasibleError):
            self.counts["scheduler.infeasible"] += 1

    def _count_result(self, name: str, args, kwargs, result) -> None:
        if name == "dataset.load_dataset":
            self.counts["dataset.records"] += len(result)
        elif name == "constraints.extract_constraints":
            self.counts["constraints.issues"] += len(result[1])
        elif name == "llm.run_experiment":
            self.counts["llm.completed"] += result.completed
            self.counts["llm.failed"] += len(result.failures)
            outputs = kwargs.get("outputs_path", args[3] if len(args) > 3 else None)
            self.counts["llm.outputs_bytes"] += Path(outputs).stat().st_size
        elif name == "scheduler.check_functional":
            self.counts["scheduler.passed"] += int(result.passed)

    def install(self, workloads_module, backend=None) -> None:
        """Wrap every layer entry point, the host-speed kernel, and the workload's backend if it has one."""
        for module, attribute, name in TARGETS:
            setattr(module, attribute, self.wrap(name, getattr(module, attribute)))
        workloads_module.reference_kernel = self.wrap(KERNEL, workloads_module.reference_kernel)
        if backend is not None:
            backend.send = self.wrap(SEND, backend.send)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")

    def summary(self, passes: float) -> dict[str, float]:
        """Per-pass calls, busy and self time of every span name, and the counts.

        Every metric is present, at 0 when the workload never reached it.
        """
        names = [name for _, _, name in TARGETS] + [SEND, PASS, KERNEL]
        totals: Counter = Counter({key: 0 for key in COUNTS})
        for name in names:
            for key in ("calls", "busy_s", "self_s", *(f"busy_s.{kind}" for kind in self._kinds)):
                totals[f"{name}.{key}"] = 0
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        for span in self.spans:
            duration = span.end - span.start
            totals[f"{span.name}.calls"] += 1
            totals[f"{span.name}.busy_s"] += duration
            if span.label is not None:
                totals[f"{span.name}.busy_s.{span.label}"] += duration
            totals[f"{span.name}.self_s"] += duration - _covered(
                span.start, span.end, children.get(span.span_id, ())
            )
        totals.update(self.counts)
        return {key: value / passes for key, value in totals.items()}


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
