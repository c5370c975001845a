"""Independent reference for ``check_functional`` results.

Grounds constraints slot by slot with the containment rule written out
again here, merges them with the problem's forced slots, and finds the
best self-consumption by enumerating every placement of the appliance.
Objectives are compared, not placements, because placements that tie may
resolve either way.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from pref2constraint.constraints import From, Range, Until, Variable

MINUTES_PER_DAY = 1440
TOLERANCE_KWH = 1e-9


def _window(condition) -> tuple[int, int]:
    if isinstance(condition, Range):
        return condition.start.minutes, condition.end.minutes
    if isinstance(condition, From):
        return condition.start.minutes, MINUTES_PER_DAY
    if isinstance(condition, Until):
        return 0, condition.end.minutes
    return 0, MINUTES_PER_DAY


def _forced(constraints, slot_minutes: int, num_slots: int):
    """(state, temperature) slot -> value maps, or None when two constraints clash."""
    state: dict[int, float] = {}
    temperature: dict[int, float] = {}
    for constraint in constraints:
        lo, hi = _window(constraint.condition)
        target = state if constraint.variable is Variable.STATE else temperature
        value = constraint.value.value
        for slot in range(num_slots):
            if lo <= slot * slot_minutes and (slot + 1) * slot_minutes <= hi:
                if target.setdefault(slot, value) != value:
                    return None
    return state, temperature


def _merge(base: dict, extra: dict):
    merged = dict(base)
    for slot, value in extra.items():
        if merged.setdefault(slot, value) != value:
            return None
    return merged


@lru_cache(maxsize=None)
def _placements(num_slots: int, duration: int, contiguous: bool) -> np.ndarray:
    """Every placement as a row of a boolean slot matrix."""
    if contiguous:
        starts = [range(s, s + duration) for s in range(num_slots - duration + 1)]
    else:
        starts = combinations(range(num_slots), duration)
    rows = []
    for slots in starts:
        row = np.zeros(num_slots, dtype=bool)
        row[list(slots)] = True
        rows.append(row)
    return np.array(rows)


def _objectives(problem, placements: np.ndarray) -> np.ndarray:
    per_slot = problem.appliance.power_kw * problem.horizon.slot_minutes / 60.0
    pv = np.array(problem.pv)
    base = np.array(problem.base_load)
    return np.minimum(pv, base + per_slot * placements).sum(axis=1)


def check_functional_result(gold, generated, problem, result) -> str | None:
    """None when ``result`` is what check_functional must return, else what is wrong."""
    minutes, n = problem.horizon.slot_minutes, problem.horizon.num_slots
    gold_forced = _forced(gold, minutes, n)
    generated_forced = _forced(generated, minutes, n)
    merged = None
    if gold_forced is not None and generated_forced is not None:
        state = {i: v for i, v in enumerate(problem.forced.state) if v is not None}
        temperature = {i: v for i, v in enumerate(problem.forced.temperature) if v is not None}
        if _merge(temperature, generated_forced[1]) is not None:
            merged = _merge(state, generated_forced[0])

    best = None
    if merged is not None:
        placements = _placements(n, problem.appliance.duration_slots, problem.appliance.contiguous)
        on = [slot for slot, value in merged.items() if value == 1]
        off = [slot for slot, value in merged.items() if value == 0]
        allowed = placements[:, on].all(axis=1) & ~placements[:, off].any(axis=1)
        if allowed.any():
            best = float(_objectives(problem, placements[allowed]).max())

    schedule = result.schedule
    if best is None:
        if result.passed or schedule is not None:
            return "conflicting or infeasible constraints, yet a schedule came back"
        return None
    if schedule is None:
        return f"no schedule ({result.reason}), but the best placement serves {best!r} kWh"

    on_slots = sorted(schedule.on_slots)
    if len(on_slots) != problem.appliance.duration_slots:
        return f"{len(on_slots)} slots on, appliance runs {problem.appliance.duration_slots}"
    if problem.appliance.contiguous and on_slots[-1] - on_slots[0] != len(on_slots) - 1:
        return f"contiguous appliance placed on {on_slots}"
    if any((value == 1) != (slot in schedule.on_slots) for slot, value in merged.items()):
        return f"schedule {on_slots} breaks the merged forced slots {merged}"
    row = np.zeros((1, n), dtype=bool)
    row[0, on_slots] = True
    own = float(_objectives(problem, row)[0])
    if abs(own - schedule.self_consumption_kwh) > TOLERANCE_KWH:
        return f"reported {schedule.self_consumption_kwh!r} kWh, placement serves {own!r}"
    if abs(best - schedule.self_consumption_kwh) > TOLERANCE_KWH:
        return f"reported {schedule.self_consumption_kwh!r} kWh, best placement serves {best!r}"

    gold_state, gold_temperature = gold_forced
    passed = all((value == 1) == (slot in schedule.on_slots) for slot, value in gold_state.items())
    passed = passed and all(
        generated_forced[1].get(slot) == degrees for slot, degrees in gold_temperature.items()
    )
    if result.passed != passed:
        return f"passed={result.passed}, expected {passed} ({result.reason})"
    return None
