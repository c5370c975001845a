"""Desk-scale self-consumption scheduler for one shiftable appliance.

Places a fixed-duration appliance run on the day so as to maximize the
energy served from local PV production, Σ_t min(pv_t, base_load_t +
appliance_t), while honoring every slot forced by grounded constraints.
The objective is separable, so on any horizon a contiguous run takes the
earliest best window over prefix sums of per-slot gains, and any other run
its forced-on slots plus the free slots of highest exact gain, earliest
first among equal gains (a stable descending sort); results are deterministic.

This is a stand-in for the real community-level optimizer: just enough
model for generated constraints to have observable consequences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from heapq import nlargest
from itertools import accumulate
from pathlib import Path

from .constraints import Constraint
from .errors import Pref2ConstraintError, read_json_object, typed, typed_array
from .grounding import ConflictError, GroundedAssignment, Horizon, ground, merge

_ZERO = Fraction(0)  # the gain of every slot whose pv does not exceed its base load


class SchedulerError(Pref2ConstraintError):
    pass


class InfeasibleError(SchedulerError):
    pass


@dataclass(frozen=True)
class Appliance:
    power_kw: float
    duration_slots: int
    contiguous: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.power_kw < math.inf:
            raise SchedulerError("appliance power must be finite and > 0 kW")
        if self.duration_slots < 1:
            raise SchedulerError("appliance duration must be >= 1 slot")


@dataclass(frozen=True)
class ScheduleProblem:
    horizon: Horizon
    pv: tuple[float, ...]
    base_load: tuple[float, ...]
    appliance: Appliance
    forced: GroundedAssignment

    def __post_init__(self) -> None:
        n = self.horizon.num_slots
        if len(self.pv) != n or len(self.base_load) != n:
            raise SchedulerError(f"pv and base_load must have {n} entries")
        if not all(0 <= v < math.inf for v in self.pv + self.base_load):
            raise SchedulerError("pv and base_load must be finite and non-negative")
        # Self-consumption is at most the pv total, so a finite total keeps it finite.
        if not math.isfinite(sum(self.pv)):
            raise SchedulerError("pv must have a finite total")
        if not math.isfinite(self.appliance_kwh_per_slot):
            raise SchedulerError(
                f"appliance energy per slot must be finite: {self.appliance.power_kw} kW "
                f"over {self.horizon.slot_minutes} minutes"
            )
        if self.appliance.duration_slots > n:
            raise SchedulerError("appliance duration exceeds the horizon")
        if self.forced.horizon != self.horizon:
            raise SchedulerError("forced assignment horizon differs from problem horizon")

    @property
    def appliance_kwh_per_slot(self) -> float:
        return self.appliance.power_kw * self.horizon.slot_minutes / 60.0

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleProblem":
        horizon = Horizon(typed(data, "slot_minutes", "integer"))
        spec = typed(data, "appliance", "object")
        appliance = Appliance(
            power_kw=typed(spec, "power_kw", "number"),
            duration_slots=typed(spec, "duration_slots", "integer"),
            contiguous=typed(spec, "contiguous", "true or false") if "contiguous" in spec else True,
        )
        if data.get("forced") is None:
            forced = GroundedAssignment(horizon)
        else:
            forced = GroundedAssignment.from_dict(typed(data, "forced", "object"))
        return cls(
            horizon=horizon,
            pv=tuple(typed_array(data, "pv", "number")),
            base_load=tuple(typed_array(data, "base_load", "number")),
            appliance=appliance,
            forced=forced,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScheduleProblem":
        """Read a problem from a JSON file; any fault in it is a SchedulerError naming the file."""
        return read_json_object(path, SchedulerError, cls.from_dict)


@dataclass(frozen=True)
class Schedule:
    on_slots: frozenset[int]
    self_consumption_kwh: float
    feasible: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "on_slots": sorted(self.on_slots)}

    def timeline(self, horizon: Horizon) -> str:
        """Compact per-slot text strip: '#' for on, '.' for off."""
        cells = ["#" if i in self.on_slots else "." for i in range(horizon.num_slots)]
        return "".join(cells)


def self_consumption(problem: ScheduleProblem, on_slots: frozenset[int]) -> float:
    """Energy served from PV under a placement, in kWh."""
    per_slot = problem.appliance_kwh_per_slot
    total = 0.0
    for i in range(problem.horizon.num_slots):
        consumption = problem.base_load[i] + (per_slot if i in on_slots else 0.0)
        total += min(problem.pv[i], consumption)
    return total


def solve(problem: ScheduleProblem) -> Schedule:
    """Best feasible placement, earliest-slots tie-break.

    A non-contiguous run takes the forced-on slots plus the ``missing`` free
    slots of highest gain, earliest first among equal gains: ``nlargest`` is a
    stable descending sort.  Placements are compared by their exact gain over
    the float inputs, so a tie is an exact one: gains of 0.3 − 0.2 and 0.2 − 0.1
    differ in binary and are *not* a tie, while two slots that each add 0.3 are.
    """
    must_on = problem.forced.forced_state_slots(1)
    duration = problem.appliance.duration_slots
    if len(must_on) > duration:
        raise InfeasibleError(
            f"{len(must_on)} slots are forced on but the appliance only runs for {duration}"
        )
    n = problem.horizon.num_slots
    state = problem.forced.state
    # switching slot t on adds min(pv, base + e) − min(pv, base), whatever else is on
    per_slot = Fraction(problem.appliance_kwh_per_slot)
    gains = [
        min(Fraction(pv) - Fraction(base), per_slot) if pv > base else _ZERO
        for pv, base in zip(problem.pv, problem.base_load)
    ]
    if problem.appliance.contiguous:
        gain_sums = [0, *accumulate(gains)]
        off_counts = [0, *accumulate(value == 0 for value in state)]
        first = max(0, max(must_on, default=0) - duration + 1)
        last = min(n - duration, min(must_on, default=n))
        starts = [s for s in range(first, last + 1) if off_counts[s + duration] == off_counts[s]]
        if not starts:
            raise InfeasibleError("no placement satisfies the forced slots")
        # max keeps the first of equal keys, i.e. the earliest start
        best = max(starts, key=lambda s: gain_sums[s + duration] - gain_sums[s])
        on_slots = frozenset(range(best, best + duration))
    else:
        free = [slot for slot, value in enumerate(state) if value is None]
        missing = duration - len(must_on)
        if len(free) < missing:
            raise InfeasibleError("no placement satisfies the forced slots")
        on_slots = frozenset(must_on) | frozenset(nlargest(missing, free, key=gains.__getitem__))
    return Schedule(on_slots, self_consumption(problem, on_slots), feasible=True)


@dataclass(frozen=True)
class FunctionalCheck:
    passed: bool
    reason: str | None = None
    schedule: Schedule | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "schedule": self.schedule.to_dict() if self.schedule else None}


def check_functional(
    gold: list[Constraint],
    generated: list[Constraint],
    problem: ScheduleProblem,
) -> FunctionalCheck:
    """Do the generated constraints behave like the gold ones on this problem?

    Solves the problem under the generated constraints (merged with the
    problem's own forced slots) and checks that the resulting schedule
    satisfies the gold state forcing, and that every gold temperature
    setting is reproduced by the generated grounding.  Grounding conflicts
    and infeasibility come back as a failed check with a reason, not an
    exception.
    """
    try:
        gold_grounded = ground(gold, problem.horizon)
    except ConflictError as exc:
        return FunctionalCheck(False, f"gold constraints conflict: {exc}")
    try:
        generated_grounded = ground(generated, problem.horizon)
    except ConflictError as exc:
        return FunctionalCheck(False, f"generated constraints conflict: {exc}")

    try:
        forced = merge(problem.forced, generated_grounded)
    except ConflictError as exc:
        return FunctionalCheck(False, f"generated constraints clash with the problem: {exc}")
    try:
        schedule = solve(replace(problem, forced=forced))
    except InfeasibleError as exc:
        return FunctionalCheck(False, f"infeasible under generated constraints: {exc}")

    for slot, value in enumerate(gold_grounded.state):
        if value == 1 and slot not in schedule.on_slots:
            return FunctionalCheck(
                False, f"slot {slot} must be on per gold constraints", schedule
            )
        if value == 0 and slot in schedule.on_slots:
            return FunctionalCheck(
                False, f"slot {slot} must be off per gold constraints", schedule
            )
    for slot, degrees in enumerate(gold_grounded.temperature):
        if degrees is not None and generated_grounded.temperature[slot] != degrees:
            return FunctionalCheck(
                False, f"slot {slot} must hold {degrees} °C per gold constraints", schedule
            )
    return FunctionalCheck(True, None, schedule)
