"""Expand constraints into per-slot forced values over a discretized day.

The day is cut into equal slots; slot ``i`` covers the half-open interval
``[i * slot_minutes, (i + 1) * slot_minutes)`` in minutes since midnight.
A constraint forces a slot only when the slot is *fully contained* in the
constraint's time window, so "until 08:30" never touches the 08:30-09:00
slot.  Grounded assignments are the hand-off format for the external
optimizer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from .constraints import (
    MINUTES_PER_DAY,
    All,
    Constraint,
    From,
    Range,
    TimeCondition,
    Until,
    Variable,
)
from .errors import Pref2ConstraintError, int_field, json_number

ALLOWED_SLOT_MINUTES = (1, 5, 15, 30, 60)


class GroundingError(Pref2ConstraintError):
    pass


@dataclass(frozen=True)
class SlotConflict:
    slot: int
    variable: str  # "state" | "temperature"
    existing: float
    incoming: float


class ConflictError(GroundingError):
    """Two constraints force different values of one variable on a slot."""

    def __init__(self, conflicts: list[SlotConflict]):
        self.conflicts = conflicts
        shown = ", ".join(
            f"slot {c.slot} ({c.variable}: {c.existing} vs {c.incoming})"
            for c in conflicts[:5]
        )
        suffix = "" if len(conflicts) <= 5 else f", … {len(conflicts) - 5} more"
        super().__init__(f"{len(conflicts)} conflicting slot(s): {shown}{suffix}")


class HorizonMismatchError(GroundingError):
    pass


@dataclass(frozen=True)
class Horizon:
    """A full day divided into 1440 / slot_minutes equal slots."""

    slot_minutes: int = 30

    def __post_init__(self) -> None:
        if self.slot_minutes not in ALLOWED_SLOT_MINUTES:
            raise GroundingError(
                f"slot_minutes must be one of {ALLOWED_SLOT_MINUTES}, got {self.slot_minutes}"
            )

    @property
    def num_slots(self) -> int:
        return MINUTES_PER_DAY // self.slot_minutes


def condition_window(condition: TimeCondition) -> tuple[int, int]:
    """Closed minute window [lo, hi] over which a condition holds."""
    if isinstance(condition, All):
        return 0, MINUTES_PER_DAY
    if isinstance(condition, Range):
        return condition.start.minutes, condition.end.minutes
    if isinstance(condition, From):
        return condition.start.minutes, MINUTES_PER_DAY
    if isinstance(condition, Until):
        return 0, condition.end.minutes
    raise TypeError(f"unknown condition {condition!r}")


@dataclass
class GroundedAssignment:
    """Per-slot forced values; None marks a slot left free for the optimizer.

    An array left out frees every slot; an array given, even ``[]``, needs one entry per slot.
    """

    horizon: Horizon
    state: list[int | None] | None = None
    temperature: list[float | None] | None = None

    def __post_init__(self) -> None:
        n = self.horizon.num_slots
        if self.state is None:
            self.state = [None] * n
        if self.temperature is None:
            self.temperature = [None] * n
        if len(self.state) != n or len(self.temperature) != n:
            raise GroundingError(
                f"assignment arrays must have {n} entries for {self.horizon.slot_minutes}-minute slots"
            )

    def forced_state_slots(self, value: int) -> set[int]:
        return {i for i, v in enumerate(self.state) if v == value}

    def to_dict(self) -> dict:
        return {
            "slot_minutes": self.horizon.slot_minutes,
            "state": list(self.state),
            "temperature": list(self.temperature),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroundedAssignment":
        """Read the JSON form; an ill-typed field is a TypeError naming it."""
        horizon = Horizon(int_field(data, "slot_minutes"))
        for v in data["state"]:
            if v is not None and not (type(v) is int and v in (0, 1)):
                raise TypeError(f"'state' entries must be 0, 1 or null, got {json.dumps(v)}")
        temperature = [
            None if v is None else json_number(v, "'temperature' entries must be numbers or null")
            for v in data["temperature"]
        ]
        for v in temperature:
            if v is not None and not math.isfinite(v):
                raise GroundingError(
                    f"'temperature' entries must be finite numbers or null, got {json.dumps(v)}"
                )
        return cls(horizon, list(data["state"]), temperature)


def _slot_range(window: tuple[int, int], horizon: Horizon) -> range:
    """Indices of slots fully contained in the closed minute window."""
    lo, hi = window
    m = horizon.slot_minutes
    first = -(-lo // m)  # ceil division
    last = hi // m - 1
    return range(max(first, 0), min(last, horizon.num_slots - 1) + 1)


def _force(
    assignment: GroundedAssignment,
    variable: str,
    pairs: Iterable[tuple[int, float | None]],
    conflicts: list[SlotConflict],
) -> None:
    """Force (slot, value) pairs into one column; a None value forces nothing.

    A free slot takes the value; a slot already holding a different value
    keeps it and the disagreement is appended to ``conflicts``.
    """
    column = getattr(assignment, variable)
    for i, value in pairs:
        if value is None:
            continue
        current = column[i]
        if current is None:
            column[i] = value
        elif current != value:
            conflicts.append(SlotConflict(i, variable, current, value))


def ground(constraints: Iterable[Constraint], horizon: Horizon) -> GroundedAssignment:
    """Apply constraints slot-wise; collect every conflicting slot before failing."""
    assignment = GroundedAssignment(horizon)
    conflicts: list[SlotConflict] = []
    for constraint in constraints:
        slots = _slot_range(condition_window(constraint.condition), horizon)
        variable = "state" if constraint.variable is Variable.STATE else "temperature"
        _force(assignment, variable, zip(slots, repeat(constraint.value.value)), conflicts)
    if conflicts:
        raise ConflictError(conflicts)
    return assignment


def merge(a: GroundedAssignment, b: GroundedAssignment) -> GroundedAssignment:
    """Union of two assignments on the same horizon; conflict-free merges commute."""
    if a.horizon != b.horizon:
        raise HorizonMismatchError(
            f"cannot merge {a.horizon.slot_minutes}-minute and "
            f"{b.horizon.slot_minutes}-minute assignments"
        )
    merged = GroundedAssignment(a.horizon, list(a.state), list(a.temperature))
    conflicts: list[SlotConflict] = []
    for variable in ("state", "temperature"):
        _force(merged, variable, enumerate(getattr(b, variable)), conflicts)
    if conflicts:
        raise ConflictError(conflicts)
    return merged
