import random

import pytest
from hypothesis import given, strategies as st

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
    parse_constraint,
)
from pref2constraint.grounding import (
    ConflictError,
    GroundedAssignment,
    GroundingError,
    Horizon,
    HorizonMismatchError,
    SlotConflict,
    ground,
    merge,
)

from oracles import ground_oracle


def c(text):
    return parse_constraint(text)


class TestHorizon:
    def test_num_slots(self):
        assert Horizon(30).num_slots == 48
        assert Horizon(15).num_slots == 96
        assert Horizon(60).num_slots == 24

    def test_invalid_slot_minutes(self):
        with pytest.raises(GroundingError):
            Horizon(7)

    def test_slot_interval(self):
        # Slot 14 of a 30-minute day is [07:00, 07:30): a constraint forces it
        # only when its window covers that whole interval.
        def forced(window):
            return ground([c(f"s_t = 1 ∀ {window}")], Horizon(30)).forced_state_slots(1)

        assert forced("07:00 ≤ t ≤ 07:30") == {14}
        assert forced("06:59 ≤ t ≤ 07:30") == {14}
        assert forced("07:00 ≤ t ≤ 07:29") == set()
        assert forced("07:01 ≤ t ≤ 08:00") == {15}


class TestGround:
    def test_morning_range_forces_three_slots(self):
        assignment = ground([c("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30")], Horizon(30))
        assert assignment.forced_state_slots(1) == {14, 15, 16}
        assert assignment.forced_state_slots(0) == set()
        assert all(v is None for v in assignment.temperature)

    def test_all_covers_every_slot(self):
        for slot_minutes in (15, 30, 60):
            assignment = ground([c("s_t = 1 ∀ t")], Horizon(slot_minutes))
            assert all(v == 1 for v in assignment.state)

    def test_conflicting_constraints_list_every_slot(self):
        with pytest.raises(ConflictError) as excinfo:
            ground([c("s_t = 1 ∀ t"), c("s_t = 0 ∀ t ≤ 06:00")], Horizon(30))
        slots = [conflict.slot for conflict in excinfo.value.conflicts]
        assert slots == list(range(12))

    def test_same_value_twice_is_fine(self):
        assignment = ground(
            [c("s_t = 1 ∀ t ≤ 08:00"), c("s_t = 1 ∀ 06:00 ≤ t ≤ 10:00")], Horizon(30)
        )
        assert assignment.forced_state_slots(1) == set(range(20))

    def test_partial_slot_not_forced(self):
        # "until 08:30" must leave the 08:30-09:00 slot untouched
        assignment = ground([c("s_t = 1 ∀ t ≤ 08:30")], Horizon(60))
        assert assignment.state[8] is None
        assert assignment.forced_state_slots(1) == set(range(8))

    def test_temperature_grounding(self):
        assignment = ground([c("h_t = 21 ∀ t ≥ 22:00")], Horizon(30))
        assert assignment.temperature[44:] == [21.0] * 4
        assert all(v is None for v in assignment.temperature[:44])
        assert all(v is None for v in assignment.state)

    def test_temperature_conflict_is_exact_inequality(self):
        with pytest.raises(ConflictError):
            ground([c("h_t = 20 ∀ t"), c("h_t = 20.5 ∀ t ≤ 01:00")], Horizon(30))

    def test_state_and_temperature_do_not_conflict(self):
        assignment = ground([c("s_t = 1 ∀ t"), c("h_t = 21 ∀ t")], Horizon(30))
        assert assignment.forced_state_slots(1) == set(range(48))
        assert assignment.temperature == [21.0] * 48

    def test_from_reaches_end_of_day(self):
        assignment = ground([c("s_t = 1 ∀ t ≥ 23:00")], Horizon(30))
        assert assignment.forced_state_slots(1) == {46, 47}

    def test_mixed_conflicts_listed_in_constraint_order(self):
        constraints = [
            c("s_t = 1 ∀ t ≤ 02:00"),
            c("h_t = 20 ∀ t ≤ 01:00"),
            c("s_t = 0 ∀ 01:00 ≤ t ≤ 02:00"),
            c("h_t = 21 ∀ t ≤ 00:30"),
            c("s_t = 0 ∀ t ≤ 00:30"),
        ]
        with pytest.raises(ConflictError) as excinfo:
            ground(constraints, Horizon(30))
        assert excinfo.value.conflicts == [
            SlotConflict(2, "state", 1, 0),
            SlotConflict(3, "state", 1, 0),
            SlotConflict(0, "temperature", 20.0, 21.0),
            SlotConflict(0, "state", 1, 0),
        ]


class TestMerge:
    def test_empty_is_identity(self):
        assignment = ground([c("s_t = 1 ∀ t ≤ 06:00")], Horizon(30))
        empty = GroundedAssignment(Horizon(30))
        merged = merge(assignment, empty)
        assert merged.state == assignment.state
        assert merged.temperature == assignment.temperature

    def test_commutative_when_conflict_free(self):
        a = ground([c("s_t = 1 ∀ t ≤ 06:00")], Horizon(30))
        b = ground([c("h_t = 21 ∀ t ≥ 20:00"), c("s_t = 0 ∀ 10:00 ≤ t ≤ 12:00")], Horizon(30))
        ab, ba = merge(a, b), merge(b, a)
        assert ab.state == ba.state and ab.temperature == ba.temperature

    def test_associative_when_conflict_free(self):
        a = ground([c("s_t = 1 ∀ t ≤ 03:00")], Horizon(30))
        b = ground([c("s_t = 0 ∀ 10:00 ≤ t ≤ 12:00")], Horizon(30))
        d = ground([c("h_t = 21 ∀ t ≥ 20:00")], Horizon(30))
        left = merge(merge(a, b), d)
        right = merge(a, merge(b, d))
        assert left.state == right.state and left.temperature == right.temperature

    def test_conflict(self):
        a = ground([c("s_t = 1 ∀ 07:00 ≤ t ≤ 07:30")], Horizon(30))
        b = ground([c("s_t = 0 ∀ 07:00 ≤ t ≤ 07:30")], Horizon(30))
        with pytest.raises(ConflictError) as excinfo:
            merge(a, b)
        assert [conflict.slot for conflict in excinfo.value.conflicts] == [14]

    def test_mixed_conflicts_list_state_before_temperature(self):
        a = ground([c("s_t = 1 ∀ t ≤ 01:00"), c("h_t = 20 ∀ t ≥ 22:00")], Horizon(30))
        b = ground([c("h_t = 21 ∀ t ≥ 23:00"), c("s_t = 0 ∀ t ≤ 00:30")], Horizon(30))
        with pytest.raises(ConflictError) as excinfo:
            merge(a, b)
        assert excinfo.value.conflicts == [
            SlotConflict(0, "state", 1, 0),
            SlotConflict(46, "temperature", 20.0, 21.0),
            SlotConflict(47, "temperature", 20.0, 21.0),
        ]

    @pytest.mark.parametrize(
        "count,suffix",
        [(5, ""), (6, ", … 1 more"), (7, ", … 2 more")],
        ids=["five-all-shown", "six-one-more", "seven-two-more"],
    )
    def test_conflict_message_shows_the_first_five(self, count, suffix):
        conflicts = [SlotConflict(slot, "state", 1, 0) for slot in range(count)]
        shown = ", ".join(f"slot {slot} (state: 1 vs 0)" for slot in range(5))
        assert str(ConflictError(conflicts)) == f"{count} conflicting slot(s): {shown}{suffix}"

    def test_horizon_mismatch(self):
        with pytest.raises(HorizonMismatchError):
            merge(GroundedAssignment(Horizon(30)), GroundedAssignment(Horizon(15)))


class TestSerialization:
    def test_round_trip(self):
        assignment = ground([c("s_t = 1 ∀ 07:00 ≤ t ≤ 08:30"), c("h_t = 21 ∀ t")], Horizon(30))
        data = assignment.to_dict()
        assert data["slot_minutes"] == 30
        assert data["state"][14] == 1 and data["state"][13] is None
        restored = GroundedAssignment.from_dict(data)
        assert restored.state == assignment.state
        assert restored.temperature == assignment.temperature

    def test_from_dict_reads_a_state_of_zero(self):
        state = [0, 1, None] * 8
        restored = GroundedAssignment.from_dict(
            {"slot_minutes": 60, "state": state, "temperature": [None] * 24}
        )
        assert restored.state == state


# --- randomized oracle comparison ------------------------------------------


def random_constraint(rng: random.Random) -> Constraint:
    kind = rng.choice(["all", "range", "from", "until"])
    if kind == "all":
        condition = All()
    elif kind == "range":
        start = rng.randrange(0, 1440)
        end = rng.randrange(start + 1, 1441)
        condition = Range(TimePoint(start), TimePoint(end))
    elif kind == "from":
        condition = From(TimePoint(rng.randrange(0, 1441)))
    else:
        condition = Until(TimePoint(rng.randrange(0, 1441)))
    if rng.random() < 0.7:
        return Constraint(Variable.STATE, Binary(rng.randrange(2)), condition)
    return Constraint(Variable.TEMPERATURE, Degrees(rng.randrange(100, 601) / 10), condition)


def assert_matches_oracle(constraints, slot_minutes):
    state, temperature, conflicts = ground_oracle(constraints, slot_minutes)
    if conflicts:
        with pytest.raises(ConflictError) as excinfo:
            ground(constraints, Horizon(slot_minutes))
        got = [(conflict.slot, conflict.variable) for conflict in excinfo.value.conflicts]
        assert got == conflicts
    else:
        assignment = ground(constraints, Horizon(slot_minutes))
        assert assignment.state == state
        assert assignment.temperature == temperature


def test_matches_brute_force_oracle_on_random_sets():
    rng = random.Random(20240601)
    for _ in range(200):
        constraints = [random_constraint(rng) for _ in range(rng.randrange(0, 5))]
        slot_minutes = rng.choice([15, 30])
        assert_matches_oracle(constraints, slot_minutes)


@given(
    st.lists(
        st.builds(
            lambda v, lo, hi: Constraint(
                Variable.STATE, Binary(v), Range(TimePoint(lo), TimePoint(hi))
            ),
            st.sampled_from([0, 1]),
            st.integers(0, 700),
            st.integers(701, 1440),
        ),
        max_size=4,
    )
)
def test_monotonicity_adding_constraints_never_unsets(constraints):
    horizon = Horizon(30)
    try:
        base = ground(constraints, horizon)
    except ConflictError:
        return
    extra = Constraint(Variable.STATE, Binary(1), Range(TimePoint(300), TimePoint(360)))
    try:
        extended = ground(constraints + [extra], horizon)
    except ConflictError:
        return
    for before, after in zip(base.state, extended.state):
        if before is not None:
            assert after == before
