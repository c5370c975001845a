import math
import random
from fractions import Fraction

import pytest

from pref2constraint.constraints import parse_constraint
from pref2constraint.grounding import GroundedAssignment, Horizon, ground
from pref2constraint.scheduler import (
    Appliance,
    InfeasibleError,
    Schedule,
    ScheduleProblem,
    SchedulerError,
    check_functional,
    self_consumption,
    solve,
)

from oracles import schedule_oracle


def day_problem(pv_by_slot, duration=2, power_kw=4.0, contiguous=True, forced=None,
                slot_minutes=60, base_load=None):
    horizon = Horizon(slot_minutes)
    n = horizon.num_slots
    pv = [0.0] * n
    for slot, value in pv_by_slot.items():
        pv[slot] = value
    load = [0.0] * n if base_load is None else base_load
    return ScheduleProblem(
        horizon=horizon,
        pv=tuple(pv),
        base_load=tuple(load),
        appliance=Appliance(power_kw=power_kw, duration_slots=duration, contiguous=contiguous),
        forced=forced if forced is not None else GroundedAssignment(horizon),
    )


class TestSolve:
    def test_midday_pv_attracts_the_run(self):
        # 1-hour slots, 4 kW appliance -> 4 kWh per on-slot; PV only at 1 and 2
        problem = day_problem({1: 2.0, 2: 2.0})
        schedule = solve(problem)
        assert schedule.on_slots == {1, 2}
        assert schedule.self_consumption_kwh == pytest.approx(4.0)

    def test_forced_early_slot_drags_the_window(self):
        horizon = Horizon(60)
        forced = GroundedAssignment(horizon)
        forced.state[0] = 1
        problem = day_problem({1: 2.0, 2: 2.0}, forced=forced)
        schedule = solve(problem)
        assert schedule.on_slots == {0, 1}
        assert schedule.self_consumption_kwh == pytest.approx(2.0)

    def test_zero_pv_ties_break_earliest(self):
        problem = day_problem({})
        schedule = solve(problem)
        assert schedule.on_slots == {0, 1}
        assert schedule.self_consumption_kwh == 0.0

    def test_forced_off_slots_respected(self):
        horizon = Horizon(60)
        forced = ground([parse_constraint("s_t = 0 ∀ t ≤ 03:00")], horizon)
        problem = day_problem({1: 5.0, 5: 1.0}, forced=forced)
        schedule = solve(problem)
        assert schedule.on_slots.isdisjoint(set(range(3)))

    def test_feasible_schedule_has_exact_duration(self):
        problem = day_problem({3: 1.0}, duration=4)
        schedule = solve(problem)
        assert len(schedule.on_slots) == 4 and schedule.feasible

    def test_infeasible_when_forced_on_exceeds_duration(self):
        horizon = Horizon(60)
        forced = ground([parse_constraint("s_t = 1 ∀ 06:00 ≤ t ≤ 09:00")], horizon)
        problem = day_problem({}, duration=2, forced=forced)
        with pytest.raises(InfeasibleError):
            solve(problem)

    def test_infeasible_when_forced_on_not_coverable_contiguously(self):
        horizon = Horizon(60)
        forced = GroundedAssignment(horizon)
        forced.state[0] = 1
        forced.state[10] = 1
        problem = day_problem({}, duration=2, forced=forced)
        with pytest.raises(InfeasibleError):
            solve(problem)

    def test_appliance_running_the_whole_horizon_is_accepted(self):
        schedule = solve(day_problem({5: 1.0}, duration=24))
        assert schedule.on_slots == set(range(24))

    def test_non_contiguous_with_exactly_enough_free_slots_is_feasible(self):
        forced = GroundedAssignment(Horizon(60), state=[0] * 24)
        forced.state[3] = 1
        forced.state[8] = forced.state[20] = None
        problem = day_problem({}, duration=3, contiguous=False, forced=forced)
        assert solve(problem).on_slots == {3, 8, 20}

    def test_non_contiguous_picks_scattered_pv(self):
        problem = day_problem({2: 4.0, 9: 4.0}, contiguous=False)
        schedule = solve(problem)
        assert schedule.on_slots == {2, 9}
        assert schedule.self_consumption_kwh == pytest.approx(8.0)

    def test_non_contiguous_minute_day_is_forced_slots_plus_top_gains(self):
        rng = random.Random(1440)
        horizon = Horizon(1)
        forced = GroundedAssignment(horizon)
        for slot in rng.sample(range(1440), 40):
            forced.state[slot] = 1 if slot % 4 == 0 else 0
        must_on = {slot for slot, value in enumerate(forced.state) if value == 1}
        # a coarse grid and a 0.01 kWh appliance step make many exact ties
        pv = [round(rng.choice([0.0, rng.uniform(0, 0.05)]), 2) for _ in range(1440)]
        load = [round(rng.uniform(0, 0.03), 2) for _ in range(1440)]
        problem = day_problem(
            dict(enumerate(pv)), duration=len(must_on) + 90, power_kw=0.6,
            contiguous=False, forced=forced, slot_minutes=1, base_load=load,
        )
        schedule = solve(problem)

        step = Fraction(problem.appliance_kwh_per_slot)
        gains = [
            min(Fraction(p), Fraction(b) + step) - min(Fraction(p), Fraction(b))
            for p, b in zip(pv, load)
        ]
        free = [slot for slot, value in enumerate(forced.state) if value is None]
        top = sorted(free, key=lambda slot: (-gains[slot], slot))[:90]
        assert schedule.on_slots == must_on | set(top)
        assert len({gains[slot] for slot in top}) < len(top)  # ties were in play
        idle = sum(min(Fraction(p), Fraction(b)) for p, b in zip(pv, load))
        served = sum(
            min(Fraction(p), Fraction(b) + (step if slot in schedule.on_slots else 0))
            for slot, (p, b) in enumerate(zip(pv, load))
        )
        assert served == idle + sum(gains[slot] for slot in schedule.on_slots)
        assert schedule.self_consumption_kwh == self_consumption(problem, schedule.on_slots)

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_exact_ties_break_earliest_despite_float_noise(self, contiguous):
        # both slots add exactly 0.3 kWh, but the float day sums differ in the last bit
        load = [0.0] * 24
        load[20], load[22] = 0.2, 0.1
        problem = day_problem({20: 2.5, 22: 0.7}, duration=1, power_kw=0.3,
                              contiguous=contiguous, base_load=load)
        assert solve(problem).on_slots == {20}

    def test_a_slot_without_surplus_adds_exactly_nothing_to_a_window(self):
        # windows 1-2, 3-4 and 4-5 each add exactly 0.5 kWh; the later two hold a
        # slot whose pv does not exceed its base load, and the earliest wins the tie
        problem = day_problem({1: 0.5, 2: 0.5, 4: 0.75, 5: 0.25}, power_kw=1.0, base_load=[0.25] * 24)
        assert solve(problem).on_slots == {1, 2}

    def test_base_load_soaks_pv_first(self):
        # PV at slot 1 is already eaten by base load, so the appliance
        # gains nothing there beyond the remainder
        load = [0.0] * 24
        load[1] = 2.0
        problem = day_problem({1: 2.0, 5: 3.0}, duration=1, base_load=load)
        schedule = solve(problem)
        assert schedule.on_slots == {5}

    def test_objective_bounded_by_total_pv(self):
        problem = day_problem({0: 1.0, 1: 1.0, 2: 1.0}, duration=3)
        schedule = solve(problem)
        assert 0.0 <= schedule.self_consumption_kwh <= sum(problem.pv) + 1e-9

    def test_validation(self):
        with pytest.raises(SchedulerError):
            Appliance(power_kw=0.0, duration_slots=1)
        with pytest.raises(SchedulerError):
            day_problem({}, duration=100)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(SchedulerError):
            Appliance(power_kw=bad, duration_slots=1)
        with pytest.raises(SchedulerError):
            day_problem({3: bad})
        with pytest.raises(SchedulerError):
            day_problem({}, base_load=[0.0] * 23 + [bad])


def random_problem(rng: random.Random, contiguous=True) -> ScheduleProblem:
    slot_minutes = rng.choice([30, 60])
    horizon = Horizon(slot_minutes)
    n = horizon.num_slots
    pv = tuple(round(rng.uniform(0, 3), 3) for _ in range(n))
    base_load = tuple(round(rng.uniform(0, 1), 3) for _ in range(n))
    duration = rng.randrange(1, 7)
    forced = GroundedAssignment(horizon)
    # sprinkle a few forced slots, keeping feasibility plausible
    for _ in range(rng.randrange(0, 4)):
        forced.state[rng.randrange(n)] = rng.randrange(2)
    return ScheduleProblem(
        horizon=horizon,
        pv=pv,
        base_load=base_load,
        appliance=Appliance(
            power_kw=round(rng.uniform(0.5, 5.0), 2),
            duration_slots=duration,
            contiguous=contiguous,
        ),
        forced=forced,
    )


class TestOracleEquivalence:
    def test_contiguous_matches_enumeration(self):
        rng = random.Random(20240607)
        solved = 0
        for _ in range(100):
            problem = random_problem(rng)
            expected = schedule_oracle(problem)
            if expected is None:
                with pytest.raises(InfeasibleError):
                    solve(problem)
                continue
            schedule = solve(problem)
            assert sorted(schedule.on_slots) == expected[0]
            assert schedule.self_consumption_kwh == pytest.approx(expected[1])
            solved += 1
        assert solved > 50  # most random instances must actually be solvable

    def test_non_contiguous_matches_enumeration_on_small_days(self):
        rng = random.Random(99)
        for _ in range(20):
            problem = random_problem(rng, contiguous=False)
            if problem.horizon.num_slots > 24:
                continue
            expected = schedule_oracle(problem)
            if expected is None:
                with pytest.raises(InfeasibleError):
                    solve(problem)
                continue
            schedule = solve(problem)
            assert sorted(schedule.on_slots) == expected[0]
            assert schedule.self_consumption_kwh == pytest.approx(expected[1])

    def test_returned_schedules_respect_forced_slots(self):
        rng = random.Random(5)
        for _ in range(60):
            problem = random_problem(rng)
            try:
                schedule = solve(problem)
            except InfeasibleError:
                continue
            for slot, value in enumerate(problem.forced.state):
                if value == 1:
                    assert slot in schedule.on_slots
                if value == 0:
                    assert slot not in schedule.on_slots


class TestCheckFunctional:
    GOLD = [parse_constraint("s_t = 1 ∀ 01:00 ≤ t ≤ 02:00")]

    def test_generated_equals_gold(self):
        problem = day_problem({10: 2.0})
        result = check_functional(self.GOLD, list(self.GOLD), problem)
        assert result.passed

    def test_unconstrained_generation_fails_when_pv_pulls_elsewhere(self):
        problem = day_problem({10: 2.0, 11: 2.0})
        result = check_functional(self.GOLD, [], problem)
        assert not result.passed
        assert "must be on" in result.reason

    def test_tighter_generation_passes(self):
        gold = [parse_constraint("s_t = 1 ∀ t ≥ 20:00")]
        generated = [
            parse_constraint("s_t = 1 ∀ t ≥ 20:00"),
            parse_constraint("s_t = 0 ∀ t ≤ 03:00"),
        ]
        problem = day_problem({2: 2.0}, duration=4)
        result = check_functional(gold, generated, problem)
        assert result.passed

    def test_conflicting_generation_is_failure_with_reason(self):
        generated = [parse_constraint("s_t = 1 ∀ t"), parse_constraint("s_t = 0 ∀ t ≤ 06:00")]
        result = check_functional(self.GOLD, generated, day_problem({}))
        assert not result.passed
        assert "conflict" in result.reason

    def test_gold_temperature_must_be_reproduced(self):
        gold = [parse_constraint("h_t = 21 ∀ t ≥ 22:00")] + self.GOLD
        generated_wrong = [parse_constraint("h_t = 45 ∀ t ≥ 22:00")] + self.GOLD
        generated_right = list(gold)
        problem = day_problem({})
        assert not check_functional(gold, generated_wrong, problem).passed
        assert check_functional(gold, generated_right, problem).passed

    def test_infeasible_generation_reported(self):
        generated = [parse_constraint("s_t = 1 ∀ 05:00 ≤ t ≤ 12:00")]
        problem = day_problem({}, duration=2)
        result = check_functional(self.GOLD, generated, problem)
        assert not result.passed
        assert "infeasible" in result.reason.lower()


class TestSerialization:
    def test_problem_from_file(self, tmp_path):
        import json

        payload = {
            "slot_minutes": 60,
            "pv": [0.0] * 24,
            "base_load": [0.1] * 24,
            "appliance": {"power_kw": 2.0, "duration_slots": 3, "contiguous": True},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload), "utf-8")
        problem = ScheduleProblem.from_file(path)
        assert problem.horizon.num_slots == 24
        assert problem.forced.state == [None] * 24
        assert problem.forced.temperature == [None] * 24
        schedule = solve(problem)
        assert isinstance(schedule, Schedule)

    def test_schedule_to_dict_and_timeline(self):
        problem = day_problem({1: 2.0, 2: 2.0})
        schedule = solve(problem)
        data = schedule.to_dict()
        assert data["on_slots"] == [1, 2]
        timeline = schedule.timeline(problem.horizon)
        assert len(timeline) == 24
        assert timeline[1:3] == "##"

    def test_self_consumption_helper(self):
        problem = day_problem({1: 2.0, 2: 2.0})
        assert self_consumption(problem, frozenset({1, 2})) == pytest.approx(4.0)
        assert self_consumption(problem, frozenset({5, 6})) == pytest.approx(0.0)
