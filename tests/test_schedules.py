"""Schedule arithmetic against hand-computed values."""
import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etsgd.schedules import (
    Constant,
    DampedInverseTime,
    Diminishing,
    InverseTime,
    Linear,
    LogDamped,
    ScheduleError,
    parse_sample_schedule,
    parse_step_schedule,
    round_plan,
    sample_size,
    step_size,
    tau,
)


class TestSampleSize:
    def test_linear_grows_by_round(self):
        sched = Linear(10, 1, 0)
        assert [sample_size(sched, i) for i in range(4)] == [10, 20, 30, 40]

    def test_constant_is_flat(self):
        assert [sample_size(Constant(7), i) for i in range(5)] == [7] * 5

    def test_logdamped_values(self):
        sched = LogDamped(1.0)
        # 1/ln2 = 1.44 -> 1, 2/ln3 = 1.82 -> 2, 3/ln4 = 2.16 -> 2
        assert [sample_size(sched, i) for i in range(3)] == [1, 2, 2]

    def test_rounds_half_up(self):
        assert sample_size(Linear(2.5, 1, 0), 0) == 3
        assert sample_size(Linear(2.4, 1, 0), 0) == 2

    def test_minimum_one_step(self):
        assert sample_size(Linear(0.1, 1, 0), 0) == 1

    def test_sublinear_exponent(self):
        sched = Linear(10, 0.5, 0)
        assert sample_size(sched, 3) == 20  # 10 * sqrt(4)

    def test_additive_floor(self):
        assert sample_size(Linear(10, 1, 5), 0) == 15

    def test_negative_round_rejected(self):
        with pytest.raises(ScheduleError):
            sample_size(Constant(5), -1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ScheduleError):
            Linear(-1, 1, 0)
        with pytest.raises(ScheduleError):
            Linear(0, 1, 0)  # every round would be empty
        with pytest.raises(ScheduleError):
            Constant(0)
        with pytest.raises(ScheduleError):
            LogDamped(0)


def rounds_for(sched, total_iterations):
    return len(round_plan(sched, total_iterations)[0])


class TestRequiredRounds:
    def test_default_linear_budget(self):
        assert rounds_for(Linear(10, 1, 0), 60000) == 110

    @pytest.mark.parametrize(
        "s,expected",
        [(10, 6000), (50, 1200), (100, 600), (200, 300), (500, 120), (700, 86), (1000, 60)],
    )
    def test_constant_budgets(self, s, expected):
        assert rounds_for(Constant(s), 60000) == expected

    def test_zero_budget_needs_no_rounds(self):
        assert round_plan(Linear(10, 1, 0), 0) == ([], [])

    def test_minimality(self):
        for sched in (Linear(10, 1, 0), Constant(7), LogDamped(3.0), Linear(3, 0.5, 1)):
            for k in (1, 10, 99, 1234):
                rounds = rounds_for(sched, k)
                sizes = [sample_size(sched, i) for i in range(rounds)]
                assert sum(sizes) >= k
                assert sum(sizes[:-1]) < k

    def test_negative_budget_rejected(self):
        with pytest.raises(ScheduleError):
            round_plan(Constant(5), -1)


def test_round_plan_matches_pointwise_queries():
    sched = LogDamped(5.0)
    full = [sample_size(sched, i) for i in range(8)]
    sizes, starts = round_plan(sched, sum(full))
    assert sizes == full
    assert starts == [sum(full[:i]) for i in range(8)]


def test_round_start_iteration():
    assert round_plan(Linear(10, 1, 0), 1)[1][0] == 0
    # the last round is trimmed to the budget; starts are untouched by the trim
    assert round_plan(Linear(10, 1, 0), 35) == ([10, 20, 5], [0, 10, 30])
    assert round_plan(Constant(100), 550)[1][5] == 500
    with pytest.raises(ScheduleError):
        round_plan(Constant(100), -2)


SAMPLE_SCHEDULES = st.one_of(
    st.tuples(st.floats(0, 50), st.floats(0, 2), st.floats(0, 20))
    .filter(lambda apb: apb[0] > 0 or apb[2] > 0)
    .map(lambda apb: Linear(*apb)),
    st.integers(1, 300).map(Constant),
    st.floats(0.01, 50).map(LogDamped),
)


@settings(deadline=None, derandomize=True)
@given(sched=SAMPLE_SCHEDULES, budget=st.integers(0, 5000))
def test_round_plan_properties(sched, budget):
    sizes, starts = round_plan(sched, budget)
    full = [sample_size(sched, i) for i in range(len(sizes))]
    assert sum(sizes) == budget
    assert sizes[:-1] == full[:-1]
    assert starts == list(accumulate(sizes, initial=0))[:-1]
    if budget == 0:
        assert sizes == []
    else:
        assert 1 <= sizes[-1] <= full[-1]
        # one round fewer, at full size, does not cover the budget
        assert sum(full[:-1]) < budget


class TestStepSize:
    def test_diminishing_known_value(self):
        # eta0/(1 + beta*sqrt(t)) at t=10000: 0.01/(1 + 0.01*100) = 0.005
        assert step_size(Diminishing(0.01, 0.01), 10000) == pytest.approx(0.005)

    def test_diminishing_flat_when_beta_zero(self):
        sched = Diminishing(0.25, 0.0)
        assert step_size(sched, 0) == step_size(sched, 10**6) == 0.25

    def test_inverse_time(self):
        sched = InverseTime(0.01, 1e-5)
        assert step_size(sched, 0) == pytest.approx(0.01)
        assert step_size(sched, 100000) == pytest.approx(0.005)

    def test_damped_inverse_time(self):
        sched = DampedInverseTime(0.01, 1e-5)
        assert step_size(sched, 0) == pytest.approx(0.02252)
        assert step_size(sched, 100000) == pytest.approx(0.02252 / 2 ** 0.1)

    def test_rates_decrease(self):
        for sched in (Diminishing(0.01, 0.01), InverseTime(0.01, 1e-5), DampedInverseTime(0.01, 1e-5)):
            rates = [step_size(sched, t) for t in (0, 10, 1000, 10**6)]
            assert rates == sorted(rates, reverse=True)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ScheduleError):
            step_size(Diminishing(0.01, 0.01), -1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ScheduleError):
            Diminishing(0.0, 0.1)
        with pytest.raises(ScheduleError):
            InverseTime(0.01, -1)


class TestTau:
    def test_reference_values(self):
        assert tau(3) == pytest.approx(1.6525, abs=5e-4)
        assert tau(100) == pytest.approx(4.660, abs=5e-4)

    def test_clamped_below_three(self):
        assert tau(0) == tau(1) == tau(2.9) == tau(3)

    def test_grows_with_t(self):
        for t in (8, 16, 100, 10**6):
            assert tau(2 * t) > tau(t)

    def test_window_stays_monotone(self):
        # the allowed window t - tau(t) never shrinks as t grows
        windows = [t - tau(t) for t in range(0, 2000)]
        assert all(b >= a for a, b in zip(windows, windows[1:]))

    def test_exact_formula_above_clamp(self):
        assert tau(50) == pytest.approx(math.sqrt(50 / math.log(50)))


class TestParsers:
    def test_sample_grammar(self):
        assert parse_sample_schedule("linear:10,1,0") == Linear(10, 1, 0)
        assert parse_sample_schedule("const:200") == Constant(200)
        assert parse_sample_schedule("thetalog:5") == LogDamped(5.0)

    def test_step_grammar(self):
        assert parse_step_schedule("diminishing:0.01,0.01") == Diminishing(0.01, 0.01)
        assert parse_step_schedule("invtime:0.01,1e-5") == InverseTime(0.01, 1e-5)
        assert parse_step_schedule("damped:0.01,1e-5") == DampedInverseTime(0.01, 1e-5)

    @pytest.mark.parametrize(
        "text",
        ["linear:1", "linear", "const:", "const:0", "bogus:1", "linear:-1,1,0", "linear:a,b,c", ""],
    )
    def test_bad_sample_text(self, text):
        with pytest.raises(ScheduleError):
            parse_sample_schedule(text)

    @pytest.mark.parametrize("text", ["diminishing:0.01", "invtime:", "damped:0,1", "linear:10,1,0"])
    def test_bad_step_text(self, text):
        with pytest.raises(ScheduleError):
            parse_step_schedule(text)
