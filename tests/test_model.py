import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hand_instance, random_explicit_instance, two_resource_instance
from oracles import reference_duration
from reuselab.model import (
    AlgoConfig,
    BadEpsilon,
    ResourceSpec,
    SurvivalCurve,
    duration_tail_cutoff,
    scale_parameter,
    stage_schedule,
    subsample_distribution,
    validate_instance,
    zero_outcomes,
)


class TestSurvivalCurve:
    def test_tail_values(self):
        c = SurvivalCurve([1.0, 0.5, 0.25])
        assert c.surv.tolist() == [1.0, 0.5, 0.25]
        assert len(c) == 3
        assert c.d_max == 3

    def test_mean_duration_is_tail_sum(self):
        curves = [SurvivalCurve([1.0, 1.0]), SurvivalCurve([0.5])]
        inst = dataclasses.replace(
            hand_instance(), resources=[ResourceSpec(1.0, c) for c in curves]
        )
        assert inst.durations().tolist() == [2.0, 0.5]

    def test_zero_duration_possible_when_first_tail_below_one(self):
        c = SurvivalCurve([0.5])
        rng = np.random.default_rng(3)
        draws = np.array([c.sample(rng) for _ in range(4000)])
        assert set(np.unique(draws)) == {0, 1}
        assert abs(draws.mean() - 0.5) < 0.05

    def test_sample_matches_curve_distribution(self):
        c = SurvivalCurve([1.0, 0.6, 0.2])
        rng = np.random.default_rng(11)
        draws = np.array([c.sample(rng) for _ in range(20000)])
        # Pr(D >= u) empirical vs curve
        for u in (1, 2, 3):
            assert abs(np.mean(draws >= u) - c.surv[u - 1]) < 0.02
        assert draws.max() <= 3

    def test_sample_is_draw_for_draw_the_per_call_reversal(self):
        curves = [
            SurvivalCurve([1.0, 0.6, 0.2]),
            SurvivalCurve([0.5]),
            SurvivalCurve(0.8 ** np.arange(12)),
            SurvivalCurve([1.0, 1.0, 0.0, 0.0]),
        ]
        pick = np.random.default_rng(4)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(10_000):
            c = curves[int(pick.integers(len(curves)))]
            d = c.sample(rng)
            assert type(d) is int and d == reference_duration(c, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_violations(self):
        assert SurvivalCurve([1.0, 0.5]).violations() == []
        assert SurvivalCurve([0.5, 0.7]).violations()
        assert SurvivalCurve([1.5]).violations()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SurvivalCurve([])
        with pytest.raises(ValueError):
            SurvivalCurve([[1.0]])


class TestTailCutoff:
    def test_bounded_support_zero_delta(self):
        curves = [SurvivalCurve([1.0, 0.5, 0.25]), SurvivalCurve([1.0])]
        # delta = 0 needs the full support of the longest curve
        assert duration_tail_cutoff(curves, 0.0) == 3

    def test_positive_delta_shortens(self):
        curves = [SurvivalCurve([1.0, 0.5, 0.25])]
        assert duration_tail_cutoff(curves, 0.25) == 2
        assert duration_tail_cutoff(curves, 0.75) == 1

    def test_no_curves(self):
        assert duration_tail_cutoff([], 0.0) == 1

    @pytest.mark.parametrize("delta", [-0.1, math.nan])
    def test_negative_or_nan_delta_named(self, delta):
        with pytest.raises(ValueError, match=f"delta = {delta}"):
            duration_tail_cutoff([SurvivalCurve([1.0, 0.5])], delta)


class TestStageSchedule:
    def test_hand_example(self):
        assert stage_schedule(1024, 0.25) == [
            (-1, 0, 256),
            (0, 256, 256),
            (1, 512, 512),
        ]

    def test_requires_power_of_two(self):
        with pytest.raises(BadEpsilon):
            stage_schedule(100, 0.3)
        with pytest.raises(BadEpsilon):
            stage_schedule(100, 0.0)
        with pytest.raises(BadEpsilon):
            stage_schedule(100, 0.7)

    def test_requires_integer_first_stage(self):
        with pytest.raises(BadEpsilon):
            stage_schedule(10, 0.25)

    @given(
        l=st.integers(min_value=1, max_value=6),
        mult=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, l, mult):
        eps = 1.0 / (1 << l)
        T = mult * (1 << l)
        sched = stage_schedule(T, eps)
        assert sched[0][0] == -1
        assert [r for r, _o, _l in sched] == list(range(-1, l))
        assert sum(ln for _r, _o, ln in sched) == T
        # contiguous coverage
        off = 0
        for _r, o, ln in sched:
            assert o == off
            off += ln
        # doubling lengths from stage 0 on
        lens = [ln for _r, _o, ln in sched]
        assert lens[1] == lens[0]
        for a, b in zip(lens[1:], lens[2:]):
            assert b == 2 * a

    @given(
        T=st.integers(min_value=8, max_value=5000),
        eps=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_relaxed_partition_property(self, T, eps):
        sched = stage_schedule(T, eps, relaxed=True)
        assert sum(ln for _r, _o, ln in sched) == T
        assert all(ln >= 1 for _r, _o, ln in sched)
        assert len(sched) >= 2

    def test_relaxed_matches_exact_when_divisible(self):
        assert stage_schedule(1024, 0.25, relaxed=True) == stage_schedule(1024, 0.25)

    @given(
        l=st.integers(min_value=1, max_value=11),
        mult=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_relaxed_is_exact_doubling_when_divisible(self, l, mult):
        eps = 1.0 / (1 << l)
        T = mult * (1 << l)
        doubling = [(-1, 0, mult)] + [(r, mult << r, mult << r) for r in range(l)]
        assert stage_schedule(T, eps, relaxed=True) == stage_schedule(T, eps) == doubling


class TestAlgoConfig:
    def test_stage_count_and_eta_default(self):
        cfg = AlgoConfig(epsilon=0.25, gamma=8.0)
        assert cfg.n_stages == 2
        assert cfg.eta_value() == 0.25 / 10.0
        assert AlgoConfig(epsilon=0.125, gamma=8.0).n_stages == 3

    def test_eta_override(self):
        cfg = AlgoConfig(epsilon=0.25, gamma=8.0, eta=0.07)
        assert cfg.eta_value() == 0.07

    def test_violations_clean(self):
        cfg = AlgoConfig(epsilon=0.25, gamma=8.0, tail_cutoff=2)
        assert cfg.violations(1024) == []

    def test_violations_catch_bad_fields(self):
        assert AlgoConfig(epsilon=0.3, gamma=1.0).violations(16)
        assert AlgoConfig(epsilon=0.25, gamma=-1.0).violations(16)
        assert AlgoConfig(epsilon=0.25, gamma=1.0, delta=1.0).violations(16)
        assert AlgoConfig(epsilon=0.25, gamma=1.0, tail_cutoff=0).violations(16)
        assert AlgoConfig(epsilon=0.25, gamma=1.0, eta=1.5).violations(16)
        # epsilon * T not integral
        assert AlgoConfig(epsilon=0.25, gamma=1.0).violations(10)
        # tail cutoff longer than the exploration stage
        assert AlgoConfig(epsilon=0.25, gamma=1.0, tail_cutoff=5).violations(8)
        for eps in (0.0, -0.1, math.nan):
            for T in (1, 16):
                got = AlgoConfig(epsilon=eps, gamma=1.0).violations(T)
                assert got[0] == f"epsilon must lie in (0, 1/2], got {eps}"

    def test_relaxed_schedule_waives_only_divisibility(self):
        relaxed = dict(gamma=1.0, relaxed_schedule=True)
        assert AlgoConfig(epsilon=0.3, **relaxed).violations(10) == []
        assert AlgoConfig(epsilon=0.25, **relaxed).violations(10) == []
        bad = AlgoConfig(epsilon=0.25, eta=3.0, **relaxed).violations(10)
        assert bad == ["eta must lie in (0, 1), got 3.0"]
        assert AlgoConfig(epsilon=0.6, **relaxed).violations(10)

    @given(
        eps=st.one_of(
            st.floats(min_value=0.001, max_value=0.6),
            st.integers(min_value=1, max_value=11).map(lambda l: 1.0 / (1 << l)),
        ),
        T=st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=300, deadline=None)
    def test_violations_report_exactly_what_the_schedule_rejects(self, eps, T):
        try:
            stage_schedule(T, eps)
        except BadEpsilon as exc:
            want = [str(exc)]
        else:
            want = []
        schedule_msgs = [
            m for m in AlgoConfig(epsilon=eps, gamma=1.0, eta=0.5).violations(T)
            if m.startswith(("epsilon must lie", "1/epsilon", "epsilon*T"))
        ]
        assert schedule_msgs == want


class TestScaleParameter:
    def test_capacity_bound(self):
        inst = hand_instance(8)
        # c/a_max = 1, T*lam/w_max = 8*0.5 = 4
        assert scale_parameter(inst, 0.5) == 1.0

    def test_reward_bound(self):
        inst = hand_instance(8)
        assert scale_parameter(inst, 0.1) == pytest.approx(0.8)

    def test_zero_reward_bound(self):
        inst = hand_instance(8)
        assert scale_parameter(inst, 0.0) == 0.0


class TestSubsample:
    def test_distribution_properties(self):
        rng = np.random.default_rng(5)
        p = np.array([0.2, 0.5, 0.3])
        q = subsample_distribution(p, 40, rng)
        assert q.shape == p.shape
        assert abs(q.sum() - 1.0) < 1e-12
        assert np.all(q * 40 == np.round(q * 40))

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            subsample_distribution([1.0], 0, np.random.default_rng(0))

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(6)
        p = np.array([0.7, 0.3])
        q = subsample_distribution(p, 100_000, rng)
        assert abs(q[0] - 0.7) < 0.01


class TestValidateInstance:
    def test_fixtures_are_valid(self):
        assert validate_instance(hand_instance()) == []
        assert validate_instance(two_resource_instance()) == []

    def test_random_instances_are_valid(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            assert validate_instance(random_explicit_instance(rng)) == []

    def test_catches_bad_weights(self):
        inst = hand_instance()
        inst.customers[1].weight = 0.5
        assert any("sum to 1" in m for m in validate_instance(inst))

    def test_catches_nonnull_null_type(self):
        inst = hand_instance()
        inst.null_type = 1
        assert any("all-zero" in m for m in validate_instance(inst))

    def test_catches_bad_capacity(self):
        inst = hand_instance()
        inst.resources[0].capacity = 0.0
        assert any("capacity" in m for m in validate_instance(inst))

    @pytest.mark.parametrize("field, value, where", [
        ("capacity", math.inf, "resources[0].capacity"),
        ("capacity", math.nan, "resources[0].capacity"),
    ])
    def test_catches_non_finite_resource_fields(self, field, value, where):
        inst = hand_instance()
        setattr(inst.resources[0], field, value)
        problems = validate_instance(inst)
        assert any(m.startswith(where) and "finite" in m for m in problems), problems

    def test_catches_non_finite_survival(self):
        inst = hand_instance()
        inst.resources[0].survival = SurvivalCurve([1.0, math.nan])
        assert validate_instance(inst) == ["resources[0].survival: entries must be finite"]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_catches_non_finite_weight(self, value):
        inst = hand_instance()
        inst.customers[1].weight = value
        assert validate_instance(inst) == [f"customers[1].weight must be finite, got {value}"]

    @pytest.mark.parametrize("table, value", [
        ("rewards", math.nan), ("rewards", math.inf),
        ("consumption", math.nan), ("consumption", math.inf),
    ])
    def test_catches_non_finite_outcome_tables(self, table, value):
        inst = hand_instance()
        om = inst.customers[1].outcomes
        getattr(om, table)[0, 1] = value
        name = "reward" if table == "rewards" else "consumption"
        problems = validate_instance(inst)
        assert f"customers[1].outcomes: {name} table must be finite" in problems, problems

    def test_catches_non_finite_outcome_cap(self):
        inst = hand_instance()
        inst.customers[1].outcomes.consumption_cap = math.inf
        problems = validate_instance(inst)
        assert "customers[1].outcomes: consumption cap must be finite, got inf" in problems

    def test_catches_nonzero_null_action(self):
        inst = hand_instance()
        out = inst.customers[1].outcomes
        out.rewards[0, 0] = 0.3
        assert any("null action" in m for m in validate_instance(inst))

    def test_catches_table_shape_mismatch(self):
        inst = hand_instance()
        inst.customers[1].outcomes = zero_outcomes(1, 1, 3)
        assert any("actions" in m for m in validate_instance(inst))


class TestInstanceDerived:
    def test_bounds_derived_from_outcomes(self):
        inst = two_resource_instance()
        assert inst.w_max == 1.0
        assert inst.a_max == 1.0

    def test_durations_and_capacities(self):
        inst = two_resource_instance()
        assert np.allclose(inst.durations(), [1.5, 2.0])
        assert np.allclose(inst.capacities(), [4.0, 4.0])

    def test_survival_matrix_padding(self):
        inst = two_resource_instance()
        m = inst.survival_matrix(4)
        assert m.shape == (2, 4)
        assert np.allclose(m[0], [1.0, 0.5, 0.0, 0.0])
        assert np.allclose(m[1], [1.0, 0.75, 0.25, 0.0])
