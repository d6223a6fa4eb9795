import logging
import math

import numpy as np
import pytest

from helpers import (
    hand_instance,
    random_explicit_instance,
    small_mnl_instance,
    two_resource_instance,
)
from oracles import reference_select, weights_closed_form
from reuselab.harness import GeneratorSpec, generate_instance, make_policy, solve_benchmarks
from reuselab.lp import solve_steady_state
from reuselab.model import (
    AlgoConfig,
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    ResourceSpec,
    SurvivalCurve,
    scale_parameter,
    zero_outcomes,
)
from reuselab.policy import (
    AdaptivePolicy,
    AlwaysNullPolicy,
    HybridPolicy,
    StageRecord,
    StageTailRejector,
    StaticPolicy,
    UniformRandomPolicy,
    estimate_margin,
    init_penalty_weights,
    reward_margin,
    select_action,
    update_penalty_weights,
    violation_potential,
    violation_potential_terms,
)
from reuselab.sim import run_episode


class TestMargins:
    def test_estimate_margin_frozen(self):
        # sqrt(4 * 1024 * ln(2*2/0.025) / (256 * 64)), computed by hand
        got = estimate_margin(1024, 256, 64.0, 2, 0.025)
        assert got == pytest.approx(1.1264073214465788, rel=1e-13)

    def test_reward_margin_frozen(self):
        # sqrt(2 * 1 * 1.25 * ln(2*2*2/0.025) / (256 * 0.5))
        got = reward_margin(1.0, 0.25, 2, 2, 0.025, 256, 0.5)
        assert got == pytest.approx(0.33565237888192767, rel=1e-13)

    def test_reward_margin_clamped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="reuselab.policy"):
            got = reward_margin(1.0, 0.25, 2, 2, 0.025, 4, 0.01)
        assert got == 0.99
        assert any("clamping" in r.message for r in caplog.records)

    def test_margins_shrink_with_more_data(self):
        a = estimate_margin(1024, 64, 16.0, 4, 0.05)
        b = estimate_margin(1024, 128, 16.0, 4, 0.05)
        assert b < a


def lead_instance():
    """One resource, capacity 2, deterministic unit duration, w = a = 1."""
    real = ExplicitOutcomes(rewards=[[0.0, 1.0]], consumption=[[0.0, 1.0]])
    return Instance(
        resources=[ResourceSpec(2.0, SurvivalCurve([1.0]))],
        reward_count=1,
        customers=[CustomerType(0.5, zero_outcomes(1, 1, 2)), CustomerType(0.5, real)],
        actions=ExplicitActions(2),
        horizon=16,
        null_type=0,
    )


class TestInitWeights:
    def test_frozen_lead_value(self):
        # log(eps*gamma) - log(c) - (gamma-delta)*log1p(eps)
        # = log(1) - log(2) - 4*log1p(0.25)
        inst = lead_instance()
        config = AlgoConfig(epsilon=0.25, gamma=4.0, delta=0.0)
        ws = init_penalty_weights(inst, 4, 0.5, 0.2, config)
        assert ws.log_resource[0, 1] == pytest.approx(-1.5857213858167842, rel=1e-13)

    def test_frozen_reward_mag(self):
        # log(0.2) + 3*log1p(-0.2*0.5/1.25) - 0.8*4*0.5*log1p(-0.2)
        inst = lead_instance()
        config = AlgoConfig(epsilon=0.25, gamma=4.0, delta=0.0)
        ws = init_penalty_weights(inst, 4, 0.5, 0.2, config)
        assert ws.log_reward_mag[0] == pytest.approx(-1.5025530571485177, rel=1e-13)

    def test_slot_zero_unused_and_recurrence(self):
        inst = two_resource_instance(32)
        config = AlgoConfig(epsilon=0.25, gamma=2.0)
        ws = init_penalty_weights(inst, 8, 0.3, 0.25, config)
        assert np.all(np.isneginf(ws.log_resource[:, 0]))
        for t in range(2, 9):
            assert ws.log_resource[:, t] == pytest.approx(
                ws.log_resource[:, t - 1] + ws.occ_factors[:, t - 1]
            )

    def test_matches_closed_form_at_start(self):
        inst = two_resource_instance(32)
        config = AlgoConfig(epsilon=0.25, gamma=2.0)
        ws = init_penalty_weights(inst, 8, 0.3, 0.25, config)
        res, mag = weights_closed_form(inst, config, 8, 0.3, 0.25, [])
        assert np.allclose(ws.log_resource, res)
        assert np.allclose(ws.log_reward_mag, mag)

    def test_zero_reward_bound_rejected(self):
        dead = ExplicitOutcomes(rewards=[[0.0, 0.0]], consumption=[[0.0, 1.0]])
        inst = Instance(
            resources=[ResourceSpec(1.0, SurvivalCurve([1.0]))],
            reward_count=1,
            customers=[CustomerType(0.5, zero_outcomes(1, 1, 2)), CustomerType(0.5, dead)],
            actions=ExplicitActions(2),
            horizon=8,
            null_type=0,
        )
        config = AlgoConfig(epsilon=0.25, gamma=1.0)
        with pytest.raises(ValueError, match="reward bound"):
            init_penalty_weights(inst, 4, 0.1, 0.2, config)


class TestWeightUpdates:
    def random_choices(self, rng, inst, n):
        acts = inst.actions.all_actions()
        return [
            (int(rng.integers(0, inst.n_types)), acts[int(rng.integers(0, len(acts)))])
            for _ in range(n)
        ]

    @pytest.mark.parametrize("stage_len", [8, 16, 33])
    def test_incremental_matches_closed_form_each_prefix(self, stage_len):
        rng = np.random.default_rng(stage_len)
        inst = random_explicit_instance(rng, horizon=64)
        config = AlgoConfig(epsilon=0.25, gamma=1.5, delta=0.0)
        lam = (0.1 + 0.3 * rng.random()) * inst.w_max
        eps_z = 0.1 + 0.4 * rng.random()
        choices = self.random_choices(rng, inst, stage_len)
        ws = init_penalty_weights(inst, stage_len, lam, eps_z, config)
        for s, (j, k) in enumerate(choices, start=1):
            update_penalty_weights(ws, inst, j, k)
            assert ws.updates == s
            res, mag = weights_closed_form(inst, config, stage_len, lam, eps_z, choices[:s])
            assert np.allclose(ws.log_resource, res, rtol=1e-9, atol=1e-9)
            assert np.allclose(ws.log_reward_mag, mag, rtol=1e-9, atol=1e-9)

    def test_exhausted_stage_raises(self):
        inst = lead_instance()
        config = AlgoConfig(epsilon=0.25, gamma=2.0)
        ws = init_penalty_weights(inst, 2, 0.2, 0.2, config)
        update_penalty_weights(ws, inst, 1, 1)
        update_penalty_weights(ws, inst, 1, 1)
        with pytest.raises(RuntimeError, match="exhausted"):
            update_penalty_weights(ws, inst, 1, 1)
        with pytest.raises(RuntimeError, match="exhausted"):
            select_action(ws, inst, 1)

    def test_null_updates_only_drift(self):
        inst = lead_instance()
        config = AlgoConfig(epsilon=0.25, gamma=2.0)
        ws = init_penalty_weights(inst, 4, 0.2, 0.2, config)
        before_mag = ws.log_reward_mag.copy()
        update_penalty_weights(ws, inst, 0, 0)  # null arrival, null action
        assert ws.log_reward_mag[0] == pytest.approx(before_mag[0] - ws.log_drift_z)
        # projected occupancy of nothing: future slots just shed a factor
        res, _mag = weights_closed_form(inst, config, 4, 0.2, 0.2, [(0, 0)])
        assert np.allclose(ws.log_resource, res)


def full_width_update(ws, inst, customer, action):
    """The weight update over every future slot s+1..L, with no d_max window."""
    w, a = inst.customers[customer].outcomes.means(action)
    s = ws.updates + 1
    L = ws.stage_len
    if s < L:
        rel = np.arange(1, L - s + 1)   # t - s for t in s+1..L
        proj = a[:, None] * ws.surv[:, rel + 1]
        ws.log_resource[:, s + 1 : L + 1] += (
            (ws.gamma / ws.caps)[:, None] * proj * ws.log1p_eps
            - ws.occ_factors[:, rel]
        )
    ws.log_reward_mag += (w / ws.w_max) * ws.log_shrink_z - ws.log_drift_z
    ws.updates = s


def curves_instance(curves, rng, n_actions: int = 4) -> Instance:
    """One resource per survival curve, two real types with random tables."""
    C = len(curves)
    real = []
    for _ in range(2):
        w = rng.uniform(0.0, 1.0, size=(2, n_actions))
        a = rng.uniform(0.0, 1.0, size=(C, n_actions))
        w[:, 0] = 0.0
        a[:, 0] = 0.0
        real.append(CustomerType(0.4, ExplicitOutcomes(w, a)))
    return Instance(
        resources=[ResourceSpec(float(rng.uniform(0.5, 2.0)), SurvivalCurve(c)) for c in curves],
        reward_count=2,
        customers=[CustomerType(0.2, zero_outcomes(2, C, n_actions))] + real,
        actions=ExplicitActions(n_actions),
        horizon=64,
        null_type=0,
    )


class TestWeightWindow:
    """The d_max-wide update and greedy sum against the full-width versions."""

    @pytest.mark.parametrize(
        "curves, L, d_max",
        [
            ([[1.0, 0.9, 0.7, 0.5, 0.3, 0.2]], 3, 4),           # stage shorter than d_max
            ([[1.0], [0.6]], 7, 1),                             # d_max = 1
            ([[0.0, 0.0], [1.0, 0.5, 0.25]], 9, 3),             # a zero-duration resource
            ([[0.0]], 5, 0),                                    # nothing ever occupies
            ([[1.0, 0.5], [1.0, 0.8, 0.6, 0.3, 0.1], [0.4]], 12, 5),  # mixed d_max
        ],
    )
    def test_matches_full_width_every_step(self, curves, L, d_max):
        rng = np.random.default_rng(len(curves) * 100 + L)
        inst = curves_instance(curves, rng)
        config = AlgoConfig(epsilon=0.25, gamma=1.7)
        ws = init_penalty_weights(inst, L, 0.2 * inst.w_max, 0.3, config)
        ref = init_penalty_weights(inst, L, 0.2 * inst.w_max, 0.3, config)
        assert ws.d_max == d_max
        acts = inst.actions.all_actions()
        for s in range(1, L + 1):
            # the last step with include_current=False has an empty window
            for inc in (True, False):
                for j in range(inst.n_types):
                    assert select_action(ws, inst, j, inc) == reference_select(ref, inst, j, inc)
            j = int(rng.integers(0, inst.n_types))
            k = acts[int(rng.integers(0, len(acts)))]
            update_penalty_weights(ws, inst, j, k)
            full_width_update(ref, inst, j, k)
            assert np.array_equal(ws.log_resource, ref.log_resource), s
            assert np.array_equal(ws.log_reward_mag, ref.log_reward_mag), s
        assert ws.updates == ref.updates == L

    def test_long_curve_window_is_clipped_to_stage(self):
        inst = curves_instance([np.linspace(1.0, 0.1, 20)], np.random.default_rng(3))
        ws = init_penalty_weights(inst, 6, 0.1, 0.3, AlgoConfig(epsilon=0.25, gamma=1.0))
        assert ws.d_max == 7   # surv is kept through gap stage_len + 1


class TestSelectAction:
    def test_null_customer_gets_null(self):
        inst = lead_instance()
        config = AlgoConfig(epsilon=0.25, gamma=2.0)
        ws = init_penalty_weights(inst, 4, 0.2, 0.2, config)
        assert select_action(ws, inst, 0) == inst.actions.null_action

    @pytest.mark.parametrize("include_current", [True, False])
    def test_matches_reference_on_explicit_fuzz(self, include_current):
        rng = np.random.default_rng(99 + include_current)
        for trial in range(25):
            inst = random_explicit_instance(rng, horizon=40)
            if inst.w_max <= 0.0:
                continue
            config = AlgoConfig(epsilon=0.25, gamma=float(1.0 + rng.random()))
            L = int(rng.integers(2, 12))
            ws = init_penalty_weights(
                inst, L, (0.05 + 0.3 * rng.random()) * inst.w_max, 0.1 + 0.5 * rng.random(), config
            )
            acts = inst.actions.all_actions()
            for _ in range(int(rng.integers(0, L))):
                j = int(rng.integers(0, inst.n_types))
                k = acts[int(rng.integers(0, len(acts)))]
                update_penalty_weights(ws, inst, j, k)
            if ws.updates + 1 > L:
                continue
            for j in range(inst.n_types):
                got = select_action(ws, inst, j, include_current)
                want = reference_select(ws, inst, j, include_current)
                assert got == want, (trial, j)

    def test_matches_reference_on_logit_customers(self):
        inst = small_mnl_instance()
        config = AlgoConfig(epsilon=0.25, gamma=2.0)
        rng = np.random.default_rng(5)
        for trial in range(10):
            L = int(rng.integers(3, 10))
            ws = init_penalty_weights(
                inst, L, (0.1 + 0.2 * rng.random()) * inst.w_max, 0.1 + 0.4 * rng.random(), config
            )
            for _ in range(int(rng.integers(0, L - 1))):
                j = int(rng.integers(0, inst.n_types))
                k = inst.actions.sample_uniform(rng)
                update_penalty_weights(ws, inst, j, k)
            for j in range(inst.n_types):
                got = select_action(ws, inst, j)
                want = reference_select(ws, inst, j)
                assert tuple(got) == tuple(want), (trial, j)


class TestStaticPolicy:
    def test_rate_frequencies(self):
        inst = hand_instance(16)
        pol = StaticPolicy({(1, 1): 0.6}, epsilon=0.2)
        pol.reset(inst, np.random.default_rng(0))
        draws = [pol.choose(1, 1) for _ in range(4000)]
        freq = np.mean([d == 1 for d in draws])
        assert freq == pytest.approx(0.5, abs=0.025)  # 0.6 / 1.2
        assert all(pol.choose(1, 0) == 0 for _ in range(20))  # null type never buys

    def test_accepts_lp_solution_object(self):
        inst = hand_instance(16)
        sol = solve_steady_state(inst, inst.arrival_weights())
        pol = StaticPolicy(sol, epsilon=0.25)
        pol.reset(inst, np.random.default_rng(1))
        assert pol.choose(1, 1) in (0, 1)

    def test_overflowing_rates_rejected(self):
        inst = hand_instance(16)
        pol = StaticPolicy({(1, 1): 1.5}, epsilon=0.2)
        with pytest.raises(ValueError, match="exceed"):
            pol.reset(inst, np.random.default_rng(0))

    def test_saturated_rates_always_play(self):
        inst = hand_instance(16)
        pol = StaticPolicy({(1, 1): 2.0}, epsilon=1.0)  # shrinks to exactly 1
        pol.reset(inst, np.random.default_rng(2))
        assert all(pol.choose(1, 1) == 1 for _ in range(50))


class TestAdaptivePolicy:
    def adaptive_setup(self, horizon=16):
        inst = hand_instance(horizon)
        lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
        gamma = scale_parameter(inst, lam)
        config = AlgoConfig(epsilon=0.25, gamma=gamma, seed=0)
        return inst, config

    def test_stage_machinery(self):
        inst, config = self.adaptive_setup()
        pol = AdaptivePolicy(config, record_history=True)
        run_episode(inst, pol, seed=3)
        assert pol.lp_solves == 2
        assert [rec.stage for rec in pol.history] == [-1, 0, 1]
        assert [rec.length for rec in pol.history] == [4, 4, 8]
        assert pol.history[0].mode == "uniform"
        for rec in pol.history[1:]:
            assert rec.mode == "weighted"
            assert len(rec.choices) == rec.length
            assert rec.lam is not None and rec.lam > 0
            assert rec.eps_x is not None and rec.eps_z is not None

    def test_snapshot_shapes(self):
        inst, config = self.adaptive_setup()
        pol = AdaptivePolicy(config)
        run_episode(inst, pol, seed=3)
        snap = pol.snapshot()
        assert snap["mode"] == "weighted"
        assert snap["updates"] == snap["stage_len"] == 8
        assert snap["log_resource"].shape == (1, 8)
        assert snap["log_reward_mag"].shape == (1,)

    def test_degenerate_stage_plays_uniform(self, caplog):
        # all arrivals are the null type, so every stage LP is degenerate
        real = ExplicitOutcomes(rewards=[[0.0, 1.0]], consumption=[[0.0, 1.0]])
        inst = Instance(
            resources=[ResourceSpec(1.0, SurvivalCurve([1.0]))],
            reward_count=1,
            customers=[CustomerType(1.0, zero_outcomes(1, 1, 2)), CustomerType(0.0, real)],
            actions=ExplicitActions(2),
            horizon=16,
            null_type=0,
        )
        config = AlgoConfig(epsilon=0.25, gamma=1.0)
        pol = AdaptivePolicy(config, record_history=True)
        with caplog.at_level(logging.WARNING, logger="reuselab.policy"):
            run_episode(inst, pol, seed=1)
        assert all(rec.mode == "uniform" for rec in pol.history)
        assert any("degenerate" in r.message for r in caplog.records)

    def test_nonpositive_gamma_rejected(self):
        inst, _config = self.adaptive_setup()
        pol = AdaptivePolicy(AlgoConfig(epsilon=0.25, gamma=0.0))
        with pytest.raises(ValueError, match="scale parameter"):
            run_episode(inst, pol, seed=0)

    def test_saa_name_and_subsample(self):
        inst, config = self.adaptive_setup()
        pol = AdaptivePolicy(config, stage_subsample=50)
        assert pol.name == "adaptive+saa50"
        run_episode(inst, pol, seed=2)  # smoke: subsampled p_hat still solvable


class TestHybridPolicy:
    def test_switch_zero_replays_static(self):
        inst = hand_instance(16)
        sol = solve_steady_state(inst, inst.arrival_weights())
        gamma = scale_parameter(inst, sol.lambda_)
        config = AlgoConfig(epsilon=0.25, gamma=gamma)
        a = run_episode(inst, StaticPolicy(sol, config.epsilon), seed=11)
        b = run_episode(inst, HybridPolicy(config, sol, s_switch=0), seed=11)
        assert np.array_equal(a.reward_total, b.reward_total)
        assert a.forced_rejects == b.forced_rejects

    def test_switch_past_stage_replays_adaptive(self):
        inst = hand_instance(16)
        sol = solve_steady_state(inst, inst.arrival_weights())
        gamma = scale_parameter(inst, sol.lambda_)
        config = AlgoConfig(epsilon=0.25, gamma=gamma)
        a = run_episode(inst, AdaptivePolicy(config), seed=11)
        b = run_episode(inst, HybridPolicy(config, sol, s_switch=8), seed=11)
        assert np.array_equal(a.reward_total, b.reward_total)
        assert a.forced_rejects == b.forced_rejects

    def test_name(self):
        config = AlgoConfig(epsilon=0.25, gamma=1.0)
        assert HybridPolicy(config, {}, s_switch=3).name == "hybrid3"


class AlwaysBuy:
    name = "buy"

    def __init__(self):
        self.observed = 0

    def reset(self, inst, rng):
        self.inst = inst

    def choose(self, t, j):
        return 1

    def observe(self, t, j, action, forced):
        self.observed += 1


class TestStageTailRejector:
    def test_rejects_stage_tails(self):
        inst = hand_instance(16)
        config = AlgoConfig(epsilon=0.25, gamma=1.0, tail_cutoff=3)
        pol = StageTailRejector(AlwaysBuy(), config)
        assert pol.name == "buy+tailguard"
        trace = run_episode(inst, pol, seed=0, record_steps=True)
        # stages cover 1-4, 5-8, 9-16; cutoff 3 nulls the last 2 steps of each
        blocked = {3, 4, 7, 8, 15, 16}
        for st in trace.steps:
            if st.step in blocked:
                assert st.chosen == 0, st.step
            else:
                assert st.chosen == 1, st.step

    def test_cutoff_one_never_rejects(self):
        inst = hand_instance(16)
        config = AlgoConfig(epsilon=0.25, gamma=1.0, tail_cutoff=1)
        inner = AlwaysBuy()
        trace = run_episode(inst, StageTailRejector(inner, config), seed=0, record_steps=True)
        assert all(st.chosen == 1 for st in trace.steps)
        assert inner.observed == 16  # observe is forwarded every step

    def test_refused_stages_still_plan_from_arrivals(self):
        # relaxed stages at T=50, eps=0.03 are 2, 2, 3, 6, 12, 25 long, so a
        # cutoff of 5 refuses the first three outright: the guarded policies
        # must still see those arrivals and plan every stage as plain
        # adaptive does
        spec = GeneratorSpec(n_products=3, n_customers=4, base_horizon=50, base_capacity=5.0)
        inst = generate_instance(spec)
        bench = solve_benchmarks(inst, te_cap=0)
        config = AlgoConfig(
            epsilon=0.03, gamma=scale_parameter(inst, bench.lambda_ss), tail_cutoff=5,
            relaxed_schedule=True,
        )
        history = {}
        for label in ("adaptive", "adaptive+tailguard", "hybrid3+tailguard"):
            pol = make_policy(label, inst, config, bench)
            inner = pol.inner if isinstance(pol, StageTailRejector) else pol
            inner.record_history = True
            run_episode(inst, pol, seed=7)
            history[label] = inner.history
        want = history.pop("adaptive")
        assert [rec.length for rec in want] == [2, 2, 3, 6, 12, 25]
        assert all(rec.mode == "weighted" for rec in want[1:])
        for label, got in history.items():
            assert len(got) == len(want), label
            for a, b in zip(got, want):
                assert (a.start, a.mode, a.lam) == (b.start, b.mode, b.lam), (label, a.stage)
                if b.p_hat is None:
                    assert a.p_hat is None
                else:
                    assert np.array_equal(a.p_hat, b.p_hat), (label, a.stage)


class TestViolationPotential:
    def weighted_record(self, horizon=32):
        inst = hand_instance(horizon)
        lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
        gamma = scale_parameter(inst, lam)
        config = AlgoConfig(epsilon=0.25, gamma=gamma)
        pol = AdaptivePolicy(config, record_history=True)
        run_episode(inst, pol, seed=13)
        rec = next(r for r in pol.history if r.mode == "weighted")
        return inst, config, rec

    def test_uniform_mode_rejected(self):
        inst, config, _rec = self.weighted_record()
        bad = StageRecord(stage=-1, start=1, length=4, mode="uniform",
                          p_hat=None, lam=None, eps_x=None, eps_z=None)
        with pytest.raises(ValueError, match="weighted"):
            violation_potential_terms(bad, inst, config)

    def test_upto_range_checked(self):
        inst, config, rec = self.weighted_record()
        with pytest.raises(ValueError, match="upto"):
            violation_potential_terms(rec, inst, config, upto=len(rec.choices) + 1)
        with pytest.raises(ValueError, match="upto"):
            violation_potential_terms(rec, inst, config, upto=-1)

    def test_consistent_with_live_weights(self):
        """The recomputed potential must match a fixed transform of the
        closed-form weights at every prefix: the reward term differs from
        |psi| by exp(log_drift - log(eps_z/w_max)) and each resource slot
        by one extra occupancy factor over the lead constant."""
        inst, config, rec = self.weighted_record()
        L, lam, ez = rec.length, rec.lam, rec.eps_z
        eps, gamma = config.epsilon, config.gamma
        caps = inst.capacities()
        d = np.where(inst.durations() > 0, inst.durations(), 1.0)
        base = inst.survival_matrix(L + 1)
        surv = np.hstack([np.zeros((inst.n_resources, 1)), base])
        occ = np.log1p(eps * gamma * surv[:, : L + 1] / (d * (1.0 + eps))[:, None])
        log_drift = math.log1p(-ez * lam / (inst.w_max * (1.0 + eps)))
        for s in range(L + 1):
            res, rew = violation_potential_terms(rec, inst, config, upto=s)
            wres, wmag = weights_closed_form(inst, config, L, lam, ez, rec.choices[:s])
            want_rew = float(
                np.exp(wmag - math.log(ez / inst.w_max) + log_drift).sum()
            )
            want_res = 0.0
            for t in range(s + 1, L + 1):
                want_res += float(
                    np.exp(wres[:, t] + occ[:, t - s]
                           - math.log(eps * gamma) + np.log(caps)).sum()
                )
            assert rew == pytest.approx(want_rew, rel=1e-9)
            assert res == pytest.approx(want_res, rel=1e-9, abs=1e-12)
        total = violation_potential(rec, inst, config, upto=L)
        res, rew = violation_potential_terms(rec, inst, config, upto=L)
        assert total == res + rew


class TestBaselinePolicies:
    def test_uniform_and_null_names(self):
        assert UniformRandomPolicy().name == "uniform"
        assert AlwaysNullPolicy().name == "null"
