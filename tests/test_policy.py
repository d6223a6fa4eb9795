import dataclasses
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
import oracles
from oracles import (
    reference_rate_draw,
    reference_sample_uniform,
    reference_select,
    violation_potential,
    violation_potential_terms,
    weights_closed_form,
)
from reuselab.harness import GeneratorSpec, generate_instance, make_policy, solve_benchmarks
from reuselab.lp import solve_steady_state
from reuselab.model import (
    AlgoConfig,
    AssortmentActions,
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    ResourceSpec,
    SurvivalCurve,
    scale_parameter,
    zero_outcomes,
)
from reuselab import policy
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


def curves_instance(curves, rng, n_actions: int = 4, horizon: int = 64) -> Instance:
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
        horizon=horizon,
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
            for j in range(inst.n_types):
                assert select_action(ws, inst, j) == reference_select(ref, inst, j)
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


def planned(inst):
    """``inst`` with epsilon 1/4 and the scale parameter of its steady-state rate."""
    lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
    return inst, AlgoConfig(epsilon=0.25, gamma=scale_parameter(inst, lam), seed=0)


class TestLeanStepMatchesPlainRule:
    """Full adaptive episodes whose every weight step is replayed by the
    ``plain_*`` oracles on a shadow copy: the same initial weights, the same
    selected action for every arrival, and byte-equal weights after every
    update."""

    def play(self, inst, config, seed, monkeypatch):
        real_init = policy.init_penalty_weights
        real_select = policy.select_action
        real_update = policy.update_penalty_weights
        shadow = {}
        seen = {"selects": 0, "updates": 0}

        def same(ws, ref):
            assert ws.log_resource.tobytes() == ref.log_resource.tobytes()
            assert ws.log_reward_mag.tobytes() == ref.log_reward_mag.tobytes()

        def init(inst, stage_len, lam, eps_z, config):
            ws = real_init(inst, stage_len, lam, eps_z, config)
            ref = oracles.plain_init_penalty_weights(inst, stage_len, lam, eps_z, config)
            same(ws, ref)
            shadow["ws"], shadow["ref"] = ws, ref
            return ws

        def select(ws, inst, customer):
            assert ws is shadow["ws"]
            got = real_select(ws, inst, customer)
            assert got == oracles.plain_select_action(shadow["ref"], inst, customer)
            seen["selects"] += 1
            return got

        def update(ws, inst, customer, action):
            assert ws is shadow["ws"]
            real_update(ws, inst, customer, action)
            oracles.plain_update_penalty_weights(shadow["ref"], inst, customer, action)
            same(ws, shadow["ref"])
            seen["updates"] += 1

        monkeypatch.setattr(policy, "init_penalty_weights", init)
        monkeypatch.setattr(policy, "select_action", select)
        monkeypatch.setattr(policy, "update_penalty_weights", update)
        pol = AdaptivePolicy(config, record_history=True)
        run_episode(inst, pol, seed=seed)
        assert seen["selects"] > 0 and seen["updates"] > 0
        assert pol.ws._deltas == {}   # emptied by the stage's last update
        return pol

    def test_trend_like_logit_instance(self, monkeypatch):
        inst, config = planned(generate_instance(GeneratorSpec(seed=0, base_horizon=512)))
        pol = self.play(inst, config, 1, monkeypatch)
        assert [rec.mode for rec in pol.history][1:] == ["weighted"] * 2

    @pytest.mark.parametrize("build", [hand_instance, two_resource_instance])
    def test_hand_built_instances(self, build, monkeypatch):
        inst, config = planned(build(64))
        for seed in (1, 2):
            self.play(inst, config, seed, monkeypatch)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_explicit_instances(self, seed, monkeypatch):
        # unequal capacities, so gamma / c_i is no power of two and every
        # product in the update delta rounds
        inst = random_explicit_instance(
            np.random.default_rng(seed), max_resources=4, max_types=4, horizon=64
        )
        inst, config = planned(inst)
        self.play(inst, config, seed, monkeypatch)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_steps(self, seed):
        # random (type, action) updates reach the consumption-heavy actions
        # that the weighted rule itself seldom picks
        rng = np.random.default_rng(seed)
        inst = random_explicit_instance(rng, max_resources=4, max_types=4, horizon=64)
        config = AlgoConfig(epsilon=0.25, gamma=float(1.0 + 3.0 * rng.random()))
        L = int(rng.integers(2, 40))
        lam, eps_z = (0.05 + 0.3 * rng.random()) * inst.w_max, 0.1 + 0.5 * rng.random()
        ws = init_penalty_weights(inst, L, lam, eps_z, config)
        ref = oracles.plain_init_penalty_weights(inst, L, lam, eps_z, config)
        acts = inst.actions.all_actions()
        for _ in range(L):
            for j in range(inst.n_types):
                assert select_action(ws, inst, j) == oracles.plain_select_action(ref, inst, j)
            j = int(rng.integers(0, inst.n_types))
            k = acts[int(rng.integers(0, len(acts)))]
            update_penalty_weights(ws, inst, j, k)
            oracles.plain_update_penalty_weights(ref, inst, j, k)
            assert ws.log_resource.tobytes() == ref.log_resource.tobytes()
            assert ws.log_reward_mag.tobytes() == ref.log_reward_mag.tobytes()

    @pytest.mark.parametrize(
        "curves, d_max",
        [
            ([np.linspace(1.0, 0.05, 20)], 20),    # stage 0 (16 steps) < d_max
            ([[0.0, 0.0], [1.0, 0.5, 0.25]], 3),   # an all -inf window row
            ([[0.0]], 0),                           # an empty window
        ],
    )
    def test_window_edge_cases(self, curves, d_max, monkeypatch):
        inst, config = planned(curves_instance(curves, np.random.default_rng(7)))
        pol = self.play(inst, config, 3, monkeypatch)
        assert [(rec.mode, rec.length) for rec in pol.history[1:]] == [
            ("weighted", 16), ("weighted", 32)
        ]
        assert pol.ws.d_max == d_max


class TestWeightBuffers:
    """The greedy step's per-stage buffers never leak into the weights: a
    select leaves them byte for byte, a snapshot is a copy, and a finished
    stage's weights stay as they ended while the next stage plays."""

    @pytest.mark.parametrize(
        "curves",
        [
            None,                                 # the trend-like logit instance
            [[0.0, 0.0], [1.0, 0.5, 0.25]],       # an all -inf window row
            [[0.0]],                              # an empty window
        ],
    )
    def test_buffers_do_not_alias_the_weights(self, curves, monkeypatch):
        if curves is None:
            inst = generate_instance(GeneratorSpec(seed=0, base_horizon=512))
        else:
            inst = curves_instance(curves, np.random.default_rng(7))
        inst, config = planned(inst)
        real_select, real_update = policy.select_action, policy.update_penalty_weights
        pol = AdaptivePolicy(config)
        finished = []   # (weights, log_resource bytes, log_reward_mag bytes) per ended stage
        seen = {"selects": 0, "snapshots": 0}

        def state(ws):
            return ws.log_resource.tobytes(), ws.log_reward_mag.tobytes()

        def select(ws, inst, customer):
            before = state(ws)
            got = real_select(ws, inst, customer)
            assert state(ws) == before
            seen["selects"] += 1
            return got

        def update(ws, inst, customer, action):
            real_update(ws, inst, customer, action)
            snap = pol.snapshot()
            for key in ("log_resource", "log_reward_mag"):
                assert not np.shares_memory(snap[key], getattr(ws, key))
            assert snap["log_reward_mag"].tobytes() == ws.log_reward_mag.tobytes()
            seen["snapshots"] += 1
            if ws.updates == ws.stage_len:
                finished.append((ws, *state(ws)))

        monkeypatch.setattr(policy, "select_action", select)
        monkeypatch.setattr(policy, "update_penalty_weights", update)
        run_episode(inst, pol, seed=3)
        assert seen["selects"] > 0 and seen["snapshots"] > 0
        assert len(finished) >= 2
        for ws, log_resource, log_reward_mag in finished:
            assert state(ws) == (log_resource, log_reward_mag)
        assert len({id(ws) for ws, *_ in finished}) == len(finished)


class TestSelectAction:
    def test_null_customer_gets_null(self):
        inst = lead_instance()
        config = AlgoConfig(epsilon=0.25, gamma=2.0)
        ws = init_penalty_weights(inst, 4, 0.2, 0.2, config)
        assert select_action(ws, inst, 0) == inst.actions.null_action

    def test_matches_reference_on_explicit_fuzz(self):
        rng = np.random.default_rng(100)
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
                got = select_action(ws, inst, j)
                want = reference_select(ws, inst, j)
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


class TestSharedOffset:
    """``select_action`` shifts every window term and reward weight by one
    shared offset; the plain rule takes a log-sum-exp per resource first and
    shifts those.  Up to one common factor both hand the pricing oracle the
    same phi and |psi|, and the decisions are ``reference_select``'s, on
    stages whose live log weights span at least 700."""

    SPAN = 700.0

    def fed(self, select, ws, inst, j):
        """(action, phi, |psi|) that ``select`` hands type j's pricing oracle."""
        cls = type(inst.customers[j].outcomes)
        real = cls.best_action
        seen = []

        def record(om, actions, phi, psi_mag):
            seen.append((np.array(phi, dtype=float), np.array(psi_mag, dtype=float)))
            return real(om, actions, phi, psi_mag)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cls, "best_action", record)
            got = select(ws, inst, j)
        assert len(seen) == 1
        return got, *seen[0]

    def spread(self, ws, rng):
        """Overwrite the weights with log values drawn over SPAN, the first
        reward weight at the top; returns the bottom."""
        lo = float(rng.uniform(-60.0, 60.0))
        C, R = ws.caps.size, ws.log_reward_mag.size
        ws.log_resource[:, 1:] = rng.uniform(lo, lo + self.SPAN, size=(C, ws.stage_len))
        ws.log_reward_mag[:] = rng.uniform(lo, lo + self.SPAN, size=R)
        ws.log_reward_mag[0] = lo + self.SPAN
        return lo

    def check_slot(self, ws, inst, s, lo):
        """Pin one live term to the bottom, then compare at slot s."""
        ws.updates = s - 1
        width = min(ws.stage_len - s + 1, ws.d_max)
        rows = np.flatnonzero(np.isfinite(ws.log_surv[:, 1]))
        if width > 0 and rows.size:
            ws.log_resource[rows[0], s] = lo - ws.log_surv[rows[0], 1]
        else:
            ws.log_reward_mag[-1] = lo
        live = np.concatenate(
            [(ws.log_surv[:, 1 : width + 1] + ws.log_resource[:, s : s + width]).ravel(),
             ws.log_reward_mag]
        )
        live = live[np.isfinite(live)]
        assert live.max() - live.min() >= self.SPAN
        tiny = np.finfo(float).tiny
        for j in range(inst.n_types):
            if inst.customers[j].outcomes.is_null:
                continue
            got, phi, psi = self.fed(select_action, ws, inst, j)
            _want, plain_phi, plain_psi = self.fed(oracles.plain_select_action, ws, inst, j)
            new, plain = np.concatenate([phi, psi]), np.concatenate([plain_phi, plain_psi])
            # the fuzz stays clear of subnormals, where rtol means nothing
            assert np.all((plain == 0.0) | (plain >= tiny))
            factor = new[np.argmax(plain)]
            assert factor > 0.0
            np.testing.assert_allclose(new, factor * plain, rtol=1e-12, atol=0.0)
            want = reference_select(ws, inst, j)
            assert np.array_equal(np.asarray(got), np.asarray(want)), (s, j, got, want)

    def slots(self, ws, rng):
        """First slot, a random one, and every slot whose window is cut short."""
        L = ws.stage_len
        tail = range(max(1, L - ws.d_max + 1), L + 1)
        return sorted({1, int(rng.integers(1, L + 1)), *tail})

    @pytest.mark.parametrize("seed", range(6))
    def test_explicit_fuzz(self, seed):
        rng = np.random.default_rng(500 + seed)
        inst = random_explicit_instance(rng, max_resources=4, max_types=4, horizon=64)
        config = AlgoConfig(epsilon=0.25, gamma=float(1.0 + 3.0 * rng.random()))
        L = int(rng.integers(2, 30))
        ws = init_penalty_weights(inst, L, 0.2 * inst.w_max, 0.3, config)
        for _ in range(3):
            lo = self.spread(ws, rng)
            for s in self.slots(ws, rng):
                self.check_slot(ws, inst, s, lo)

    @pytest.mark.parametrize(
        "curves, d_max",
        [
            ([[0.0, 0.0], [1.0, 0.5, 0.25]], 3),           # an all -inf window row
            ([[0.0]], 0),                                   # an empty window
            ([np.linspace(1.0, 0.05, 20), [0.7, 0.2]], 20),  # a stage shorter than d_max
        ],
    )
    def test_window_edge_cases(self, curves, d_max):
        rng = np.random.default_rng(len(curves) + d_max)
        inst = curves_instance(curves, rng)
        config = AlgoConfig(epsilon=0.25, gamma=1.5)
        for L in (4, 24):
            ws = init_penalty_weights(inst, L, 0.2 * inst.w_max, 0.3, config)
            assert ws.d_max == min(d_max, L + 1)
            lo = self.spread(ws, rng)
            for s in self.slots(ws, rng):
                self.check_slot(ws, inst, s, lo)
                if d_max == 0:
                    assert not self.fed(select_action, ws, inst, 1)[1].any()

    def test_logit_customers(self):
        inst = small_mnl_instance()
        rng = np.random.default_rng(11)
        config = AlgoConfig(epsilon=0.25, gamma=2.0)
        for L in (3, 9, 20):
            ws = init_penalty_weights(inst, L, 0.2 * inst.w_max, 0.3, config)
            for _ in range(2):
                lo = self.spread(ws, rng)
                for s in self.slots(ws, rng):
                    self.check_slot(ws, inst, s, lo)


class TestEpisodeDeltas:
    """Each (type, action) pair's resource delta and mean rewards are built
    once per episode and handed from stage to stage; a stage whose span is
    wider than the kept one rebuilds them.  On an instance whose first
    weighted stages are shorter than d_max + 1, every update stays byte for
    byte the plain rule's, and no delta outlives the episode."""

    CURVE = np.linspace(1.0, 0.05, 24)   # d_max 24; stages of 16, 16, 32 and 64 steps

    def policies(self, inst, config):
        sol = solve_steady_state(inst, inst.arrival_weights())
        guarded = dataclasses.replace(config, tail_cutoff=5)
        return {
            "adaptive": AdaptivePolicy(config),
            "hybrid20": HybridPolicy(config, sol, 20),
            "adaptive+tailguard": StageTailRejector(AdaptivePolicy(config), guarded),
        }

    @pytest.mark.parametrize("name", ["adaptive", "hybrid20", "adaptive+tailguard"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_updates_match_plain_rule_and_cache_is_emptied(self, name, seed, monkeypatch):
        inst = curves_instance([self.CURVE, [0.9, 0.4]], np.random.default_rng(seed), horizon=128)
        inst, config = planned(inst)
        config = dataclasses.replace(config, epsilon=0.125)
        pol = self.policies(inst, config)[name]
        adaptive = pol.inner if name.endswith("+tailguard") else pol
        real_init, real_update = policy.init_penalty_weights, policy.update_penalty_weights
        shadow = {}
        kinds = set()
        spans = []

        def init(inst, stage_len, lam, eps_z, config):
            ws = real_init(inst, stage_len, lam, eps_z, config)
            shadow["ref"] = oracles.plain_init_penalty_weights(inst, stage_len, lam, eps_z, config)
            spans.append(min(ws.d_max, stage_len - 1))
            return ws

        def update(ws, inst, customer, action):
            key = (customer, action)
            kept = adaptive._pairs.get(key)
            if key not in ws._deltas:
                if kept is None:
                    kinds.add("new")
                elif kept[0].shape[1] < spans[-1]:
                    kinds.add("wider")
                else:
                    kinds.add("kept")
            real_update(ws, inst, customer, action)
            assert ws._pairs is adaptive._pairs and key in adaptive._pairs
            ref = shadow["ref"]
            oracles.plain_update_penalty_weights(ref, inst, customer, action)
            assert ws.log_resource.tobytes() == ref.log_resource.tobytes()
            assert ws.log_reward_mag.tobytes() == ref.log_reward_mag.tobytes()

        monkeypatch.setattr(policy, "init_penalty_weights", init)
        monkeypatch.setattr(policy, "update_penalty_weights", update)
        run_episode(inst, pol, seed=seed)
        assert spans == [15, 24, 24], spans
        assert kinds == {"new", "wider", "kept"}
        assert adaptive._pairs == {}
        assert adaptive.ws._deltas == {}


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

    def test_draws_are_draw_for_draw_the_rebuilt_cumulative_rates(self):
        inst = generate_instance(GeneratorSpec(seed=2, n_products=5, max_size=3))
        sol = solve_steady_state(inst, inst.arrival_weights())
        pol = StaticPolicy(sol, epsilon=0.25)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        pol.reset(inst, rng)
        pick = np.random.default_rng(9)
        null = inst.actions.null_action
        for _ in range(10_000):
            j = int(pick.integers(inst.n_types))
            assert pol.choose(1, j) == reference_rate_draw(sol.x, null, 0.25, j, ref)
        assert rng.bit_generator.state == ref.bit_generator.state

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

    @pytest.mark.parametrize("horizon, clamps", [(64, 2), (256, 0)])
    def test_margin_clamp_is_recorded(self, horizon, clamps, caplog):
        # the adaptive_stages demo's instance: at T = 64 both weighted stages
        # are too short for their targets, at T = 256 (capacity scaled
        # along) neither is
        real = ExplicitOutcomes(rewards=[[0, 1.0]], consumption=[[0, 1.0]])
        inst = Instance(
            resources=[ResourceSpec(horizon / 8, SurvivalCurve([1.0, 0.5]))],
            reward_count=1,
            customers=[CustomerType(0.25, zero_outcomes(1, 1, 2)), CustomerType(0.75, real)],
            actions=ExplicitActions(2),
            horizon=horizon,
            null_type=0,
        )
        lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
        config = AlgoConfig(epsilon=0.25, gamma=scale_parameter(inst, lam), seed=0)
        pol = AdaptivePolicy(config, record_history=True)
        with caplog.at_level(logging.WARNING, logger="reuselab.policy"):
            run_episode(inst, pol, seed=3)
        warned = [r for r in caplog.records if r.message.startswith("reward margin")]
        assert [rec.mode for rec in pol.history] == ["uniform", "weighted", "weighted"]
        assert [rec.margin_clamped for rec in pol.history] == [False] + [clamps > 0] * 2
        assert len(warned) == clamps
        for rec in pol.history[1:]:
            assert (rec.eps_z == 0.99) == rec.margin_clamped

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

    def test_uniform_draws_are_draw_for_draw_numpys_samplers(self):
        # the policy draws through its stream's bit generator directly; the
        # reference asks the Generator itself, and both streams end level
        for inst in (generate_instance(GeneratorSpec(seed=3, n_products=7, max_size=3)),
                     hand_instance(16)):
            pol = UniformRandomPolicy()
            rng, ref = np.random.default_rng(12), np.random.default_rng(12)
            pol.reset(inst, rng)
            for _ in range(5_000):
                if isinstance(inst.actions, AssortmentActions):
                    want = reference_sample_uniform(inst.actions, ref)
                else:
                    want = int(ref.integers(inst.actions.count))
                assert pol.choose(1, 1) == want
            assert rng.bit_generator.state == ref.bit_generator.state
