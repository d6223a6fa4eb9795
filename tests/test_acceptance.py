"""Acceptance gate: one test per advertised guarantee, each printing a
single PASS line with the measured quantities (run with -s to see them).

Every test asserts both the stated tolerance and its runtime budget, and
draws its expected values from the independent oracles in oracles.py or
from hand-derived constants, never from the code under test.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    hand_instance,
    random_boxed_lp,
    random_explicit_instance,
    random_mnl_model,
    small_mnl_instance,
)
from oracles import (
    enumerate_best_assortment,
    lp_best_assortment,
    lp_enumerate,
    reference_select,
    violation_potential,
    weights_closed_form,
)
from reuselab.harness import run_trend
from reuselab.lp import solve_lp, solve_steady_state, solve_time_expanded
from reuselab.mnl import best_assortment, build_mnl_instance
from reuselab.model import (
    AlgoConfig,
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    ResourceSpec,
    SurvivalCurve,
    duration_tail_cutoff,
    scale_parameter,
    zero_outcomes,
)
from reuselab.harness import run_experiment
from reuselab import policy as policy_module
from reuselab.lp import DegenerateStage
from reuselab.policy import (
    AdaptivePolicy,
    UniformRandomPolicy,
    init_penalty_weights,
    select_action,
    update_penalty_weights,
)
from reuselab.sim import run_episode


def report(line: str):
    print(f"\nACCEPTANCE {line}")


def test_a1_simplex_matches_vertex_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n_feasible, worst = 0, 0.0
    for trial in range(200):
        lp = random_boxed_lp(rng)
        got = solve_lp(lp)
        status, obj, _x = lp_enumerate(lp)
        assert got.status == status, trial
        if status == "optimal":
            n_feasible += 1
            worst = max(worst, abs(got.objective - obj))
            assert abs(got.objective - obj) <= 1e-8, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        f"A1 simplex vs vertex enumeration: PASS "
        f"(200 LPs, {n_feasible} feasible, max |obj diff| {worst:.2e}, {elapsed:.1f}s)"
    )


def test_a2_planning_rate_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 20:
        inst = random_explicit_instance(rng, max_resources=3, max_types=3, max_actions=4)
        p = inst.arrival_weights()
        ss = solve_steady_state(inst, p).lambda_
        te, _y = solve_time_expanded(inst, p)
        T = inst.horizon
        assert T * ss <= T * te + 1e-7, "steady state must lower-bound time expanded"
        gamma = scale_parameter(inst, ss)
        delta = min(0.1, gamma / 2.0) if checked % 2 and gamma > 0 else 0.0
        dbar = duration_tail_cutoff([r.survival for r in inst.resources], delta)
        factor = (1.0 - delta / gamma) if gamma > 0 else 1.0
        lhs = factor * (T * te - dbar * inst.w_max)
        assert lhs <= T * ss + 1e-7, (checked, lhs, T * ss)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"A2 planning-rate sandwich: PASS (20 instances, exact LP tolerances, {elapsed:.1f}s)")


def test_a3_no_policy_beats_planning_bound():
    t0 = time.perf_counter()
    inst = hand_instance(16)
    p = inst.arrival_weights()
    lam_te, _y = solve_time_expanded(inst, p)
    assert lam_te == pytest.approx(0.5, abs=1e-9)  # ceil(T/2)/T by hand
    bound = inst.horizon * lam_te
    config = AlgoConfig(epsilon=0.25, gamma=1.0, seed=0)
    policies = ["static", "adaptive", "uniform", "null", "hybrid2"]
    rows = run_experiment(inst, config, policies, reps=2000)
    margins = []
    for row in rows:
        se = row.std / math.sqrt(len(row.min_rewards))
        assert row.mean <= bound + 3.0 * se, (row.policy, row.mean, bound, se)
        margins.append(bound - row.mean)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        f"A3 planning upper bound: PASS "
        f"({len(policies)} policies x 2000 reps, min slack {min(margins):.2f} of bound {bound}, "
        f"{elapsed:.1f}s)"
    )


def desk_instance():
    """Two symmetric resources, capacity 200, T=4096, geometric D <= 8."""
    surv = SurvivalCurve(0.5 ** np.arange(8))
    res = [ResourceSpec(200.0, surv), ResourceSpec(200.0, surv)]
    t1 = ExplicitOutcomes(rewards=[[0, 1], [0, 0]], consumption=[[0, 1], [0, 0]])
    t2 = ExplicitOutcomes(rewards=[[0, 0], [0, 1]], consumption=[[0, 0], [0, 1]])
    return Instance(
        resources=res,
        reward_count=2,
        customers=[
            CustomerType(0.2, zero_outcomes(2, 2, 2)),
            CustomerType(0.4, t1),
            CustomerType(0.4, t2),
        ],
        actions=ExplicitActions(2),
        horizon=4096,
        null_type=0,
    )


def test_a4_static_policy_guarantee():
    t0 = time.perf_counter()
    inst = desk_instance()
    lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
    assert lam == pytest.approx(0.4, abs=1e-9)
    gamma = scale_parameter(inst, lam)
    assert gamma >= 200.0
    eps = 0.125
    config = AlgoConfig(epsilon=eps, gamma=gamma, seed=0)
    rows = run_experiment(inst, config, ["static"], reps=200)
    threshold = (1.0 - 3.0 * eps) * inst.horizon * lam
    hits = sum(1 for v in rows[0].min_rewards if v >= threshold)
    frac = hits / len(rows[0].min_rewards)
    assert frac >= 0.90, frac
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        f"A4 shrunken-rate guarantee: PASS "
        f"(min reward >= {threshold:.1f} in {frac:.1%} of 200 reps, gamma={gamma:.0f}, "
        f"{elapsed:.1f}s)"
    )


def log_close(live, ref, tol=1e-6):
    live, ref = np.asarray(live, dtype=float), np.asarray(ref, dtype=float)
    both_inf = np.isneginf(live) & np.isneginf(ref)
    with np.errstate(invalid="ignore"):
        ok = np.abs(live - ref) <= tol * np.maximum(1.0, np.abs(ref))
    return bool(np.all(ok | both_inf))


def test_a5_adaptive_mechanics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)

    # 1. the greedy step matches its brute-force recomputation, exactly
    states = 0
    while states < 9000:
        inst = random_explicit_instance(rng, max_actions=5, horizon=24)
        if inst.w_max <= 0.0:
            continue
        config = AlgoConfig(epsilon=0.25, gamma=float(1.0 + rng.random()))
        L = int(rng.integers(2, 11))
        lam = (0.05 + 0.35 * rng.random()) * inst.w_max
        ws = init_penalty_weights(inst, L, lam, 0.1 + 0.5 * rng.random(), config)
        acts = inst.actions.all_actions()
        for s in range(L):
            for j in range(inst.n_types):
                assert select_action(ws, inst, j) == reference_select(ws, inst, j)
                states += 1
            update_penalty_weights(
                ws, inst, int(rng.integers(0, inst.n_types)),
                acts[int(rng.integers(0, len(acts)))],
            )
    mnl_states = 0
    while mnl_states < 1000:
        if mnl_states % 2:
            inst = small_mnl_instance()
        else:
            model = random_mnl_model(rng, max_products=5, max_size=3)
            n = model.features.shape[0]
            curves = [SurvivalCurve(0.6 ** np.arange(3)) for _ in range(n)]
            weights = np.full(model.cust_features.shape[0] + 1, 1.0)
            weights /= weights.sum()
            inst = build_mnl_instance(
                model, capacities=rng.uniform(1.0, 3.0, n), survival_curves=curves,
                horizon=32, arrival_weights=weights,
            )
        config = AlgoConfig(epsilon=0.25, gamma=float(1.0 + rng.random()))
        L = int(rng.integers(2, 8))
        lam = (0.05 + 0.3 * rng.random()) * inst.w_max
        ws = init_penalty_weights(inst, L, lam, 0.1 + 0.5 * rng.random(), config)
        for s in range(L):
            for j in range(inst.n_types):
                got = select_action(ws, inst, j)
                want = reference_select(ws, inst, j)
                assert tuple(got) == tuple(want) if isinstance(got, tuple) else got == want
                mnl_states += 1
            update_penalty_weights(ws, inst, int(rng.integers(0, inst.n_types)),
                                   inst.actions.sample_uniform(rng))
    total_states = states + mnl_states
    assert total_states >= 10_000

    # 2. incremental weights track the closed form over full stages
    for L in (8, 16, 32, 64):
        inst = random_explicit_instance(rng, horizon=2 * L)
        if inst.w_max <= 0.0:
            continue
        config = AlgoConfig(epsilon=0.25, gamma=1.5)
        lam, ez = 0.2 * inst.w_max, 0.3
        acts = inst.actions.all_actions()
        choices = [
            (int(rng.integers(0, inst.n_types)), acts[int(rng.integers(0, len(acts)))])
            for _ in range(L)
        ]
        ws = init_penalty_weights(inst, L, lam, ez, config)
        for s in range(1, L + 1):
            update_penalty_weights(ws, inst, *choices[s - 1])
            res, mag = weights_closed_form(inst, config, L, lam, ez, choices[:s])
            assert log_close(ws.log_resource, res), (L, s)
            assert log_close(ws.log_reward_mag, mag), (L, s)

    # 3. no fuzzed episode ever breaks a capacity constraint
    episodes = 0
    for trial in range(60):
        inst = random_explicit_instance(rng, unit_consumption=True, horizon=40)
        for r in inst.resources:
            r.capacity = float(np.ceil(r.capacity))
        if trial % 3 == 0 and inst.w_max > 0.0:
            lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
            gamma = scale_parameter(inst, lam)
            if gamma <= 0:
                continue
            pol = AdaptivePolicy(AlgoConfig(epsilon=0.25, gamma=gamma))
        else:
            pol = UniformRandomPolicy()
        trace = run_episode(inst, pol, seed=trial)
        assert np.all(trace.peak_occupied <= inst.capacities()), trial
        episodes += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        f"A5 adaptive mechanics: PASS "
        f"({total_states} fuzzed states exact, full-stage weights within 1e-6, "
        f"{episodes} episodes violation-free, {elapsed:.1f}s)"
    )


def test_a6_gap_shrinks_with_scale():
    t0 = time.perf_counter()
    _rows, rep = run_trend(scales=(1, 2, 4), reps=10, base_seed=0)
    adaptive = rep["policies"]["adaptive"]
    static = rep["policies"]["static"]
    assert adaptive["strictly_decreasing"], adaptive["gaps"]
    for s_gap, a_gap in zip(static["gaps"], adaptive["gaps"]):
        assert s_gap <= a_gap, (static["gaps"], adaptive["gaps"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        f"A6 scaling trend: PASS "
        f"(adaptive gaps {['%.1f' % g for g in adaptive['gaps']]} strictly decreasing, "
        f"static below at every scale, {elapsed:.1f}s)"
    )


def test_a7_assortment_lp_matches_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    for trial in range(500):
        model = random_mnl_model(rng, max_products=8, max_size=5)
        n = model.features.shape[0]
        customer = int(rng.integers(0, model.cust_features.shape[0]))
        coef = rng.standard_normal(n)
        if trial % 4 == 0:
            coef = -np.abs(coef)  # stress the all-attractive regime
        got = best_assortment(model, customer, coef)
        want = enumerate_best_assortment(model, customer, coef)
        assert tuple(got) == tuple(want), (trial, got, want)
        via_lp = lp_best_assortment(model, customer, coef)
        assert tuple(got) == tuple(via_lp), (trial, got, via_lp)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        f"A7 assortment solver vs enumeration and LP: PASS "
        f"(500 cases, exact sets, {elapsed:.1f}s)"
    )


def potential_toy():
    real = ExplicitOutcomes(rewards=[[0.0, 1.0]], consumption=[[0.0, 1.0]])
    return Instance(
        resources=[ResourceSpec(4.0, SurvivalCurve([1.0]))],
        reward_count=1,
        customers=[CustomerType(0.25, zero_outcomes(1, 1, 2)), CustomerType(0.75, real)],
        actions=ExplicitActions(2),
        horizon=8,
        null_type=0,
    )


def memo_stage_lps(monkeypatch, inst):
    """Memoize the policy's stage LP on ``inst`` by (p_hat bytes, margin).

    The toy's empirical distributions take a handful of values, and a
    stage LP is a pure function of them, so a memo changes no answer; a
    degenerate stage's exception is replayed.  Returns the hit/miss counts.
    """
    real = policy_module.solve_stage_lambda
    memo: dict = {}
    counts = {"hits": 0, "misses": 0}

    def solve(inst_arg, p_hat, margin):
        assert inst_arg is inst
        key = (p_hat.tobytes(), margin)
        if key in memo:
            counts["hits"] += 1
        else:
            counts["misses"] += 1
            try:
                memo[key] = real(inst_arg, p_hat, margin)
            except DegenerateStage as exc:
                memo[key] = exc
        out = memo[key]
        if isinstance(out, DegenerateStage):
            raise out
        return out

    monkeypatch.setattr(policy_module, "solve_stage_lambda", solve)
    return counts


def test_a8_potential_decreases_in_expectation(monkeypatch):
    t0 = time.perf_counter()
    inst = potential_toy()
    lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
    assert lam == pytest.approx(0.75, abs=1e-9)
    gamma = scale_parameter(inst, lam)
    assert gamma == pytest.approx(4.0)
    config = AlgoConfig(epsilon=0.25, gamma=gamma, seed=0)
    stage_lps = memo_stage_lps(monkeypatch, inst)
    diffs: dict = {}
    for seed in range(10_000):
        pol = AdaptivePolicy(config, record_history=True)
        run_episode(inst, pol, seed=seed)
        for rec in pol.history:
            if rec.mode != "weighted":
                continue
            values = [
                violation_potential(rec, inst, config, upto=s)
                for s in range(len(rec.choices) + 1)
            ]
            for s in range(len(rec.choices)):
                diffs.setdefault((rec.stage, s), []).append(values[s + 1] - values[s])
    assert diffs, "no weighted stage was ever reached"
    assert stage_lps["hits"] > 0 and stage_lps["misses"] > 0, stage_lps
    worst = -math.inf
    for (stage, s), vals in sorted(diffs.items()):
        arr = np.asarray(vals)
        mean = arr.mean()
        se = arr.std(ddof=1) / math.sqrt(arr.size)
        assert mean <= 3.0 * se, (stage, s, mean, se, arr.size)
        worst = max(worst, mean / se if se > 0 else 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        f"A8 potential induction: PASS "
        f"({len(diffs)} step groups over 10000 seeds, worst mean/SE {worst:.2f} <= 3, "
        f"{stage_lps['misses']} distinct stage LPs for {sum(stage_lps.values())} stages, "
        f"{elapsed:.1f}s)"
    )


def test_a9_experiment_csv_is_deterministic(tmp_path):
    from reuselab.cli import main
    from reuselab.serialize import save_instance

    inst_path = tmp_path / "inst.json"
    save_instance(inst_path, hand_instance(16))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main([
            "experiment", "--instance", str(inst_path),
            "--policy", "static,adaptive", "--reps", "5",
            "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report(f"A9 CSV determinism: PASS (two runs, {len(outs[0])} identical bytes)")
