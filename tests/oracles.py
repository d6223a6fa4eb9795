"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way (enumeration,
plain loops, extended precision, every per-step quantity rebuilt per step)
and shares no code with the package beyond the public data types it checks
and the policies whose episodes it replays.  The one exception is
:func:`lp_best_assortment`, a second, independent formulation of the
assortment problem that runs on the package's simplex; A1 checks that
simplex against :func:`lp_enumerate`.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from reuselab.lp import LinearProgram, solve_lp
from reuselab.mnl import MnlModel, MnlOutcomes
from reuselab.model import AssortmentActions
from reuselab.sim import EpisodeTrace, StepOutcome


def lp_enumerate(lp: LinearProgram, feas_tol: float = 1e-7):
    """Solve a small LP by enumerating basic solutions (candidate vertices).

    Requires every variable to be bounded (finite lower and upper), so the
    feasible region is a polytope and any optimum sits at a vertex.
    Returns (status, objective, x) with status "optimal" or "infeasible".
    """
    n = lp.n_vars
    lower = np.zeros(n) if lp.lower is None else np.asarray(lp.lower, float)
    if lp.upper is None or not np.all(np.isfinite(lp.upper)):
        raise ValueError("the enumeration oracle needs finite upper bounds")
    upper = np.asarray(lp.upper, float)

    rows = [np.asarray(lp.A, float)]
    kinds = list(lp.senses)
    rhs = list(np.asarray(lp.b, float))
    eye = np.eye(n)
    for i in range(n):
        rows.append(eye[i][None, :])
        kinds.append(">=")
        rhs.append(lower[i])
        rows.append(eye[i][None, :])
        kinds.append("<=")
        rhs.append(upper[i])
    G = np.vstack(rows)
    h = np.asarray(rhs, float)
    M = G.shape[0]

    combos = np.array(list(itertools.combinations(range(M), n)))
    Asub = G[combos]                      # (NC, n, n)
    bsub = h[combos]                      # (NC, n)
    dets = np.abs(np.linalg.det(Asub))
    keep = dets > 1e-9
    if not keep.any():
        return "infeasible", math.nan, None
    X = np.linalg.solve(Asub[keep], bsub[keep][..., None])[..., 0]

    res = X @ G.T                         # (K, M)
    tol = feas_tol * (1.0 + np.abs(h))
    ok = np.ones(X.shape[0], dtype=bool)
    for i, k in enumerate(kinds):
        if k == "<=":
            ok &= res[:, i] <= h[i] + tol[i]
        elif k == ">=":
            ok &= res[:, i] >= h[i] - tol[i]
        else:
            ok &= np.abs(res[:, i] - h[i]) <= tol[i]
    if not ok.any():
        return "infeasible", math.nan, None
    vals = X[ok] @ np.asarray(lp.c, float)
    best = int(np.argmax(vals))
    return "optimal", float(vals[best]), X[ok][best]


def enumerate_best_assortment(model: MnlModel, customer: int, coef) -> tuple:
    """Exhaustive minimizer of sum_{i in S} coef_i q_i(S) over |S| <= max_size."""
    coef = np.asarray(coef, float)
    v = model.attractions[customer]
    best, best_val = (), 0.0
    for size in range(1, model.max_size + 1):
        for s in itertools.combinations(range(model.n_products), size):
            idx = list(s)
            val = float(coef[idx] @ v[idx]) / (1.0 + float(v[idx].sum()))
            if val < best_val:
                best, best_val = s, val
    return best


def lp_best_assortment(model: MnlModel, customer: int, coef) -> tuple:
    """Minimizer of sum_{i in S} coef_i q_i(S) over |S| <= max_size, by LP.

    The Davis-Gallego-Topaloglu (2013) formulation: after dropping the
    products with nonnegative coefficients, maximize -coef @ z over
    (z_1..z_m, z_0) on the simplex with z_i <= v_i z_0 and
    sum z_i / v_i <= n z_0.  Its vertices put z_i / v_i at exactly z_0 for
    the members of an assortment, so the tight ratios are the answer.
    """
    coef = np.asarray(coef, dtype=float)
    keep = np.where(coef < 0.0)[0]
    if keep.size == 0:
        return ()
    v = model.attractions[customer, keep]
    m = keep.size
    n = min(model.max_size, m)
    c = np.zeros(m + 1)
    c[:m] = -coef[keep]
    A = np.zeros((2 + m, m + 1))
    senses = ["=="] + ["<="] * (1 + m)
    b = np.zeros(2 + m)
    A[0, :] = 1.0
    b[0] = 1.0
    A[1, :m] = 1.0 / v
    A[1, m] = -float(n)
    for r in range(m):
        A[2 + r, r] = 1.0 / v[r]
        A[2 + r, m] = -1.0
    sol = solve_lp(LinearProgram(c, A, senses, b))
    assert sol.status == "optimal", sol.status
    z, z0 = sol.x[:m], sol.x[m]
    assert z0 > 0.0
    ratio = z / v / z0
    tight = ratio >= 1.0 - 1e-7
    if int(tight.sum()) > model.max_size:
        tight = np.zeros(m, dtype=bool)
        tight[np.argsort(-ratio)[: model.max_size]] = True
    return tuple(int(i) for i in keep[tight])


def reference_select(ws, inst, customer: int):
    """Extended-precision recomputation of the weighted argmin rule.

    Walks every action column of the customer's mean tables with explicit
    loops; ties resolve to the lowest action index, like the live rule.
    """
    om = inst.customers[customer].outcomes
    if om.is_null:
        return inst.actions.null_action
    s = ws.updates + 1
    L = ws.stage_len
    C = ws.caps.size
    log_phi = np.full(C, -np.inf, dtype=np.longdouble)
    for i in range(C):
        terms = []
        for t in range(s, L + 1):
            ls = ws.log_surv[i, t - s + 1]
            lr = ws.log_resource[i, t]
            if math.isfinite(ls) and math.isfinite(lr):
                terms.append(np.longdouble(ls) + np.longdouble(lr))
        if terms:
            m = max(terms)
            acc = np.longdouble(0.0)
            for v in terms:
                acc += np.exp(v - m)
            log_phi[i] = m + np.log(acc)
    log_psi = ws.log_reward_mag.astype(np.longdouble)
    both = [v for v in list(log_phi) + list(log_psi) if math.isfinite(float(v))]
    off = max(both) if both else np.longdouble(0.0)
    phi = np.exp(log_phi - off)
    psi = np.exp(log_psi - off)
    W, A = inst.mean_tables(customer)
    actions = inst.actions.all_actions()
    best_k, best_score = 0, None
    for k in range(len(actions)):
        score = phi @ A[:, k].astype(np.longdouble) - psi @ W[:, k].astype(np.longdouble)
        if best_score is None or score < best_score:
            best_k, best_score = k, score
    return actions[best_k]


def weights_closed_form(inst, config, stage_len: int, lam: float, eps_z: float, choices):
    """Stage weights after len(choices) updates, rebuilt by direct summation.

    Returns (log_resource, log_reward_mag) shaped like the live arrays
    (slot column 0 unused / -inf).  Slot t only ever receives updates from
    steps before it, so the formula sums over tau = 1..min(s, t-1).
    """
    eps, gamma, delta = config.epsilon, config.gamma, config.delta
    caps = inst.capacities()
    d = inst.durations()
    d_safe = np.where(d > 0, d, 1.0)
    C = inst.n_resources
    L = stage_len
    base = inst.survival_matrix(L + 1)
    surv = np.hstack([np.zeros((C, 1)), base])   # surv[:, u] = Pr(D >= u)
    means = [inst.customers[j].outcomes.means(k) for j, k in choices]
    s = len(means)

    log_res = np.full((C, L + 1), -np.inf)
    for i in range(C):
        with np.errstate(divide="ignore"):
            lead = math.log(eps * gamma) - math.log(caps[i]) - (gamma - delta) * math.log1p(eps)
        for t in range(1, L + 1):
            val = lead
            for u in range(1, t):
                val += math.log1p(eps * gamma * surv[i, u] / (d_safe[i] * (1.0 + eps)))
            for tau in range(1, min(s, t - 1) + 1):
                a = means[tau - 1][1][i]
                val += (gamma / caps[i]) * a * surv[i, t - tau + 1] * math.log1p(eps)
                val -= math.log1p(eps * gamma * surv[i, t - tau] / (d_safe[i] * (1.0 + eps)))
            log_res[i, t] = val

    log_shrink = math.log1p(-eps_z)
    log_drift = math.log1p(-eps_z * lam / (inst.w_max * (1.0 + eps)))
    init = (
        math.log(eps_z)
        - math.log(inst.w_max)
        + (L - 1) * log_drift
        - (1.0 - eps_z) * L * lam / inst.w_max * log_shrink
    )
    log_mag = np.full(inst.reward_count, init)
    for tau in range(s):
        log_mag += (means[tau][0] / inst.w_max) * log_shrink - log_drift
    return log_res, log_mag


def reference_duration(curve, rng) -> int:
    """One inverse-transform duration draw, reversing the curve per call."""
    asc = np.asarray(curve.surv, dtype=float)[::-1]
    return int(asc.size - np.searchsorted(asc, rng.random(), side="right"))


def reference_mnl_sample(om: MnlOutcomes, action, rng):
    """One logit purchase, read off the full N-vector of choice probabilities."""
    n = om.model.n_products
    w = np.zeros(n)
    a = np.zeros(n)
    if om.customer is None or len(action) == 0:
        return w, a
    idx = np.fromiter(action, dtype=int)
    q = om.model.choice_probability(om.customer, action)[idx]
    pick = int(np.searchsorted(np.cumsum(q), rng.random(), side="right"))
    if pick < idx.size:
        i = idx[pick]
        a[i] = 1.0
        w[i] = om.model.prices[i]
    return w, a


def reference_sample_uniform(space: AssortmentActions, rng):
    """Uniform assortment draw, rebuilding the size weights per call."""
    weights = np.array(
        [math.comb(space.n_products, sz) for sz in range(space.max_size + 1)],
        dtype=float,
    )
    sz = int(rng.choice(space.max_size + 1, p=weights / weights.sum()))
    if sz == 0:
        return ()
    return tuple(sorted(rng.choice(space.n_products, size=sz, replace=False).tolist()))


class _RebuildingAssortments(AssortmentActions):
    def sample_uniform(self, rng):
        return reference_sample_uniform(self, rng)


def reference_run_episode(inst, policy, seed: int) -> EpisodeTrace:
    """One episode by the simulator's step protocol, with per-step records.

    The same four seed substreams as the simulator (arrivals, outcomes,
    durations, policy), a (resources x steps) return ring, and every
    per-step quantity rebuilt on every step: the cumulative arrival
    weights, the capacity thresholds, the chosen action's consumption
    bound, the logit choice vector and the uniform-size weights.  A
    policy playing an assortment space sees an equal space whose
    uniform draw is :func:`reference_sample_uniform`.
    """
    arrivals, outcomes, durations, pol_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(4)
    )
    if isinstance(inst.actions, AssortmentActions):
        space = _RebuildingAssortments(inst.actions.n_products, inst.actions.max_size)
        inst = dataclasses.replace(inst, actions=space, _mean_tables={})
    policy.reset(inst, pol_rng)
    C, R = inst.n_resources, inst.reward_count
    d_max = max(r.survival.d_max for r in inst.resources)
    returns = np.zeros((C, inst.horizon + d_max + 2))
    occupied = np.zeros(C)
    peak = np.zeros(C)
    reward_total = np.zeros(R)
    consumption_total = np.zeros(C)
    arrival_counts = np.zeros(inst.n_types, dtype=int)
    forced_rejects = 0
    steps = []
    null = inst.actions.null_action
    for t in range(1, inst.horizon + 1):
        occupied -= returns[:, t]
        returns[:, t] = 0.0
        cum = np.cumsum(inst.arrival_weights())
        j = min(int(np.searchsorted(cum, arrivals.random(), side="right")), inst.n_types - 1)
        arrival_counts[j] += 1
        k = policy.choose(t, j)
        om = inst.customers[j].outcomes
        bound = om.consumption_bound(k)
        forced = not bool(np.all(occupied + bound <= inst.capacities() + 1e-9))
        executed = null if forced else k
        durs = {}
        if forced:
            w, a = np.zeros(R), np.zeros(C)
        else:
            if isinstance(om, MnlOutcomes):
                w, a = reference_mnl_sample(om, executed, outcomes)
            else:
                w, a = om.sample(executed, outcomes)
            for i in np.nonzero(a > 0.0)[0]:
                d = reference_duration(inst.resources[i].survival, durations)
                durs[int(i)] = d
                if d > 0:
                    occupied[i] += a[i]
                    returns[i, t + d] += a[i]
            assert not np.any(occupied > inst.capacities() + 1e-7)
            np.maximum(peak, occupied, out=peak)
        policy.observe(t, j, k, forced)
        reward_total += w
        consumption_total += a
        forced_rejects += int(forced)
        steps.append(StepOutcome(t, j, k, executed, forced, w, a, durs))
    return EpisodeTrace(
        reward_total=reward_total,
        consumption_total=consumption_total,
        arrival_counts=arrival_counts,
        forced_rejects=forced_rejects,
        peak_occupied=peak,
        steps=steps,
    )
