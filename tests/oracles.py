"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way (enumeration,
plain loops, extended precision, every per-step quantity rebuilt per step)
and shares no code with the package beyond the public data types it checks
and the policies whose episodes it replays.  The exceptions are
:func:`lp_best_assortment`, a second, independent formulation of the
assortment problem that runs on the package's simplex, and
:func:`cold_colgen`, column generation that re-solves every restricted
master from scratch on it; A1 checks that simplex against
:func:`lp_enumerate`.  :func:`reference_best_assortment` is the package's
own assortment loop, kept without the early exits the package takes
before it.  :func:`reference_solve_canonical` is the simplex
kernel itself in its full-tableau form (the package's entering rule,
tolerances and certification checks, every row and column on the
tableau), against which the live-block kernel is checked bit for bit;
under Bland's rule throughout it is a second pivot path, whose optima the
package's must match.
:func:`violation_potential` rebuilds the adaptive policy's stage potential
from its recorded choices alone, without the live weights.
The ``plain_*`` weight functions compute the weighted rule with one fresh
array per numpy call: a per-slot loop that initializes the weights, a
concatenated mask that finds the selection offset, and both update deltas
rebuilt from the mean outcomes at every step.  The package's functions,
which cache deltas and reuse buffers, must match them bit for bit.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from reuselab.lp import (
    _BLAND_AFTER,
    _MAX_PIVOTS,
    _PIV_FLOOR,
    _PIV_TOL,
    _RC_TOL,
    IterationLimit,
    LinearProgram,
    NumericalBreakdown,
    SteadyStateSolution,
    _certify,
    _certify_optimal,
    build_steady_state_lp,
    solve_lp,
    solve_lp_with_duals,
)
from reuselab.mnl import MnlModel, MnlOutcomes
from reuselab.model import AlgoConfig, AssortmentActions, Instance
from reuselab.policy import PenaltyWeights
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


def reference_best_assortment(model: MnlModel, customer: int, coef) -> tuple:
    """The sort-and-fixed-point loop of :func:`reuselab.mnl.best_assortment`
    run on every input, with no early exit for zero or one candidate.

    Kept verbatim from the package's loop, so that its early exits can be
    checked tuple for tuple against the loop they skip.
    """
    if isinstance(coef, list):
        if len(coef) != model.n_products:
            raise ValueError("one coefficient per product required")
    else:
        coef = np.asarray(coef, dtype=float)
        if coef.shape != (model.n_products,):
            raise ValueError("one coefficient per product required")
        coef = coef.tolist()
    cands = [
        (i, v, -c * v)
        for i, (c, v) in enumerate(zip(coef, model.attraction_rows[customer]))
        if c < 0.0
    ]
    n = model.max_size
    best, z = [], 0.0
    while True:
        ranked = sorted(cands, key=lambda p: z * p[1] - p[2])  # stable: ties by index
        top = [p for p in ranked[:n] if p[2] - z * p[1] > 0.0]
        val = sum([p[2] for p in top]) / (1.0 + sum([p[1] for p in top]))
        if val <= z:
            break
        best, z = top, val
    return tuple(sorted([p[0] for p in best]))


def cold_colgen(inst, p, pricing=None, max_rounds: int = 500, rc_tol: float = 1e-7):
    """Column generation that rebuilds and re-solves every restricted master.

    Same rounds, pricing and stopping rule as
    :func:`reuselab.lp.solve_steady_state_colgen`, but each round builds the
    master LP over the columns so far and solves it from the all-slack basis.
    """
    p = np.asarray(p, dtype=float)
    R, C, J = inst.reward_count, inst.n_resources, inst.n_types
    d = inst.durations()
    if pricing is None:
        def pricing(j, alpha, rho):
            om = inst.customers[j].outcomes
            k = om.best_action(inst.actions, alpha * d, rho)
            return (k, *om.means(k))

    null = inst.actions.null_action
    columns = [(j, null) for j in range(J)]
    colset = set(columns)
    sol = None
    for _ in range(max_rounds):
        lp, cols = build_steady_state_lp(inst, p, columns=columns)
        lpsol, duals = solve_lp_with_duals(lp)
        if lpsol.status != "optimal":
            raise NumericalBreakdown(f"restricted master came back {lpsol.status}")
        x = {c: float(v) for c, v in zip(cols, lpsol.x[:-1]) if v > 1e-12}
        sol = SteadyStateSolution(float(lpsol.objective), x)
        rho = np.maximum(-duals[:R], 0.0)
        alpha = np.maximum(duals[R : R + C], 0.0)
        beta = duals[R + C : R + C + J]
        improved = False
        for j in range(J):
            if p[j] <= 1e-15:
                continue
            action, wcol, acol = pricing(j, alpha, rho)
            rc = p[j] * (rho @ wcol - (alpha * d) @ acol) - beta[j]
            if rc > rc_tol and (j, action) not in colset:
                columns.append((j, action))
                colset.add((j, action))
                improved = True
        if not improved:
            return sol
    raise IterationLimit(f"no convergence in {max_rounds} rounds", incumbent=sol)


def reference_build_steady_state_lp(inst, p, columns=None):
    """The steady-state LP filled one ``means`` call per column.

    Same rows, columns and arithmetic as
    :func:`reuselab.lp.build_steady_state_lp`: reward rows (>=), knapsack
    rows at mean duration (<=), one total-rate row per type (<=), the
    worst-rate variable last.  The package fills the LP over every column
    one type's block at a time from ``mean_matrix`` and must match this
    byte for byte.
    """
    p = np.asarray(p, dtype=float)
    if columns is None:
        columns = [(j, k) for j in range(inst.n_types) for k in inst.actions.all_actions()]
    ncol = len(columns)
    R, C, J = inst.reward_count, inst.n_resources, inst.n_types
    d = np.array([float(r.survival.surv.sum()) for r in inst.resources])
    A = np.zeros((R + C + J, ncol + 1))
    b = np.zeros(R + C + J)
    b[R : R + C] = [r.capacity for r in inst.resources]
    b[R + C :] = 1.0
    for idx, (j, k) in enumerate(columns):
        w, a = inst.customers[j].outcomes.means(k)
        A[:R, idx] = p[j] * w
        A[R : R + C, idx] = p[j] * a * d
        A[R + C + j, idx] = 1.0
    A[:R, ncol] = -1.0
    c = np.zeros(ncol + 1)
    c[ncol] = 1.0
    return LinearProgram(c, A, [">="] * R + ["<="] * (C + J), b), columns


def reference_build_time_expanded_lp(inst, p):
    """The time-expanded LP filled by a loop over (resource, t, tau).

    Same rows, columns and arithmetic as
    :func:`reuselab.lp.build_time_expanded_lp` (without its size caps):
    reward rows (>=), one occupancy row per (resource, step) (<=) that adds
    Pr(D_i >= t - tau + 1) * p_j * a for every step tau <= t where that
    probability is positive, and one total-rate row per (step, type)
    (<=), the worst-total variable last.  The package fills the occupancy
    rows from a Toeplitz band of the survival curve and must match this
    byte for byte.
    """
    p = np.asarray(p, dtype=float)
    T, J = inst.horizon, inst.n_types
    actions = inst.actions.all_actions()
    K = len(actions)
    nvar = T * J * K
    R, C = inst.reward_count, inst.n_resources
    m = R + C * T + J * T
    W = np.zeros((J, R, K))
    Acons = np.zeros((J, C, K))
    for j in range(J):
        W[j], Acons[j] = inst.customers[j].outcomes.mean_matrix(inst.actions)
    pw = (p[:, None, None] * W).transpose(1, 0, 2).reshape(R, J * K)
    pa = (p[:, None, None] * Acons).transpose(1, 0, 2).reshape(C, J * K)
    surv = np.zeros((C, T))
    for i, r in enumerate(inst.resources):
        tail = r.survival.surv[:T]
        surv[i, : tail.size] = tail
    A = np.zeros((m, nvar + 1))
    b = np.zeros(m)
    senses = [">="] * R + ["<="] * (C * T) + ["<="] * (J * T)
    for t in range(T):
        A[:R, t * J * K : (t + 1) * J * K] = pw
    A[:R, nvar] = -float(T)
    row = R
    for i in range(C):
        for t in range(1, T + 1):
            for tau in range(1, t + 1):
                f = surv[i, t - tau]  # Pr(D_i >= t - tau + 1)
                if f > 0.0:
                    A[row, (tau - 1) * J * K : tau * J * K] += f * pa[i]
            b[row] = inst.resources[i].capacity
            row += 1
    for t in range(T):
        for j in range(J):
            A[row, t * J * K + j * K : t * J * K + (j + 1) * K] = 1.0
            b[row] = 1.0
            row += 1
    c = np.zeros(nvar + 1)
    c[nvar] = 1.0
    return LinearProgram(c, A, senses, b), actions


def enumeration_pricing(inst):
    """Brute-force pricing oracle over an enumerable action space.

    Given nonnegative knapsack duals alpha (per resource) and reward duals
    rho (per reward index), returns the column minimizing
    sum_i alpha_i d_i a_i - sum_i rho_i w_i for the type; ties go to the
    lowest action index.  Each type's mean tables are built once per
    oracle.
    """
    d = np.array([float(r.survival.surv.sum()) for r in inst.resources])
    actions = inst.actions.all_actions()
    tables = [c.outcomes.mean_matrix(inst.actions) for c in inst.customers]

    def pricing(j, alpha, rho):
        W, A = tables[j]
        scores = (alpha * d) @ A - rho @ W
        k = int(np.argmin(scores))
        return actions[k], W[:, k].copy(), A[:, k].copy()

    return pricing


def membership_matrix(space: AssortmentActions) -> np.ndarray:
    """0/1 matrix (n_products x size): product i offered in action k.

    Actions are enumerated independently: by size, then lexicographically.
    """
    acts = [()] + [
        act
        for sz in range(1, space.max_size + 1)
        for act in itertools.combinations(range(space.n_products), sz)
    ]
    m = np.zeros((space.n_products, len(acts)))
    for k, act in enumerate(acts):
        m[list(act), k] = 1.0
    return m


# ---------------------------------------------------------------------------
# the full-tableau simplex kernel, as it stood before the live-block presolve:
# every row and column of the LP goes on the tableau, and every pivot
# allocates its rank-one update; its entering rule is the package's, or
# Bland's rule throughout


def _pivot(tab, basis, row, col):
    """Gauss-Jordan pivot on (row, col); col becomes basic in row."""
    piv = tab[row, col]
    tab[row] /= piv
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    tab -= np.outer(colvals, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _set_objective(tab, basis, c):
    """Objective row (z_j - c_j | z) of max c @ x for the current basis."""
    m = basis.size
    cb = c[basis]
    tab[m, :-1] = cb @ tab[:m, :-1] - c
    tab[m, -1] = cb @ tab[:m, -1]


def _pivot_loop(tab, basis, banned, bland_after):
    """Simplex iterations on a canonical tableau; returns a status string.

    tab has one row per basis entry plus the objective row (z_j - c_j | z)
    at the bottom; the rightmost column is the rhs.  Entering: the most
    negative reduced cost < -tol, ties to the lowest index, until
    ``bland_after`` consecutive pivots have had a min ratio <= 1e-12; then
    the lowest-index column with reduced cost < -tol (Bland's rule) until
    the next pivot with a larger ratio.  ``bland_after=0`` is Bland's rule
    throughout.  Leaving: min-ratio row, ties by lowest basic variable
    index.  Columns in ``banned`` never enter.
    """
    m = basis.size
    shaky = degenerate = 0
    for _ in range(_MAX_PIVOTS):
        reduced = tab[m, :-1]
        eligible = (reduced < -_RC_TOL) & ~banned
        if degenerate < bland_after:
            enter = int(np.where(eligible, reduced, np.inf).argmin())
        else:
            enter = int(eligible.argmax())
        if not eligible[enter]:
            return "optimal"
        col = tab[:m, enter]
        good = col > _PIV_TOL
        if not good.any():
            weak = col > _PIV_FLOOR
            if not weak.any():
                return "unbounded"
            shaky += 1
            if shaky > 50:
                raise NumericalBreakdown(
                    "repeated pivots below magnitude 1e-9; tableau unreliable"
                )
            good = weak
        rhs = tab[:m, -1]
        ratios = np.full(m, np.inf)
        ratios[good] = rhs[good] / col[good]
        rmin = ratios.min()
        degenerate = degenerate + 1 if rmin <= 1e-12 else 0
        tied = np.flatnonzero(ratios <= rmin * (1 + 1e-10) + 1e-15)
        _pivot(tab, basis, int(tied[basis[tied].argmin()]), enter)
    raise NumericalBreakdown(f"no convergence within {_MAX_PIVOTS} pivots")


def _canonical_tableau(A, b, senses):
    """Starting tableau of max over rows (A, senses, b), x >= 0.

    Returns (tab, basis, start, g, n_real).  Tableau row i is
    g_i * (A_i, slack_i | b_i): the slack carries +1 on "<=" rows and -1 on
    ">=" rows ("==" rows have none), and g_i = +-1 turns ">=" rows around,
    then turns the row again if b_i would be < 0.  Columns: x, slacks in
    row order (``n_real`` columns so far), then artificials in row order;
    the objective row is left for :func:`_optimize`.  ``start[i]`` is row
    i's starting basic column, a unit column, so ``tab[:m, start]`` is the
    inverse of the current basis (in the g-scaled rows) after any pivots.
    """
    n, m = A.shape[1], b.size
    senses = np.array(senses, dtype=str)
    sign = np.where(senses == ">=", -1.0, 1.0)
    g = np.where(sign * b < 0, -sign, sign)
    has_slack = senses != "=="
    slacks = sign[:, None] * np.eye(m)[:, has_slack]
    # a row whose slack ends up at +1 starts with it basic; the rest get an
    # artificial
    need_art = ~has_slack | (g != sign)
    n_real = n + int(has_slack.sum())
    ncols = n_real + int(need_art.sum())
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :n_real] = g[:, None] * np.hstack([A, slacks])
    tab[:m, n_real:ncols] = np.eye(m)[:, need_art]
    tab[:m, -1] = g * b
    start = np.where(
        need_art, n_real + np.cumsum(need_art) - 1, n + np.cumsum(has_slack) - 1
    )
    return tab, start.copy(), start, g, n_real


def _optimize(tab, basis, banned, n_real, c, bland_after):
    """Both simplex phases of max c @ x on a canonical tableau, in place.

    Returns "optimal", "infeasible" or "unbounded".  After phase 1 the
    artificials are banned from entering again.
    """
    m = basis.size
    ncols = tab.shape[1] - 1
    if n_real < ncols:
        # phase 1: maximize -(sum of artificials)
        c1 = np.zeros(ncols)
        c1[n_real:] = -1.0
        _set_objective(tab, basis, c1)
        _pivot_loop(tab, basis, banned, bland_after)
        if tab[m, -1] < -1e-7:
            return "infeasible"
        # pivot artificials out of the basis where a real pivot exists
        for i in np.flatnonzero(basis >= n_real):
            cand = np.flatnonzero(np.abs(tab[i, :n_real]) > _PIV_TOL)
            if cand.size:
                _pivot(tab, basis, i, int(cand[0]))
        banned[n_real:] = True

    c2 = np.zeros(ncols)
    c2[: c.size] = c
    _set_objective(tab, basis, c2)
    return _pivot_loop(tab, basis, banned, bland_after)


def _basic_point(tab, basis):
    """Values of every tableau column at the current basis."""
    xfull = np.zeros(tab.shape[1] - 1)
    xfull[basis] = tab[: basis.size, -1]
    return xfull


def reference_solve_canonical(lp: LinearProgram, bland_after: int = _BLAND_AFTER):
    """Two-phase simplex; returns (status, objective, x, row_duals).

    The entering rule is the package's (``bland_after`` as in
    :func:`_pivot_loop`); ``bland_after=0`` is Bland's rule throughout, the
    kernel as it stood before the package priced by the most negative
    reduced cost.

    Row duals are with respect to the original rows (sign convention: at an
    optimum, duals y satisfy y @ b == objective and c - y @ A <= 0, so "<="
    rows carry y >= 0 and ">=" rows carry y <= 0 for a max problem).  An
    optimum is certified primal feasible against the original rows and
    bounds, and dual feasible with zero gap on the bound-augmented system.
    """
    n = lp.n_vars
    lower = lp.lower if lp.lower is not None else np.zeros(n)
    if not np.all(np.isfinite(lower)):
        raise ValueError("lower bounds must be finite")
    shift = lp.c @ lower

    # finite upper bounds become extra "<=" rows after the user's rows
    A, b, senses = lp.A, lp.b - lp.A @ lower, list(lp.senses)
    if lp.upper is not None:
        boxed = np.flatnonzero(np.isfinite(lp.upper))
        A = np.vstack([A, np.eye(n)[boxed]])
        b = np.concatenate([b, lp.upper[boxed] - lower[boxed]])
        senses += ["<="] * boxed.size
    tab, basis, start, g, n_real = _canonical_tableau(A, b, senses)
    banned = np.zeros(tab.shape[1] - 1, dtype=bool)
    status = _optimize(tab, basis, banned, n_real, lp.c, bland_after)
    if status == "infeasible":
        return "infeasible", math.nan, None, None
    if status == "unbounded":
        return "unbounded", math.inf, None, None

    xs = _basic_point(tab, basis)[:n]
    x = xs + lower
    bad = _certify(lp, x)
    if bad:
        raise NumericalBreakdown("optimal basis failed certification: " + "; ".join(bad))
    # the start column of row i is +1 there and 0 elsewhere, so its reduced
    # cost is the tableau row's dual; g maps it back to the original row
    m = b.size
    duals = g * tab[m, start]
    bad = _certify_optimal(A, b, senses, lp.c, xs, duals, tab[m, -1])
    if bad:
        raise NumericalBreakdown("optimal duals failed certification: " + "; ".join(bad))
    return "optimal", float(tab[m, -1] + shift), x, duals[: lp.n_rows]


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
    W, A = om.mean_matrix(inst.actions)
    actions = inst.actions.all_actions()
    best_k, best_score = 0, None
    for k in range(len(actions)):
        score = phi @ A[:, k].astype(np.longdouble) - psi @ W[:, k].astype(np.longdouble)
        if best_score is None or score < best_score:
            best_k, best_score = k, score
    return actions[best_k]


# ---------------------------------------------------------------------------
# the weighted rule with one fresh array per numpy call: the per-slot
# initialization loop, the concatenated offset mask, and both update deltas
# rebuilt from the mean outcomes at every step


def plain_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis))
    return out + np.squeeze(m, axis=axis)


def plain_init_penalty_weights(
    inst: Instance, stage_len: int, lam: float, eps_z: float, config: AlgoConfig
) -> PenaltyWeights:
    """Stage-start weights.

    Resource weights start at eps*gamma / (c_i * (1+eps)^(gamma-delta)) for
    slot 1 and grow across slots by the occupancy factor of the slot gap;
    reward weights start at the negative of the full-stage drift so that a
    policy exactly on target ends the stage at magnitude about eps_z/w_max.
    """
    if inst.w_max <= 0.0:
        raise ValueError("adaptive weights need a positive reward bound")
    eps, gamma, delta = config.epsilon, config.gamma, config.delta
    caps = inst.capacities()
    d = inst.durations()
    d_safe = np.where(d > 0, d, 1.0)
    base = inst.survival_matrix(stage_len + 1)  # (C, stage_len + 1)
    C = inst.n_resources
    surv = np.hstack([np.zeros((C, 1)), base])
    with np.errstate(divide="ignore"):
        log_surv = np.log(surv)
        occ = np.log1p(eps * gamma * surv[:, : stage_len + 1] / (d_safe * (1.0 + eps))[:, None])
        lead = np.log(eps * gamma) - np.log(caps) - (gamma - delta) * math.log1p(eps)
    log_resource = np.full((C, stage_len + 1), -np.inf)
    log_resource[:, 1] = lead
    for t in range(2, stage_len + 1):
        log_resource[:, t] = log_resource[:, t - 1] + occ[:, t - 1]
    log_shrink = math.log1p(-eps_z)
    log_drift = math.log1p(-eps_z * lam / (inst.w_max * (1.0 + eps)))
    mag = (
        math.log(eps_z)
        - math.log(inst.w_max)
        + (stage_len - 1) * log_drift
        - (1.0 - eps_z) * stage_len * lam / inst.w_max * log_shrink
    )
    return PenaltyWeights(
        stage_len=stage_len,
        gamma=gamma,
        lam=lam,
        eps_z=eps_z,
        w_max=inst.w_max,
        caps=caps,
        surv=surv,
        log_surv=log_surv,
        occ_factors=occ,
        log_resource=log_resource,
        log_reward_mag=np.full(inst.reward_count, mag),
        log1p_eps=math.log1p(eps),
        log_shrink_z=log_shrink,
        log_drift_z=log_drift,
    )


def plain_select_action(ws: PenaltyWeights, inst: Instance, customer: int):
    """Greedy step of the weighted rule for the arrival at step updates + 1.

    Minimizes projected occupancy cost plus (negative) reward credit:
    sum over future slots t of a_i * Pr(D_i >= t - s + 1) * phi_{i,s,t}
    plus sum over reward indices of w_i * psi_{i,s}, using mean outcomes.
    The slot of the current step itself (t = s) enters the occupancy sum;
    only slots t <= s + d_max - 1 carry survival mass, so the sum stops
    there (and is empty when d_max = 0).  The minimization itself
    is the customer's own pricing oracle, ``outcomes.best_action``: an
    argmin over mean tables (ties to the lowest action index) for explicit
    types, the sort-and-fixed-point assortment solver for logit customers.
    """
    om = inst.customers[customer].outcomes
    null = inst.actions.null_action
    if om.is_null:
        return null
    s = ws.updates + 1
    L = ws.stage_len
    if s > L:
        raise RuntimeError(f"stage of length {L} already exhausted")
    end = min(L, s + ws.d_max - 1)
    if s > end:
        log_phi_sum = np.full(ws.caps.size, -np.inf)
    else:
        terms = ws.log_surv[:, 1 : end - s + 2] + ws.log_resource[:, s : end + 1]
        log_phi_sum = plain_logsumexp(terms, axis=1)
    cand = np.concatenate([log_phi_sum, ws.log_reward_mag])
    finite = cand[np.isfinite(cand)]
    off = float(finite.max()) if finite.size else 0.0
    phi = np.exp(log_phi_sum - off)
    psi_mag = np.exp(ws.log_reward_mag - off)
    return om.best_action(inst.actions, phi, psi_mag)


def plain_update_penalty_weights(ws: PenaltyWeights, inst: Instance, customer: int, action):
    """Apply the multiplicative update for the chosen action's mean outcomes.

    Future resource slots grow by (1+eps)^((gamma/c_i) * projected
    occupancy) and shed one static occupancy factor; reward weights shrink
    by (1-eps_z)^(w_i/w_max) and shed one drift factor.  Deterministic
    given the arrival and the chosen action.  Slots past s + d_max would
    only receive += 0.0, so they are skipped.
    """
    w, a = inst.customers[customer].outcomes.means(action)
    s = ws.updates + 1
    L = ws.stage_len
    if s > L:
        raise RuntimeError(f"stage of length {L} already exhausted")
    hi = min(L, s + ws.d_max)
    if hi > s:
        gap = hi - s   # t - s runs over 1..gap for t in s+1..hi
        proj = a[:, None] * ws.surv[:, 2 : gap + 2]   # Pr(D >= t - s + 1)
        ws.log_resource[:, s + 1 : hi + 1] += (
            (ws.gamma / ws.caps)[:, None] * proj * ws.log1p_eps
            - ws.occ_factors[:, 1 : gap + 1]
        )
    ws.log_reward_mag += (w / ws.w_max) * ws.log_shrink_z - ws.log_drift_z
    ws.updates = s


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


def violation_potential_terms(record, inst, config, upto: int | None = None):
    """Recompute the stage potential after ``upto`` steps from first principles.

    The potential is the quantity whose expected one-step decrease makes
    the weighted rule safe: projected future occupancy mass (each future
    slot weighted by realized commitments so far and by the static growth
    of the remaining gap) plus the reward-deficit mass.  Everything is
    rebuilt from the recorded (customer, action) choices and mean outcome
    tables; the live weights are not consulted, so this doubles as an
    independent check on them.  Quadratic in the stage length.
    """
    if record.mode != "weighted":
        raise ValueError("potential is only defined for weighted stages")
    s = len(record.choices) if upto is None else int(upto)
    if not 0 <= s <= len(record.choices):
        raise ValueError(f"upto must lie in 0..{len(record.choices)}")
    L = record.length
    eps, gamma, delta = config.epsilon, config.gamma, config.delta
    lam, ez = record.lam, record.eps_z
    w_max = inst.w_max
    caps = inst.capacities()
    d = inst.durations()
    d_safe = np.where(d > 0, d, 1.0)
    C = inst.n_resources
    base = inst.survival_matrix(L + 1)
    surv = np.hstack([np.zeros((C, 1)), base])  # surv[:, u] = Pr(D >= u)
    with np.errstate(divide="ignore"):
        occ = np.log1p(eps * gamma * surv[:, : L + 1] / (d_safe * (1.0 + eps))[:, None])
    occ_cum = np.cumsum(occ, axis=1)  # occ_cum[:, m] = sum of factors for gaps 1..m
    means = [inst.customers[j].outcomes.means(k) for j, k in record.choices[:s]]
    log1p = math.log1p(eps)
    res = 0.0
    for t in range(s + 1, L + 1):
        cum = np.zeros(C)
        for tau in range(1, s + 1):
            cum += means[tau - 1][1] * surv[:, t - tau + 1]
        logterm = (gamma / caps) * cum * log1p + occ_cum[:, t - s] + (delta - gamma) * log1p
        res += float(np.exp(logterm).sum())
    cum_z = np.zeros(inst.reward_count)
    for tau in range(1, s + 1):
        cum_z += means[tau - 1][0]
    log_shrink = math.log1p(-ez)
    log_drift = math.log1p(-ez * lam / (w_max * (1.0 + eps)))
    logrew = (
        (cum_z / w_max) * log_shrink
        + (L - s) * log_drift
        - (1.0 - ez) * L * lam / w_max * log_shrink
    )
    rew = float(np.exp(logrew).sum())
    return res, rew


def violation_potential(record, inst, config, upto: int | None = None) -> float:
    """Total stage potential: occupancy mass plus reward-deficit mass."""
    res, rew = violation_potential_terms(record, inst, config, upto)
    return res + rew


def reference_duration(curve, rng) -> int:
    """One inverse-transform duration draw, reversing the curve per call."""
    asc = np.asarray(curve.surv, dtype=float)[::-1]
    return int(asc.size - np.searchsorted(asc, rng.random(), side="right"))


def reference_rate_draw(rates: dict, null, epsilon: float, j: int, rng):
    """One static-policy draw for type j, rebuilding its cumulative rates.

    The type's non-null positive rates, sorted by action and shrunk by
    1/(1+epsilon), are accumulated by numpy per call; U past their total
    picks the null action.
    """
    items = sorted((k, v) for (jj, k), v in rates.items() if jj == j and k != null and v > 0.0)
    cum = np.cumsum(np.array([v for _k, v in items]) / (1.0 + epsilon))
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return items[idx][0] if idx < len(items) else null


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
    """Uniform assortment draw, rebuilding the size weights per call.

    Both draws are numpy's ``Generator.choice``: the size with ``p=``, the
    products with ``replace=False``.  The oracle thereby pins the draw
    sequence of that numpy routine, which the package reproduces with
    scalar draws: a change in numpy's sampler shows up here.
    """
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
        inst = dataclasses.replace(inst, actions=space)
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
