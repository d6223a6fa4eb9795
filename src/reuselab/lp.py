"""Linear programming for the allocation benchmarks.

A small dense primal simplex (two-phase, Bland's rule) plus builders for the
two planning relaxations used as benchmarks and inside the adaptive policy:

* the steady-state LP: fractional per-type action rates x_{jk} with resource
  usage charged at mean duration, maximizing the worst reward rate;
* the time-expanded LP: per-step rates y_{jk}(t) with exact in-flight
  occupancy terms, maximizing the worst expected total reward over the
  horizon.

:func:`plan_rates` is the one planner: the benchmarks, the ``+saa`` rates
and every adaptive stage LP (:func:`solve_stage_lambda`) plan through it.
Column generation prices each type by its own outcome model's
``best_action``.

Bland's rule is slow but deterministic and cycle-free, which is what the
reproducibility contract needs at desk scale.  Both phases share one pivot
routine (:func:`_pivot`) and one objective-row setup; the entering and
leaving scans are array ops that keep Bland's pivot sequence.  Every
optimal point is certified primal feasible against the original rows and
bounds (duals are not checked).  Row duals are read off the reduced cost of
each row's starting basic column (its slack or artificial); they are used
internally by column generation but are not part of the public solution
type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance

__all__ = [
    "LinearProgram",
    "LpSolution",
    "SteadyStateSolution",
    "StageEstimate",
    "NumericalBreakdown",
    "DegenerateStage",
    "TooLarge",
    "IterationLimit",
    "solve_lp",
    "build_steady_state_lp",
    "solve_steady_state",
    "plan_rates",
    "solve_stage_lambda",
    "build_time_expanded_lp",
    "solve_time_expanded",
    "enumeration_pricing",
    "solve_steady_state_colgen",
    "dump_lp",
]

_RC_TOL = 1e-9        # reduced-cost optimality tolerance
_PIV_TOL = 1e-9       # healthy pivot magnitude
_PIV_FLOOR = 1e-12    # below this a column counts as zero
_MAX_PIVOTS = 200_000

ENUMERATION_CAP = 4096  # largest action space the dense builders will expand


class NumericalBreakdown(RuntimeError):
    """The tableau degraded: repeated tiny pivots or a failed certification."""


class DegenerateStage(RuntimeError):
    """A stage LP came back with (numerically) zero objective."""


class TooLarge(ValueError):
    """The requested dense LP exceeds the configured variable cap."""


class IterationLimit(RuntimeError):
    """Column generation hit its round cap; carries the best incumbent."""

    def __init__(self, message, incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent


@dataclass
class LinearProgram:
    """max c @ x subject to rows (A, senses, b) and bounds lower <= x <= upper.

    ``senses[i]`` is one of "<=", ">=", "==".  Bounds default to x >= 0 with
    no upper limit.  Everything is dense.
    """

    c: np.ndarray
    A: np.ndarray
    senses: list
    b: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim != 2 or self.A.shape != (self.b.size, self.c.size):
            raise ValueError("A must be (len(b), len(c))")
        if len(self.senses) != self.b.size:
            raise ValueError("one sense per row required")
        if not all(np.isfinite(v).all() for v in (self.c, self.A, self.b)):
            raise ValueError("c, A and b must be finite")
        for s in self.senses:
            if s not in ("<=", ">=", "=="):
                raise ValueError(f"unknown sense {s!r}")
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != (self.c.size,):
                    raise ValueError(f"{name} bounds must have one entry per variable")
                setattr(self, name, v)

    @property
    def n_vars(self):
        return self.c.size

    @property
    def n_rows(self):
        return self.b.size


@dataclass
class LpSolution:
    """Solver verdict: status in {"optimal", "infeasible", "unbounded"}.

    ``x`` is the certified-feasible primal point for optimal status, else
    None; ``objective`` is finite only for optimal status.
    """

    status: str
    objective: float
    x: np.ndarray | None


def _feastol(rhs):
    return 1e-9 * (1.0 + abs(rhs))


def _certify(lp: LinearProgram, x: np.ndarray) -> list[str]:
    """Residual check of x against every row and bound of the original LP."""
    bad = []
    res = lp.A @ x
    for i, (s, rhs) in enumerate(zip(lp.senses, lp.b)):
        tol = _feastol(rhs)
        r = res[i]
        if s == "<=" and r > rhs + tol:
            bad.append(f"row {i}: {r!r} > {rhs!r}")
        elif s == ">=" and r < rhs - tol:
            bad.append(f"row {i}: {r!r} < {rhs!r}")
        elif s == "==" and abs(r - rhs) > tol:
            bad.append(f"row {i}: {r!r} != {rhs!r}")
    lo = lp.lower if lp.lower is not None else np.zeros(lp.n_vars)
    if np.any(x < lo - 1e-9):
        bad.append("lower bound violated")
    if lp.upper is not None and np.any(x > lp.upper + 1e-9):
        bad.append("upper bound violated")
    return bad


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


def _pivot_loop(tab, basis, banned):
    """Bland iterations on a canonical tableau; returns a status string.

    tab has one row per basis entry plus the objective row (z_j - c_j | z)
    at the bottom; the rightmost column is the rhs.  Entering: lowest-index
    column with reduced cost < -tol.  Leaving: min-ratio row, ties by lowest
    basic variable index.  Columns in ``banned`` never enter.
    """
    m = basis.size
    shaky = 0
    for _ in range(_MAX_PIVOTS):
        eligible = (tab[m, :-1] < -_RC_TOL) & ~banned
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
        tied = np.flatnonzero(ratios <= rmin * (1 + 1e-10) + 1e-15)
        _pivot(tab, basis, int(tied[basis[tied].argmin()]), enter)
    raise NumericalBreakdown(f"no convergence within {_MAX_PIVOTS} pivots")


def _solve_canonical(lp: LinearProgram):
    """Two-phase simplex; returns (status, objective, x, row_duals).

    Row duals are with respect to the original rows (sign convention: at an
    optimum, duals y satisfy y @ b == objective and c - y @ A <= 0, so "<="
    rows carry y >= 0 and ">=" rows carry y <= 0 for a max problem).
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
    m = b.size
    senses = np.array(senses, dtype=str)

    # tableau row i is g_i * (A_i, slack_i | b_i): the slack carries +1 on
    # "<=" rows and -1 on ">=" rows ("==" rows have none), and g_i = +-1
    # turns ">=" rows around, then turns the row again if b_i would be < 0
    sign = np.where(senses == ">=", -1.0, 1.0)
    g = np.where(sign * b < 0, -sign, sign)
    has_slack = senses != "=="
    slacks = sign[:, None] * np.eye(m)[:, has_slack]
    # a row whose slack ends up at +1 starts with it basic; the rest get an
    # artificial.  Columns: x, slacks in row order, artificials in row order.
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
    basis = start.copy()
    banned = np.zeros(ncols, dtype=bool)

    if n_real < ncols:
        # phase 1: maximize -(sum of artificials)
        c1 = np.zeros(ncols)
        c1[n_real:] = -1.0
        _set_objective(tab, basis, c1)
        _pivot_loop(tab, basis, banned)
        if tab[m, -1] < -1e-7:
            return "infeasible", math.nan, None, None
        # pivot artificials out of the basis where a real pivot exists
        for i in np.flatnonzero(basis >= n_real):
            cand = np.flatnonzero(np.abs(tab[i, :n_real]) > _PIV_TOL)
            if cand.size:
                _pivot(tab, basis, i, int(cand[0]))
        banned[n_real:] = True

    c2 = np.zeros(ncols)
    c2[:n] = lp.c
    _set_objective(tab, basis, c2)
    if _pivot_loop(tab, basis, banned) == "unbounded":
        return "unbounded", math.inf, None, None

    xfull = np.zeros(ncols)
    xfull[basis] = tab[:m, -1]
    x = xfull[:n] + lower
    bad = _certify(lp, x)
    if bad:
        raise NumericalBreakdown("optimal basis failed certification: " + "; ".join(bad))

    # the start column of row i is +1 there and 0 elsewhere, so its reduced
    # cost is the tableau row's dual; g maps it back to the original row
    duals = (g * tab[m, start])[: lp.n_rows]
    return "optimal", float(tab[m, -1] + shift), x, duals


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Primal simplex with Bland's rule on a dense tableau."""
    status, obj, x, _ = _solve_canonical(lp)
    return LpSolution(status, obj, x)


def solve_lp_with_duals(lp: LinearProgram):
    """Internal: like :func:`solve_lp` but also returns row duals."""
    status, obj, x, duals = _solve_canonical(lp)
    return LpSolution(status, obj, x), duals


# ---------------------------------------------------------------------------
# steady-state LP


@dataclass
class SteadyStateSolution:
    """Worst-reward rate lambda and per-(type, action) rates x.

    ``x`` maps (type index, action) to its rate; rates are nonnegative and
    sum to at most 1 per type.
    """

    lambda_: float
    x: dict

    def violations(self, inst: Instance, p, tol: float = 1e-9) -> list[str]:
        out = []
        per_type: dict = {}
        for (j, _k), v in self.x.items():
            if v < -tol:
                out.append(f"x[{j}] negative rate {v!r}")
            per_type[j] = per_type.get(j, 0.0) + v
        for j, s in per_type.items():
            if s > 1.0 + 1e-9:
                out.append(f"type {j}: rates sum to {s!r} > 1")
        caps = inst.capacities()
        d = inst.durations()
        load = np.zeros(inst.n_resources)
        for (j, k), v in self.x.items():
            _w, a = inst.customers[j].outcomes.means(k)
            load += p[j] * v * a * d
        for i in range(inst.n_resources):
            if load[i] > caps[i] + _feastol(caps[i]):
                out.append(f"resource {i}: steady load {load[i]!r} > {caps[i]!r}")
        return out


@dataclass
class StageEstimate:
    """Stage LP outcome: raw optimum, shrunken target, and the rate solution."""

    mu_star: float
    lambda_r: float
    solution: SteadyStateSolution


def _default_columns(inst: Instance):
    if inst.actions.size > ENUMERATION_CAP:
        raise TooLarge(
            f"action space of size {inst.actions.size} needs column generation"
        )
    return [(j, k) for j in range(inst.n_types) for k in inst.actions.all_actions()]


def build_steady_state_lp(inst: Instance, p, columns=None):
    """LP over rates x_{jk} (plus the worst-rate variable last).

    Rows come in a fixed order used by the column-generation duals:
    reward rows (>=), then resource knapsack rows (<=, usage at mean
    duration), then one per-type total-rate row (<=).  Returns
    (LinearProgram, columns).
    """
    p = np.asarray(p, dtype=float)
    if columns is None:
        columns = _default_columns(inst)
    ncol = len(columns)
    R, C, J = inst.reward_count, inst.n_resources, inst.n_types
    d = inst.durations()
    A = np.zeros((R + C + J, ncol + 1))
    b = np.zeros(R + C + J)
    senses = [">="] * R + ["<="] * C + ["<="] * J
    b[R : R + C] = inst.capacities()
    b[R + C :] = 1.0
    for idx, (j, k) in enumerate(columns):
        w, a = inst.customers[j].outcomes.means(k)
        A[:R, idx] = p[j] * w
        A[R : R + C, idx] = p[j] * a * d
        A[R + C + j, idx] = 1.0
    A[:R, ncol] = -1.0  # worst-rate variable enters every reward row
    c = np.zeros(ncol + 1)
    c[ncol] = 1.0
    return LinearProgram(c, A, senses, b), columns


def solve_steady_state(inst: Instance, p, columns=None) -> SteadyStateSolution:
    lp, columns = build_steady_state_lp(inst, p, columns)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise NumericalBreakdown(f"steady-state LP came back {sol.status}")
    x = {
        col: float(v)
        for col, v in zip(columns, sol.x[:-1])
        if v > 1e-12
    }
    return SteadyStateSolution(float(sol.objective), x)


def plan_rates(inst: Instance, p) -> SteadyStateSolution:
    """Optimal steady-state rates under arrival distribution ``p``: over
    every column up to ``ENUMERATION_CAP`` actions, by column generation
    above."""
    if inst.actions.size <= ENUMERATION_CAP:
        return solve_steady_state(inst, p)
    return solve_steady_state_colgen(inst, p)


def solve_stage_lambda(inst: Instance, p_hat, margin: float) -> StageEstimate:
    """Plan rates on an empirical distribution and shrink the optimum.

    ``margin`` is the sampling-error half-width of the previous stage; the
    stage target is mu* / (1 + margin).  Raises :class:`DegenerateStage`
    when the empirical optimum is numerically zero (the caller is expected
    to fall back to exploration).
    """
    sol = plan_rates(inst, p_hat)
    mu = sol.lambda_
    if mu <= 1e-12:
        raise DegenerateStage(f"stage LP optimum {mu!r} is numerically zero")
    return StageEstimate(mu, mu / (1.0 + margin), sol)


# ---------------------------------------------------------------------------
# time-expanded LP


def build_time_expanded_lp(inst: Instance, p, cap: int = 20_000):
    """LP over per-step rates y_{jk}(t) with exact in-flight occupancy rows.

    Variable order is (t, j, k) with t outermost and the worst-total
    variable last.  Size T*J*K must not exceed ``cap`` (raises
    :class:`TooLarge`).  Returns (LinearProgram, actions list).
    """
    p = np.asarray(p, dtype=float)
    T, J = inst.horizon, inst.n_types
    if inst.actions.size > ENUMERATION_CAP:
        raise TooLarge("time-expanded LP needs an enumerable action space")
    actions = inst.actions.all_actions()
    K = len(actions)
    nvar = T * J * K
    if nvar > cap:
        raise TooLarge(f"time-expanded LP has {nvar} rate variables, cap is {cap}")
    R, C = inst.reward_count, inst.n_resources

    W = np.zeros((J, R, K))
    Acons = np.zeros((J, C, K))
    for j in range(J):
        W[j], Acons[j] = inst.mean_tables(j)
    pw = (p[:, None, None] * W).transpose(1, 0, 2).reshape(R, J * K)
    pa = (p[:, None, None] * Acons).transpose(1, 0, 2).reshape(C, J * K)
    surv = inst.survival_matrix(T)

    m = R + C * T + J * T
    A = np.zeros((m, nvar + 1))
    b = np.zeros(m)
    senses = [">="] * R + ["<="] * (C * T) + ["<="] * (J * T)
    for t in range(T):
        A[:R, t * J * K : (t + 1) * J * K] = pw
    A[:R, nvar] = -float(T)
    row = R
    caps = inst.capacities()
    for i in range(C):
        for t in range(1, T + 1):
            for tau in range(1, t + 1):
                f = surv[i, t - tau]  # Pr(D_i >= t - tau + 1)
                if f > 0.0:
                    A[row, (tau - 1) * J * K : tau * J * K] += f * pa[i]
            b[row] = caps[i]
            row += 1
    for t in range(T):
        for j in range(J):
            A[row, t * J * K + j * K : t * J * K + (j + 1) * K] = 1.0
            b[row] = 1.0
            row += 1
    c = np.zeros(nvar + 1)
    c[nvar] = 1.0
    return LinearProgram(c, A, senses, b), actions


def solve_time_expanded(inst: Instance, p, cap: int = 20_000):
    """Returns (lambda*, rates dict {(t, j, action): value}) for t = 1..T."""
    lp, actions = build_time_expanded_lp(inst, p, cap)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise NumericalBreakdown(f"time-expanded LP came back {sol.status}")
    J, K = inst.n_types, len(actions)
    y = {}
    for flat, v in enumerate(sol.x[:-1]):
        if v > 1e-12:
            t, rem = divmod(flat, J * K)
            j, k = divmod(rem, K)
            y[(t + 1, j, actions[k])] = float(v)
    return float(sol.objective), y


# ---------------------------------------------------------------------------
# column generation


def enumeration_pricing(inst: Instance):
    """Brute-force pricing oracle over an enumerable action space.

    Given nonnegative knapsack duals alpha (per resource) and reward duals
    rho (per reward index), returns the column minimizing
    sum_i alpha_i d_i a_i - sum_i rho_i w_i for the type; ties go to the
    lowest action index.  Tests check the per-type oracle against it.
    """
    d = inst.durations()
    actions = inst.actions.all_actions()

    def pricing(j, alpha, rho):
        W, A = inst.mean_tables(j)
        scores = (alpha * d) @ A - rho @ W
        k = int(np.argmin(scores))
        return actions[k], W[:, k].copy(), A[:, k].copy()

    return pricing


def solve_steady_state_colgen(
    inst: Instance,
    p,
    pricing=None,
    max_rounds: int = 500,
    rc_tol: float = 1e-7,
) -> SteadyStateSolution:
    """Steady-state LP by column generation.

    The restricted master starts with one null column per type.  Each round
    solves the master, prices one candidate column per type against the
    master duals, and adds those with reduced cost above ``rc_tol``.  Stops
    when no column improves; raises :class:`IterationLimit` (carrying the
    incumbent) after ``max_rounds``.  ``pricing(j, alpha, rho)`` returns
    (action, mean rewards, mean consumption); by default each type's own
    outcome model prices it through ``best_action``.
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
        rho = np.maximum(-duals[:R], 0.0)        # ">=" rows carry y <= 0
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


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text dump: objective row first, then one line per constraint.

    Layout: ``max c1 c2 ...`` then ``a1 a2 ... <sense> rhs`` per row, floats
    via repr.  Nondefault bounds are appended as ``lb:``/``ub:`` lines.
    """
    lines = ["max " + " ".join(repr(float(v)) for v in lp.c)]
    for row, sense, rhs in zip(lp.A, lp.senses, lp.b):
        lines.append(
            " ".join(repr(float(v)) for v in row) + f" {sense} " + repr(float(rhs))
        )
    if lp.lower is not None and np.any(lp.lower != 0.0):
        lines.append("lb: " + " ".join(repr(float(v)) for v in lp.lower))
    if lp.upper is not None:
        lines.append("ub: " + " ".join(repr(float(v)) for v in lp.upper))
    return "\n".join(lines) + "\n"
