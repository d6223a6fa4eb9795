"""Linear programming for the allocation benchmarks.

A small dense primal simplex (two-phase, Dantzig's entering rule with a
Bland anti-cycling fallback) plus builders for the two planning relaxations
used as benchmarks and inside the adaptive policy:

* the steady-state LP: fractional per-type action rates x_{jk} with resource
  usage charged at mean duration, maximizing the worst reward rate;
* the time-expanded LP: per-step rates y_{jk}(t) with exact in-flight
  occupancy terms, maximizing the worst expected total reward over the
  horizon.

Every planning LP takes its coefficients by one path, so a column
carries the same bytes in every LP: :func:`_column_means` gathers the
columns' means and :func:`_steady_state_block` weights them by p.  Over
every column the means come from one ``OutcomeModel.mean_tables`` call
per outcome class, which builds the tables of all logit customers in
one array pass; over given columns, from one ``means`` call each.  The
time-expanded LP takes that block at unit durations and spreads it over
the steps; nothing is cached on the instance.

:func:`plan_rates` is the one planner: the benchmarks, the ``+saa`` rates
and every adaptive stage LP (:func:`solve_stage_lambda`) plan through it.
Column generation prices each type by its own outcome model's
``best_action``; its restricted master keeps one tableau across rounds,
appending each round's priced columns to the optimal tableau and resuming
the pivot loop from its basis.

The entering column is the one with the most negative reduced cost, ties
to the lowest index (Dantzig's rule), which takes several times fewer
pivots than Bland's lowest-index rule on the planning LPs.  After a run of
``_BLAND_AFTER`` consecutive degenerate pivots the loop enters by Bland's
rule until the next nondegenerate pivot, so it cannot cycle (see
:func:`_pivot_loop`); the leaving row is the min-ratio row, ties to the
lowest basic index, under both.  The path is deterministic.  Both phases
share one pivot routine (:func:`_pivot`) and one objective-row setup.  A
pivot's rank-one update is one contiguous outer product into a buffer the
pivot loop allocates once, and it leaves the entering column exactly unit
by itself; both entering rules read one pricing vector (the reduced
costs, +inf on banned columns) and the leaving scan is one
min-reduction.  The outer product may give a zero entry of the tableau
the other sign than a broadcasting multiply would; no pivot and no
returned value depends on it (see :func:`_pivot`).

Setting up a planning LP builds no temporary the size of a tableau
besides its A, the live block and the tableau itself: the canonical
tableau takes g * A, the slack signs and the artificial 1s in place, and
the time-expanded LP writes its occupancy and rate rows through views of
its A.  Certification tests the rows of each sense in one vectorized
comparison.

Only an LP's live block goes on the tableau (:func:`_live_block`, a
standard presolve step): the rows and columns reachable over the nonzero
pattern of A from the columns of nonzero cost and the rows that need an
artificial.  The rest, zero-cost columns confined to rows whose slack
starts basic at a value >= 0 (the null customer type in every generated
instance), is never touched by a pivot: an entering column is live, hence
zero on inert rows, and the pivot row is live.  So inert columns keep
reduced cost exactly 0 and never enter (a reduced cost of 0 is never
eligible), live columns keep their relative order, the ratios and so the
degeneracy count are those of the full tableau, and the pivot loop takes
the same pivots with the same floats; inert columns come back as x = 0
with row duals 0.  Only a phase 1 sees a difference: its objective row is
a BLAS product, which may round differently on the smaller matrix (no LP
built here needs a phase 1).  Every optimal point is certified: primal
feasible against the original rows and bounds, and optimal by its row
duals, which carry the right signs, leave no column a positive reduced
cost and match the objective.  Row duals are read off the reduced cost of
each row's starting basic column (its slack or artificial); column
generation prices with them, but they are not part of the public
solution type.
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
    "solve_steady_state_colgen",
    "dump_lp",
]

_RC_TOL = 1e-9        # reduced-cost optimality tolerance
_PIV_TOL = 1e-9       # healthy pivot magnitude
_PIV_FLOOR = 1e-12    # below this a column counts as zero
_DEGENERATE = 1e-12   # a pivot whose min ratio is at most this is degenerate
_BLAND_AFTER = 50     # consecutive degenerate pivots before Bland's rule
_MAX_PIVOTS = 200_000
_COLGEN_ROUNDS = 500   # restricted masters before column generation gives up
_COLGEN_RC_TOL = 1e-7  # reduced cost a priced column needs to enter the master

ENUMERATION_CAP = 4096  # largest action space the dense builders will expand
TE_TABLEAU_CAP_MB = 64  # largest dense tableau the time-expanded LP may need


class NumericalBreakdown(RuntimeError):
    """The tableau degraded: repeated tiny pivots or a failed certification."""


class DegenerateStage(RuntimeError):
    """A stage LP came back with (numerically) zero objective."""


class TooLarge(ValueError):
    """The requested dense LP exceeds a size cap."""


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


_BROKEN = {"<=": ">", ">=": "<", "==": "!="}  # how a row of each sense fails


def _certify(lp: LinearProgram, x: np.ndarray) -> list[str]:
    """Residual check of x against every row and bound of the original LP."""
    res, b, tol = lp.A @ x, lp.b, _feastol(lp.b)
    senses = np.asarray(lp.senses)
    wrong = np.where(senses == "<=", res > b + tol, res < b - tol)
    wrong = np.where(senses == "==", np.abs(res - b) > tol, wrong)
    bad = [f"row {i}: {res[i]!r} {_BROKEN[senses[i]]} {b[i]!r}" for i in np.flatnonzero(wrong)]
    lo = lp.lower if lp.lower is not None else np.zeros(lp.n_vars)
    if np.any(x < lo - 1e-9):
        bad.append("lower bound violated")
    if lp.upper is not None and np.any(x > lp.upper + 1e-9):
        bad.append("upper bound violated")
    return bad


def _pivot(tab, basis, row, col, buf):
    """Gauss-Jordan pivot on (row, col); col becomes basic in row.

    ``buf`` is caller-owned scratch of the tableau's shape: the rank-one
    update, one IEEE product per entry, is written there as a contiguous
    outer product (``einsum``, cheaper than a broadcasting multiply) and
    subtracted, so a pivot allocates nothing tableau-sized.

    The entering column comes out of the update exactly unit, so nothing
    is written to it afterwards: the pivot entry becomes ``piv / piv``,
    which IEEE division makes exactly 1.0, and every other row's entry x
    loses ``x * 1.0``, which is x itself, leaving +0.0 (the pivot row loses
    ``0.0 * 1.0`` and keeps its 1.0).

    ``einsum`` writes +0.0 where a broadcast multiply writes -0.0 for a
    zero product, so a zero entry of the tableau may carry either sign;
    every value, every pivot and every basis are the same.  No returned
    value depends on that sign: x and lambda are formed by adding
    ``lower``, ``shift`` or 0.0, which turns -0.0 into +0.0 (column
    generation drops zero rates), and every test on a ratio, a dual or a
    reduced cost compares it with a tolerance, which treats -0.0 and +0.0
    alike.
    """
    piv = tab[row, col]
    tab[row] /= piv
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    np.einsum("i,j->ij", colvals, tab[row], out=buf)
    tab -= buf
    basis[row] = col


def _set_objective(tab, basis, c):
    """Objective row (z_j - c_j | z) of max c @ x for the current basis."""
    m = basis.size
    cb = c[basis]
    tab[m, :-1] = cb @ tab[:m, :-1] - c
    tab[m, -1] = cb @ tab[:m, -1]


def _pivot_loop(tab, basis, banned):
    """Primal simplex iterations on a canonical tableau; returns a status.

    tab has one row per basis entry plus the objective row (z_j - c_j | z)
    at the bottom; the rightmost column is the rhs.  Entering: the column
    with the most negative reduced cost < -tol, ties to the lowest index
    (Dantzig's rule); after ``_BLAND_AFTER`` consecutive degenerate pivots
    (min ratio <= ``_DEGENERATE``), the lowest-index column with reduced
    cost < -tol (Bland's rule), until the next nondegenerate pivot.
    Leaving, under either rule: min-ratio row, ties by lowest basic
    variable index.  Columns in ``banned`` never enter.

    Both rules read one pricing vector, the reduced costs plus +inf on
    banned columns: Dantzig's rule takes its argmin (the first minimum over
    allowed columns, which is eligible exactly when it is below -tol),
    Bland's rule its first entry below -tol, and the basis is optimal when
    the chosen entry is not below -tol.  The min ratio is one reduction
    with an initial +inf, which it keeps only when no entry of the column
    passed ``_PIV_TOL`` (a zero-row tableau included).

    It cannot cycle (in exact arithmetic): a cycle returns to a basis, so
    the objective never rises along it and every pivot in it is
    degenerate.  A run of ``_BLAND_AFTER`` degenerate pivots hands over to
    Bland's rule, which does not cycle from any basis (Bland, Math. OR 2,
    1977), and only a nondegenerate pivot, which raises the objective past
    every basis seen before, hands back.  The scratch arrays (penalty,
    pricing scores, ratios, pivot buffer) are allocated once per call.
    """
    m = basis.size
    if not banned.size:
        return "optimal"
    penalty = np.where(banned, np.inf, 0.0)
    scores = np.empty(banned.size)
    good = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    buf = np.empty_like(tab)
    reduced, rhs = tab[m, :-1], tab[:m, -1]
    shaky = degenerate = 0
    for _ in range(_MAX_PIVOTS):
        np.add(reduced, penalty, out=scores)
        if degenerate < _BLAND_AFTER:
            enter = int(scores.argmin())
        else:
            enter = int((scores < -_RC_TOL).argmax())
        if scores[enter] >= -_RC_TOL:
            return "optimal"
        col = tab[:m, enter]
        np.greater(col, _PIV_TOL, out=good)
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=good)
        rmin = float(np.minimum.reduce(ratios, initial=np.inf))
        if rmin == math.inf:
            np.greater(col, _PIV_FLOOR, out=good)
            if not good.any():
                return "unbounded"
            shaky += 1
            if shaky > 50:
                raise NumericalBreakdown(
                    "repeated pivots below magnitude 1e-9; tableau unreliable"
                )
            np.divide(rhs, col, out=ratios, where=good)
            rmin = float(np.minimum.reduce(ratios, initial=np.inf))
        degenerate = degenerate + 1 if rmin <= _DEGENERATE else 0
        tied = (ratios <= rmin * (1 + 1e-10) + 1e-15).nonzero()[0]
        _pivot(tab, basis, int(tied[basis[tied].argmin()]), enter, buf)
    raise NumericalBreakdown(f"no convergence within {_MAX_PIVOTS} pivots")


def _certify_optimal(A, b, senses, c, x, y, obj) -> list[str]:
    """Optimality check of max c @ x over rows (A, senses, b), x >= 0.

    ``x`` is a primal point already certified feasible, ``y`` its row duals
    and ``obj`` the objective reported for it.  Each dual must carry its
    row's sign ("<=" rows y >= 0, ">=" rows y <= 0, "==" rows free), every
    column's reduced cost c - y @ A must be nonpositive, and c @ x, y @ b
    and ``obj`` must agree: a dual-feasible y with no gap proves x optimal.
    """
    bad = []
    senses = np.asarray(senses)
    wrong = ((senses == "<=") & (y < -_RC_TOL)) | ((senses == ">=") & (y > _RC_TOL))
    for i in np.flatnonzero(wrong):
        bad.append(f"row {i}: dual {y[i]!r} has the wrong sign for {senses[i]!r}")
    absy = np.abs(y)
    rc = c - y @ A
    over = rc > 1e-9 * (1.0 + np.abs(c) + absy @ np.abs(A))
    for j in np.flatnonzero(over):
        bad.append(f"column {j}: reduced cost {rc[j]!r} > 0")
    scale = 1.0 + abs(obj)
    for name, value, size in (
        ("primal", c @ x, np.abs(c) @ np.abs(x)),
        ("dual", y @ b, absy @ np.abs(b)),
    ):
        if abs(value - obj) > 1e-9 * (scale + size):
            bad.append(f"{name} objective {value!r} != {obj!r}")
    return bad


def _row_signs(b, senses):
    """(sign, g, need_art) of rows (senses, b).

    ``sign`` is -1 on ">=" rows and +1 elsewhere, the sign of the row's
    slack; ``g = +-1`` turns ">=" rows around, then turns the row again if
    its rhs would be < 0.  A row needs an artificial unless its slack ends
    up at +1 with a rhs >= 0: "==" rows and rows whose rhs was turned.
    """
    sign = np.where(senses == ">=", -1.0, 1.0)
    g = np.where(sign * b < 0, -sign, sign)
    need_art = (senses == "==") | (g != sign)
    return sign, g, need_art


def _live_block(A, c, need_art):
    """Row and column masks of the block a simplex path can touch.

    The block is seeded with every column of nonzero cost and every row
    that needs an artificial, then closed over the nonzero pattern of A: a
    row touching a live column is live, and so is a column touching a live
    row.  The rest is inert: zero-cost columns confined to rows whose slack
    starts basic at a value >= 0.  An entering live column is zero on every
    inert row and the pivot row is live, so no pivot changes an inert row or
    column; inert columns keep reduced cost exactly 0 and never enter,
    live columns keep their relative order, and every ratio (so every
    degeneracy count) is the full tableau's, so the pivot loop takes the
    same pivots on the live block alone.
    """
    nz = A != 0.0
    rows, cols = need_art.copy(), c != 0.0
    new_rows, new_cols = rows.copy(), cols.copy()
    while new_rows.any() or new_cols.any():
        new_rows, new_cols = (
            nz[:, new_cols].any(axis=1) & ~rows,
            nz[new_rows].any(axis=0) & ~cols,
        )
        rows |= new_rows
        cols |= new_cols
    return rows, cols


def _canonical_tableau(A, b, senses):
    """Starting tableau of max over rows (A, senses, b), x >= 0.

    Returns (tab, basis, start, g, n_real).  Tableau row i is
    g_i * (A_i, slack_i | b_i) with ``g`` from :func:`_row_signs`: the slack
    carries +1 on "<=" rows and -1 on ">=" rows ("==" rows have none).
    Columns: x, slacks in row order (``n_real`` columns so far), then
    artificials in row order; the objective row is left for
    :func:`_optimize`.  ``start[i]`` is row i's starting basic column, a
    unit column, so ``tab[:m, start]`` is the inverse of the current basis
    (in the g-scaled rows) after any pivots.
    """
    n, m = A.shape[1], b.size
    senses = np.asarray(senses, dtype=str)
    sign, g, need_art = _row_signs(b, senses)
    has_slack = senses != "=="
    n_real = n + int(has_slack.sum())
    slack, art = n + np.cumsum(has_slack) - 1, n_real + np.cumsum(need_art) - 1
    tab = np.zeros((m + 1, n_real + int(need_art.sum()) + 1))
    np.multiply(g[:, None], A, out=tab[:m, :n])
    tab[np.flatnonzero(has_slack), slack[has_slack]] = (g * sign)[has_slack]
    tab[np.flatnonzero(need_art), art[need_art]] = 1.0
    tab[:m, -1] = g * b
    start = np.where(need_art, art, slack)
    return tab, start.copy(), start, g, n_real


def _optimize(tab, basis, banned, n_real, c):
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
        _pivot_loop(tab, basis, banned)
        if tab[m, -1] < -1e-7:
            return "infeasible"
        # pivot artificials out of the basis where a real pivot exists
        buf = np.empty_like(tab)
        for i in np.flatnonzero(basis >= n_real):
            cand = np.flatnonzero(np.abs(tab[i, :n_real]) > _PIV_TOL)
            if cand.size:
                _pivot(tab, basis, i, int(cand[0]), buf)
        banned[n_real:] = True

    c2 = np.zeros(ncols)
    c2[: c.size] = c
    _set_objective(tab, basis, c2)
    return _pivot_loop(tab, basis, banned)


def _basic_point(tab, basis):
    """Values of every tableau column at the current basis."""
    xfull = np.zeros(tab.shape[1] - 1)
    xfull[basis] = tab[: basis.size, -1]
    return xfull


def _solve_canonical(lp: LinearProgram):
    """Two-phase simplex; returns (status, objective, x, row_duals).

    Row duals are with respect to the original rows (sign convention: at an
    optimum, duals y satisfy y @ b == objective and c - y @ A <= 0, so "<="
    rows carry y >= 0 and ">=" rows carry y <= 0 for a max problem).  Only
    the live block (:func:`_live_block`) is put on the tableau; inert
    columns come back 0 and inert rows get dual 0.  An optimum is certified
    primal feasible against the original rows and bounds, and dual
    feasible with zero gap on the whole bound-augmented system.
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
    senses = np.array(senses, dtype=str)
    _sign, g, need_art = _row_signs(b, senses)
    rows, cols = _live_block(A, lp.c, need_art)
    tab, basis, start, _g, n_real = _canonical_tableau(
        A[np.ix_(rows, cols)], b[rows], senses[rows]
    )
    banned = np.zeros(tab.shape[1] - 1, dtype=bool)
    status = _optimize(tab, basis, banned, n_real, lp.c[cols])
    if status == "infeasible":
        return "infeasible", math.nan, None, None
    if status == "unbounded":
        return "unbounded", math.inf, None, None

    xs = np.zeros(n)
    xs[cols] = _basic_point(tab, basis)[: int(cols.sum())]
    x = xs + lower
    bad = _certify(lp, x)
    if bad:
        raise NumericalBreakdown("optimal basis failed certification: " + "; ".join(bad))
    # the start column of row i is +1 there and 0 elsewhere, so its reduced
    # cost is the tableau row's dual; g maps it back to the original row (an
    # inert row's start column stays basic at reduced cost 0.0, and g * 0.0
    # is the signed zero the whole tableau would give)
    reduced = np.zeros(b.size)
    reduced[rows] = tab[-1, start]
    duals = g * reduced
    obj = tab[-1, -1]
    bad = _certify_optimal(A, b, senses, lp.c, xs, duals, obj)
    if bad:
        raise NumericalBreakdown("optimal duals failed certification: " + "; ".join(bad))
    return "optimal", float(obj + shift), x, duals[: lp.n_rows]


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase primal simplex on a dense tableau: most negative reduced
    cost enters, with Bland's rule after a run of degenerate pivots."""
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


def _column_means(inst: Instance, columns=None):
    """(columns, types, W, A): LP columns, their type indices, mean rewards
    (R x n) and mean consumption (C x n).

    ``columns=None`` means every (type, action) pair, type outermost. Its
    tables come from one ``mean_tables`` call per outcome class over that
    class's types, each type's block put in its place; given columns take
    one ``means`` call each, the same bytes by ``mean_matrix``'s
    contract.
    """
    if columns is None:
        if inst.actions.size > ENUMERATION_CAP:
            raise TooLarge(
                f"action space of size {inst.actions.size} needs column generation"
            )
        actions = inst.actions.all_actions()
        J, K = inst.n_types, len(actions)
        columns = [(j, k) for j in range(J) for k in actions]
        types = np.repeat(np.arange(J), K)
        by_class: dict = {}
        for j, cust in enumerate(inst.customers):
            by_class.setdefault(type(cust.outcomes), []).append(j)
        tables = [
            (js, cls.mean_tables([inst.customers[j].outcomes for j in js], inst.actions))
            for cls, js in by_class.items()
        ]
        if len(tables) == 1:
            W, A = tables[0][1]
        else:
            W = np.empty((inst.reward_count, J * K))
            A = np.empty((inst.n_resources, J * K))
            for js, (Wc, Ac) in tables:
                cols = (np.asarray(js)[:, None] * K + np.arange(K)).ravel()
                W[:, cols], A[:, cols] = Wc, Ac
    else:
        types = np.array([j for j, _k in columns], dtype=np.intp)
        W = np.empty((inst.reward_count, len(columns)))
        A = np.empty((inst.n_resources, len(columns)))
        for idx, (j, k) in enumerate(columns):
            W[:, idx], A[:, idx] = inst.customers[j].outcomes.means(k)
    return columns, types, W, A


def _steady_state_block(p, types, W, A, d, n_types):
    """Steady-state LP rows over the columns (types, W, A): reward rows
    p_j * w, knapsack rows (p_j * a) * d, one total-rate row per type."""
    pj = p[types]
    R, C, n = W.shape[0], A.shape[0], types.size
    block = np.zeros((R + C + n_types, n))
    block[:R] = pj * W
    block[R : R + C] = pj * A * d[:, None]
    block[R + C + types, np.arange(n)] = 1.0
    return block


def build_steady_state_lp(inst: Instance, p, columns=None):
    """LP over rates x_{jk} (plus the worst-rate variable last).

    Rows come in a fixed order used by the column-generation duals:
    reward rows (>=), then resource knapsack rows (<=, usage at mean
    duration), then one per-type total-rate row (<=).  Returns
    (LinearProgram, columns).

    Without ``columns`` the LP spans every (type, action) pair, type
    outermost.  Both paths fill the rows through :func:`_column_means`
    and :func:`_steady_state_block`, so they agree byte for byte.
    """
    p = np.asarray(p, dtype=float)
    columns, types, W, Am = _column_means(inst, columns)
    ncol = len(columns)
    R, C, J = inst.reward_count, inst.n_resources, inst.n_types
    A = np.zeros((R + C + J, ncol + 1))
    b = np.zeros(R + C + J)
    senses = [">="] * R + ["<="] * C + ["<="] * J
    b[R : R + C] = inst.capacities()
    b[R + C :] = 1.0
    A[:, :ncol] = _steady_state_block(p, types, W, Am, inst.durations(), J)
    A[:R, ncol] = -1.0  # worst-rate variable enters every reward row
    c = np.zeros(ncol + 1)
    c[ncol] = 1.0
    return LinearProgram(c, A, senses, b), columns


def solve_steady_state(inst: Instance, p, columns=None) -> SteadyStateSolution:
    lp, columns = build_steady_state_lp(inst, p, columns)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise NumericalBreakdown(f"steady-state LP came back {sol.status}")
    x = {col: v for col, v in zip(columns, sol.x[:-1].tolist()) if v > 1e-12}
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
    variable last.  Size T*J*K must not exceed ``cap``, and the simplex
    tableau it needs must not exceed ``TE_TABLEAU_CAP_MB`` (either raises
    :class:`TooLarge` before anything is allocated).  Returns
    (LinearProgram, actions list).
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
    m = R + C * T + J * T
    # every row is an inequality with rhs >= 0: one slack each, no artificial
    mb = (m + 1) * (nvar + 1 + m + 1) * 8 / 1e6
    if mb > TE_TABLEAU_CAP_MB:
        raise TooLarge(
            f"time-expanded LP needs a {mb:.0f} MB tableau, cap is {TE_TABLEAU_CAP_MB} MB"
        )

    _columns, types, W, Am = _column_means(inst)
    # the steady-state block at unit durations: (p_j * a) * 1.0 is p_j * a
    block = _steady_state_block(p, types, W, Am, np.ones(C), J)
    surv = inst.survival_matrix(T)
    # lag[t, tau] = |t - tau|: np.tril of a curve at lag is its Toeplitz band
    lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))

    A = np.zeros((m, nvar + 1))
    b = np.zeros(m)
    senses = [">="] * R + ["<="] * (C * T) + ["<="] * (J * T)
    A[:R, :nvar] = np.tile(block[:R], T)
    A[:R, nvar] = -float(T)
    # occupancy row t of resource i holds Pr(D_i >= t - tau + 1) * p_j * a
    # in step tau's block for tau <= t, and 0.0 where that probability is 0;
    # rows are written through (t, tau, j*K + k) views of A
    for i in range(C):
        band = np.tril(surv[i, lag])[:, :, None]
        occ = A[R + i * T : R + (i + 1) * T, :nvar].reshape(T, T, J * K)
        np.multiply(band, block[R + i], out=occ, where=band > 0.0)
    b[R : R + C * T] = np.repeat(inst.capacities(), T)
    # the rate row of type j at step t holds type j's rate row in step t's block
    steps = np.arange(T)
    A[R + C * T :, :nvar].reshape(T, J, T, J * K)[steps, :, steps] = block[R + C :]
    b[R + C * T :] = 1.0
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
    for flat, v in enumerate(sol.x[:-1].tolist()):
        if v > 1e-12:
            t, rem = divmod(flat, J * K)
            j, k = divmod(rem, K)
            y[(t + 1, j, actions[k])] = v
    return float(sol.objective), y


# ---------------------------------------------------------------------------
# column generation


def solve_steady_state_colgen(
    inst: Instance,
    p,
    pricing=None,
) -> SteadyStateSolution:
    """Steady-state LP by column generation.

    The restricted master starts with one null column per type.  Each round
    prices one candidate column per type against the master duals and adds
    those with reduced cost above ``_COLGEN_RC_TOL``.  Stops when no column
    improves; raises :class:`IterationLimit` (carrying the incumbent) after
    ``_COLGEN_ROUNDS`` masters.  ``pricing(j, alpha, rho)`` returns (action,
    mean rewards, mean consumption); by default each type's own outcome
    model prices it through ``best_action``.

    The master keeps one simplex tableau for the whole run: the first
    master is solved from scratch, and each later round appends its priced
    columns to the optimal tableau and resumes the pivot loop (same
    entering and leaving rules) from the current basis.  The answer, and
    the incumbent of an :class:`IterationLimit`, is certified primal and
    dual against the master LP rebuilt over its columns.
    """
    p = np.asarray(p, dtype=float)
    R, C, J = inst.reward_count, inst.n_resources, inst.n_types
    m = R + C + J
    d = inst.durations()
    if pricing is None:
        def pricing(j, alpha, rho):
            om = inst.customers[j].outcomes
            k = om.best_action(inst.actions, alpha * d, rho)
            return (k, *om.means(k))

    null = inst.actions.null_action
    columns = [(j, null) for j in range(J)]
    colset = set(columns)
    lp, _ = build_steady_state_lp(inst, p, columns=columns)
    tab, basis, start, g, n_real = _canonical_tableau(lp.A, lp.b, lp.senses)
    banned = np.zeros(tab.shape[1] - 1, dtype=bool)
    status = _optimize(tab, basis, banned, n_real, lp.c)
    # tableau columns: null columns, the worst-rate variable, slacks and
    # artificials, then every added column in the order it was priced
    n_start = banned.size
    for rnd in range(_COLGEN_ROUNDS):
        if status != "optimal":
            raise NumericalBreakdown(f"restricted master came back {status}")
        duals = g * tab[m, start]
        rho = np.maximum(-duals[:R], 0.0)        # ">=" rows carry y <= 0
        alpha = np.maximum(duals[R : R + C], 0.0)
        beta = duals[R + C :].tolist()
        cost = alpha * d
        new = []
        for j, pj in enumerate(p.tolist()):
            if pj <= 1e-15:
                continue
            action, wcol, acol = pricing(j, alpha, rho)
            rc = pj * (float(rho @ wcol) - float(cost @ acol)) - beta[j]
            if rc > _COLGEN_RC_TOL and (j, action) not in colset:
                new.append((j, action, wcol, acol))
                colset.add((j, action))
        if not new or rnd == _COLGEN_ROUNDS - 1:
            break
        types, actions, wcols, acols = zip(*new)
        block = _steady_state_block(
            p, np.array(types), np.array(wcols).T, np.array(acols).T, d, J
        )
        # tab[:, start] maps a column of the g-scaled rows to its tableau
        # column, objective entry included (the added columns cost nothing)
        block *= g[:, None]
        tab = np.hstack([tab[:, :-1], tab[:, start] @ block, tab[:, -1:]])
        banned = np.concatenate([banned, np.zeros(len(new), dtype=bool)])
        columns += zip(types, actions)
        status = _pivot_loop(tab, basis, banned)

    xfull = _basic_point(tab, basis)
    x = np.concatenate([xfull[:J], xfull[n_start:], xfull[J : J + 1]])
    lp, _ = build_steady_state_lp(inst, p, columns=columns)
    bad = _certify(lp, x) or _certify_optimal(
        lp.A, lp.b, lp.senses, lp.c, x, duals, tab[m, -1]
    )
    if bad:
        raise NumericalBreakdown("restricted master failed certification: " + "; ".join(bad))
    rates = {c: v for c, v in zip(columns, x[:-1].tolist()) if v > 1e-12}
    # + 0.0 reports a -0.0 optimum as 0.0, as solve_lp does
    sol = SteadyStateSolution(float(tab[m, -1] + 0.0), rates)
    if new:
        raise IterationLimit(f"no convergence in {_COLGEN_ROUNDS} rounds", incumbent=sol)
    return sol


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
