"""Data model for online allocation of reusable resources.

An :class:`Instance` bundles everything the simulator, the policies and the
LP benchmarks need: reusable resources with hard capacities and usage-duration
survival curves, customer types with arrival weights and stochastic outcome
models, an action space with a distinguished null action, and a finite
horizon.  Derived quantities live here too: mean durations, duration tail
cutoffs, the capacity/reward scale parameter, and the doubling stage schedule
used by the adaptive policy.

Conventions used throughout the package:

* time steps are 1-based, ``t = 1..horizon``;
* a survival curve stores ``surv[u-1] = Pr(D >= u)`` for ``u = 1..len``;
* an allocation made at step ``tau`` with duration ``D`` occupies capacity
  during steps ``tau .. tau+D-1`` and is back at the start of ``tau+D``
  (``D = 0`` never occupies anything);
* every instance has a null customer type (all-zero outcomes) and a null
  action (all-zero outcomes for every type), so "reject" and "no arrival"
  are ordinary states rather than special cases.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BadEpsilon",
    "SurvivalCurve",
    "ResourceSpec",
    "OutcomeModel",
    "ExplicitOutcomes",
    "zero_outcomes",
    "CustomerType",
    "ExplicitActions",
    "AssortmentActions",
    "Instance",
    "AlgoConfig",
    "duration_tail_cutoff",
    "scale_parameter",
    "stage_schedule",
    "validate_instance",
]


class BadEpsilon(ValueError):
    """The exploration rate cannot produce an exact doubling schedule."""


class SurvivalCurve:
    """Tail probabilities of a usage duration: ``surv[u-1] = Pr(D >= u)``.

    Entries must lie in [0, 1] and be non-increasing.  The curve is finite;
    probabilities beyond its length are zero, so durations have bounded
    support ``D <= len(curve)``.  ``Pr(D >= 1) < 1`` means the duration can
    be zero (the resource comes back immediately).
    """

    __slots__ = ("surv", "_asc")

    def __init__(self, surv):
        self.surv = np.asarray(surv, dtype=float)
        if self.surv.ndim != 1 or self.surv.size == 0:
            raise ValueError("survival curve must be a non-empty 1-d sequence")
        self._asc = None   # ascending tail as plain floats, built on the first scalar draw

    def __len__(self):
        return self.surv.size

    def __eq__(self, other):
        return isinstance(other, SurvivalCurve) and np.array_equal(self.surv, other.surv)

    def __repr__(self):
        return f"SurvivalCurve({self.surv.tolist()!r})"

    @property
    def d_max(self) -> int:
        """Largest duration with positive probability."""
        nz = np.nonzero(self.surv > 0.0)[0]
        return int(nz[-1] + 1) if nz.size else 0

    def sample(self, rng):
        """Draw a duration by inverse transform: D = #{u : Pr(D >= u) > U}.

        ``bisect_right`` on the cached ascending tail is the same binary
        search as ``searchsorted(side="right")`` without numpy's per-call
        overhead.
        """
        if self._asc is None:
            self._asc = self.surv[::-1].tolist()
        return self.surv.size - bisect_right(self._asc, rng.random())

    def violations(self, path: str = "survival") -> list[str]:
        out = []
        s = self.surv
        if not np.isfinite(s).all():
            return [f"{path}: entries must be finite"]
        if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-12):
            out.append(f"{path}: entries must lie in [0, 1]")
        if np.any(np.diff(s) > 1e-12):
            out.append(f"{path}: entries must be non-increasing")
        return out


@dataclass
class ResourceSpec:
    """A reusable resource: hard capacity and usage-duration curve."""

    capacity: float
    survival: SurvivalCurve


def duration_tail_cutoff(curves, delta: float) -> int:
    """Smallest cutoff h >= 1 with every tail mass past it at most delta.

    The tail mass of a curve past cutoff ``h`` is ``sum_{u > h} Pr(D >= u)``.
    Bounded-support curves always admit their own length, so only a
    negative or NaN ``delta`` finds no cutoff; that raises a ``ValueError``
    naming it.
    """
    curves = list(curves)
    if not curves:
        return 1
    for h in range(1, max(len(c) for c in curves) + 1):
        worst = max(float(c.surv[h:].sum()) for c in curves)
        if worst <= delta + 1e-12:
            return h
    raise ValueError(f"no tail cutoff brings every duration tail under delta = {delta}")


class OutcomeModel:
    """Joint stochastic outcome of (customer type, action).

    ``means(action)`` returns the expected reward vector (one entry per
    reward index) and expected consumption vector (one entry per resource).
    ``sample(action, rng)`` draws one joint realization.  The realized
    consumption never exceeds ``consumption_bound(action)`` entrywise, which
    is what the simulator's hard feasibility pre-check uses.  The bound
    must depend on the action alone (not on any state or draw): an episode
    computes it once per (type, action) and reuses it.
    """

    is_null = False

    def means(self, action):
        raise NotImplementedError

    def sample(self, action, rng):
        raise NotImplementedError

    def consumption_bound(self, action):
        raise NotImplementedError

    def bounds(self):
        """Scalar (reward, consumption) support bounds over all actions."""
        raise NotImplementedError

    def best_action(self, space, cost, credit):
        """Action in ``space`` minimizing cost @ a - credit @ w over mean outcomes.

        ``cost`` (one entry per resource) and ``credit`` (one per reward
        index) are float vectors.  This is the one per-type pricing
        oracle: the adaptive policy's greedy step and column generation
        both call it.  Null types return the null action.
        """
        raise NotImplementedError

    def mean_matrix(self, space):
        """Stacked means over an enumerable action space: (W RxK, A CxK).

        Column k must equal ``means`` of action k of ``space.all_actions()``
        byte for byte: the planning LPs over every column are built from
        these tables (through :meth:`mean_tables`), and LPs over given
        columns from ``means``.
        """
        raise NotImplementedError

    @classmethod
    def mean_tables(cls, models, space):
        """The ``mean_matrix`` tables of ``models`` side by side.

        ``models`` are outcome models of this class; model i's table
        fills columns i*K .. i*K+K-1 of (W R x nK, A C x nK), K =
        ``space.size``.  The planning LPs over every column ask each
        outcome class once through this hook.  This default stacks each
        model's own table; a class whose tables share arithmetic may build
        them together, with the same bytes.
        """
        tables = [om.mean_matrix(space) for om in models]
        return np.hstack([W for W, _A in tables]), np.hstack([A for _W, A in tables])


class ExplicitOutcomes(OutcomeModel):
    """Outcome model given by explicit mean tables over an indexed action set.

    ``rewards`` is (reward_count x n_actions), ``consumption`` is
    (n_resources x n_actions).  ``noise="none"`` realizes the means exactly;
    ``noise="bernoulli"`` draws every entry independently as
    ``cap * Bernoulli(mean / cap)`` so means are preserved and support stays
    in {0, cap}.
    """

    def __init__(self, rewards, consumption, noise="none",
                 reward_cap=None, consumption_cap=None):
        self.rewards = np.asarray(rewards, dtype=float)
        self.consumption = np.asarray(consumption, dtype=float)
        if self.rewards.ndim != 2 or self.consumption.ndim != 2:
            raise ValueError("mean tables must be 2-d (index x action)")
        if self.rewards.shape[1] != self.consumption.shape[1]:
            raise ValueError("reward and consumption tables disagree on action count")
        if noise not in ("none", "bernoulli"):
            raise ValueError(f"unknown noise kind {noise!r}")
        self.noise = noise
        if noise == "none":
            self.reward_cap = float(self.rewards.max(initial=0.0)) if reward_cap is None else float(reward_cap)
            self.consumption_cap = float(self.consumption.max(initial=0.0)) if consumption_cap is None else float(consumption_cap)
        else:
            self.reward_cap = 1.0 if reward_cap is None else float(reward_cap)
            self.consumption_cap = 1.0 if consumption_cap is None else float(consumption_cap)
        self.is_null = bool(
            np.all(self.rewards == 0.0) and np.all(self.consumption == 0.0)
        )

    @property
    def n_actions(self):
        return self.rewards.shape[1]

    def violations(self, path: str) -> list[str]:
        out = []
        for name, table, cap in (
            ("reward", self.rewards, self.reward_cap),
            ("consumption", self.consumption, self.consumption_cap),
        ):
            if not np.isfinite(table).all():
                out.append(f"{path}: {name} table must be finite")
            elif not math.isfinite(cap):
                out.append(f"{path}: {name} cap must be finite, got {cap}")
        if out:
            return out
        if np.any(self.rewards < 0) or np.any(self.consumption < 0):
            out.append(f"{path}: outcome means must be nonnegative")
        if np.any(self.rewards > self.reward_cap + 1e-12):
            out.append(f"{path}: reward means exceed the declared cap {self.reward_cap}")
        if np.any(self.consumption > self.consumption_cap + 1e-12):
            out.append(f"{path}: consumption means exceed the declared cap {self.consumption_cap}")
        return out

    def means(self, action):
        k = int(action)
        return self.rewards[:, k].copy(), self.consumption[:, k].copy()

    def sample(self, action, rng):
        k = int(action)
        w, a = self.rewards[:, k], self.consumption[:, k]
        if self.noise == "none":
            return w.copy(), a.copy()
        wc, ac = self.reward_cap, self.consumption_cap
        ws = wc * (rng.random(w.size) < (w / wc if wc > 0 else 0.0))
        as_ = ac * (rng.random(a.size) < (a / ac if ac > 0 else 0.0))
        return ws.astype(float), as_.astype(float)

    def consumption_bound(self, action):
        k = int(action)
        a = self.consumption[:, k]
        if self.noise == "none":
            return a.copy()
        return np.where(a > 0.0, self.consumption_cap, 0.0)

    def bounds(self):
        return self.reward_cap, self.consumption_cap

    def mean_matrix(self, space):
        return self.rewards.copy(), self.consumption.copy()

    def best_action(self, space, cost, credit):
        """Lowest-index argmin of cost @ a - credit @ w over the mean tables."""
        if self.is_null:
            return space.null_action
        return int(np.argmin(cost @ self.consumption - credit @ self.rewards))

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitOutcomes)
            and self.noise == other.noise
            and self.reward_cap == other.reward_cap
            and self.consumption_cap == other.consumption_cap
            and np.array_equal(self.rewards, other.rewards)
            and np.array_equal(self.consumption, other.consumption)
        )


def zero_outcomes(reward_count: int, n_resources: int, n_actions: int) -> ExplicitOutcomes:
    """The all-zero outcome model used by null customer types."""
    return ExplicitOutcomes(
        np.zeros((reward_count, n_actions)), np.zeros((n_resources, n_actions)),
        reward_cap=0.0, consumption_cap=0.0,
    )


@dataclass
class CustomerType:
    """Arrival weight plus the outcome model of this type."""

    weight: float
    outcomes: OutcomeModel


class ExplicitActions:
    """A finite indexed action set 0..count-1 with a distinguished null action."""

    def __init__(self, count: int, null_action: int = 0):
        if count < 1:
            raise ValueError("action set needs at least the null action")
        if not 0 <= null_action < count:
            raise ValueError("null action out of range")
        self.count = int(count)
        self.null_action = int(null_action)

    @property
    def size(self):
        return self.count

    def all_actions(self):
        return list(range(self.count))

    def sample_uniform(self, rng):
        return int(rng.integers(self.count))

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitActions)
            and self.count == other.count
            and self.null_action == other.null_action
        )


class AssortmentActions:
    """All assortments of at most ``max_size`` products; () is the null action.

    Actions are sorted tuples of product indices.  Enumeration orders them by
    size then lexicographically, so the null action always has index 0.  The
    space can be huge; callers that need full enumeration must check ``size``
    first.  Uniform sampling over the whole space works without enumeration.
    """

    def __init__(self, n_products: int, max_size: int):
        if n_products < 1 or max_size < 1:
            raise ValueError("need at least one product and max_size >= 1")
        self.n_products = int(n_products)
        self.max_size = int(min(max_size, n_products))
        self.null_action = ()
        self.size = sum(math.comb(self.n_products, sz) for sz in range(self.max_size + 1))
        self._actions = None
        self._blocks = None
        self._size_cdf = None

    def all_actions(self):
        if self._actions is None:
            from itertools import combinations

            acts = [()]
            for sz in range(1, self.max_size + 1):
                acts.extend(combinations(range(self.n_products), sz))
            self._actions = acts
        return self._actions

    def size_blocks(self):
        """Per assortment size s >= 1: (start, products).

        The assortments of size s are one contiguous run of
        :meth:`all_actions` beginning at index ``start``; row r of the
        (count x s) index array ``products`` is the one at ``start + r``.
        """
        if self._blocks is None:
            acts = self.all_actions()
            blocks, start = [], 1
            for sz in range(1, self.max_size + 1):
                count = math.comb(self.n_products, sz)
                blocks.append((start, np.array(acts[start : start + count], dtype=np.intp)))
                start += count
            self._blocks = blocks
        return self._blocks

    def sample_uniform(self, rng):
        """One assortment drawn uniformly from the whole space.

        A size-weighted draw keeps the distribution uniform over all
        actions.  ``Generator.choice(size + 1, p=probs)`` draws one
        ``rng.random()`` and inverts it by ``searchsorted(side="right")``
        on ``probs.cumsum()`` / its last entry; the same cdf, built once,
        and ``bisect_right`` (the same binary search) give the same size,
        draw for draw, without choice's per-call validation of p.

        The products are then Floyd's sample of sz from n (Bentley &
        Floyd, CACM 1987), drawn as ``Generator.choice(n, sz,
        replace=False)`` draws it for n <= 10,000: for j = n-sz .. n-1 one
        bounded draw v on [0, j], keeping j instead of v when v is already
        taken; then choice shuffles the sample, one bounded draw on
        [0, i] for i = sz-1 .. 1.  Scalar ``rng.integers(j + 1)`` is that
        same bounded draw, so this consumes the same draws in the same
        order; the shuffle's values are discarded, as the result is
        sorted.  ``choice`` switches to a tail shuffle for n > 10,000 with
        sz > n / 50, where the two draw sequences part; the sample stays
        uniform there.

        ``rng`` needs only ``random()`` and ``integers(n)``.  The policies
        pass their stream wrapped in :class:`~reuselab.sim.DirectDraws`,
        which makes both draws through the bit generator's own entry
        points: the same draws as the ``Generator`` calls, at a lower
        per-call cost.
        """
        if self._size_cdf is None:
            weights = np.array(
                [math.comb(self.n_products, sz) for sz in range(self.max_size + 1)],
                dtype=float,
            )
            cdf = (weights / weights.sum()).cumsum()
            cdf /= cdf[-1]
            self._size_cdf = cdf.tolist()
        sz = bisect_right(self._size_cdf, rng.random())
        if sz == 0:
            return ()
        integers = rng.integers
        picked = set()
        for j in range(self.n_products - sz, self.n_products):
            v = int(integers(j + 1))
            picked.add(j if v in picked else v)
        for i in range(sz - 1, 0, -1):
            integers(i + 1)
        return tuple(sorted(picked))

    def __eq__(self, other):
        return (
            isinstance(other, AssortmentActions)
            and self.n_products == other.n_products
            and self.max_size == other.max_size
        )


@dataclass
class Instance:
    """A complete problem instance.

    ``reward_count`` is the number of reward indices the planner must balance
    (the objective is the minimum over them of the accumulated reward).
    ``w_max`` / ``a_max`` are the scalar reward and consumption support
    bounds over all outcomes, read from the customers' outcome models on
    every access: nothing is stored, so a ``dataclasses.replace`` copy with
    other customers has its own bounds.
    """

    resources: list
    reward_count: int
    customers: list
    actions: object
    horizon: int
    null_type: int = 0

    @property
    def w_max(self) -> float:
        """Largest reward any customer's outcomes can produce."""
        return float(max((c.outcomes.bounds()[0] for c in self.customers), default=0.0))

    @property
    def a_max(self) -> float:
        """Largest consumption any customer's outcomes can produce."""
        return float(max((c.outcomes.bounds()[1] for c in self.customers), default=0.0))

    @property
    def n_resources(self):
        return len(self.resources)

    @property
    def n_types(self):
        return len(self.customers)

    def capacities(self):
        return np.array([r.capacity for r in self.resources], dtype=float)

    def durations(self):
        """Mean durations E[D_i] = sum_u Pr(D_i >= u)."""
        return np.array([float(r.survival.surv.sum()) for r in self.resources], dtype=float)

    def arrival_weights(self):
        return np.array([c.weight for c in self.customers], dtype=float)

    def survival_matrix(self, length: int):
        """Rows of Pr(D_i >= u) for u = 1..length, zero-padded."""
        m = np.zeros((self.n_resources, length))
        for i, r in enumerate(self.resources):
            s = r.survival.surv
            m[i, : min(length, s.size)] = s[:length]
        return m


def scale_parameter(inst: Instance, lambda_ss: float) -> float:
    """min over resources of capacity/a_max, capped by horizon * lambda / w_max.

    Measures how many "worst-case units" fit: both the tightest capacity in
    units of the largest single consumption, and the target total reward in
    units of the largest single reward.
    """
    a_max, w_max = inst.a_max, inst.w_max
    if a_max > 0:
        cap_side = min(r.capacity for r in inst.resources) / a_max if inst.resources else math.inf
    else:
        cap_side = math.inf
    if w_max > 0:
        rew_side = inst.horizon * lambda_ss / w_max
    else:
        rew_side = 0.0
    return float(min(cap_side, rew_side))


def subsample_distribution(p, m: int, rng) -> np.ndarray:
    """Empirical distribution of m i.i.d. draws from p.

    The sample-average surrogate used when a planning LP should see a
    finite sample instead of exact arrival weights.
    """
    p = np.asarray(p, dtype=float)
    if m < 1:
        raise ValueError(f"need at least one draw, got {m}")
    counts = rng.multinomial(int(m), p / p.sum())
    return counts / float(m)


def stage_schedule(T: int, epsilon: float, relaxed: bool = False) -> list[tuple[int, int, int]]:
    """Doubling stage plan [(stage, offset, length)] covering 1..T exactly.

    Stage -1 (exploration) has length epsilon*T; stage r >= 0 has length
    epsilon*T*2^r; the lengths sum to T because epsilon*2^l = 1.  This
    needs 1/epsilon to be a power of two and epsilon*T to be a positive
    integer, and raises :class:`BadEpsilon` otherwise.

    ``relaxed`` waives those two checks.  With l = max(1, round(log2(1/eps))),
    every stage but the last is round(epsilon*T*2^r) long (at least 1); the
    last absorbs the remainder so the plan ends exactly at T, and stages
    that would be empty are dropped from the tail.  When the checks hold
    this is the exact doubling plan.  Raises :class:`BadEpsilon` if not
    even two stages fit.
    """
    if not (0.0 < epsilon <= 0.5):
        raise BadEpsilon(f"epsilon must lie in (0, 1/2], got {epsilon}")
    l = max(1, round(math.log2(1.0 / epsilon)))
    if not relaxed:
        if abs(epsilon * (1 << l) - 1.0) > 1e-12:
            raise BadEpsilon(f"1/epsilon must be a power of two, got {epsilon}")
        raw = epsilon * T
        if round(raw) < 1 or abs(raw - round(raw)) > 1e-9:
            raise BadEpsilon(f"epsilon*T must be a positive integer, got {raw}")
    lengths = [max(1, round(epsilon * T))]
    for r in range(l - 1):
        lengths.append(max(1, round(epsilon * T * (1 << r))))
    last = T - sum(lengths)
    if last >= 1:
        lengths.append(last)
    else:
        # shrink from the tail until the remainder is positive
        while lengths and T - sum(lengths[:-1]) < 1:
            lengths.pop()
        if len(lengths) < 2:
            raise BadEpsilon(f"horizon {T} too short for epsilon {epsilon}")
        lengths[-1] = T - sum(lengths[:-1])
    stages = []
    offset = 0
    for idx, ln in enumerate(lengths):
        stages.append((idx - 1, offset, ln))
        offset += ln
    assert offset == T
    return stages


@dataclass(frozen=True)
class AlgoConfig:
    """Knobs shared by the policies.

    ``epsilon`` drives both the static policy's acceptance shrink and the
    adaptive policy's stage schedule.  ``gamma`` is the scale parameter,
    ``delta``/``tail_cutoff`` describe how much duration tail mass is ignored
    after the cutoff (bounded-support curves use delta = 0 and their maximum
    duration).  ``eta`` is the per-stage failure budget; the default is
    epsilon / (5 * log2(1/epsilon)).  ``relaxed_schedule`` picks the stage
    schedule that every stage walker uses: :func:`stage_schedule` with its
    divisibility checks waived.
    """

    epsilon: float
    gamma: float
    delta: float = 0.0
    tail_cutoff: int = 1
    eta: float | None = None
    seed: int = 0
    relaxed_schedule: bool = False

    @property
    def n_stages(self) -> int:
        """Number of non-exploration stages l with epsilon * 2^l = 1."""
        return max(1, round(math.log2(1.0 / self.epsilon)))

    def eta_value(self) -> float:
        if self.eta is not None:
            return self.eta
        return self.epsilon / (5.0 * self.n_stages)

    def violations(self, T: int) -> list[str]:
        """Invalid fields for horizon ``T`` as messages; an empty list means valid.

        The epsilon checks are :func:`stage_schedule`'s own.
        """
        out = []
        try:
            stage_schedule(T, self.epsilon, self.relaxed_schedule)
        except BadEpsilon as exc:
            out.append(str(exc))
        if not (0.0 <= self.delta < 1.0):
            out.append(f"delta must lie in [0, 1), got {self.delta}")
        if self.tail_cutoff < 1:
            out.append(f"tail cutoff must be >= 1, got {self.tail_cutoff}")
        if self.epsilon * T < self.tail_cutoff - 1e-9:
            out.append(
                f"epsilon must be >= tail_cutoff/T = {self.tail_cutoff}/{T}"
            )
        if 0.0 < self.epsilon <= 0.5 or self.eta is not None:
            eta = self.eta_value()
            if not (0.0 < eta < 1.0):
                out.append(f"eta must lie in (0, 1), got {eta}")
        if self.gamma < 0:
            out.append(f"gamma must be nonnegative, got {self.gamma}")
        if not (-(2**63) <= self.seed < 2**64):
            out.append("seed must fit in 64 bits")
        return out

    def check(self, T: int):
        """Raise ``ValueError("config: ...")`` naming every violation for horizon ``T``."""
        problems = self.violations(T)
        if problems:
            raise ValueError("config: " + "; ".join(problems))


def validate_instance(inst: Instance) -> list[str]:
    """Collect structural violations as data; an empty list means valid."""
    out: list[str] = []
    if inst.horizon < 1:
        out.append(f"horizon must be >= 1, got {inst.horizon}")
    if inst.reward_count < 1:
        out.append(f"reward_count must be >= 1, got {inst.reward_count}")
    if not inst.resources:
        out.append("at least one resource is required")
    for i, r in enumerate(inst.resources):
        if not (0 < r.capacity < math.inf):
            out.append(f"resources[{i}].capacity must be positive and finite, got {r.capacity}")
        out.extend(r.survival.violations(f"resources[{i}].survival"))

    weights = inst.arrival_weights() if inst.customers else np.zeros(0)
    bad = np.flatnonzero(~np.isfinite(weights))
    for j in bad.tolist():
        out.append(f"customers[{j}].weight must be finite, got {weights[j]}")
    if not bad.size:
        if np.any(weights < -1e-12):
            out.append("customer weights must be nonnegative")
        if weights.size and abs(weights.sum() - 1.0) > 1e-9:
            out.append(f"customer weights must sum to 1, got {weights.sum()!r}")
    if not (0 <= inst.null_type < len(inst.customers)):
        out.append(f"null_type index {inst.null_type} out of range")
    elif not inst.customers[inst.null_type].outcomes.is_null:
        out.append(f"customers[{inst.null_type}] must have all-zero outcomes")

    space = inst.actions
    if not hasattr(space, "null_action"):
        out.append("action space must expose a null_action")
        return out

    for j, cust in enumerate(inst.customers):
        om = cust.outcomes
        if isinstance(om, ExplicitOutcomes):
            if not isinstance(space, ExplicitActions):
                out.append(f"customers[{j}]: explicit outcome tables need an explicit action space")
                continue
            if om.n_actions != space.size:
                out.append(
                    f"customers[{j}]: outcome tables cover {om.n_actions} actions, space has {space.size}"
                )
                continue
            if om.rewards.shape[0] != inst.reward_count:
                out.append(f"customers[{j}]: reward table has {om.rewards.shape[0]} rows, expected {inst.reward_count}")
            if om.consumption.shape[0] != inst.n_resources:
                out.append(f"customers[{j}]: consumption table has {om.consumption.shape[0]} rows, expected {inst.n_resources}")
            out.extend(om.violations(f"customers[{j}].outcomes"))
        # the null action must be worthless for every type
        try:
            w0, a0 = om.means(space.null_action)
            if np.any(w0 != 0.0) or np.any(a0 != 0.0):
                out.append(f"customers[{j}]: null action must have all-zero outcomes")
        except Exception as exc:  # malformed models should not crash validation
            out.append(f"customers[{j}]: cannot evaluate null action ({exc})")
    return out
