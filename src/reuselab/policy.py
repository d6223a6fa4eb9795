"""Allocation policies.

Four families plus a wrapper:

* StaticPolicy: randomized rates from a steady-state LP solution, every
  rate shrunk by 1/(1+epsilon), the slack going to the null action;
* AdaptivePolicy: the stage loop.  An exploration stage plays
  uniformly random actions; each later stage estimates the arrival
  distribution from the previous stage's counts, plans rates on it
  (``lp.plan_rates``), shrinks the optimum by a sampling margin, and then
  plays a multiplicative-weights rule whose greedy step is the arriving
  type's pricing oracle ``outcomes.best_action``;
* HybridPolicy: that loop with a switch rule: adaptive for the first
  ``s_switch`` steps of each stage, frozen static rates afterwards;
* UniformRandomPolicy / AlwaysNullPolicy: baselines;
* StageTailRejector: a tail rule over the same schedule, wrapping any
  policy: it refuses new allocations close enough to a stage boundary
  that a max-cutoff duration could cross it.

Penalty weights live in log space: their exponents scale with the scale
parameter times the stage length, far past float range in linear form.
Selection compares alternatives after shifting all exponentials by one
shared offset, which leaves every argmin unchanged.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .lp import DegenerateStage, SteadyStateSolution, solve_stage_lambda
from .model import AlgoConfig, Instance, stage_schedule, subsample_distribution
from .sim import DirectDraws

__all__ = [
    "estimate_margin",
    "reward_margin",
    "PenaltyWeights",
    "init_penalty_weights",
    "select_action",
    "update_penalty_weights",
    "StaticPolicy",
    "UniformRandomPolicy",
    "AlwaysNullPolicy",
    "AdaptivePolicy",
    "HybridPolicy",
    "StageTailRejector",
    "StageRecord",
    "DegenerateStage",
]

logger = logging.getLogger(__name__)


def estimate_margin(
    horizon: int, prev_len: int, gamma: float, n_indices: int, eta: float
) -> float:
    """Relative half-width of the stage LP optimum from sampled arrivals.

    Shrinking the empirical optimum by 1/(1 + margin) makes the stage
    target hold under the true distribution with probability 1 - eta.
    """
    return math.sqrt(4.0 * horizon * math.log(2.0 * n_indices / eta) / (prev_len * gamma))


def reward_margin(
    w_max: float,
    epsilon: float,
    n_indices: int,
    n_stages: int,
    eta: float,
    stage_len: int,
    lam: float,
) -> tuple[float, bool]:
    """(margin, clamped): the concentration margin for the per-step reward
    target of one stage, and whether it was clamped.

    The margin is clamped to 0.99 (with a warning) when the stage is too
    short for the target: the weight updates stay well defined, the
    guarantee does not.
    """
    ez = math.sqrt(
        2.0 * w_max * (1.0 + epsilon) * math.log(2.0 * n_indices * n_stages / eta)
        / (stage_len * lam)
    )
    clamped = ez >= 1.0
    if clamped:
        logger.warning(
            "reward margin %.3f >= 1 (stage too short for its target); clamping to 0.99",
            ez,
        )
        ez = 0.99
    return ez, clamped


@dataclass
class PenaltyWeights:
    """Log-domain multiplicative weights for one stage.

    ``log_resource[i, t]`` is log phi for resource i and in-stage slot t
    (columns 1..stage_len; column 0 is unused), ``log_reward_mag[i]`` is
    log |psi| for reward index i (psi itself is negative throughout).
    ``occ_factors[i, u]`` is log(1 + eps*gamma*Pr(D_i >= u)/(d_i*(1+eps))),
    the static growth factor shared by initialization and updates.
    ``updates`` counts applied steps, so the live weights are those of
    in-stage step updates + 1.  ``d_max`` is the last slot gap u with a
    nonzero ``surv[:, u]`` over all resources: past it ``surv`` and
    ``occ_factors`` are 0 and ``log_surv`` is -inf, so a step at slot s
    only reaches slots up to s + d_max.

    Update deltas: an update adds to slot s + u, for gap u = 1..d_max, the
    resource delta (gamma/c_i)*(a_i*Pr(D_i >= u+1))*log(1+eps) -
    occ_factors[i, u], and to the reward weights (w_i/w_max)*log(1-eps_z) -
    log_drift_z, where (w, a) are the mean outcomes of the arriving type
    and its action.  Neither depends on s.  The resource delta does not
    depend on the stage either (the survival curves, gamma, the capacities
    and eps are the same in every stage), only its span min(d_max,
    stage_len - 1) does; so ``_pairs`` maps each (type, action) pair to
    its resource delta and w, computed from ``means`` on the pair's first
    update and rebuilt only when a stage needs a wider span (narrower
    spans are slices, elementwise the same values).  An adaptive policy
    hands one ``_pairs`` dict from stage to stage and empties it once the
    episode's last step is observed; weights made on their own get a dict
    of their own.  ``_deltas`` maps each pair to the stage's (resource
    delta, reward delta), so an update after the pair's first in the
    stage is one lookup; the stage's last update empties it (the weights
    themselves outlive the stage, for inspection).

    Greedy buffers: ``select_action`` prices all C resources and R reward
    indices against one shared offset.  One log buffer per stage holds
    ``log_reward_mag`` in its first R entries, as a view updated in place,
    and the window terms log_surv[:, 1..w] + log_resource[:, s..s+w-1]
    after it as a (C, w) view; a value buffer of the same size takes their
    shifted exponentials, so |psi| is its head and phi the row sums of its
    tail.  ``_full`` holds those views for the widest window,
    ``_full_width`` = min(d_max, stage_len) slots; the narrower windows of
    a stage's last slots are built by ``_views``.  Both buffers belong to
    the stage, so a finished stage's weights never change when the next
    stage plays.
    """

    stage_len: int
    gamma: float
    lam: float
    eps_z: float
    w_max: float
    caps: np.ndarray
    surv: np.ndarray          # (C, stage_len + 2), surv[:, u] = Pr(D >= u)
    log_surv: np.ndarray
    occ_factors: np.ndarray   # (C, stage_len + 1)
    log_resource: np.ndarray  # (C, stage_len + 1)
    log_reward_mag: np.ndarray  # (R,)
    log1p_eps: float
    log_shrink_z: float       # log(1 - eps_z)
    log_drift_z: float        # log(1 - eps_z * lam / (w_max * (1 + eps)))
    updates: int = 0
    d_max: int = field(init=False)
    _pairs: dict = field(init=False, repr=False, compare=False)
    _deltas: dict = field(init=False, repr=False, compare=False)
    _logs: np.ndarray = field(init=False, repr=False, compare=False)     # (R + C * width,)
    _values: np.ndarray = field(init=False, repr=False, compare=False)   # (R + C * width,)

    def __post_init__(self):
        live = np.flatnonzero(np.any(self.surv != 0.0, axis=0))
        self.d_max = int(live[-1]) if live.size else 0
        self._pairs = {}
        self._deltas = {}
        R = self.log_reward_mag.size
        self._full_width = width = min(self.d_max, self.stage_len)
        self._logs = np.empty(R + self.caps.size * width)
        self._logs[:R] = self.log_reward_mag
        self.log_reward_mag = self._logs[:R]
        self._values = np.empty_like(self._logs)
        self._psi_mag = self._values[:R]
        self._phi = np.empty(self.caps.size)
        self._full = self._views(width)

    def _views(self, width: int):
        """(log_surv terms, live logs, live values, log window, value window)
        for a window of ``width`` slots; both windows are C-contiguous."""
        R, C = self.log_reward_mag.size, self.caps.size
        logs, values = self._logs[: R + C * width], self._values[: R + C * width]
        return (
            self.log_surv[:, 1 : width + 1],
            logs,
            values,
            logs[R:].reshape(C, width),
            values[R:].reshape(C, width),
        )


def init_penalty_weights(
    inst: Instance, stage_len: int, lam: float, eps_z: float, config: AlgoConfig
) -> PenaltyWeights:
    """Stage-start weights.

    Resource weights start at eps*gamma / (c_i * (1+eps)^(gamma-delta)) for
    slot 1 and grow across slots by the occupancy factor of the slot gap;
    reward weights start at the negative of the full-stage drift so that a
    policy exactly on target ends the stage at magnitude about eps_z/w_max.
    """
    w_max = inst.w_max
    if w_max <= 0.0:
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
    # slot 1 holds lead and slot t the sum, in slot order, of lead and the
    # factors of gaps 1..t-1: a sequential cumsum
    log_resource = np.full((C, stage_len + 1), -np.inf)
    steps = occ[:, :stage_len].copy()
    steps[:, 0] = lead
    np.cumsum(steps, axis=1, out=log_resource[:, 1:])
    log_shrink = math.log1p(-eps_z)
    log_drift = math.log1p(-eps_z * lam / (w_max * (1.0 + eps)))
    mag = (
        math.log(eps_z)
        - math.log(w_max)
        + (stage_len - 1) * log_drift
        - (1.0 - eps_z) * stage_len * lam / w_max * log_shrink
    )
    return PenaltyWeights(
        stage_len=stage_len,
        gamma=gamma,
        lam=lam,
        eps_z=eps_z,
        w_max=w_max,
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


def select_action(ws: PenaltyWeights, inst: Instance, customer: int):
    """Greedy step of the weighted rule for the arrival at step updates + 1.

    Minimizes projected occupancy cost plus (negative) reward credit:
    sum over future slots t of a_i * Pr(D_i >= t - s + 1) * phi_{i,s,t}
    plus sum over reward indices of w_i * psi_{i,s}, using mean outcomes.
    The slot of the current step itself (t = s) enters the occupancy sum;
    only slots t <= s + d_max - 1 carry survival mass, so the sum stops
    there (and is empty when d_max = 0).

    phi_i is a sum of window terms exp(log_surv + log_resource) and |psi|
    is exp(log_reward_mag); an argmin over their combinations does not
    change when all of them are scaled by one positive factor, so every
    term is shifted by one offset, the largest of them all, and
    exponentiated once (see :class:`PenaltyWeights`).  A window row that
    is all -inf, and an empty window, give phi_i = 0.  When that offset is
    not finite the largest finite term takes its place, or 0.0 when there
    is none.  The minimization itself is the customer's own pricing oracle,
    ``outcomes.best_action``: an argmin over mean tables (ties to the
    lowest action index) for explicit types, the sort-and-fixed-point
    assortment solver for logit customers.
    """
    om = inst.customers[customer].outcomes
    if om.is_null:
        return inst.actions.null_action
    s = ws.updates + 1
    L = ws.stage_len
    if s > L:
        raise RuntimeError(f"stage of length {L} already exhausted")
    width = min(L - s + 1, ws.d_max)   # slots s .. min(L, s + d_max - 1)
    views = ws._full if width == ws._full_width else ws._views(width)
    terms, logs, values, log_window, value_window = views
    np.add(terms, ws.log_resource[:, s : s + width], out=log_window)
    # the ufuncs' own reduce: np.max / np.sum dispatch costs more than this arithmetic
    off = np.maximum.reduce(logs)
    if not math.isfinite(off):
        finite = [v for v in logs.tolist() if math.isfinite(v)]
        off = max(finite) if finite else 0.0
    np.subtract(logs, off, out=values)
    np.exp(values, out=values)
    np.add.reduce(value_window, axis=1, out=ws._phi)
    return om.best_action(inst.actions, ws._phi, ws._psi_mag)


def update_penalty_weights(ws: PenaltyWeights, inst: Instance, customer: int, action):
    """Apply the multiplicative update for the chosen action's mean outcomes.

    Future resource slots grow by (1+eps)^((gamma/c_i) * projected
    occupancy) and shed one static occupancy factor; reward weights shrink
    by (1-eps_z)^(w_i/w_max) and shed one drift factor.  Deterministic
    given the arrival and the chosen action.  Slots past s + d_max would
    only receive += 0.0, so they are skipped.  The pair's deltas are
    formed on its first update of the stage, from the resource delta and
    mean rewards kept for the episode (see :class:`PenaltyWeights`).
    """
    s = ws.updates + 1
    L = ws.stage_len
    if s > L:
        raise RuntimeError(f"stage of length {L} already exhausted")
    key = (customer, action)
    deltas = ws._deltas.get(key)
    if deltas is None:
        span = min(ws.d_max, L - 1)   # the widest gap any step of the stage reaches
        pair = ws._pairs.get(key)
        if pair is None or pair[0].shape[1] < span:
            w, a = inst.customers[customer].outcomes.means(action)
            proj = a[:, None] * ws.surv[:, 2 : span + 2]   # Pr(D >= u + 1)
            pair = ws._pairs[key] = (
                (ws.gamma / ws.caps)[:, None] * proj * ws.log1p_eps
                - ws.occ_factors[:, 1 : span + 1],
                w,
            )
        res, w = pair
        deltas = ws._deltas[key] = (res, (w / ws.w_max) * ws.log_shrink_z - ws.log_drift_z)
    res, rew = deltas
    gap = min(L - s, ws.d_max)   # t - s runs over 1..gap for t in s+1..s+gap
    if gap > 0:
        ws.log_resource[:, s + 1 : s + gap + 1] += res[:, :gap]
    ws.log_reward_mag += rew
    ws.updates = s
    if s == L:   # no later update of the stage can read its deltas
        ws._deltas.clear()


class _RateTables:
    """Cumulative sampling tables for a randomized-rate rule.

    Each type's non-null rates are shrunk by 1/(1+epsilon); whatever
    probability is left over (the shrink slack, the null rate, and any
    unused budget) lands on the null action.  A draw is ``bisect_right``
    on the type's cumulative rates, kept as plain floats, of one
    ``rng.random()``: the same binary search as ``searchsorted(side="right")``
    on their numpy cumsum.  The policies hand :meth:`sample` their stream
    wrapped in :class:`~reuselab.sim.DirectDraws`, whose ``random()`` is the
    bit generator's own ``next_double``: the same draw at a lower per-call
    cost.
    """

    def __init__(self, inst: Instance, rates: SteadyStateSolution, epsilon: float):
        null = inst.actions.null_action
        self.null = null
        self.actions = [[] for _ in range(inst.n_types)]
        per_type: dict = {}
        for (j, k), v in rates.x.items():
            if k != null and v > 0.0:
                per_type.setdefault(j, []).append((k, v))
        self.cum = []
        for j in range(inst.n_types):
            items = sorted(per_type.get(j, []))
            probs = np.array([v for _k, v in items]) / (1.0 + epsilon)
            if probs.size and probs.sum() > 1.0 + 1e-9:
                raise ValueError(f"type {j}: shrunken rates exceed 1")
            self.actions[j] = [k for k, _v in items]
            self.cum.append(np.cumsum(probs).tolist())

    def sample(self, j: int, rng: np.random.Generator):
        idx = bisect_right(self.cum[j], rng.random())
        if idx >= len(self.actions[j]):
            return self.null
        return self.actions[j][idx]


class StaticPolicy:
    """Play LP rates shrunk by 1/(1+epsilon), the slack going to null."""

    def __init__(self, rates: SteadyStateSolution, epsilon: float):
        self.rates = rates
        self.epsilon = epsilon
        self.name = "static"

    def reset(self, inst: Instance, rng: np.random.Generator):
        self._draws = DirectDraws(rng)
        self._tables = _RateTables(inst, self.rates, self.epsilon)

    def choose(self, t: int, j: int):
        return self._tables.sample(j, self._draws)

    def observe(self, t: int, j: int, action, forced: bool):
        pass


class UniformRandomPolicy:
    """Uniform over the whole action space, null included."""

    name = "uniform"

    def reset(self, inst: Instance, rng: np.random.Generator):
        self.inst = inst
        self._draws = DirectDraws(rng)

    def choose(self, t: int, j: int):
        return self.inst.actions.sample_uniform(self._draws)

    def observe(self, t: int, j: int, action, forced: bool):
        pass


class AlwaysNullPolicy:
    """Reject everything; the floor any policy should beat."""

    name = "null"

    def reset(self, inst: Instance, rng: np.random.Generator):
        self.inst = inst

    def choose(self, t: int, j: int):
        return self.inst.actions.null_action

    def observe(self, t: int, j: int, action, forced: bool):
        pass


@dataclass
class StageRecord:
    """What one stage did: its plan, its estimates, and (on request) every
    (customer, chosen action) pair in order.  ``margin_clamped`` says that
    the stage was too short for its target, so its reward margin ``eps_z``
    was clamped to 0.99 (:func:`reward_margin` logs a warning then)."""

    stage: int
    start: int
    length: int
    mode: str                      # "uniform" or "weighted"
    p_hat: np.ndarray | None
    lam: float | None
    eps_x: float | None
    eps_z: float | None
    margin_clamped: bool = False
    choices: list = field(default_factory=list)


class AdaptivePolicy:
    """Multi-stage policy: explore, estimate, then play weighted greedy.

    Stage -1 plays uniformly at random over all actions.  Each stage r >= 0
    builds the empirical arrival distribution from the previous stage only,
    plans rates on it (:func:`solve_stage_lambda`), shrinks the optimum by
    the sampling margin into the stage target, initializes fresh penalty
    weights, and plays/updates them per arrival.  A degenerate stage LP
    (zero optimum) downgrades that stage to uniform play.  Past in-stage
    step ``s_switch`` a stage plays frozen static rates
    (:class:`HybridPolicy`; plain adaptive never switches).

    The stage cursor moves on ``observe`` as well as on ``choose``, so a
    stage whose every ``choose`` a wrapper answers itself is still planned
    from the previous stage's arrivals.  The weight trajectory is
    deterministic given the arrival sequence; the policy updates on its
    own chosen action even when the simulator forced a rejection, so
    learning never depends on realized noise.  Every weighted stage of an
    episode shares one table of update deltas, emptied once the episode's
    last step is observed.
    """

    s_switch = math.inf

    def __init__(
        self,
        config: AlgoConfig,
        record_history: bool = False,
        stage_subsample: int | None = None,
    ):
        self.config = config
        self.record_history = record_history
        self.stage_subsample = stage_subsample
        self.name = "adaptive" if stage_subsample is None else f"adaptive+saa{stage_subsample}"

    def reset(self, inst: Instance, rng: np.random.Generator):
        if self.config.gamma <= 0.0:
            raise ValueError("adaptive policy needs a positive scale parameter")
        cfg = self.config
        self.schedule = stage_schedule(inst.horizon, cfg.epsilon, cfg.relaxed_schedule)
        self.inst, self.rng = inst, rng
        self._draws = DirectDraws(rng)
        self._idx = -1
        self._stage_end = 0
        self._counts = [0] * inst.n_types
        self._horizon = inst.horizon
        self._pairs = {}   # (type, action) -> (resource delta, w); see PenaltyWeights
        self._uniform = True
        self.ws: PenaltyWeights | None = None
        self.lp_solves = 0
        self.history: list[StageRecord] = []
        self._record: StageRecord | None = None
        self._n_indices = inst.reward_count + inst.n_resources
        self._n_learning = len(self.schedule) - 1
        self._eta = self.config.eta_value()

    def _begin_stage(self, idx: int):
        r, offset, length = self.schedule[idx]
        prev_counts, self._counts = self._counts, [0] * self.inst.n_types
        self._idx = idx
        self._stage_end = offset + length
        self._switch_at = offset + 1 + self.s_switch  # first step on static rates
        self._uniform = True
        self.ws = None
        mode, p_hat, lam, eps_x, eps_z, clamped = "uniform", None, None, None, None, False
        if r >= 0:
            prev_len = self.schedule[idx - 1][2]
            p_hat = np.array(prev_counts, dtype=float) / prev_len
            if self.stage_subsample is not None and p_hat.sum() > 0:
                p_hat = subsample_distribution(p_hat, self.stage_subsample, self.rng)
            eps_x = estimate_margin(
                self.inst.horizon, prev_len, self.config.gamma, self._n_indices, self._eta
            )
            self.lp_solves += 1
            try:
                est = solve_stage_lambda(self.inst, p_hat, eps_x)
            except DegenerateStage:
                logger.warning(
                    "stage %d: empirical steady-state LP is degenerate, playing uniform",
                    r,
                )
            else:
                lam = est.lambda_r
                eps_z, clamped = reward_margin(
                    self.inst.w_max,
                    self.config.epsilon,
                    self._n_indices,
                    self._n_learning,
                    self._eta,
                    length,
                    lam,
                )
                self.ws = init_penalty_weights(self.inst, length, lam, eps_z, self.config)
                self.ws._pairs = self._pairs
                self._uniform = False
                mode = "weighted"
        self._record = StageRecord(
            stage=r, start=offset + 1, length=length, mode=mode,
            p_hat=p_hat, lam=lam, eps_x=eps_x, eps_z=eps_z, margin_clamped=clamped,
        )
        if self.record_history:
            self.history.append(self._record)

    def _advance(self, t: int):
        while t > self._stage_end:
            self._begin_stage(self._idx + 1)

    def choose(self, t: int, j: int):
        if t > self._stage_end:
            self._advance(t)
        if t >= self._switch_at:
            return self._tables.sample(j, self._draws)
        if self._uniform:
            return self.inst.actions.sample_uniform(self._draws)
        return select_action(self.ws, self.inst, j)

    def observe(self, t: int, j: int, action, forced: bool):
        if t > self._stage_end:
            self._advance(t)
        self._counts[j] += 1
        if not self._uniform and t < self._switch_at:
            update_penalty_weights(self.ws, self.inst, j, action)
            if self.record_history:
                self._record.choices.append((j, action))
        if t == self._horizon:   # the episode is over: keep no deltas
            self._pairs.clear()
            if self.ws is not None:
                self.ws._deltas.clear()

    def snapshot(self) -> dict:
        """Copy of the live stage state, for inspection and tests."""
        r = self.schedule[self._idx][0] if self._idx >= 0 else None
        if self.ws is None:
            return {"stage": r, "mode": "uniform", "updates": 0}
        return {
            "stage": r,
            "mode": "weighted",
            "updates": self.ws.updates,
            "stage_len": self.ws.stage_len,
            "lam": self.ws.lam,
            "eps_z": self.ws.eps_z,
            "log_resource": self.ws.log_resource[:, 1:].copy(),
            "log_reward_mag": self.ws.log_reward_mag.copy(),
        }


class HybridPolicy(AdaptivePolicy):
    """Adaptive for the first s_switch steps of each stage, static after.

    The in-stage step is 1-based; weights freeze at the switch.  With
    s_switch = 0 this replays the static policy draw for draw (one uniform
    per step from the shared stream); with s_switch >= the longest stage it
    is the adaptive policy draw for draw.
    """

    def __init__(self, config: AlgoConfig, rates: SteadyStateSolution, s_switch: int, **kwargs):
        super().__init__(config, **kwargs)
        self.rates = rates
        self.s_switch = int(s_switch)
        self.name = f"hybrid{self.s_switch}"

    def reset(self, inst: Instance, rng: np.random.Generator):
        super().reset(inst, rng)
        self._tables = _RateTables(inst, self.rates, self.config.epsilon)


class StageTailRejector:
    """Refuse allocations whose max-cutoff duration could cross a stage end.

    With cutoff d = ``config.tail_cutoff``, an allocation at step t
    occupies through t + d - 1 in the worst (retained) case, so the wrapper
    forces null on the last d - 1 steps of every stage.  Off by default in
    experiments; a cutoff of 1 never rejects.  Refused steps skip
    ``inner.choose`` but still reach ``inner.observe``.
    """

    def __init__(self, inner, config: AlgoConfig):
        self.inner = inner
        self.config = config
        self.name = f"{inner.name}+tailguard"

    def reset(self, inst: Instance, rng: np.random.Generator):
        cfg = self.config
        plan = stage_schedule(inst.horizon, cfg.epsilon, cfg.relaxed_schedule)
        self.inst = inst
        self._ends = [off + ln for _r, off, ln in plan]
        self._idx = 0
        self.inner.reset(inst, rng)

    def choose(self, t: int, j: int):
        while t > self._ends[self._idx]:
            self._idx += 1
        if t > self._ends[self._idx] - self.config.tail_cutoff + 1:
            return self.inst.actions.null_action
        return self.inner.choose(t, j)

    def observe(self, t: int, j: int, action, forced: bool):
        self.inner.observe(t, j, action, forced)
