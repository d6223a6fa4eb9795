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
from dataclasses import dataclass, field

import numpy as np

from .lp import DegenerateStage, SteadyStateSolution, solve_stage_lambda
from .model import AlgoConfig, Instance, stage_schedule, subsample_distribution

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
    "violation_potential",
    "violation_potential_terms",
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
) -> float:
    """Concentration margin for the per-step reward target of one stage.

    Clamped to 0.99 (with a warning) when the stage is too short for the
    target: the weight updates stay well defined, the guarantee does not.
    """
    ez = math.sqrt(
        2.0 * w_max * (1.0 + epsilon) * math.log(2.0 * n_indices * n_stages / eta)
        / (stage_len * lam)
    )
    if ez >= 1.0:
        logger.warning(
            "reward margin %.3f >= 1 (stage too short for its target); clamping to 0.99",
            ez,
        )
        ez = 0.99
    return ez


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis))
    return out + np.squeeze(m, axis=axis)


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

    def __post_init__(self):
        live = np.flatnonzero(np.any(self.surv != 0.0, axis=0))
        self.d_max = int(live[-1]) if live.size else 0


def init_penalty_weights(
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


def select_action(
    ws: PenaltyWeights, inst: Instance, customer: int, include_current: bool = True
):
    """Greedy step of the weighted rule for the arrival at step updates + 1.

    Minimizes projected occupancy cost plus (negative) reward credit:
    sum over future slots t of a_i * Pr(D_i >= t - s + 1) * phi_{i,s,t}
    plus sum over reward indices of w_i * psi_{i,s}, using mean outcomes.
    ``include_current`` controls whether the slot of the current step
    itself (t = s) enters the occupancy sum; only slots t <= s + d_max - 1
    carry survival mass, so the sum stops there.  The minimization itself
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
    start = s if include_current else s + 1
    end = min(L, s + ws.d_max - 1)
    if start > end:
        log_phi_sum = np.full(ws.caps.size, -np.inf)
    else:
        terms = (
            ws.log_surv[:, start - s + 1 : end - s + 2]
            + ws.log_resource[:, start : end + 1]
        )
        log_phi_sum = _logsumexp(terms, axis=1)
    cand = np.concatenate([log_phi_sum, ws.log_reward_mag])
    finite = cand[np.isfinite(cand)]
    off = float(finite.max()) if finite.size else 0.0
    phi = np.exp(log_phi_sum - off)
    psi_mag = np.exp(ws.log_reward_mag - off)
    return om.best_action(inst.actions, phi, psi_mag)


def update_penalty_weights(ws: PenaltyWeights, inst: Instance, customer: int, action):
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


class _RateTables:
    """Cumulative sampling tables for a randomized-rate rule.

    Each type's non-null rates are shrunk by 1/(1+epsilon); whatever
    probability is left over (the shrink slack, the null rate, and any
    unused budget) lands on the null action.
    """

    def __init__(self, inst: Instance, rates, epsilon: float):
        x = rates.x if isinstance(rates, SteadyStateSolution) else dict(rates)
        null = inst.actions.null_action
        self.null = null
        self.actions = [[] for _ in range(inst.n_types)]
        per_type: dict = {}
        for (j, k), v in x.items():
            if k != null and v > 0.0:
                per_type.setdefault(j, []).append((k, v))
        self.cum = []
        for j in range(inst.n_types):
            items = sorted(per_type.get(j, []))
            probs = np.array([v for _k, v in items]) / (1.0 + epsilon)
            if probs.size and probs.sum() > 1.0 + 1e-9:
                raise ValueError(f"type {j}: shrunken rates exceed 1")
            self.actions[j] = [k for k, _v in items]
            self.cum.append(np.cumsum(probs))

    def sample(self, j: int, rng: np.random.Generator):
        u = rng.random()
        idx = int(np.searchsorted(self.cum[j], u, side="right"))
        if idx >= len(self.actions[j]):
            return self.null
        return self.actions[j][idx]


class StaticPolicy:
    """Play LP rates shrunk by 1/(1+epsilon), the slack going to null."""

    def __init__(self, rates, epsilon: float):
        self.rates = rates
        self.epsilon = epsilon
        self.name = "static"

    def reset(self, inst: Instance, rng: np.random.Generator):
        self.inst, self.rng = inst, rng
        self._tables = _RateTables(inst, self.rates, self.epsilon)

    def choose(self, t: int, j: int):
        return self._tables.sample(j, self.rng)

    def observe(self, t: int, j: int, action, forced: bool):
        pass


class UniformRandomPolicy:
    """Uniform over the whole action space, null included."""

    name = "uniform"

    def reset(self, inst: Instance, rng: np.random.Generator):
        self.inst, self.rng = inst, rng

    def choose(self, t: int, j: int):
        return self.inst.actions.sample_uniform(self.rng)

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
    (customer, chosen action) pair in order."""

    stage: int
    start: int
    length: int
    mode: str                      # "uniform" or "weighted"
    p_hat: np.ndarray | None
    lam: float | None
    eps_x: float | None
    eps_z: float | None
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
    learning never depends on realized noise.
    """

    s_switch = math.inf

    def __init__(
        self,
        config: AlgoConfig,
        include_current: bool = True,
        record_history: bool = False,
        stage_subsample: int | None = None,
    ):
        self.config = config
        self.include_current = include_current
        self.record_history = record_history
        self.stage_subsample = stage_subsample
        self.name = "adaptive" if stage_subsample is None else f"adaptive+saa{stage_subsample}"

    def reset(self, inst: Instance, rng: np.random.Generator):
        if self.config.gamma <= 0.0:
            raise ValueError("adaptive policy needs a positive scale parameter")
        cfg = self.config
        self.schedule = stage_schedule(inst.horizon, cfg.epsilon, cfg.relaxed_schedule)
        self.inst, self.rng = inst, rng
        self._idx = -1
        self._stage_end = 0
        self._counts = np.zeros(inst.n_types)
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
        prev_counts, self._counts = self._counts, np.zeros(self.inst.n_types)
        self._idx = idx
        self._stage_end = offset + length
        self._switch_at = offset + 1 + self.s_switch  # first step on static rates
        self._uniform = True
        self.ws = None
        mode, p_hat, lam, eps_x, eps_z = "uniform", None, None, None, None
        if r >= 0:
            prev_len = self.schedule[idx - 1][2]
            p_hat = prev_counts / prev_len
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
                eps_z = reward_margin(
                    self.inst.w_max,
                    self.config.epsilon,
                    self._n_indices,
                    self._n_learning,
                    self._eta,
                    length,
                    lam,
                )
                self.ws = init_penalty_weights(self.inst, length, lam, eps_z, self.config)
                self._uniform = False
                mode = "weighted"
        self._record = StageRecord(
            stage=r, start=offset + 1, length=length, mode=mode,
            p_hat=p_hat, lam=lam, eps_x=eps_x, eps_z=eps_z,
        )
        if self.record_history:
            self.history.append(self._record)

    def _advance(self, t: int):
        while t > self._stage_end:
            self._begin_stage(self._idx + 1)

    def choose(self, t: int, j: int):
        self._advance(t)
        if t >= self._switch_at:
            return self._tables.sample(j, self.rng)
        if self._uniform:
            return self.inst.actions.sample_uniform(self.rng)
        return select_action(self.ws, self.inst, j, self.include_current)

    def observe(self, t: int, j: int, action, forced: bool):
        self._advance(t)
        self._counts[j] += 1
        if not self._uniform and t < self._switch_at:
            update_penalty_weights(self.ws, self.inst, j, action)
            if self.record_history:
                self._record.choices.append((j, action))

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

    def __init__(self, config: AlgoConfig, rates, s_switch: int, **kwargs):
        super().__init__(config, **kwargs)
        self.rates = rates
        self.s_switch = int(s_switch)
        self.name = f"hybrid{self.s_switch}"

    def reset(self, inst: Instance, rng: np.random.Generator):
        super().reset(inst, rng)
        self._tables = _RateTables(inst, self.rates, self.config.epsilon)


class StageTailRejector:
    """Refuse allocations whose max-cutoff duration could cross a stage end.

    With cutoff d, an allocation at step t occupies through t + d - 1 in
    the worst (retained) case, so the wrapper forces null on the last
    d - 1 steps of every stage.  Off by default in experiments; a cutoff
    of 1 never rejects.  Refused steps skip ``inner.choose`` but still
    reach ``inner.observe``.
    """

    def __init__(self, inner, config: AlgoConfig, tail: int | None = None):
        self.inner = inner
        self.config = config
        self.tail = config.tail_cutoff if tail is None else int(tail)
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
        if t > self._ends[self._idx] - self.tail + 1:
            return self.inst.actions.null_action
        return self.inner.choose(t, j)

    def observe(self, t: int, j: int, action, forced: bool):
        self.inner.observe(t, j, action, forced)


def violation_potential_terms(
    record: StageRecord, inst: Instance, config: AlgoConfig, upto: int | None = None
) -> tuple[float, float]:
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


def violation_potential(
    record: StageRecord, inst: Instance, config: AlgoConfig, upto: int | None = None
) -> float:
    res, rew = violation_potential_terms(record, inst, config, upto)
    return res + rew
