"""Hard-capacity episode simulator.

Step protocol within step t (1-based):

1. units whose duration ends at the start of t release their capacity;
2. one arrival type is drawn i.i.d. from the instance weights;
3. the policy proposes an action; if its worst-case consumption could
   overflow any capacity, the executed action becomes the null action and
   the step counts as a forced rejection;
4. outcomes are sampled and each consuming resource books its amount for
   one freshly drawn duration (a zero duration never occupies).

Occupancy can therefore never exceed capacity; the simulator still raises
:class:`CapacityViolation` if an outcome model breaks its own declared
consumption bound.

Randomness: one seed fans out into four fixed-order substreams (arrivals,
outcomes, durations, policy), so paired runs over the same seed see the
same arrival sequence no matter which policy is playing.  Outcome and
duration draws are consumed per allocation, so those streams stay aligned
across policies only while the policies act identically.

Per-episode cache: an :class:`Episode` computes its capacity thresholds
and its cumulative arrival weights once, and keeps each (type, action)'s
``consumption_bound`` in a dict that dies with the episode, since a bound
depends only on the action.  Scalar draws are inverted by
``bisect.bisect_right`` on plain lists, the same binary search as
``ndarray.searchsorted(side="right")``; the overflow check and the peak
update run only on steps that book a unit, since occupancy rises no other
way.  None of this changes a draw: every step consumes the same draws in
the same order and runs the same float arithmetic as rebuilding
everything per step would.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .model import Instance

__all__ = [
    "Streams",
    "episode_streams",
    "Episode",
    "StepOutcome",
    "EpisodeTrace",
    "run_episode",
    "CapacityViolation",
    "HorizonExceeded",
]


class CapacityViolation(RuntimeError):
    """An executed outcome pushed occupancy past a hard capacity."""


class HorizonExceeded(RuntimeError):
    """The episode was stepped past its horizon."""


@dataclass
class Streams:
    arrivals: np.random.Generator
    outcomes: np.random.Generator
    durations: np.random.Generator
    policy: np.random.Generator


def episode_streams(seed: int) -> Streams:
    """Four independent generators in fixed spawn order from one seed."""
    children = np.random.SeedSequence(seed).spawn(4)
    return Streams(*(np.random.default_rng(c) for c in children))


class Episode:
    """Mutable occupancy state of one episode."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.caps = inst.capacities()
        self._fit_caps = self.caps + 1e-9     # feasibility threshold
        self._hard_caps = self.caps + 1e-7    # violation threshold
        self._cum_weights = np.cumsum(inst.arrival_weights()).tolist()
        self.occupied = np.zeros(inst.n_resources)
        self.peak_occupied = np.zeros(inst.n_resources)
        d_max = max(r.survival.d_max for r in inst.resources)
        # row t holds what returns at the start of step t
        self._returns = np.zeros((inst.horizon + d_max + 2, inst.n_resources))
        self._bounds: dict = {}
        self.step = 0

    def begin_step(self, t: int):
        """Release the units returning at the start of step t."""
        if t > self.inst.horizon:
            raise HorizonExceeded(f"step {t} past horizon {self.inst.horizon}")
        if t != self.step + 1:
            raise RuntimeError(f"steps must advance by one, got {self.step} -> {t}")
        self.step = t
        row = self._returns[t]
        self.occupied -= row
        row[:] = 0.0

    def sample_arrival(self, rng: np.random.Generator) -> int:
        j = bisect_right(self._cum_weights, rng.random())
        return min(j, self.inst.n_types - 1)

    def feasible(self, customer: int, action) -> bool:
        """True when the action's worst-case consumption fits all capacities."""
        key = (customer, action)
        bound = self._bounds.get(key)
        if bound is None:
            bound = self.inst.customers[customer].outcomes.consumption_bound(action)
            self._bounds[key] = bound
        return bool((self.occupied + bound <= self._fit_caps).all())

    def apply_action(self, customer: int, action, streams: Streams, forced: bool):
        """Sample outcomes, book durations; returns (reward, consumption, durs).

        A forced step executes the null action without touching the outcome
        or duration streams.
        """
        inst = self.inst
        if forced:
            return np.zeros(inst.reward_count), np.zeros(inst.n_resources), {}
        om = inst.customers[customer].outcomes
        w, a = om.sample(action, streams.outcomes)
        durs = {}
        t = self.step
        booked = False
        for i, ai in enumerate(a.tolist()):
            if ai > 0.0:
                d = int(inst.resources[i].survival.sample(streams.durations))
                durs[i] = d
                if d > 0:
                    self.occupied[i] += ai
                    self._returns[t + d, i] += ai
                    booked = True
        # occupancy rises only by a booking, so only then can it overflow or peak
        if booked:
            if (self.occupied > self._hard_caps).any():
                bad = int(np.argmax(self.occupied - self.caps))
                raise CapacityViolation(
                    f"resource {bad}: occupied {self.occupied[bad]!r} "
                    f"> capacity {self.caps[bad]!r} at step {t}"
                )
            np.maximum(self.peak_occupied, self.occupied, out=self.peak_occupied)
        return w, a, durs


@dataclass
class StepOutcome:
    step: int
    customer: int
    chosen: object
    executed: object
    forced: bool
    reward: np.ndarray
    consumption: np.ndarray
    durations: dict


@dataclass
class EpisodeTrace:
    """Per-episode results: totals always, per-step records on request."""

    reward_total: np.ndarray
    consumption_total: np.ndarray
    arrival_counts: np.ndarray
    forced_rejects: int
    peak_occupied: np.ndarray
    steps: list = field(default_factory=list)

    @property
    def min_reward(self) -> float:
        """The objective: the worst total across reward indices."""
        return float(self.reward_total.min())


def run_episode(
    inst: Instance,
    policy,
    seed: int,
    record_steps: bool = False,
) -> EpisodeTrace:
    """Play one episode of ``inst`` under ``policy``.

    The policy contract: ``reset(inst, rng)`` once, then per step
    ``choose(t, j) -> action`` and ``observe(t, j, action, forced)`` with
    the policy's own chosen action (the policy learns from its decision
    even when the simulator forced a rejection).
    """
    streams = episode_streams(seed)
    policy.reset(inst, streams.policy)
    ep = Episode(inst)
    reward_total = np.zeros(inst.reward_count)
    consumption_total = np.zeros(inst.n_resources)
    arrival_counts = np.zeros(inst.n_types, dtype=int)
    forced_rejects = 0
    steps = []
    null = inst.actions.null_action
    for t in range(1, inst.horizon + 1):
        ep.begin_step(t)
        j = ep.sample_arrival(streams.arrivals)
        arrival_counts[j] += 1
        k = policy.choose(t, j)
        forced = not ep.feasible(j, k)
        executed = null if forced else k
        w, a, durs = ep.apply_action(j, executed, streams, forced)
        policy.observe(t, j, k, forced)
        reward_total += w
        consumption_total += a
        forced_rejects += int(forced)
        if record_steps:
            steps.append(StepOutcome(t, j, k, executed, forced, w, a, durs))
    return EpisodeTrace(
        reward_total=reward_total,
        consumption_total=consumption_total,
        arrival_counts=arrival_counts,
        forced_rejects=forced_rejects,
        peak_occupied=ep.peak_occupied,
        steps=steps,
    )
