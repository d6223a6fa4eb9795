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
:func:`run_episode` reads the three streams it alone sees (arrivals,
outcomes, durations) in blocks of ``_BLOCK`` doubles: ``rng.random(n)``
fills its array with the doubles n scalar ``rng.random()`` calls return,
in the same order, so every draw is unchanged while numpy's per-call cost
is paid once a block.  The policy stream is handed to the policy as a
plain generator, since the policy owns it and may call any of its
methods; the built-in policies make their per-step scalar draws through
:class:`DirectDraws`, which calls the bit generator's own entry points and
reads nothing ahead, so the stream's draws and its final state are those
of the plain ``Generator`` calls.

Per-episode cache: an :class:`Episode` computes its capacity thresholds
and its cumulative arrival weights once, and keeps its state as plain
Python floats, since a step touches a handful of scalars and numpy's
per-call cost would dwarf the arithmetic.  Occupancy and its peak are
lists with one float per resource.  The return ring has one slot per
step, ``None`` or a ``{resource: amount}`` dict of what returns at the
start of that step, so a release touches only the resources that come
back.  Each (type, action)'s ``consumption_bound`` is cached, for as long
as the episode lives, as a list of floats, and :meth:`Episode.feasible`
tests every resource against it as the array comparison did.  The
reward and consumption totals are lists of floats too, added to in step
order by :meth:`Episode.apply_action` in the pass it makes over each
outcome anyway: the IEEE additions of an ndarray ``+=``, with the zero
entries skipped, since adding a zero changes no total.  A forced step
allocates nothing: it returns the episode's read-only pair of zero
vectors.  Scalar draws are inverted by ``bisect.bisect_right`` on plain
lists, the same binary search as ``ndarray.searchsorted(side="right")``;
the overflow check and the peak update run only for the resources a step
books, since occupancy rises no other way.  None of this changes a draw
or a float: every step consumes the same draws in the same order and runs
the same IEEE arithmetic on the same operands as rebuilding numpy arrays
per step would, so traces are byte-identical to that loop.
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
    "DirectDraws",
]


# doubles drawn at a time by each stream run_episode reads in blocks
_BLOCK = 512
# the default dtypes of Generator.random and Generator.integers, bound to
# module names: DirectDraws tests them on every draw
_F64, _I64 = np.float64, np.int64


class CapacityViolation(RuntimeError):
    """An executed outcome pushed occupancy past a hard capacity."""


class HorizonExceeded(RuntimeError):
    """The episode was stepped past its horizon."""


@dataclass
class Streams:
    """An episode's four random streams; :func:`run_episode` hands its
    :class:`Episode` the first three read in blocks, with the same draws."""

    arrivals: np.random.Generator
    outcomes: np.random.Generator
    durations: np.random.Generator
    policy: np.random.Generator


def episode_streams(seed: int) -> Streams:
    """Four independent generators in fixed spawn order from one seed."""
    children = np.random.SeedSequence(seed).spawn(4)
    return Streams(*(np.random.default_rng(c) for c in children))


class _BlockDraws:
    """``random()`` and ``random(size)`` of a generator, served from blocks.

    Each refill takes ``rng.random(_BLOCK).tolist()``: the doubles the next
    ``_BLOCK`` scalar ``rng.random()`` calls would return, in order.
    ``random(size)`` is the next ``size`` of them as an array, as
    ``rng.random(size)`` would draw.  The wrapped generator runs up to one
    block ahead of what was served, so only a stream that nothing else
    reads may be wrapped.
    """

    __slots__ = ("_rng", "_block")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._block = iter(())

    def random(self, size=None):
        if size is not None:
            return np.array([self.random() for _ in range(size)], dtype=float)
        try:
            return next(self._block)
        except StopIteration:
            self._block = iter(self._rng.random(_BLOCK).tolist())
            return next(self._block)


class DirectDraws:
    """A generator's scalar ``random()`` and ``integers(n)``, drawn through
    its bit generator's own C entry points.

    ``random()`` is ``next_double``, the call ``Generator.random()`` makes.
    ``integers(n)`` for an int 1 <= n < 2**32 - 1 is numpy's scalar
    bounded draw on [0, n) (Lemire, *ACM TOMACS* 29(1), 2019): n == 1
    draws nothing; otherwise m = ``next_uint32()`` * n, redrawn while its
    low 32 bits are below (2**32 - n) % n, gives m >> 32, as a Python int.
    Any other call, and any other attribute, goes to the wrapped
    generator.  Nothing is read ahead, so any mix of this wrapper's calls
    and the generator's own consumes the same draws in the same order and
    leaves the same ``bit_generator.state`` as the generator alone would.

    The entry points are called through ``ctypes`` without the bit
    generator's lock, which ``Generator`` methods take: wrap only a stream
    that one thread reads, as an episode's policy stream is.
    """

    __slots__ = ("_rng", "_state", "_next_double", "_next_uint32")

    def __init__(self, rng: np.random.Generator):
        ct = rng.bit_generator.ctypes
        self._rng = rng   # keeps the bit generator, and so its state, alive
        self._state = ct.state
        self._next_double = ct.next_double
        self._next_uint32 = ct.next_uint32

    def random(self, size=None, dtype=_F64, out=None):
        if size is None and dtype is _F64 and out is None:
            return self._next_double(self._state)
        return self._rng.random(size, dtype, out)

    def integers(self, low, high=None, size=None, dtype=_I64, endpoint=False):
        if not (
            type(low) is int and 0 < low < 0xFFFFFFFF
            and high is None and size is None and dtype is _I64 and not endpoint
        ):
            return self._rng.integers(low, high, size, dtype, endpoint)
        if low == 1:
            return 0
        m = self._next_uint32(self._state) * low
        if m & 0xFFFFFFFF < low:
            threshold = (0x100000000 - low) % low
            while m & 0xFFFFFFFF < threshold:
                m = self._next_uint32(self._state) * low
        return m >> 32

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Episode:
    """Mutable occupancy state of one episode, kept in plain floats.

    ``occupied``, ``peak_occupied``, ``reward_total`` and
    ``consumption_total`` read as fresh float arrays.  The per-step
    protocol is :meth:`begin_step`, :meth:`sample_arrival`,
    :meth:`feasible` and :meth:`apply_action`, each called once per step.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.caps = inst.capacities()
        self._fit_caps = (self.caps + 1e-9).tolist()     # feasibility threshold
        self._hard_caps = (self.caps + 1e-7).tolist()    # violation threshold
        self._cum_weights = np.cumsum(inst.arrival_weights()).tolist()
        self._last_type = inst.n_types - 1
        self._curves = [r.survival for r in inst.resources]
        self._occupied = [0.0] * inst.n_resources
        self._peak = [0.0] * inst.n_resources
        self._rewarded = [0.0] * inst.reward_count
        self._consumed = [0.0] * inst.n_resources
        d_max = max(c.d_max for c in self._curves)
        # slot t: None, or {resource: amount} returning at the start of step t
        self._returns = [None] * (inst.horizon + d_max + 2)
        self._bounds: dict = {}
        self._zeros = (np.zeros(inst.reward_count), np.zeros(inst.n_resources))
        for z in self._zeros:
            z.setflags(write=False)
        self.step = 0

    @property
    def occupied(self) -> np.ndarray:
        return np.array(self._occupied, dtype=float)

    @property
    def peak_occupied(self) -> np.ndarray:
        return np.array(self._peak, dtype=float)

    @property
    def reward_total(self) -> np.ndarray:
        return np.array(self._rewarded, dtype=float)

    @property
    def consumption_total(self) -> np.ndarray:
        return np.array(self._consumed, dtype=float)

    def begin_step(self, t: int):
        """Release the units returning at the start of step t."""
        if t > self.inst.horizon:
            raise HorizonExceeded(f"step {t} past horizon {self.inst.horizon}")
        if t != self.step + 1:
            raise RuntimeError(f"steps must advance by one, got {self.step} -> {t}")
        self.step = t
        slot = self._returns[t]
        if slot is None:
            return
        self._returns[t] = None
        occ = self._occupied
        for i, amount in slot.items():
            occ[i] -= amount

    def sample_arrival(self, rng: np.random.Generator) -> int:
        j = bisect_right(self._cum_weights, rng.random())
        return min(j, self._last_type)

    def feasible(self, customer: int, action) -> bool:
        """True when the action's worst-case consumption fits all capacities."""
        key = (customer, action)
        bound = self._bounds.get(key)
        if bound is None:
            bound = self.inst.customers[customer].outcomes.consumption_bound(action)
            bound = np.asarray(bound, dtype=float).tolist()
            self._bounds[key] = bound
        for o, b, f in zip(self._occupied, bound, self._fit_caps):
            if not o + b <= f:
                return False
        return True

    def apply_action(self, customer: int, action, streams: Streams, forced: bool):
        """Sample outcomes, book durations; returns (reward, consumption, durs).

        A forced step executes the null action without touching the outcome
        or duration streams, and returns the episode's read-only zeros.
        """
        if forced:
            return *self._zeros, {}
        om = self.inst.customers[customer].outcomes
        w, a = om.sample(action, streams.outcomes)
        # totals skip zero entries: adding a zero leaves a float unchanged
        # (a total that starts at +0.0 is never -0.0), so the sums are the
        # step-order folds an ndarray += makes
        rewarded = self._rewarded
        for i, wi in enumerate(w.tolist()):
            if wi:
                rewarded[i] += wi
        durs = {}
        t = self.step
        occ, hard, peak, consumed = self._occupied, self._hard_caps, self._peak, self._consumed
        overflow = False
        for i, ai in enumerate(a.tolist()):
            if not ai:
                continue
            consumed[i] += ai
            if ai > 0.0:
                d = int(self._curves[i].sample(streams.durations))
                durs[i] = d
                if d > 0:
                    now = occ[i] + ai
                    occ[i] = now
                    slot = self._returns[t + d]
                    if slot is None:
                        self._returns[t + d] = {i: ai}
                    else:
                        slot[i] = slot.get(i, 0.0) + ai
                    # occupancy rises only by a booking, so only then can it
                    # overflow or peak
                    if now > hard[i]:
                        overflow = True
                    if now > peak[i]:
                        peak[i] = now
        if overflow:
            occupied = self.occupied
            bad = int(np.argmax(occupied - self.caps))
            raise CapacityViolation(
                f"resource {bad}: occupied {occupied[bad]!r} "
                f"> capacity {self.caps[bad]!r} at step {t}"
            )
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
        """The objective: the worst total across reward indices, min_r W_r.

        The lab scores its mean over replications, E[min_r W_r]. The
        planning LP and the planning total T * lambda_ss use the worst
        expected reward rate instead, min_r E[W_r] / T.  Per step, the two
        differ by a Jensen gap of order 1/sqrt(T).
        """
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
    raw = episode_streams(seed)
    policy.reset(inst, raw.policy)
    streams = Streams(
        _BlockDraws(raw.arrivals), _BlockDraws(raw.outcomes), _BlockDraws(raw.durations),
        raw.policy,
    )
    ep = Episode(inst)
    arrival_counts = [0] * inst.n_types
    forced_rejects = 0
    steps = []
    null = inst.actions.null_action
    arrivals = streams.arrivals
    begin_step, sample_arrival, feasible, apply_action = (
        ep.begin_step, ep.sample_arrival, ep.feasible, ep.apply_action,
    )
    choose, observe = policy.choose, policy.observe
    for t in range(1, inst.horizon + 1):
        begin_step(t)
        j = sample_arrival(arrivals)
        arrival_counts[j] += 1
        k = choose(t, j)
        forced = not feasible(j, k)
        executed = null if forced else k
        w, a, durs = apply_action(j, executed, streams, forced)
        observe(t, j, k, forced)
        forced_rejects += forced
        if record_steps:
            steps.append(StepOutcome(t, j, k, executed, forced, w, a, durs))
    return EpisodeTrace(
        reward_total=ep.reward_total,
        consumption_total=ep.consumption_total,
        arrival_counts=np.array(arrival_counts, dtype=int),
        forced_rejects=forced_rejects,
        peak_occupied=ep.peak_occupied,
        steps=steps,
    )
