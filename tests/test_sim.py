from dataclasses import replace

import numpy as np
import pytest

from helpers import hand_instance, random_explicit_instance, two_resource_instance
from oracles import reference_run_episode
from reuselab.harness import GeneratorSpec, generate_instance, make_policy, solve_benchmarks
from reuselab.model import (
    AlgoConfig,
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    OutcomeModel,
    ResourceSpec,
    SurvivalCurve,
    scale_parameter,
    validate_instance,
    zero_outcomes,
)
from reuselab import sim
from reuselab.policy import AlwaysNullPolicy, UniformRandomPolicy
from reuselab.sim import (
    CapacityViolation,
    Episode,
    HorizonExceeded,
    episode_streams,
    run_episode,
)


class GreedyPolicy:
    """Always proposes the last (most consuming, in our fixtures) action."""

    name = "greedy"

    def reset(self, inst, rng):
        self.inst = inst
        self.observed = []

    def choose(self, t, j):
        return self.inst.actions.all_actions()[-1]

    def observe(self, t, j, action, forced):
        self.observed.append((t, j, action, forced))


class Overstepper(OutcomeModel):
    """Always realizes ``consumption``; declares ``bound`` as its limit."""

    def __init__(self, bound, consumption):
        self.bound, self.consumption = bound, consumption

    def means(self, action):
        return np.zeros(1), self.consumption * int(action)

    def sample(self, action, rng):
        return np.full(1, float(action)), self.consumption * int(action)

    def consumption_bound(self, action):
        return self.bound * int(action)

    def bounds(self):
        return 1.0, float(self.consumption.max())


def greedy_unit_instance(horizon=40):
    """Capacity 1, duration exactly 3, every arrival wants the resource."""
    real = ExplicitOutcomes(rewards=[[0.0, 1.0]], consumption=[[0.0, 1.0]])
    return Instance(
        resources=[ResourceSpec(1.0, SurvivalCurve([1.0, 1.0, 1.0]))],
        reward_count=1,
        customers=[CustomerType(0.0, zero_outcomes(1, 1, 2)), CustomerType(1.0, real)],
        actions=ExplicitActions(2),
        horizon=horizon,
        null_type=0,
    )


class TestStreams:
    def test_deterministic_fanout(self):
        s1, s2 = episode_streams(42), episode_streams(42)
        assert s1.arrivals.random() == s2.arrivals.random()
        assert s1.policy.random() == s2.policy.random()

    def test_streams_differ_from_each_other(self):
        s = episode_streams(0)
        vals = {s.arrivals.random(), s.outcomes.random(), s.durations.random(), s.policy.random()}
        assert len(vals) == 4

    def test_block_draws_are_a_plain_generators_doubles(self):
        """Scalar and sized draws, interleaved across several block
        boundaries, return exactly a plain generator's doubles from the same
        seed.  The wrapped generator's state is not compared: it runs up to a
        block ahead by design, and the streams run_episode wraps never leave
        it."""
        B = sim._BLOCK
        # (scalar draws, then one sized draw): sized draws straddle the first
        # and third boundaries, span the whole second block, and take none
        plan = [(B - 3, 7), (5, 0), (0, B + 9), (B - 20, 2), (B - 14, 40), (3, 1)]
        wrapped = sim._BlockDraws(np.random.default_rng(31))
        plain = np.random.default_rng(31)
        served = 0
        for scalars, size in plan:
            for _ in range(scalars):
                got = wrapped.random()
                assert type(got) is float and got == plain.random()
            got, want = wrapped.random(size), plain.random(size)
            assert got.dtype == want.dtype and got.shape == want.shape == (size,)
            assert got.tobytes() == want.tobytes()
            served += scalars + size
        assert served > 4 * B


def _plain_state(state):
    """A ``bit_generator.state`` with its arrays as lists, for ``==``."""
    if isinstance(state, dict):
        return {k: _plain_state(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


# bounds of the interleaved integers(n) draws: n == 1 draws nothing, 3 * 2**30
# redraws a quarter of its words, 2**32 - 1 and up are the generator's own
# wider paths
DIRECT_BOUNDS = (1, 2, 3, 7, 2**31, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 2**40)


class TestDirectDraws:
    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64],
    )
    def test_interleaved_draws_are_a_twin_generators(self, bit_generator):
        """Scalar draws through the wrapper, and calls it hands on, return a
        twin generator's values and leave its exact state: nothing is read
        ahead, and ``next_uint32``'s spare half-word is the one numpy keeps."""
        wrapped = np.random.Generator(bit_generator(41))
        twin = np.random.Generator(bit_generator(41))
        direct = sim.DirectDraws(wrapped)
        plan = np.random.default_rng(42)
        for _ in range(20_000):
            op = int(plan.integers(12))
            if op < 3:
                got, want = direct.random(), twin.random()
                assert type(got) is float
            elif op < 10:
                n = DIRECT_BOUNDS[int(plan.integers(len(DIRECT_BOUNDS)))]
                got, want = direct.integers(n), twin.integers(n)
                assert 0 <= got < n
            elif op == 10:
                size = int(plan.integers(1, 6))
                got, want = direct.random(size), twin.random(size)
                assert got.tobytes() == want.tobytes()
                continue
            else:
                got = (direct.choice(9, p=np.full(9, 1 / 9)), direct.choice(12, 3, replace=False),
                       direct.multinomial(5, [0.2, 0.3, 0.5]))
                want = (twin.choice(9, p=np.full(9, 1 / 9)), twin.choice(12, 3, replace=False),
                        twin.multinomial(5, [0.2, 0.3, 0.5]))
                assert [np.asarray(g).tolist() for g in got] == [np.asarray(w).tolist() for w in want]
                continue
            assert got == want
        assert _plain_state(wrapped.bit_generator.state) == _plain_state(twin.bit_generator.state)

    def test_bad_bounds_raise_the_generators_own_error(self):
        direct, twin = sim.DirectDraws(np.random.default_rng(5)), np.random.default_rng(5)
        for n in (0, -3):
            with pytest.raises(ValueError) as got:
                direct.integers(n)
            with pytest.raises(ValueError) as want:
                twin.integers(n)
            assert str(got.value) == str(want.value)
        assert direct.bit_generator.state == twin.bit_generator.state


class TestEpisodeMechanics:
    def test_release_timing_duration_two(self):
        inst = hand_instance(6)
        ep = Episode(inst)
        streams = episode_streams(1)
        ep.begin_step(1)
        ep.apply_action(1, 1, streams, forced=False)
        assert ep.occupied[0] == 1.0
        ep.begin_step(2)
        assert ep.occupied[0] == 1.0  # still in use during step 2
        ep.begin_step(3)
        assert ep.occupied[0] == 0.0  # back at the start of step 3

    def test_steps_must_advance_by_one(self):
        ep = Episode(hand_instance(6))
        ep.begin_step(1)
        with pytest.raises(RuntimeError):
            ep.begin_step(3)

    def test_horizon_exceeded(self):
        ep = Episode(hand_instance(2))
        ep.begin_step(1)
        ep.begin_step(2)
        with pytest.raises(HorizonExceeded):
            ep.begin_step(3)

    def test_feasibility_check_uses_bound(self):
        inst = hand_instance(6)
        ep = Episode(inst)
        streams = episode_streams(1)
        ep.begin_step(1)
        assert ep.feasible(1, 1)
        ep.apply_action(1, 1, streams, forced=False)
        assert not ep.feasible(1, 1)  # capacity 1 fully occupied
        assert ep.feasible(1, 0)      # the null action always fits
        assert ep.feasible(0, 1)      # the null type consumes nothing

    def test_forced_step_touches_no_streams(self):
        inst = hand_instance(6)
        ep = Episode(inst)
        streams = episode_streams(9)
        before = (
            streams.outcomes.bit_generator.state["state"],
            streams.durations.bit_generator.state["state"],
        )
        ep.begin_step(1)
        w, a, durs = ep.apply_action(1, 0, streams, forced=True)
        assert not w.flags.writeable and not a.flags.writeable
        after = (
            streams.outcomes.bit_generator.state["state"],
            streams.durations.bit_generator.state["state"],
        )
        assert before == after
        assert np.all(w == 0.0) and np.all(a == 0.0) and durs == {}

    def test_zero_duration_never_occupies(self):
        curve = SurvivalCurve([0.0])  # duration is always zero
        real = ExplicitOutcomes(rewards=[[0.0, 1.0]], consumption=[[0.0, 1.0]])
        inst = Instance(
            resources=[ResourceSpec(1.0, curve)],
            reward_count=1,
            customers=[CustomerType(0.0, zero_outcomes(1, 1, 2)), CustomerType(1.0, real)],
            actions=ExplicitActions(2),
            horizon=4,
            null_type=0,
        )
        ep = Episode(inst)
        streams = episode_streams(2)
        ep.begin_step(1)
        _w, _a, durs = ep.apply_action(1, 1, streams, forced=False)
        assert durs == {0: 0}
        assert ep.occupied[0] == 0.0

    def test_lying_outcome_model_raises(self):
        class Liar(OutcomeModel):
            def means(self, action):
                return np.zeros(1), np.zeros(1)

            def sample(self, action, rng):
                return np.zeros(1), np.array([5.0])

            def consumption_bound(self, action):
                return np.zeros(1)

            def bounds(self):
                return 0.0, 0.0

        inst = Instance(
            resources=[ResourceSpec(1.0, SurvivalCurve([1.0]))],
            reward_count=1,
            customers=[CustomerType(0.5, zero_outcomes(1, 1, 2)), CustomerType(0.5, Liar())],
            actions=ExplicitActions(2),
            horizon=4,
            null_type=0,
        )
        ep = Episode(inst)
        streams = episode_streams(3)
        ep.begin_step(1)
        with pytest.raises(CapacityViolation):
            ep.apply_action(1, 1, streams, forced=False)

    def test_violation_names_the_largest_overflow(self):
        # resource 1 ends up fuller (5.0 against 4.5), but resource 0
        # overflows by more (2.0 against 0.5), so resource 0 is named
        inst = Instance(
            resources=[
                ResourceSpec(1.0, SurvivalCurve([1.0])),
                ResourceSpec(4.5, SurvivalCurve([1.0])),
            ],
            reward_count=1,
            customers=[
                CustomerType(0.5, zero_outcomes(1, 2, 2)),
                CustomerType(0.5, Overstepper(np.zeros(2), np.array([3.0, 5.0]))),
            ],
            actions=ExplicitActions(2),
            horizon=4,
            null_type=0,
        )
        ep = Episode(inst)
        ep.begin_step(1)
        assert ep.feasible(1, 1)
        with pytest.raises(CapacityViolation, match=r"^resource 0: occupied .* > capacity "):
            ep.apply_action(1, 1, episode_streams(3), forced=False)

    @pytest.mark.parametrize("duration", [3, 64])
    def test_overstep_within_slack_refuses_until_release(self, duration):
        # the model books 5e-8 past its declared bound: above the 1e-9 fit
        # slack, below the 1e-7 violation slack.  No violation is raised,
        # and while that unit is held every proposal is refused, the null
        # action's included.
        excess = 1.0 + 5e-8
        inst = Instance(
            resources=[ResourceSpec(1.0, SurvivalCurve([1.0] * duration))],
            reward_count=1,
            customers=[
                CustomerType(0.25, zero_outcomes(1, 1, 2)),
                CustomerType(0.75, Overstepper(np.ones(1), np.array([excess]))),
            ],
            actions=ExplicitActions(2),
            horizon=40,
            null_type=0,
        )
        trace = run_episode(inst, GreedyPolicy(), seed=6, record_steps=True)
        booked = [st.step for st in trace.steps if st.durations]
        assert booked and trace.peak_occupied[0] == excess
        held = set()
        for t in booked:
            held.update(range(t + 1, t + duration))
        for st in trace.steps:
            assert st.forced == (st.step in held), st.step
        if duration == 64:
            assert trace.forced_rejects == inst.horizon - booked[0]
        want = reference_run_episode(inst, GreedyPolicy(), seed=6)
        assert _trace_bytes(trace) == _trace_bytes(want)

    @pytest.mark.parametrize("capacity", [-1e-8, float("nan")])
    def test_threshold_below_zero_refuses_from_the_start(self, capacity):
        # resource 1's feasibility threshold is below 0 (or NaN) before
        # anything is booked, and no action consumes it: every proposal is
        # still refused, the null action's included
        inst = Instance(
            resources=[
                ResourceSpec(2.0, SurvivalCurve([1.0])),
                ResourceSpec(capacity, SurvivalCurve([1.0])),
            ],
            reward_count=1,
            customers=[
                CustomerType(0.25, zero_outcomes(1, 2, 2)),
                CustomerType(0.75, Overstepper(np.array([1.0, 0.0]), np.array([1.0, 0.0]))),
            ],
            actions=ExplicitActions(2),
            horizon=12,
            null_type=0,
        )
        trace = run_episode(inst, GreedyPolicy(), seed=6, record_steps=True)
        assert trace.forced_rejects == inst.horizon
        want = reference_run_episode(inst, GreedyPolicy(), seed=6)
        assert _trace_bytes(trace) == _trace_bytes(want)


class TestRunEpisode:
    def test_null_policy_earns_nothing(self):
        trace = run_episode(hand_instance(16), AlwaysNullPolicy(), seed=1)
        assert trace.min_reward == 0.0
        assert trace.forced_rejects == 0
        assert np.all(trace.peak_occupied == 0.0)

    def test_deterministic_given_seed(self, two_res):
        t1 = run_episode(two_res, UniformRandomPolicy(), seed=5)
        t2 = run_episode(two_res, UniformRandomPolicy(), seed=5)
        assert np.array_equal(t1.reward_total, t2.reward_total)
        assert np.array_equal(t1.consumption_total, t2.consumption_total)
        assert t1.forced_rejects == t2.forced_rejects

    def test_arrivals_paired_across_policies(self, two_res):
        a = run_episode(two_res, AlwaysNullPolicy(), seed=8)
        b = run_episode(two_res, UniformRandomPolicy(), seed=8)
        assert np.array_equal(a.arrival_counts, b.arrival_counts)

    def test_greedy_saturation_and_observe_contract(self):
        inst = greedy_unit_instance(40)
        pol = GreedyPolicy()
        trace = run_episode(inst, pol, seed=4)
        # capacity 1, duration 3: at most one allocation per 3 steps
        assert trace.forced_rejects > 0
        assert trace.peak_occupied[0] == 1.0
        assert trace.reward_total[0] <= np.ceil(inst.horizon / 3)
        # the policy always hears its own chosen action, forced or not
        assert len(pol.observed) == inst.horizon
        for _t, _j, action, _forced in pol.observed:
            assert action == 1
        assert sum(f for *_rest, f in pol.observed) == trace.forced_rejects

    def test_hard_capacity_invariant_fuzz(self):
        rng = np.random.default_rng(1234)
        for trial in range(15):
            inst = random_explicit_instance(rng, unit_consumption=True, horizon=30)
            # shrink capacities to force contention
            for r in inst.resources:
                r.capacity = float(np.ceil(r.capacity))
            pol = GreedyPolicy() if trial % 2 else UniformRandomPolicy()
            trace = run_episode(inst, pol, seed=trial)
            assert np.all(trace.peak_occupied <= inst.capacities()), trial

    def test_occupancy_matches_recount_from_trace(self, monkeypatch):
        # fractional consumption over long horizons: the live occupancy after
        # every release must equal a recount of the booked allocations, with
        # no negative residue, so no clamp is needed to keep it at zero
        seen = []
        begin_step = Episode.begin_step

        def recording_begin_step(ep, t):
            begin_step(ep, t)
            seen.append(ep.occupied.copy())

        monkeypatch.setattr(Episode, "begin_step", recording_begin_step)
        rng = np.random.default_rng(77)
        for trial in range(8):
            inst = random_explicit_instance(rng, horizon=int(rng.integers(1000, 2000)))
            pol = GreedyPolicy() if trial % 2 else UniformRandomPolicy()
            seen.clear()
            trace = run_episode(inst, pol, seed=trial, record_steps=True)
            # an allocation at tau with duration d is still held at the start
            # of steps tau+1 .. tau+d-1
            held = np.zeros((inst.n_resources, inst.horizon + 6))
            for st in trace.steps:
                for i, d in st.durations.items():
                    held[i, st.step + 1 : st.step + d] += st.consumption[i]
            live = np.array(seen).T
            np.testing.assert_allclose(live, held[:, 1 : inst.horizon + 1], rtol=0, atol=1e-9)
            assert live.min() >= -1e-9, trial

    def test_record_steps(self):
        inst = greedy_unit_instance(12)
        trace = run_episode(inst, GreedyPolicy(), seed=2, record_steps=True)
        assert len(trace.steps) == 12
        for st in trace.steps:
            assert st.chosen == 1
            if st.forced:
                assert st.executed == inst.actions.null_action
                assert st.durations == {}
            else:
                assert st.executed == st.chosen
        assert trace.reward_total[0] == sum(s.reward[0] for s in trace.steps)

    def test_min_reward_is_worst_index(self, two_res):
        trace = run_episode(two_res, UniformRandomPolicy(), seed=3)
        assert trace.min_reward == trace.reward_total.min()


def _trace_bytes(trace):
    """Every StepOutcome field and every episode total, as exact bytes."""

    def enc(x):
        if isinstance(x, np.ndarray):
            return x.dtype.str.encode() + x.tobytes()
        return repr(x).encode()

    steps = [
        b"|".join(enc(f) for f in (
            st.step, st.customer, st.chosen, st.executed, st.forced,
            st.reward, st.consumption, sorted(st.durations.items()),
        ))
        for st in trace.steps
    ]
    totals = [enc(f) for f in (
        trace.reward_total, trace.consumption_total, trace.arrival_counts,
        trace.forced_rejects, trace.peak_occupied,
    )]
    return steps, totals


def _bernoulli(inst):
    for c in inst.customers[1:]:
        om = c.outcomes
        c.outcomes = ExplicitOutcomes(om.rewards, om.consumption, noise="bernoulli")
    return replace(inst)


class TestReferenceLoop:
    """The episode engine against the oracle loop that rebuilds every
    per-step quantity: same draws, same floats, byte for byte."""

    LABELS = (
        "static", "uniform", "null", "adaptive", "hybrid5", "static+tailguard", "adaptive+tailguard",
    )

    @staticmethod
    def instances():
        out = [
            # the benchmark's replicate shape at a shorter horizon
            generate_instance(GeneratorSpec(scale=2, base_horizon=100)),
            generate_instance(GeneratorSpec(seed=4, base_horizon=96, n_customers=4)),
            # capacity 3 against ~12-step durations: forced rejections
            generate_instance(GeneratorSpec(seed=5, base_horizon=96, base_capacity=3, n_customers=3)),
            generate_instance(GeneratorSpec(
                seed=6, base_horizon=64, base_capacity=3, n_products=5, max_size=3, n_customers=3,
            )),
        ]
        rng = np.random.default_rng(2024)
        for k in range(4):
            inst = random_explicit_instance(rng, horizon=48)
            out.append(_bernoulli(inst) if k % 2 else inst)
        return out

    def test_matches_reference_byte_for_byte(self):
        forced = {"mnl": 0, "explicit": 0}
        for n, inst in enumerate(self.instances()):
            bench = solve_benchmarks(inst)
            config = AlgoConfig(
                epsilon=0.125,
                gamma=max(scale_parameter(inst, bench.lambda_ss), 1e-3),
                tail_cutoff=bench.tail_cutoff,
                relaxed_schedule=True,
            )
            for label in self.LABELS:
                pol = make_policy(label, inst, config, bench)
                for seed in (1, 2):
                    got = run_episode(inst, pol, seed, record_steps=True)
                    want = reference_run_episode(inst, pol, seed)
                    assert _trace_bytes(got) == _trace_bytes(want), (n, label, seed)
                    forced["mnl" if n < 4 else "explicit"] += got.forced_rejects
            assert validate_instance(inst) == [], n
        assert forced["mnl"] > 0 and forced["explicit"] > 0, forced

    def test_long_episodes_across_draw_blocks(self, monkeypatch):
        # episodes long enough that every stream read in blocks is refilled
        # at least twice: a logit instance with forced steps and a Bernoulli
        # explicit one, whose outcomes take the sized-draw path
        blocks = []

        class Counted:
            def __init__(self, rng):
                self.rng, self.n = rng, 0
                blocks.append(self)

            def random(self, size):
                self.n += 1
                return self.rng.random(size)

        block_draws = sim._BlockDraws
        monkeypatch.setattr(sim, "_BlockDraws", lambda rng: block_draws(Counted(rng)))
        instances = [
            generate_instance(GeneratorSpec(seed=5, base_horizon=3000, base_capacity=3, n_customers=3)),
            _bernoulli(random_explicit_instance(np.random.default_rng(4), horizon=2000)),
        ]
        for n, inst in enumerate(instances):
            bench = solve_benchmarks(inst)
            config = AlgoConfig(
                epsilon=0.125,
                gamma=max(scale_parameter(inst, bench.lambda_ss), 1e-3),
                tail_cutoff=bench.tail_cutoff,
                relaxed_schedule=True,
            )
            forced = 0
            refills = []
            for label in ("static", "uniform", "adaptive", "hybrid5"):
                pol = make_policy(label, inst, config, bench)
                blocks.clear()
                got = run_episode(inst, pol, 3, record_steps=True)
                refills.append([b.n - 1 for b in blocks])
                want = reference_run_episode(inst, pol, 3)
                assert _trace_bytes(got) == _trace_bytes(want), (n, label)
                forced += got.forced_rejects
            assert forced > 0, n
            # arrivals, outcomes, durations: two refills under some policy
            assert np.all(np.max(refills, axis=0) >= 2), (n, refills)
