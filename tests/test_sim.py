import numpy as np
import pytest

from helpers import hand_instance, random_explicit_instance, two_resource_instance
from reuselab.model import (
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    OutcomeModel,
    ResourceSpec,
    SurvivalCurve,
    zero_outcomes,
)
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
