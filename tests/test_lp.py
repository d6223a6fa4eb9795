import numpy as np
import pytest

from helpers import hand_instance, random_boxed_lp, random_explicit_instance
from oracles import lp_enumerate
from reuselab.lp import (
    DegenerateStage,
    IterationLimit,
    LinearProgram,
    TooLarge,
    build_steady_state_lp,
    build_time_expanded_lp,
    dump_lp,
    enumeration_pricing,
    solve_lp,
    solve_stage_lambda,
    solve_steady_state,
    solve_steady_state_colgen,
    solve_time_expanded,
)
from reuselab.lp import solve_lp_with_duals


class TestSimplexCore:
    def test_fixed_boxed_lp_frozen_optimum(self):
        lp = LinearProgram(
            c=[1.0, 2.0, -1.0],
            A=[[1.0, 1.0, 0.0], [0.0, 1.0, 2.0], [1.0, -1.0, 1.0]],
            senses=["<=", ">=", "=="],
            b=[2.0, 1.0, 0.5],
            lower=[0.0, 0.0, -1.0],
            upper=[3.0, 3.0, 3.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.7, abs=1e-9)
        status, obj, _x = lp_enumerate(lp)
        assert status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(c=[1.0], A=[[1.0]], senses=["<="], b=[-1.0])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(c=[1.0], A=[[-1.0]], senses=["<="], b=[1.0])
        assert solve_lp(lp).status == "unbounded"

    def test_equality_rows(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            A=[[1.0, 1.0], [1.0, -1.0]],
            senses=["==", "=="],
            b=[1.0, 0.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [0.5, 0.5])

    def test_negative_rhs_and_lower_shift(self):
        # max x with x >= -2 and -x <= 1.5  =>  x in [-1.5...] wait: -x <= 1.5
        # means x >= -1.5; add x <= 2 to bound above.
        lp = LinearProgram(
            c=[1.0],
            A=[[-1.0]],
            senses=["<="],
            b=[1.5],
            lower=[-2.0],
            upper=[2.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0)

    def test_upper_bounds_bind(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            A=[[1.0, 0.0]],
            senses=["<="],
            b=[10.0],
            upper=[1.5, 0.5],
        )
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(2.0)

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], A=[[1.0, 2.0]], senses=["<="], b=[1.0])
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], A=[[1.0]], senses=["<"], b=[1.0])
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], A=[[1.0]], senses=["<=", "<="], b=[1.0])
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], A=[[1.0]], senses=["<="], b=[1.0], upper=[1.0, 2.0])
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], A=[[1.0]], senses=["<="], b=[np.nan])
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], A=[[np.inf]], senses=["<="], b=[1.0])

    def test_bland_tie_breaking_frozen(self):
        # max x1 + 2 x2 + x3 has optimum 4 at (1, 1, 1) and at (0, 2, 0).  The
        # first pivot (x1 enters, lowest index) ties rows 0 and 1 at ratio 2;
        # Bland's lowest basic index sends row 0's slack out, and the path
        # ends at (1, 1, 1).  Entering on the most negative reduced cost, or
        # breaking the tie toward the highest basic index, ends at (0, 2, 0).
        lp = LinearProgram(
            c=[1.0, 2.0, 1.0],
            A=[[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            senses=["<=", "<=", "<="],
            b=[2.0, 2.0, 2.0],
        )
        sol, duals = solve_lp_with_duals(lp)
        assert sol.status == "optimal"
        assert sol.objective == 4.0
        assert sol.x.tolist() == [1.0, 1.0, 1.0]
        # every x_j basic, every slack nonbasic: row duals of that basis
        assert duals.tolist() == [0.0, 1.0, 1.0]

    def test_fuzz_against_enumeration(self):
        rng = np.random.default_rng(424242)
        feasible = 0
        for _ in range(60):
            lp = random_boxed_lp(rng)
            ref_status, ref_obj, _ = lp_enumerate(lp)
            sol = solve_lp(lp)
            assert sol.status == ref_status, dump_lp(lp)
            if ref_status == "optimal":
                feasible += 1
                assert sol.objective == pytest.approx(ref_obj, abs=1e-8), dump_lp(lp)
        assert feasible >= 20  # the generator should not be degenerate


class TestDuals:
    def test_strong_duality_and_signs(self):
        # covers "==" rows (no slack; they start on an artificial) and
        # negative right-hand sides (the row is turned around); "==" duals
        # are free in sign
        rng = np.random.default_rng(31337)
        checked = flipped = 0
        while checked < 60:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            A = np.round(rng.standard_normal((m, n)), 3)
            b = np.round(rng.uniform(-1.0, 2.0, size=m), 3)
            senses = [str(s) for s in rng.choice(["<=", ">=", "=="], size=m, p=[0.5, 0.3, 0.2])]
            # bounding row keeps the problem finite without variable uppers
            A = np.vstack([A, np.ones(n)])
            b = np.concatenate([b, [4.0]])
            senses.append("<=")
            c = np.round(rng.standard_normal(n), 3)
            lp = LinearProgram(c, A, senses, b)
            sol, duals = solve_lp_with_duals(lp)
            if sol.status != "optimal":
                continue
            checked += 1
            flipped += "==" in senses or bool(np.any(b < 0))
            assert duals @ lp.b == pytest.approx(sol.objective, abs=1e-7)
            for s, y in zip(lp.senses, duals):
                if s == "<=":
                    assert y >= -1e-9
                elif s == ">=":
                    assert y <= 1e-9
            # dual feasibility: reduced costs of a max problem stay nonpositive
            assert np.all(lp.c - duals @ lp.A <= 1e-7)
        assert flipped >= 20


class TestSteadyStateLp:
    def test_hand_value(self, hand):
        sol = solve_steady_state(hand, hand.arrival_weights())
        assert sol.lambda_ == pytest.approx(0.5, abs=1e-9)
        assert sol.x[(1, 1)] == pytest.approx(0.5, abs=1e-9)

    def test_two_resource_value(self, two_res):
        sol = solve_steady_state(two_res, two_res.arrival_weights())
        assert sol.lambda_ == pytest.approx(121.0 / 450.0, abs=1e-9)
        assert sol.violations(two_res, two_res.arrival_weights()) == []

    def test_builder_row_layout(self, two_res):
        p = two_res.arrival_weights()
        lp, columns = build_steady_state_lp(two_res, p)
        R, C, J = two_res.reward_count, two_res.n_resources, two_res.n_types
        assert lp.senses == [">="] * R + ["<="] * C + ["<="] * J
        assert lp.n_vars == len(columns) + 1
        assert np.all(lp.A[:R, -1] == -1.0)
        assert np.all(lp.A[R:, -1] == 0.0)
        assert np.allclose(lp.b[R : R + C], two_res.capacities())
        assert np.all(lp.b[R + C :] == 1.0)
        assert np.all(lp.c[:-1] == 0.0) and lp.c[-1] == 1.0

    def test_rates_respect_constraints_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            inst = random_explicit_instance(rng)
            p = inst.arrival_weights()
            sol = solve_steady_state(inst, p)
            assert sol.violations(inst, p) == []
            assert sol.lambda_ >= -1e-12

    def test_stage_lambda_shrinks_by_margin(self, hand):
        est = solve_stage_lambda(hand, hand.arrival_weights(), margin=0.25)
        assert est.mu_star == pytest.approx(0.5, abs=1e-9)
        assert est.lambda_r == pytest.approx(0.4, abs=1e-9)

    def test_stage_lambda_degenerate(self, hand):
        with pytest.raises(DegenerateStage):
            solve_stage_lambda(hand, [1.0, 0.0], margin=0.1)


class TestTimeExpandedLp:
    def test_hand_values(self):
        for T, expect in ((4, 0.5), (5, 0.6)):
            inst = hand_instance(T)
            lam, y = solve_time_expanded(inst, inst.arrival_weights())
            assert lam == pytest.approx(expect, abs=1e-9)
            for (t, j, _k), v in y.items():
                assert 1 <= t <= T and 0 <= j < inst.n_types and v > 0

    def test_dominates_steady_state(self):
        rng = np.random.default_rng(123)
        for _ in range(6):
            inst = random_explicit_instance(rng, horizon=int(rng.integers(4, 12)))
            p = inst.arrival_weights()
            lam_ss = solve_steady_state(inst, p).lambda_
            lam_te, _ = solve_time_expanded(inst, p)
            assert lam_te >= lam_ss - 1e-7 * (1.0 + abs(lam_ss))

    def test_size_cap(self, hand):
        with pytest.raises(TooLarge):
            build_time_expanded_lp(hand, hand.arrival_weights(), cap=3)


class TestColumnGeneration:
    def test_matches_dense_on_fixtures(self, hand, two_res):
        for inst in (hand, two_res):
            p = inst.arrival_weights()
            dense = solve_steady_state(inst, p)
            cg = solve_steady_state_colgen(inst, p)
            assert cg.lambda_ == pytest.approx(dense.lambda_, abs=1e-8)

    def test_matches_dense_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            inst = random_explicit_instance(rng)
            p = inst.arrival_weights()
            dense = solve_steady_state(inst, p)
            cg = solve_steady_state_colgen(inst, p, pricing=enumeration_pricing(inst))
            assert cg.lambda_ == pytest.approx(dense.lambda_, abs=1e-8)

    def test_round_cap_carries_incumbent(self, two_res):
        with pytest.raises(IterationLimit) as exc:
            solve_steady_state_colgen(two_res, two_res.arrival_weights(), max_rounds=1)
        assert exc.value.incumbent is not None
        assert exc.value.incumbent.lambda_ == pytest.approx(0.0, abs=1e-9)


class TestDump:
    def test_golden_text(self):
        lp = LinearProgram(
            c=[1.0, -0.5],
            A=[[2.0, 1.0]],
            senses=["<="],
            b=[3.0],
            lower=[0.0, -1.0],
            upper=[2.0, 2.0],
        )
        assert dump_lp(lp) == (
            "max 1.0 -0.5\n"
            "2.0 1.0 <= 3.0\n"
            "lb: 0.0 -1.0\n"
            "ub: 2.0 2.0\n"
        )
