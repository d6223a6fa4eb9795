import numpy as np
import pytest

from helpers import (
    hand_instance,
    random_boxed_lp,
    random_explicit_instance,
    small_mnl_instance,
    wide_logit_instance,
)
from oracles import cold_colgen, lp_enumerate
from reuselab import lp as lp_module
from reuselab.lp import (
    DegenerateStage,
    IterationLimit,
    LinearProgram,
    NumericalBreakdown,
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
from reuselab.lp import _certify_optimal, solve_lp_with_duals
from reuselab.mnl import make_assortment_pricing


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

    def test_optimality_check_names_each_fault(self):
        # max x1 + x2 s.t. x1 + x2 <= 1, x1 >= 0.25: optimum 1 at (1, 0),
        # duals (1, 0)
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 0.25])
        senses = ["<=", ">="]
        c = np.array([1.0, 1.0])
        x = np.array([1.0, 0.0])

        def faults(x, y, obj):
            return _certify_optimal(A, b, senses, c, x, np.array(y), obj)

        assert faults(x, [1.0, 0.0], 1.0) == []
        sign, gap = faults(x, [1.0, 0.5], 1.0)
        assert "wrong sign" in sign and "dual objective" in gap
        *rcs, gap = faults(x, [0.5, 0.0], 1.0)
        assert len(rcs) == 2 and all("reduced cost" in f for f in rcs)
        assert "dual objective" in gap
        (gap,) = faults(np.array([0.25, 0.0]), [1.0, 0.0], 1.0)
        assert "primal objective" in gap
        assert len(faults(x, [1.0, 0.0], 1.5)) == 2

    def test_premature_optimum_is_refused(self, monkeypatch):
        # a pivot loop that stops at once leaves a feasible but suboptimal
        # vertex: primal certification passes, the dual check must not
        monkeypatch.setattr(lp_module, "_pivot_loop", lambda tab, basis, banned: "optimal")
        lp = LinearProgram(c=[1.0, 1.0], A=[[1.0, 1.0]], senses=["<="], b=[1.0])
        with pytest.raises(NumericalBreakdown, match="reduced cost"):
            solve_lp(lp)
        hand = hand_instance()
        with pytest.raises(NumericalBreakdown, match="reduced cost"):
            solve_steady_state_colgen(hand, hand.arrival_weights())


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

    def test_tableau_cap(self):
        # at T = 1000 the 4000 rate variables pass the variable cap, but
        # 3001 rows make a 3002 x 7003 tableau: 168 MB
        inst = hand_instance(200)
        p = inst.arrival_weights()
        build_time_expanded_lp(inst, p)
        inst = hand_instance(1000)
        with pytest.raises(TooLarge, match="168 MB tableau"):
            build_time_expanded_lp(inst, p)


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

    def test_warm_master_matches_cold_reference(self):
        # the warm master pivots in another order than a cold re-solve, so
        # the optimum agrees to rounding, not bit for bit
        def check(inst, p, pricing=None):
            warm = solve_steady_state_colgen(inst, p, pricing=pricing)
            cold = cold_colgen(inst, p, pricing=pricing)
            assert warm.lambda_ == pytest.approx(cold.lambda_, rel=1e-12, abs=1e-300)
            assert warm.violations(inst, p) == []
            return warm

        rng = np.random.default_rng(77)
        for _ in range(8):
            inst = random_explicit_instance(rng)
            check(inst, inst.arrival_weights(), enumeration_pricing(inst))
            # a type that never arrives is never priced
            p = inst.arrival_weights().copy()
            p[0] = 0.0
            p /= p.sum()
            sol = check(inst, p, enumeration_pricing(inst))
            assert all(j != 0 or k == inst.actions.null_action for j, k in sol.x)
        mnl = small_mnl_instance()
        model = next(c.outcomes.model for c in mnl.customers if not c.outcomes.is_null)
        check(mnl, mnl.arrival_weights())
        check(mnl, mnl.arrival_weights(), make_assortment_pricing(model, mnl.durations()))
        wide = wide_logit_instance(15)
        assert wide.actions.size == 4944
        assert check(wide, wide.arrival_weights()).lambda_ > 0.0

    def test_matches_highs_over_every_column(self):
        optimize = pytest.importorskip("scipy.optimize")
        inst = wide_logit_instance(16)  # 6885 assortments of up to 5 products
        p = inst.arrival_weights()
        cg = solve_steady_state_colgen(inst, p)
        every = [(j, k) for j in range(inst.n_types) for k in inst.actions.all_actions()]
        full, _ = build_steady_state_lp(inst, p, columns=every)
        flip = np.where(np.asarray(full.senses) == ">=", -1.0, 1.0)
        ref = optimize.linprog(
            -full.c, A_ub=flip[:, None] * full.A, b_ub=flip * full.b,
            bounds=(0, None), method="highs",
        )
        assert ref.status == 0
        assert cg.lambda_ == pytest.approx(-ref.fun, abs=1e-7)

    def test_round_cap_must_allow_a_master(self, two_res):
        with pytest.raises(ValueError):
            solve_steady_state_colgen(two_res, two_res.arrival_weights(), max_rounds=0)

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
