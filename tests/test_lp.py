import dataclasses

import numpy as np
import pytest

from helpers import (
    hand_instance,
    random_boxed_lp,
    random_explicit_instance,
    random_planted_lp,
    small_mnl_instance,
    two_resource_instance,
    wide_logit_instance,
)
import oracles
from oracles import cold_colgen, enumeration_pricing, lp_enumerate, reference_solve_canonical
from reuselab import lp as lp_module
from reuselab.harness import GeneratorSpec, generate_instance
from reuselab.lp import (
    DegenerateStage,
    IterationLimit,
    LinearProgram,
    NumericalBreakdown,
    TooLarge,
    build_steady_state_lp,
    build_time_expanded_lp,
    dump_lp,
    solve_lp,
    solve_stage_lambda,
    solve_steady_state,
    solve_steady_state_colgen,
    solve_time_expanded,
)
from reuselab.lp import _certify_optimal, _live_block, _row_signs, solve_lp_with_duals
from reuselab.mnl import make_assortment_pricing
from reuselab.model import AssortmentActions, Instance


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
        # most negative reduced cost enters x2 first, which ties rows 1 and 2
        # at ratio 2; the lowest basic index sends row 1's slack out, and the
        # path ends at (0, 2, 0).  Bland's entering rule (x1 first) ends at
        # (1, 1, 1).
        lp = LinearProgram(
            c=[1.0, 2.0, 1.0],
            A=[[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            senses=["<=", "<=", "<="],
            b=[2.0, 2.0, 2.0],
        )
        sol, duals = solve_lp_with_duals(lp)
        assert sol.status == "optimal"
        assert sol.objective == 4.0
        assert sol.x.tolist() == [0.0, 2.0, 0.0]
        assert duals.tolist() == [0.0, 1.0, 1.0]
        assert reference_solve_canonical(lp, bland_after=0)[2].tolist() == [1.0, 1.0, 1.0]

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


def count_pivots(monkeypatch, module):
    """Count the calls a module makes to its ``_pivot``; returns a 1-list."""
    count = [0]
    pivot = module._pivot

    def counting(*args):
        count[0] += 1
        return pivot(*args)

    monkeypatch.setattr(module, "_pivot", counting)
    return count


class TestPricing:
    """Most-negative entering with a Bland fallback, against Bland's rule."""

    def test_agrees_with_bland(self):
        # another pivot path may end at another optimal vertex; the status
        # and objective must agree, and both answers are certified primal
        # and dual (each solve raises NumericalBreakdown otherwise)
        def check(lp):
            status, obj, _x, _duals = lp_module._solve_canonical(lp)
            ref_status, ref_obj, _x, _duals = reference_solve_canonical(lp, bland_after=0)
            assert status == ref_status, dump_lp(lp)
            if status == "optimal":
                assert obj == pytest.approx(ref_obj, rel=1e-12, abs=1e-12), dump_lp(lp)
            return status

        for seed in (1, 2):
            te = generate_instance(GeneratorSpec(seed=seed, base_horizon=6, n_customers=3))
            assert check(build_time_expanded_lp(te, te.arrival_weights())[0]) == "optimal"
        for seed in (1, 2, 3):
            inst = generate_instance(
                GeneratorSpec(seed=seed, n_products=5, max_size=2, n_customers=4)
            )
            assert check(build_steady_state_lp(inst, inst.arrival_weights())[0]) == "optimal"
        rng = np.random.default_rng(6060)
        statuses = [check(random_planted_lp(rng, phase_one=bool(i % 2))) for i in range(400)]
        assert statuses.count("optimal") >= 200

    def test_fewer_pivots_than_bland(self, monkeypatch):
        # a silent return to Bland's entering rule fails here
        te = generate_instance(GeneratorSpec(seed=1, base_horizon=8, n_customers=4))
        ss = generate_instance(
            GeneratorSpec(seed=1, n_products=7, max_size=3, n_customers=6)
        )
        ours = count_pivots(monkeypatch, lp_module)
        bland = count_pivots(monkeypatch, oracles)
        for lp in (
            build_time_expanded_lp(te, te.arrival_weights())[0],
            build_steady_state_lp(ss, ss.arrival_weights())[0],
        ):
            ours[0] = bland[0] = 0
            assert lp_module._solve_canonical(lp)[0] == "optimal"
            assert reference_solve_canonical(lp, bland_after=0)[0] == "optimal"
            assert 0 < 2 * ours[0] <= bland[0], (ours, bland)

    def test_beale_cycling_lp(self, monkeypatch):
        # Beale's LP cycles under the most-negative rule with lowest-index
        # ties; the Bland fallback breaks the cycle
        lp = LinearProgram(
            c=[0.75, -20.0, 0.5, -6.0],
            A=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
            senses=["<=", "<=", "<="],
            b=[0.0, 0.0, 1.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.25, abs=1e-12)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        monkeypatch.setattr(lp_module, "_MAX_PIVOTS", 1000)
        monkeypatch.setattr(lp_module, "_BLAND_AFTER", 1000)
        with pytest.raises(NumericalBreakdown, match="no convergence"):
            solve_lp(lp)

    def test_weak_pivot_ignores_entries_below_floor(self):
        # the column's best entry, 1e-10, is weak; the 1e-13 entry counts as
        # zero even though its ratio is smaller, and x = 1e10 leaves row 1
        # within its feasibility tolerance
        lp = LinearProgram(
            c=[1.0], A=[[1e-10], [1e-13]], senses=["<=", "<="], b=[1.0, 1e-3 - 5e-10]
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1e10, rel=1e-12)

    def test_repeated_weak_pivots_break_down(self):
        # each column's only entry is 1e-10: 50 weak pivots are tolerated,
        # the 51st is not
        def diagonal(n):
            return LinearProgram(np.ones(n), 1e-10 * np.eye(n), ["<="] * n, np.ones(n))

        assert solve_lp(diagonal(50)).objective == pytest.approx(50e10, rel=1e-12)
        with pytest.raises(NumericalBreakdown, match="below magnitude 1e-9"):
            solve_lp(diagonal(51))


@pytest.fixture()
def pinned_pivots(monkeypatch):
    """Run the oracle's pivot loop beside every call of the package's.

    Each call of ``lp._pivot_loop`` first runs ``oracles._pivot_loop`` on
    copies of its tableau, basis and banned mask, with each module's
    ``_pivot`` wrapped to record (row, col).  The two must take the same
    pivots, return the same status and leave tableaux equal in value (a
    zero may differ in sign).  Returns the pivot count of every call.
    """
    paths = {lp_module: [], oracles: []}
    for module, path in paths.items():
        def recording(tab, basis, row, col, *buf, pivot=module._pivot, path=path):
            path.append((row, col))
            return pivot(tab, basis, row, col, *buf)

        monkeypatch.setattr(module, "_pivot", recording)
    loop, counts = lp_module._pivot_loop, []

    def both(tab, basis, banned):
        ref_tab, ref_basis = tab.copy(), basis.copy()
        for path in paths.values():
            path.clear()
        ref_status = oracles._pivot_loop(
            ref_tab, ref_basis, banned.copy(), lp_module._BLAND_AFTER
        )
        status = loop(tab, basis, banned)
        assert paths[lp_module] == paths[oracles]
        assert status == ref_status
        assert np.array_equal(tab, ref_tab) and np.array_equal(basis, ref_basis)
        counts.append(len(paths[lp_module]))
        return status

    monkeypatch.setattr(lp_module, "_pivot_loop", both)
    return counts


class TestPivotPath:
    """The pivot kernel takes the full-tableau oracle's pivots, one by one."""

    def test_generated_lps(self, pinned_pivots):
        for seed in (1, 2):
            te, ss, cg = (
                generate_instance(GeneratorSpec(seed=seed, **fields))
                for fields in (
                    dict(base_horizon=8, n_customers=4),
                    dict(n_products=7, max_size=3, n_customers=6),
                    dict(n_products=8, max_size=3, n_customers=4),
                )
            )
            for lp in (
                build_time_expanded_lp(te, te.arrival_weights())[0],
                build_steady_state_lp(ss, ss.arrival_weights())[0],
            ):
                assert lp_module._solve_canonical(lp)[0] == "optimal"
            # warm restarts: each colgen round resumes from the last basis
            solve_steady_state_colgen(cg, cg.arrival_weights())
        assert len(pinned_pivots) > 6 and min(pinned_pivots) >= 0 and max(pinned_pivots) > 50

    @pytest.mark.parametrize("phase_one", [False, True])
    def test_random_planted_lps(self, pinned_pivots, phase_one):
        # with a phase 1, phase 2 runs with the artificials banned
        rng = np.random.default_rng(7070 + phase_one)
        statuses = [
            lp_module._solve_canonical(random_planted_lp(rng, phase_one))[0] for _ in range(300)
        ]
        assert statuses.count("optimal") >= 100 and statuses.count("unbounded") >= 10
        assert sum(pinned_pivots) > 300

    def test_long_degenerate_run(self, pinned_pivots):
        # Beale's LP cycles under Dantzig's rule: the loop makes
        # _BLAND_AFTER degenerate pivots before Bland's rule breaks the cycle
        lp = LinearProgram(
            c=[0.75, -20.0, 0.5, -6.0],
            A=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
            senses=["<=", "<=", "<="],
            b=[0.0, 0.0, 1.0],
        )
        assert solve_lp(lp).status == "optimal"
        assert pinned_pivots[0] > lp_module._BLAND_AFTER

    def test_zero_row_tableau(self, pinned_pivots):
        # no row is live: the tableau holds the objective row alone
        for c, status in (([1.0, -1.0], "unbounded"), ([-1.0, -2.0], "optimal")):
            lp = LinearProgram(c=c, A=[[0.0, 0.0]], senses=["<="], b=[1.0])
            assert not live_block(lp)[0].any()
            assert solve_lp(lp).status == status
        assert pinned_pivots == [0, 0]


def answer_bytes(answer):
    """Raw bytes of a (status, objective, x, duals) answer."""
    status, obj, x, duals = answer
    parts = [status.encode(), np.float64(obj).tobytes()]
    if x is not None:
        parts += [x.tobytes(), duals.tobytes()]
    return b"".join(parts)


def live_block(lp):
    """Live row and column masks of an LP without bounds."""
    _sign, _g, need_art = _row_signs(lp.b, np.asarray(lp.senses))
    return _live_block(lp.A, lp.c, need_art)


class TestLiveBlock:
    """The live-block kernel against the full-tableau reference kernel."""

    def assert_identical(self, lp):
        got = lp_module._solve_canonical(lp)
        assert answer_bytes(got) == answer_bytes(reference_solve_canonical(lp)), dump_lp(lp)
        return got

    def test_generated_lps_bit_identical(self):
        for seed in (1, 2):
            te = generate_instance(GeneratorSpec(seed=seed, base_horizon=6, n_customers=3))
            lp, _ = build_time_expanded_lp(te, te.arrival_weights())
            rows, cols = live_block(lp)
            # the null type's per-step rows and columns are dropped
            assert not rows.all() and not cols.all()
            assert self.assert_identical(lp)[0] == "optimal"
        for seed in (1, 2, 3):
            inst = generate_instance(
                GeneratorSpec(seed=seed, n_products=5, max_size=2, n_customers=4)
            )
            lp, _ = build_steady_state_lp(inst, inst.arrival_weights())
            rows, cols = live_block(lp)
            assert rows.sum() == lp.n_rows - 1 and not cols.all()
            assert self.assert_identical(lp)[0] == "optimal"

    def test_null_and_absent_types_bit_identical(self):
        # a null type and a type that never arrives (p_j = 0) are inert
        rng = np.random.default_rng(515)
        for inst in [two_resource_instance(), *(random_explicit_instance(rng) for _ in range(8))]:
            p = inst.arrival_weights()
            self.assert_identical(build_steady_state_lp(inst, p)[0])
            p = p.copy()
            p[1] = 0.0
            lp, _ = build_steady_state_lp(inst, p / p.sum())
            _rows, cols = live_block(lp)
            K = inst.actions.size
            assert not cols[:2 * K].any()  # type 0 (null) and type 1 (absent)
            self.assert_identical(lp)

    def test_random_planted_lps_bit_identical(self):
        rng = np.random.default_rng(8080)
        optimal = dropped = 0
        for _ in range(400):
            lp = random_planted_lp(rng, phase_one=False)
            status = self.assert_identical(lp)[0]
            optimal += status == "optimal"
            dropped += not live_block(lp)[1].all()
        assert optimal >= 200 and dropped >= 300

    def test_random_phase_one_lps_agree(self):
        # a phase-1 objective row is a BLAS product over the tableau, which
        # may round differently on the smaller matrix; the pivots, and so
        # the status and x, stay the same
        rng = np.random.default_rng(9090)
        optimal = 0
        for _ in range(400):
            lp = random_planted_lp(rng, phase_one=True)
            status, obj, x, duals = lp_module._solve_canonical(lp)
            ref_status, ref_obj, ref_x, ref_duals = reference_solve_canonical(lp)
            assert status == ref_status, dump_lp(lp)
            if status != "optimal":
                continue
            optimal += 1
            assert x.tobytes() == ref_x.tobytes(), dump_lp(lp)
            assert obj == pytest.approx(ref_obj, rel=1e-12, abs=1e-12)
            scale = max(1.0, float(np.abs(ref_duals).max()))
            np.testing.assert_allclose(duals, ref_duals, rtol=1e-12, atol=1e-12 * scale)
        assert optimal >= 100

    def test_nothing_live(self):
        # no cost and no artificial: an empty tableau, optimal at x = 0
        lp = LinearProgram(
            c=[0.0, 0.0], A=[[1.0, 1.0], [0.0, 2.0]], senses=["<=", ">="], b=[1.0, 0.0]
        )
        assert not live_block(lp)[0].any()
        status, obj, x, duals = self.assert_identical(lp)
        assert (status, obj, x.tolist()) == ("optimal", 0.0, [0.0, 0.0])

    def test_seeds_are_never_dropped(self):
        # a row that needs an artificial and a column with nonzero cost are
        # always live, and no nonzero links the live block to the rest
        rng = np.random.default_rng(4242)
        for _ in range(500):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            dense = rng.random((m, n)) < rng.uniform(0.05, 0.5)
            A = np.where(dense, rng.standard_normal((m, n)), 0.0)
            c = np.where(rng.random(n) < 0.2, rng.standard_normal(n), 0.0)
            senses = rng.choice(["<=", ">=", "=="], size=m, p=[0.5, 0.35, 0.15]).astype(str)
            b = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(-1.0, 2.0, size=m))
            _sign, _g, need_art = _row_signs(b, senses)
            rows, cols = _live_block(A, c, need_art)
            assert rows[need_art].all() and cols[c != 0.0].all()
            nz = A != 0.0
            assert not nz[np.ix_(rows, ~cols)].any()
            assert not nz[np.ix_(~rows, cols)].any()


class TestSetUpAndCertificate:
    def test_canonical_tableau_is_the_reference_in_value(self):
        # all three senses, negative rhs (artificials), zero rows and
        # zero-row LPs; a zero entry may differ in sign
        rng = np.random.default_rng(2525)
        artificials = zero_rows = empty = 0
        for _ in range(300):
            m, n = int(rng.integers(0, 7)), int(rng.integers(1, 7))
            A = np.where(rng.random((m, n)) < 0.3, 0.0, np.round(rng.standard_normal((m, n)), 3))
            A[rng.random(m) < 0.2] = 0.0
            senses = [str(s) for s in rng.choice(["<=", ">=", "=="], size=m)]
            b = np.round(rng.uniform(-1.0, 2.0, size=m), 3)
            b[rng.random(m) < 0.2] = 0.0
            tab, basis, start, g, n_real = lp_module._canonical_tableau(A, b, senses)
            ref = oracles._canonical_tableau(A, b, senses)
            assert np.array_equal(tab, ref[0]) and tab.shape == ref[0].shape
            for got, want in zip((basis, start, g), ref[1:4]):
                assert np.array_equal(got, want)
            assert n_real == ref[4]
            artificials += tab.shape[1] - 1 > n_real
            zero_rows += not A.any(axis=1).all()
            empty += m == 0
        assert artificials >= 100 and zero_rows >= 100 and empty >= 20

    def test_certify_messages(self):
        # violated rows in row order, then the bound faults; row 4 misses
        # its rhs by less than the feasibility tolerance
        lp = LinearProgram(
            c=[1.0, 0.0],
            A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0]],
            senses=["<=", ">=", "==", "<=", ">="],
            b=[1.0, 2.0, 0.5, 5.0, 1e-10],
            lower=[0.0, -1.0],
            upper=[1.5, 1.0],
        )
        assert lp_module._certify(lp, np.array([2.0, -2.0])) == [
            "row 0: np.float64(2.0) > np.float64(1.0)",
            "row 1: np.float64(-2.0) < np.float64(2.0)",
            "row 2: np.float64(0.0) != np.float64(0.5)",
            "lower bound violated",
            "upper bound violated",
        ]
        assert lp_module._certify(lp, np.array([0.5, 0.0])) == [
            "row 1: np.float64(0.0) < np.float64(2.0)",
        ]


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

    def test_dense_builder_is_the_per_column_loop_byte_for_byte(self, hand, two_res):
        def same(inst, p):
            got, cols = build_steady_state_lp(inst, p)
            ref, ref_cols = oracles.reference_build_steady_state_lp(inst, p)
            assert cols == ref_cols
            assert got.A.tobytes() == ref.A.tobytes()
            assert got.b.tobytes() == ref.b.tobytes() and got.c.tobytes() == ref.c.tobytes()
            assert got.senses == ref.senses

        rng = np.random.default_rng(41)
        insts = [hand, two_res] + [random_explicit_instance(rng) for _ in range(6)]
        for seed, spec in enumerate((
            dict(),
            dict(n_products=7, max_size=3, n_customers=6),
            dict(n_products=10, max_size=9, n_customers=3),
        )):
            insts.append(generate_instance(GeneratorSpec(seed=seed, **spec)))
        for inst in insts:
            p = inst.arrival_weights()
            same(inst, p)
            # the null type included, and a real type that never arrives
            q = p.copy()
            q[inst.null_type] = 0.0
            q[(inst.null_type + 1) % inst.n_types] = 0.0
            same(inst, q)

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

    def test_matches_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        inst = generate_instance(GeneratorSpec(seed=3, base_horizon=8, n_customers=4))
        p = inst.arrival_weights()
        lam, _y = solve_time_expanded(inst, p)
        lp, _ = build_time_expanded_lp(inst, p)
        flip = np.where(np.asarray(lp.senses) == ">=", -1.0, 1.0)
        ref = optimize.linprog(
            -lp.c, A_ub=flip[:, None] * lp.A, b_ub=flip * lp.b,
            bounds=(0, None), method="highs",
        )
        assert ref.status == 0
        assert lam == pytest.approx(-ref.fun, abs=1e-7)

    def test_first_step_blocks_are_the_steady_state_means(self):
        # size-3 assortments over 8 products: sums long enough for a dense
        # matrix product to round differently from the per-action means
        inst = generate_instance(
            GeneratorSpec(seed=0, n_products=8, max_size=3, n_customers=2, base_horizon=2)
        )
        p = inst.arrival_weights()
        te, actions = build_time_expanded_lp(inst, p)
        ss, _ = build_steady_state_lp(inst, p)
        R, C, J, K, T = inst.reward_count, inst.n_resources, inst.n_types, len(actions), 2
        surv = inst.survival_matrix(T)
        assert te.A[:R, : J * K].tobytes() == ss.A[:R, : J * K].tobytes()
        for j in range(J):
            for k, act in enumerate(actions):
                w, a = inst.customers[j].outcomes.means(act)
                col = j * K + k
                assert te.A[:R, col].tobytes() == (p[j] * w).tobytes()
                occupancy = te.A[R : R + C * T : T, col]   # each resource's t = 1 row
                assert occupancy.tobytes() == (surv[:, 0] * (p[j] * a)).tobytes()

    def test_builder_is_the_reference_loop_byte_for_byte(self, hand, two_res):
        def same(inst, p):
            got, actions = build_time_expanded_lp(inst, p)
            ref, ref_actions = oracles.reference_build_time_expanded_lp(inst, p)
            assert actions == ref_actions
            assert got.A.tobytes() == ref.A.tobytes()
            assert got.b.tobytes() == ref.b.tobytes() and got.c.tobytes() == ref.c.tobytes()
            assert got.senses == ref.senses

        rng = np.random.default_rng(43)
        insts = [hand, hand_instance(3), two_resource_instance(5)]
        insts += [random_explicit_instance(rng, horizon=int(rng.integers(2, 9))) for _ in range(4)]
        for seed, spec in enumerate((
            dict(base_horizon=6, n_customers=3),
            dict(base_horizon=3, n_products=5, max_size=3, n_customers=4),
            # every survival curve is longer than the horizon
            dict(base_horizon=5, n_customers=2, max_duration=16),
        )):
            insts.append(generate_instance(GeneratorSpec(seed=seed, **spec)))
        for inst in insts:
            p = inst.arrival_weights()
            same(inst, p)
            # a real type that never arrives
            q = p.copy()
            q[(inst.null_type + 1) % inst.n_types] = 0.0
            same(inst, q)

    def test_replace_copy_plans_as_a_fresh_instance(self):
        # a copy made by dataclasses.replace after the original planned
        # must plan with its own customers and action space
        def fresh(inst):
            return Instance(
                inst.resources, inst.reward_count, inst.customers, inst.actions,
                inst.horizon, inst.null_type,
            )

        a = generate_instance(GeneratorSpec(base_horizon=6, n_customers=3, seed=1))
        b = generate_instance(GeneratorSpec(base_horizon=6, n_customers=3, seed=2))
        solve_time_expanded(a, a.arrival_weights())
        copies = [
            dataclasses.replace(a, customers=b.customers, resources=b.resources),
            dataclasses.replace(a, actions=AssortmentActions(4, 1)),
        ]
        for copy in copies:
            p = copy.arrival_weights()
            lam, _y = solve_time_expanded(copy, p)
            assert lam == solve_time_expanded(fresh(copy), p)[0]
            assert lam >= solve_steady_state(copy, p).lambda_ - 1e-9

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

    def test_round_cap_carries_incumbent(self, two_res, monkeypatch):
        monkeypatch.setattr(lp_module, "_COLGEN_ROUNDS", 1)
        with pytest.raises(IterationLimit) as exc:
            solve_steady_state_colgen(two_res, two_res.arrival_weights())
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
