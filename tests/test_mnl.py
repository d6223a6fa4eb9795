import itertools
import math

import numpy as np
import pytest

from helpers import random_mnl_model, small_mnl_instance, wide_logit_instance
from oracles import (
    enumerate_best_assortment,
    lp_best_assortment,
    membership_matrix,
    reference_mnl_sample,
    reference_sample_uniform,
)
from reuselab import mnl
from reuselab.lp import TooLarge, solve_steady_state, solve_steady_state_colgen
from reuselab.mnl import (
    MnlModel,
    MnlOutcomes,
    best_assortment,
    build_mnl_instance,
    make_assortment_pricing,
)
from reuselab.model import AssortmentActions, SurvivalCurve, validate_instance


def tiny_model():
    return MnlModel(
        features=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        cust_features=[
            [[0.2, 0.1], [0.3, -0.2], [0.0, 0.4]],
            [[-0.1, 0.5], [0.2, 0.2], [0.3, 0.0]],
        ],
        max_size=2,
        prices=[1.0, 2.0, 1.5],
    )


class TestModel:
    def test_attractions_formula(self):
        m = tiny_model()
        for j in range(m.n_customers):
            for i in range(m.n_products):
                expect = math.exp(float(np.dot(m.cust_features[j, i], m.features[i])))
                assert m.attractions[j, i] == pytest.approx(expect, rel=1e-12)
        # the pricing oracle's plain-float copy, built once on first use
        assert m.attraction_rows == m.attractions.tolist()
        assert m.attraction_rows is m.attraction_rows

    def test_choice_probabilities(self):
        m = tiny_model()
        q = m.choice_probability(0, (0, 2))
        v = m.attractions[0]
        denom = 1.0 + v[0] + v[2]
        assert q[0] == pytest.approx(v[0] / denom)
        assert q[2] == pytest.approx(v[2] / denom)
        assert q[1] == 0.0
        assert q.sum() < 1.0
        assert np.all(m.choice_probability(0, ()) == 0.0)

    def test_mean_outcomes_scale_by_price(self):
        m = tiny_model()
        w, a = m.mean_outcomes(1, (1,))
        q = m.choice_probability(1, (1,))
        assert np.allclose(w, m.prices * q)
        assert np.allclose(a, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            MnlModel(np.ones((2, 2)), np.ones((1, 3, 2)), 1)
        with pytest.raises(ValueError):
            MnlModel(np.ones((2, 2)), np.ones((1, 2, 2)), 0)
        with pytest.raises(ValueError):
            MnlModel(np.ones((2, 2)), np.ones((1, 2, 2)), 1, prices=[-1.0, 1.0])

    @pytest.mark.parametrize("field, value", [
        ("prices", [np.nan, 1.0]),
        ("prices", [np.inf, 1.0]),
        ("features", [[np.nan, 1.0], [1.0, 1.0]]),
        ("cust_features", [[[1.0, 1.0], [np.inf, 1.0]]]),
        ("features", [[800.0, 0.0], [1.0, 1.0]]),  # exp overflows
    ])
    def test_rejects_non_finite_inputs(self, field, value):
        args = {
            "features": np.ones((2, 2)),
            "cust_features": np.ones((1, 2, 2)),
            "max_size": 1,
            "prices": [1.0, 1.0],
        }
        args[field] = value
        with pytest.raises(ValueError, match="finite"):
            MnlModel(**args)

    def test_max_size_clipped_to_product_count(self):
        m = MnlModel(np.ones((2, 1)), np.zeros((1, 2, 1)), 5)
        assert m.max_size == 2


class TestBestAssortment:
    def test_all_nonnegative_coefficients_give_empty(self):
        m = tiny_model()
        assert best_assortment(m, 0, [0.5, 0.0, 1.0]) == ()

    def test_matches_enumeration_fuzz(self):
        rng = np.random.default_rng(505)
        for _ in range(120):
            m = random_mnl_model(rng)
            j = int(rng.integers(0, m.n_customers))
            coef = rng.standard_normal(m.n_products)
            got = best_assortment(m, j, coef)
            assert got == enumerate_best_assortment(m, j, coef)
            assert got == lp_best_assortment(m, j, coef)
            assert best_assortment(m, j, coef.tolist()) == got

    def test_respects_size_cap(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            m = random_mnl_model(rng)
            coef = -rng.random(m.n_products)  # everything attractive
            got = best_assortment(m, 0, coef)
            assert len(got) <= m.max_size
            assert got == enumerate_best_assortment(m, 0, coef)

    def test_bad_coef_shape(self):
        # wrong-length lists and arrays, and 2-D arrays (tiny_model has 3 products)
        bad = [[1.0], [-1.0] * 4, np.array([-1.0]), -np.ones((3, 1)), -np.ones((1, 3))]
        for coef in bad:
            with pytest.raises(ValueError, match="^one coefficient per product required$"):
                best_assortment(tiny_model(), 0, coef)


class TestPricing:
    def test_null_customer_prices_to_empty(self):
        m = tiny_model()
        pricing = make_assortment_pricing(m, durations=[1.0, 1.0, 1.0])
        s, w, a = pricing(m.n_customers, np.ones(3), np.ones(3))
        assert s == ()
        assert np.all(w == 0.0) and np.all(a == 0.0)

    def test_matches_direct_coefficients(self):
        m = tiny_model()
        d = np.array([1.5, 1.0, 2.0])
        pricing = make_assortment_pricing(m, d)
        rng = np.random.default_rng(7)
        for _ in range(25):
            alpha = rng.random(3)
            rho = rng.random(3)
            s, w, a = pricing(1, alpha, rho)
            coef = alpha * d - rho * m.prices
            assert s == enumerate_best_assortment(m, 1, coef)
            ww, aa = m.mean_outcomes(1, s)
            assert np.allclose(w, ww) and np.allclose(a, aa)

    def test_best_action_coefficients_are_numpy_bytes(self, monkeypatch):
        # best_action reads the model's cached price list; its coefficients
        # are the bytes of numpy's cost - prices * credit
        m = tiny_model()
        seen = []
        monkeypatch.setattr(
            mnl, "best_assortment", lambda model, j, coef: seen.append(coef) or ()
        )
        om = MnlOutcomes(m, 1)
        rng = np.random.default_rng(11)
        for _ in range(25):
            cost, credit = rng.random(3), rng.random(3) * 3.0
            om.best_action(m.action_space(), cost, credit)
            assert np.array(seen.pop()).tobytes() == (cost - m.prices * credit).tobytes()
        assert m.price_list == m.prices.tolist()
        assert m.price_list is m.price_list


class TestEnumeration:
    def test_counts_and_order(self):
        space = AssortmentActions(4, 2)
        acts = space.all_actions()
        assert len(acts) == space.size == 1 + 4 + 6
        assert acts[0] == ()
        # size-major, then lexicographic
        assert acts == sorted(acts, key=lambda s: (len(s), s))


class TestOutcomes:
    def test_null_customer(self):
        om = MnlOutcomes(tiny_model(), None)
        assert om.is_null
        w, a = om.means((0, 1))
        assert np.all(w == 0.0) and np.all(a == 0.0)
        assert om.bounds() == (0.0, 0.0)

    def test_consumption_bound_is_membership(self):
        om = MnlOutcomes(tiny_model(), 0)
        assert np.allclose(om.consumption_bound((0, 2)), [1.0, 0.0, 1.0])
        assert np.all(om.consumption_bound(()) == 0.0)

    def test_bounds(self):
        om = MnlOutcomes(tiny_model(), 1)
        assert om.bounds() == (2.0, 1.0)

    def test_sample_frequencies_match_choice_probabilities(self):
        m = tiny_model()
        om = MnlOutcomes(m, 0)
        rng = np.random.default_rng(11)
        S = (0, 1, 2)[:2]
        q = m.choice_probability(0, S)
        n = 20000
        buys = np.zeros(m.n_products)
        for _ in range(n):
            w, a = om.sample(S, rng)
            buys += a
            # single-unit purchase at the listed price
            assert a.sum() in (0.0, 1.0)
            if a.sum():
                i = int(np.argmax(a))
                assert w[i] == m.prices[i]
        assert np.allclose(buys / n, q, atol=0.02)

    def test_sample_is_draw_for_draw_the_full_vector_formula(self):
        # one stream through the live sampler, a copy through the formula
        # rebuilt per call (full N-vector, fancy index), over random
        # assortments of every size and every customer, null included
        model = random_mnl_model(np.random.default_rng(8), max_products=7, n_customers=3)
        oms = [MnlOutcomes(model, c) for c in (0, 1, 2, None)]
        pick = np.random.default_rng(9)
        rng, ref = np.random.default_rng(10), np.random.default_rng(10)
        for _ in range(10_000):
            om = oms[int(pick.integers(len(oms)))]
            size = int(pick.integers(model.max_size + 1))
            S = tuple(sorted(pick.choice(model.n_products, size=size, replace=False).tolist()))
            w, a = om.sample(S, rng)
            w_ref, a_ref = reference_mnl_sample(om, S, ref)
            assert w.tobytes() == w_ref.tobytes() and a.tobytes() == a_ref.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_sample_picks_agree_on_the_breakpoints(self):
        # uniforms placed exactly on the formula's cumulative probabilities
        # (and one ulp below): any float difference flips a pick
        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        model = random_mnl_model(np.random.default_rng(12), max_products=8, n_customers=2)
        pick = np.random.default_rng(13)
        for _ in range(300):
            om = MnlOutcomes(model, int(pick.integers(2)))
            size = int(pick.integers(1, model.max_size + 1))
            S = tuple(sorted(pick.choice(model.n_products, size=size, replace=False).tolist()))
            cum = np.cumsum(model.choice_probability(om.customer, S)[list(S)])
            for u in np.concatenate([cum, np.nextafter(cum, 0.0)]).tolist():
                _w, a = om.sample(S, Fixed(u))
                _w_ref, a_ref = reference_mnl_sample(om, S, Fixed(u))
                assert a.tobytes() == a_ref.tobytes(), (S, u)

    def test_sample_cache_stays_bounded_under_uniform_play(self):
        # 4944 assortments: uniform play keeps offering new ones, and each
        # customer's cache of cumulative probabilities must not keep them all
        inst = wide_logit_instance(15)
        oms = [c.outcomes for c in inst.customers[:2]]
        pick = np.random.default_rng(4)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for n in range(3000):
            om = oms[n % 2]
            S = inst.actions.sample_uniform(pick)
            w, a = om.sample(S, rng)
            w_ref, a_ref = reference_mnl_sample(om, S, ref)
            assert w.tobytes() == w_ref.tobytes() and a.tobytes() == a_ref.tobytes()
            assert len(om._cum) <= mnl._CUM_CACHE
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_sample_returns_shared_read_only_arrays(self):
        # one pair per product plus the zero pair, built once per model and
        # shared by all its customers: a write fails instead of changing
        # every later draw
        m = tiny_model()
        rng = np.random.default_rng(3)
        table = m.outcome_table()
        assert len(table) == m.n_products + 1
        for om in (MnlOutcomes(m, 0), MnlOutcomes(m, 1), MnlOutcomes(m, None)):
            for S in ((), (0,), (1, 2), (0, 2)):
                for _ in range(20):
                    w, a = om.sample(S, rng)
                    assert any(w is tw and a is ta for tw, ta in table)
                    for arr in (w, a):
                        with pytest.raises(ValueError, match="read-only"):
                            arr[0] = 5.0
        assert m.outcome_table() is table
        for i, (w, a) in enumerate(table[:-1]):
            assert a.tolist() == np.eye(m.n_products)[i].tolist()
            assert w.tolist() == (m.prices * a).tolist()
        assert not table[-1][0].any() and not table[-1][1].any()

    def test_sample_empty_assortment_never_buys(self):
        om = MnlOutcomes(tiny_model(), 0)
        rng = np.random.default_rng(1)
        w, a = om.sample((), rng)
        assert np.all(w == 0.0) and np.all(a == 0.0)

    def test_mean_matrix_matches_per_action_means(self):
        # sizes up to 12 reach numpy's unrolled pairwise sums (8 and over)
        rng = np.random.default_rng(17)
        models = [tiny_model()]
        while len(models) < 12:
            m = random_mnl_model(rng, max_products=12, max_size=12)
            if m.action_space().size <= 4096:
                models.append(m)
        assert max(m.max_size for m in models) >= 9
        for m in models:
            space = m.action_space()
            for customer in (0, 1, None):
                om = MnlOutcomes(m, customer)
                W, A = om.mean_matrix(space)
                for k, act in enumerate(space.all_actions()):
                    w, a = om.means(act)
                    assert W[:, k].tobytes() == w.tobytes(), (m, customer, act)
                    assert A[:, k].tobytes() == a.tobytes(), (m, customer, act)

    def test_mean_matrix_cap(self):
        m = random_mnl_model(np.random.default_rng(0), max_products=8, max_size=1)
        om = MnlOutcomes(m, 0)

        class Huge:
            size = 10**9

        with pytest.raises(TooLarge):
            om.mean_matrix(Huge())

    def test_customer_index_checked(self):
        with pytest.raises(ValueError):
            MnlOutcomes(tiny_model(), 5)


class TestInstance:
    def test_build_and_validate(self, mnl_inst):
        assert validate_instance(mnl_inst) == []
        assert mnl_inst.null_type == mnl_inst.n_types - 1
        assert mnl_inst.reward_count == mnl_inst.n_resources == 3
        assert mnl_inst.w_max == 2.0 and mnl_inst.a_max == 1.0

    def test_weight_shape_checked(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            build_mnl_instance(
                m,
                capacities=[1.0, 1.0, 1.0],
                survival_curves=[SurvivalCurve([1.0])] * 3,
                horizon=4,
                arrival_weights=[0.5, 0.5],  # missing the null entry
            )

    def test_colgen_matches_dense(self, mnl_inst):
        p = mnl_inst.arrival_weights()
        dense = solve_steady_state(mnl_inst, p)
        pricing = make_assortment_pricing(
            next(c.outcomes.model for c in mnl_inst.customers if not c.outcomes.is_null),
            mnl_inst.durations(),
        )
        cg = solve_steady_state_colgen(mnl_inst, p, pricing=pricing)
        assert cg.lambda_ == pytest.approx(dense.lambda_, abs=1e-8)
        # default pricing: each type's own outcome model
        cg = solve_steady_state_colgen(mnl_inst, p)
        assert cg.lambda_ == pytest.approx(dense.lambda_, abs=1e-8)


class TestAssortmentActions:
    def test_uniform_sampling_covers_space(self):
        space = AssortmentActions(4, 2)
        rng = np.random.default_rng(3)
        counts = {a: 0 for a in space.all_actions()}
        n = 22000
        for _ in range(n):
            counts[space.sample_uniform(rng)] += 1
        expect = n / space.size
        for a, cnt in counts.items():
            assert abs(cnt - expect) < 5 * math.sqrt(expect), a

    def test_uniform_sampling_is_draw_for_draw_the_rebuilt_weights(self):
        # (n, n) covers Floyd's first bound 0, which draws nothing
        for n, m in ((1, 1), (2, 2), (4, 4), (4, 2), (7, 3), (5, 5), (12, 4), (15, 5), (20, 3)):
            space = AssortmentActions(n, m)
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(10_000):
                assert space.sample_uniform(rng) == reference_sample_uniform(space, ref)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_membership_matrix(self):
        for n, m in ((3, 2), (5, 5), (9, 4)):
            space = AssortmentActions(n, m)
            mm = np.zeros((n, space.size))
            start = 1
            for sz, (first, products) in enumerate(space.size_blocks(), start=1):
                assert first == start and products.shape == (math.comb(n, sz), sz)
                start += len(products)
                mm[products, np.arange(first, start)[:, None]] = 1.0
            assert start == space.size
            assert np.array_equal(mm, membership_matrix(space))
            assert space.size_blocks() is space.size_blocks()
