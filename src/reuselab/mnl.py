"""Multinomial-logit demand with capped-cardinality assortments.

Products double as resources (index i is both the consumption and the
reward index): offering assortment S to customer j yields a purchase of at
most one product, product i with probability v_ij / (1 + sum_{l in S} v_lj)
where v_ij = exp(b_ij @ f_i) for product features f_i and customer taste
vectors b_ij.  A purchase consumes one unit of the product for a random
duration and earns its price.

Assortment optimization minimizes a linear function
sum_{i in S} coef_i q_i(S) over assortments of size at most n.  That
problem is solved exactly by sorting and a fixed-point iteration on the
optimal value (Rusmevichientong, Shen & Shmoys, Oper. Res. 2010), so
neither enumeration nor an LP is needed.  When at most one product has a
negative coefficient, :func:`best_assortment` returns the loop's answer
without running it: the empty assortment, or the one candidate when its
revenue is positive.  On top of it,
:meth:`MnlOutcomes.best_action` is a logit type's pricing oracle for
column generation and for the adaptive policy's per-arrival choice: each
type prices as its own logit customer, wherever it sits in the instance.
:meth:`MnlOutcomes.mean_tables` builds the mean tables the planning LPs
are built from, for every logit customer of an instance in one array
pass per assortment size, in the arithmetic of
:meth:`MnlModel.choice_probability`, so each of its columns equals
:meth:`MnlOutcomes.means` byte for byte; :meth:`MnlOutcomes.mean_matrix`
is its one-customer case.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

import numpy as np

from .lp import ENUMERATION_CAP, TooLarge
from .model import (
    AssortmentActions,
    CustomerType,
    Instance,
    OutcomeModel,
    ResourceSpec,
)

__all__ = [
    "MnlModel",
    "MnlOutcomes",
    "best_assortment",
    "make_assortment_pricing",
    "build_mnl_instance",
]


# Assortments whose cumulative purchase probabilities one customer keeps;
# the cache is emptied when full, so uniform play over a large space holds
# at most this many.
_CUM_CACHE = 64


class MnlModel:
    """Logit attraction table plus prices and the assortment size cap.

    features: (N, F) product feature vectors.
    cust_features: (J, N, F) taste vectors, one per (customer, product).
    max_size: largest assortment a policy may offer.
    prices: (N,) per-unit rewards; defaults to all ones.

    ``attraction_rows`` is ``attractions.tolist()``, read once for
    :func:`best_assortment`'s per-arrival loop, and ``price_list`` is
    ``prices.tolist()``, read by :meth:`MnlOutcomes.best_action`.  Both are
    built on first use, so a model that is never priced (static or uniform
    play) holds no copy.
    """

    def __init__(self, features, cust_features, max_size, prices=None):
        self.features = np.asarray(features, dtype=float)
        self.cust_features = np.asarray(cust_features, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be (n_products, n_features)")
        n, f = self.features.shape
        if self.cust_features.ndim != 3 or self.cust_features.shape[1:] != (n, f):
            raise ValueError("cust_features must be (n_customers, n_products, n_features)")
        if not 1 <= int(max_size):
            raise ValueError("max_size must be at least 1")
        self.max_size = min(int(max_size), n)
        if prices is None:
            prices = np.ones(n)
        self.prices = np.asarray(prices, dtype=float)
        if self.prices.shape != (n,) or not ((0 <= self.prices) & (self.prices < np.inf)).all():
            raise ValueError("prices must be a finite nonnegative length-N vector")
        self._max_price = float(self.prices.max()) if n else 0.0   # every customer's w_max
        # attraction v_ij = exp(b_ij @ f_i), strictly positive
        with np.errstate(over="ignore", invalid="ignore"):
            self.attractions = np.exp(
                np.einsum("jnf,nf->jn", self.cust_features, self.features)
            )
        if not np.isfinite(self.attractions).all():
            raise ValueError("features and cust_features must give finite attractions exp(b @ f)")
        self._outcome_table = None

    @cached_property
    def attraction_rows(self) -> list:
        return self.attractions.tolist()

    @cached_property
    def price_list(self) -> list:
        return self.prices.tolist()

    @property
    def n_products(self) -> int:
        return self.features.shape[0]

    @property
    def n_customers(self) -> int:
        return self.cust_features.shape[0]

    def action_space(self) -> AssortmentActions:
        return AssortmentActions(self.n_products, self.max_size)

    def choice_probability(self, customer: int, assortment) -> np.ndarray:
        """Purchase probability per product under the offered assortment."""
        q = np.zeros(self.n_products)
        if len(assortment) == 0:
            return q
        idx = np.fromiter(assortment, dtype=int)
        v = self.attractions[customer, idx]
        q[idx] = v / (1.0 + v.sum())
        return q

    def mean_outcomes(self, customer: int, assortment):
        """(expected reward, expected consumption) per product index."""
        q = self.choice_probability(customer, assortment)
        return self.prices * q, q

    def outcome_table(self) -> list:
        """Every (reward, consumption) a sale can realize, as read-only arrays.

        Entry i is product i's pair (reward: its price at index i;
        consumption: a one at index i; zeros elsewhere) and the last entry
        is the no-sale pair of zeros.  The
        table is built on first use and shared by every customer and draw:
        an outcome depends only on the product bought and its price.
        """
        if self._outcome_table is None:
            n = self.n_products
            eye = np.eye(n + 1, n)
            w, a = self.prices * eye, eye
            w.setflags(write=False)
            a.setflags(write=False)
            self._outcome_table = list(zip(w, a))
        return self._outcome_table

    def __eq__(self, other):
        return (
            isinstance(other, MnlModel)
            and self.max_size == other.max_size
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.cust_features, other.cust_features)
            and np.array_equal(self.prices, other.prices)
        )

    def __repr__(self):
        return (
            f"MnlModel(n_products={self.n_products}, "
            f"n_customers={self.n_customers}, max_size={self.max_size})"
        )


def best_assortment(model: MnlModel, customer: int, coef) -> tuple:
    """Assortment of size <= max_size minimizing sum_{i in S} coef_i q_i(S).

    Products with nonnegative coefficients are dropped up front (including
    one can never lower the objective: it contributes a nonnegative term
    and only dilutes the others).  With r = -coef the rest maximizes the
    revenue R(S) = sum_{i in S} v_i r_i / (1 + sum_{i in S} v_i), and
    max_S R(S) >= z exactly when some S has sum_{i in S} v_i (r_i - z) >= z.
    Starting from z = 0, each round takes the top-n products by
    v_i (r_i - z) among those scoring positive and moves z to that set's
    revenue; z rises strictly until it reaches the optimum, and the set
    that attained it is returned as a sorted tuple.

    With no candidate the answer is ``()``, and with one candidate i it is
    ``(i,)`` exactly when v_i r_i / (1 + v_i) > 0, the float the loop's
    first round computes and its second round confirms; both are returned
    without the loop.  A subnormal r_i can make that value 0, and then
    the answer is ``()``, as the loop's.

    ``coef`` is a list of floats, used as it is once its length is
    checked (the per-arrival path builds one), or anything
    ``np.asarray`` takes to a length-N float vector.
    """
    if isinstance(coef, list):
        if len(coef) != model.n_products:
            raise ValueError("one coefficient per product required")
    else:
        coef = np.asarray(coef, dtype=float)
        if coef.shape != (model.n_products,):
            raise ValueError("one coefficient per product required")
        coef = coef.tolist()
    # (product, v_i, v_i r_i) per product worth offering, as plain floats:
    # catalogues are small enough that numpy's per-call overhead would
    # dominate the sort (and a generator's would the sums, hence lists)
    cands = [
        (i, v, -c * v)
        for i, (c, v) in enumerate(zip(coef, model.attraction_rows[customer]))
        if c < 0.0
    ]
    # the loop's answer at fewer than two candidates: its first round's
    # value is this same float, and its second round stops on it
    if not cands:
        return ()
    if len(cands) == 1:
        i, v, vr = cands[0]
        return (i,) if vr / (1.0 + v) > 0.0 else ()
    n = model.max_size
    best, z = [], 0.0
    while True:
        ranked = sorted(cands, key=lambda p: z * p[1] - p[2])  # stable: ties by index
        top = [p for p in ranked[:n] if p[2] - z * p[1] > 0.0]
        val = sum([p[2] for p in top]) / (1.0 + sum([p[1] for p in top]))
        if val <= z:
            break
        best, z = top, val
    return tuple(sorted([p[0] for p in best]))


def make_assortment_pricing(model: MnlModel, durations):
    """Column-generation pricing oracle for types in logit-table order.

    Type j prices as logit customer j through :meth:`MnlOutcomes.best_action`
    and types past the table as the no-purchase type: the order
    :func:`build_mnl_instance` lays out.  Column generation's default
    pricing asks each type's own outcome model, which needs no such order.
    """
    d = np.asarray(durations, dtype=float)
    space = model.action_space()
    outcomes = [MnlOutcomes(model, j) for j in range(model.n_customers)]
    null = MnlOutcomes(model, None)

    def pricing(j, alpha, rho):
        om = outcomes[j] if j < len(outcomes) else null
        s = om.best_action(space, alpha * d, rho)
        return (s, *om.means(s))

    return pricing


class MnlOutcomes(OutcomeModel):
    """Choice outcomes of one logit customer (or of the no-purchase type).

    Consumption is the one-hot indicator of the purchased product (all
    zeros when the outside option wins) and reward is price times that
    indicator, so both caps are small: a_max = 1, w_max = max price.
    ``customer=None`` builds the never-purchasing null model.
    """

    def __init__(self, model: MnlModel, customer: int | None):
        self.model = model
        self.customer = customer
        self._cum: dict = {}   # assortment -> cumulative purchase probabilities
        if customer is not None and not 0 <= customer < model.n_customers:
            raise ValueError("customer index out of range")

    @property
    def is_null(self) -> bool:
        return self.customer is None

    def means(self, action):
        n = self.model.n_products
        if self.customer is None:
            return np.zeros(n), np.zeros(n)
        return self.model.mean_outcomes(self.customer, action)

    def sample(self, action, rng):
        """One purchase draw, as a read-only pair of :meth:`MnlModel.outcome_table`.

        Every draw returns the model's shared arrays (the bought product's
        pair, or the zero pair when nothing is bought), never a copy, so a
        caller that wants to change one must copy it first.
        """
        table = self.model.outcome_table()
        if self.customer is None or len(action) == 0:
            return table[-1]
        # choice_probability restricted to the offered products, in order,
        # accumulated once per assortment
        cum = self._cum.get(action)
        if cum is None:
            v = self.model.attractions[self.customer, list(action)]
            cum = (v / (1.0 + v.sum())).cumsum().tolist()
            if len(self._cum) >= _CUM_CACHE:
                self._cum.clear()
            self._cum[action] = cum
        pick = bisect_right(cum, rng.random())
        return table[action[pick]] if pick < len(action) else table[-1]

    def consumption_bound(self, action):
        out = np.zeros(self.model.n_products)
        if self.customer is not None and len(action):
            out[np.fromiter(action, dtype=int)] = 1.0
        return out

    def bounds(self):
        if self.customer is None:
            return 0.0, 0.0
        return self.model._max_price, 1.0

    def best_action(self, space, cost, credit):
        """:func:`best_assortment` on coefficients cost_i - price_i credit_i.

        The coefficients are formed as a list of Python floats: the same
        two rounded operations per product as numpy's
        ``cost - prices * credit``, without its per-call overhead.
        """
        if self.customer is None:
            return space.null_action
        coef = [
            c - p * r
            for c, p, r in zip(cost.tolist(), self.model.price_list, credit.tolist())
        ]
        return best_assortment(self.model, self.customer, coef)

    def mean_matrix(self, space):
        return self.mean_tables([self], space)

    @classmethod
    def mean_tables(cls, models, space):
        """The mean tables of every customer in ``models`` in one pass.

        The customers may belong to different logit models over the same
        products.  Each column is q = v / (1 + sum of v over the
        assortment) on the offered products and 0 elsewhere, W = price * q:
        the arithmetic of :meth:`MnlModel.choice_probability` and
        :meth:`MnlModel.mean_outcomes`, so every column equals ``means``
        of its assortment byte for byte.  A null customer has attractions
        0, so its columns are 0.

        The sums go one assortment size at a time over a (customers, count,
        size) gather that ``np.take`` lays out C-contiguous.  numpy then
        reduces each row by its 1-D pairwise loop, the one ``v.sum()``
        runs.  A gather ``att[:, idx]`` puts the customer axis innermost
        instead, and numpy then adds the terms one at a time across rows,
        which rounds differently from 8 terms on.
        """
        if space.size > ENUMERATION_CAP:
            raise TooLarge(
                f"mean tables over {space.size} assortments exceed the cap"
            )
        n, m, k = space.n_products, len(models), space.size
        att = np.zeros((m, n))
        for i, om in enumerate(models):
            if om.customer is not None:
                att[i] = om.model.attractions[om.customer]
        tot = np.zeros((m, k))      # each assortment's attraction sum, per customer
        offered = np.zeros((n, k))  # 1 where assortment k offers product i
        for start, idx in space.size_blocks():
            cols = np.arange(start, start + idx.shape[0])
            tot[:, cols] = np.take(att, idx, axis=1).sum(axis=2)
            offered[idx, cols[:, None]] = 1.0
        # v * 1.0 is v and v * 0.0 is 0.0, so q is v / (1 + sum) or 0.0
        q = att.T[:, :, None] * offered[:, None, :] / (1.0 + tot)
        prices = np.array([om.model.prices for om in models]).T
        return (prices[:, :, None] * q).reshape(n, m * k), q.reshape(n, m * k)

    def __eq__(self, other):
        return (
            isinstance(other, MnlOutcomes)
            and self.customer == other.customer
            and self.model == other.model
        )

    def __repr__(self):
        who = "null" if self.customer is None else f"customer {self.customer}"
        return f"MnlOutcomes({who}, {self.model!r})"


def build_mnl_instance(
    model: MnlModel,
    capacities,
    survival_curves,
    horizon: int,
    arrival_weights,
) -> Instance:
    """Instance with one resource and one reward index per product.

    ``arrival_weights`` has one entry per logit customer plus a trailing
    no-purchase weight; the trailing entry becomes the designated null
    type.  Product prices drive the reward outcomes.
    """
    n = model.n_products
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != (n,):
        raise ValueError("one capacity per product required")
    if len(survival_curves) != n:
        raise ValueError("one survival curve per product required")
    weights = np.asarray(arrival_weights, dtype=float)
    if weights.shape != (model.n_customers + 1,):
        raise ValueError("arrival weights must cover every customer plus null")
    resources = [ResourceSpec(float(c), curve) for c, curve in zip(capacities, survival_curves)]
    customers = [
        CustomerType(float(weights[j]), MnlOutcomes(model, j))
        for j in range(model.n_customers)
    ]
    customers.append(CustomerType(float(weights[-1]), MnlOutcomes(model, None)))
    return Instance(
        resources=resources,
        reward_count=n,
        customers=customers,
        actions=model.action_space(),
        horizon=horizon,
        null_type=model.n_customers,
    )
