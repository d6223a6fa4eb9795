"""Instance builders shared by the test modules."""

from __future__ import annotations

import numpy as np

from reuselab.lp import LinearProgram
from reuselab.mnl import MnlModel, build_mnl_instance
from reuselab.model import (
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    ResourceSpec,
    SurvivalCurve,
    zero_outcomes,
)


def hand_instance(horizon: int = 8) -> Instance:
    """One resource (capacity 1, duration exactly 2), one real customer.

    Allocating every other step is the best stationary plan, so the
    steady-state rate is 1/2.
    """
    curve = SurvivalCurve([1.0, 1.0])
    real = ExplicitOutcomes(
        rewards=[[0.0, 1.0]],
        consumption=[[0.0, 1.0]],
    )
    return Instance(
        resources=[ResourceSpec(1.0, curve)],
        reward_count=1,
        customers=[
            CustomerType(0.0, zero_outcomes(1, 1, 2)),
            CustomerType(1.0, real),
        ],
        actions=ExplicitActions(2),
        horizon=horizon,
        null_type=0,
    )


def two_resource_instance(horizon: int = 64, capacity: float = 4.0) -> Instance:
    """Two resources, two real types, one action per type plus null."""
    curves = [SurvivalCurve([1.0, 0.5]), SurvivalCurve([1.0, 0.75, 0.25])]
    t1 = ExplicitOutcomes(
        rewards=[[0.0, 1.0, 0.2], [0.0, 0.0, 0.1]],
        consumption=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.5]],
    )
    t2 = ExplicitOutcomes(
        rewards=[[0.0, 0.0, 0.3], [0.0, 0.8, 0.4]],
        consumption=[[0.0, 0.0, 0.25], [0.0, 1.0, 0.5]],
    )
    return Instance(
        resources=[ResourceSpec(capacity, curves[0]), ResourceSpec(capacity, curves[1])],
        reward_count=2,
        customers=[
            CustomerType(0.2, zero_outcomes(2, 2, 3)),
            CustomerType(0.5, t1),
            CustomerType(0.3, t2),
        ],
        actions=ExplicitActions(3),
        horizon=horizon,
        null_type=0,
    )


def random_explicit_instance(
    rng: np.random.Generator,
    max_resources: int = 3,
    max_types: int = 3,
    max_actions: int = 5,
    max_rewards: int = 2,
    horizon: int | None = None,
    unit_consumption: bool = False,
) -> Instance:
    """Random valid explicit instance; type 0 is null, action 0 is null."""
    C = int(rng.integers(1, max_resources + 1))
    J = int(rng.integers(1, max_types + 1))  # real types
    K = int(rng.integers(2, max_actions + 1))
    R = int(rng.integers(1, max_rewards + 1))
    T = int(rng.integers(4, 31)) if horizon is None else horizon

    resources = []
    for _ in range(C):
        n = int(rng.integers(1, 5))
        steps = np.sort(rng.random(n))[::-1]
        if rng.random() < 0.7:
            steps[0] = 1.0
        resources.append(ResourceSpec(float(rng.uniform(0.5, 3.0)), SurvivalCurve(steps)))

    customers = [CustomerType(0.0, zero_outcomes(R, C, K))]
    for _ in range(J):
        w = rng.uniform(0.0, 1.0, size=(R, K))
        a = (
            rng.integers(0, 2, size=(C, K)).astype(float)
            if unit_consumption
            else rng.uniform(0.0, 1.0, size=(C, K))
        )
        w[:, 0] = 0.0
        a[:, 0] = 0.0
        w[rng.random(w.shape) < 0.3] = 0.0
        customers.append(CustomerType(0.0, ExplicitOutcomes(w, a)))

    weights = rng.dirichlet(np.ones(J + 1))
    for j, cust in enumerate(customers):
        cust.weight = float(weights[j])
    return Instance(
        resources=resources,
        reward_count=R,
        customers=customers,
        actions=ExplicitActions(K),
        horizon=T,
        null_type=0,
    )


def random_mnl_model(
    rng: np.random.Generator,
    max_products: int = 8,
    max_size: int = 5,
    n_customers: int = 2,
) -> MnlModel:
    n = int(rng.integers(2, max_products + 1))
    f = int(rng.integers(1, 3))
    feats = rng.standard_normal((n, f))
    tastes = rng.standard_normal((n_customers, n, f))
    prices = rng.uniform(0.5, 2.0, size=n)
    m = int(rng.integers(1, min(max_size, n) + 1))
    return MnlModel(feats, tastes, m, prices)


def random_boxed_lp(rng: np.random.Generator, max_vars: int = 5, max_rows: int = 5) -> LinearProgram:
    """Random LP with every variable boxed, so enumeration is exact.

    Coefficients are rounded to 3 decimals to provoke degenerate bases;
    equality rows are kept rare so a reasonable share stays feasible.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = np.round(rng.standard_normal((m, n)), 3)
    b = np.round(rng.uniform(-1.0, 2.0, size=m), 3)
    senses = []
    for _ in range(m):
        u = rng.random()
        senses.append("==" if u < 0.15 else ("<=" if u < 0.6 else ">="))
    c = np.round(rng.standard_normal(n), 3)
    lower = np.where(rng.random(n) < 0.25, -1.0, 0.0)
    upper = np.round(rng.uniform(0.5, 3.0, size=n), 3)
    return LinearProgram(c, A, senses, b, lower=lower, upper=upper)


def small_mnl_instance(horizon: int = 48, seed: int = 7) -> Instance:
    rng = np.random.default_rng(seed)
    model = MnlModel(
        features=rng.standard_normal((3, 2)),
        cust_features=rng.standard_normal((2, 3, 2)),
        max_size=2,
        prices=[1.0, 1.5, 2.0],
    )
    curves = [SurvivalCurve([1.0, 0.5]), SurvivalCurve([1.0]), SurvivalCurve([1.0, 0.8, 0.4])]
    return build_mnl_instance(
        model,
        capacities=[2.0, 3.0, 2.0],
        survival_curves=curves,
        horizon=horizon,
        arrival_weights=[0.4, 0.35, 0.25],
    )


def wide_logit_instance(n_products: int, max_size: int = 5, seed: int = 3) -> Instance:
    """Two logit customers plus null over every assortment of up to
    ``max_size`` of ``n_products`` products: with 15 products and size 5
    that is 4944 actions, past the enumeration cap."""
    rng = np.random.default_rng(seed)
    n, J = n_products, 2
    model = MnlModel(
        rng.standard_normal((n, 2)), rng.standard_normal((J, n, 2)), max_size,
        rng.uniform(1.0, 2.0, n),
    )
    weights = np.concatenate([rng.dirichlet(np.ones(J)) * 0.8, [0.2]])
    return build_mnl_instance(
        model, np.full(n, 3.0), [SurvivalCurve([1.0, 0.5])] * n, 40, weights
    )
