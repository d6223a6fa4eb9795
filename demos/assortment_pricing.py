"""Logit demand: the best-assortment solver and column generation.

When actions are assortments of up to m products out of n, the action space
has size sum_s C(n, s) and enumeration dies quickly. Two tools avoid it: the
weighted greedy step over per-product coefficients is solved by sorting
products and iterating to a fixed point of the optimal value, and the
steady-state LP is solved by column generation whose pricing problem is that
same assortment problem. Both are exact, so small cases can be checked
against brute force.
"""

from itertools import chain, combinations

import numpy as np

from reuselab.lp import solve_steady_state, solve_steady_state_colgen
from reuselab.mnl import MnlModel, best_assortment, build_mnl_instance
from reuselab.model import SurvivalCurve

rng = np.random.default_rng(0)

# 5 products, taste vectors per customer segment, cardinality cap 3
n, segments = 5, 2
model = MnlModel(
    features=rng.standard_normal((n, 2)),
    cust_features=rng.standard_normal((segments, n, 2)),
    max_size=3,
    prices=rng.uniform(1.0, 2.0, n),
)

coef = rng.standard_normal(n)  # per-product net cost, negative = attractive
best = best_assortment(model, 0, coef)
print(f"coefficients: {np.round(coef, 3)}")
print(f"optimal assortment for segment 0: {best}")

# brute force over all 26 feasible assortments agrees
def subsets(n, m):
    return chain.from_iterable(combinations(range(n), s) for s in range(m + 1))

def objective(S):
    q = model.choice_probability(0, S)
    return sum(coef[i] * q[i] for i in S)

brute = min(subsets(n, model.max_size), key=lambda S: (round(objective(S), 12), S))
print(f"brute-force minimizer:             {tuple(brute)}")
assert tuple(best) == tuple(brute)

# Now a full rental instance on this demand model. The action space is still
# enumerable here, so the dense LP and column generation must agree exactly.
curves = [SurvivalCurve(0.7 ** np.arange(4)) for _ in range(n)]
weights = np.array([0.45, 0.35, 0.2])  # two segments + null arrivals
inst = build_mnl_instance(
    model,
    capacities=np.full(n, 3.0),
    survival_curves=curves,
    horizon=128,
    arrival_weights=weights,
)
print(f"\naction space size: {inst.actions.size}")

# Column generation prices each type through its own outcome model: a
# logit segment runs best_assortment for itself, the null type offers nothing.
p = inst.arrival_weights()
dense = solve_steady_state(inst, p)
colgen = solve_steady_state_colgen(inst, p)
print(f"dense steady-state optimum : {dense.lambda_:.8f}")
print(f"column-generation optimum  : {colgen.lambda_:.8f}")

offered = sorted({k for (j, k), v in colgen.x.items() if v > 1e-9 and k})
print("assortments actually offered at the optimum:")
for S in offered:
    print(f"  {S}")
