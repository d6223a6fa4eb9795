"""Inside the multi-stage adaptive policy: stages, weights, potential.

The horizon is split into a doubling schedule of stages. The first stage
explores uniformly; each later stage re-estimates the arrival distribution
from the previous stage alone, solves the steady-state LP on that estimate,
shrinks the optimum into a per-step target, and then plays a weighted greedy
rule whose multiplicative weights penalize projected future occupancy and
reward shortfall. The potential function below is the quantity whose expected
one-step decrease drives the guarantee.
"""

import math

import numpy as np

from reuselab.lp import solve_steady_state
from reuselab.model import (
    AlgoConfig,
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    ResourceSpec,
    SurvivalCurve,
    scale_parameter,
    stage_schedule,
    zero_outcomes,
)
from reuselab.policy import AdaptivePolicy
from reuselab.sim import run_episode

inst = Instance(
    resources=[ResourceSpec(8.0, SurvivalCurve([1.0, 0.5]))],
    reward_count=1,
    customers=[
        CustomerType(0.25, zero_outcomes(1, 1, 2)),
        CustomerType(0.75, ExplicitOutcomes(rewards=[[0, 1.0]], consumption=[[0, 1.0]])),
    ],
    actions=ExplicitActions(2),
    horizon=64,
    null_type=0,
)

lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
gamma = scale_parameter(inst, lam)
config = AlgoConfig(epsilon=0.25, gamma=gamma, seed=0)


def potential(rec, s):
    """Stage potential after s steps, rebuilt from the recorded choices alone.

    Projected occupancy mass of the slots still ahead (each weighted by the
    realized commitments so far and the static growth of the remaining gap)
    plus the reward-deficit mass.  Every duration here has a positive mean.
    """
    eps, delta, L = config.epsilon, config.delta, rec.length
    caps, d = inst.capacities(), inst.durations()
    surv = np.hstack([np.zeros((inst.n_resources, 1)), inst.survival_matrix(L + 1)])
    with np.errstate(divide="ignore"):
        occ = np.log1p(eps * gamma * surv / (d * (1.0 + eps))[:, None])
    occ_cum = np.cumsum(occ, axis=1)
    means = [inst.customers[j].outcomes.means(k) for j, k in rec.choices[:s]]
    lg = math.log1p(eps)
    res = 0.0
    for t in range(s + 1, L + 1):
        cum = sum((a * surv[:, t - tau] for tau, (_w, a) in enumerate(means)), 0.0)
        log_mass = (gamma / caps) * cum * lg + occ_cum[:, t - s] + (delta - gamma) * lg
        res += np.exp(log_mass).sum()
    cum_z = sum((w for w, _a in means), 0.0)
    shrink = math.log1p(-rec.eps_z)
    w_max = inst.w_max
    drift = math.log1p(-rec.eps_z * rec.lam / (w_max * (1.0 + eps)))
    rew = np.exp(
        (cum_z / w_max) * shrink
        + (L - s) * drift
        - (1.0 - rec.eps_z) * L * rec.lam / w_max * shrink
    )
    return float(res) + float(np.sum(rew))


print("stage schedule (index, offset, length):")
for r, off, ln in stage_schedule(inst.horizon, config.epsilon):
    print(f"  stage {r:2d}: steps {off + 1:3d}..{off + ln}")

pol = AdaptivePolicy(config, record_history=True)
trace = run_episode(inst, pol, seed=3)

print(f"\nepisode min-reward {trace.min_reward:.0f} vs full-information bound "
      f"{inst.horizon * lam:.1f}")
print(f"stage LPs solved: {pol.lp_solves}\n")

for rec in pol.history:
    if rec.mode == "uniform":
        print(f"stage {rec.stage:2d}: uniform exploration, {rec.length} steps")
        continue
    print(
        f"stage {rec.stage:2d}: weighted, target lam_r = {rec.lam:.4f} "
        f"(margins eps_x = {rec.eps_x:.3f}, eps_z = {rec.eps_z:.3f})"
    )
    # potential trajectory, recomputed from the recorded choices alone
    values = [
        potential(rec, s)
        for s in range(0, len(rec.choices) + 1, max(1, rec.length // 8))
    ]
    print("   potential: " + " -> ".join(f"{v:.3f}" for v in values))

# the weights the last stage ended with
snap = pol.snapshot()
print(f"\nfinal stage weights after {snap['updates']} updates:")
print("  log resource weights:", np.round(snap["log_resource"][0, -4:], 3), "(last 4 slots)")
print("  log |reward weight| :", np.round(snap["log_reward_mag"], 3))
