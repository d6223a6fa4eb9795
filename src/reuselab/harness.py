"""Experiment harness: instance generation, benchmarks, replication, CSV.

The standard experiment plays each requested policy over the same block of
replication seeds (base+1 .. base+reps), so policies face identical arrival
sequences, and reports the mean and spread of the worst-index total reward
against the steady-state planning total T * lambda_ss.  That total is a
reference, not a certified bound: lambda_ss <= lambda_te, the
time-expanded value that ``reuselab solve-benchmark`` alone solves for and
reports.  CSV output is byte-deterministic for a fixed base seed: the
``seconds`` column is left empty unless timing is explicitly requested
(measured times still land on the in-memory rows).
"""

from __future__ import annotations

import csv
import math
import re
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lp as _lp
from .lp import SteadyStateSolution
from .mnl import MnlModel, build_mnl_instance
from .model import (
    AlgoConfig,
    Instance,
    SurvivalCurve,
    duration_tail_cutoff,
    scale_parameter,
    subsample_distribution,
)
from .policy import (
    AdaptivePolicy,
    AlwaysNullPolicy,
    HybridPolicy,
    StageTailRejector,
    StaticPolicy,
    UniformRandomPolicy,
)
from .sim import run_episode

__all__ = [
    "GeneratorSpec",
    "generate_instance",
    "Benchmarks",
    "solve_benchmarks",
    "check_policy_labels",
    "make_policy",
    "SummaryRow",
    "run_experiment",
    "write_csv",
    "CSV_HEADER",
    "run_trend",
    "trend_report",
]

CSV_HEADER = ["T", "eps", "UB", "policy", "mean", "std", "gap_pct", "forced_rejects", "seconds"]


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random logit rental instance.

    ``scale`` multiplies both the horizon and every capacity, holding the
    per-step load profile fixed; taste and feature entries are standard
    normal, prices uniform on ``price_range``, and durations geometric
    with decay drawn from ``duration_decay``, truncated at
    ``max_duration``.
    """

    n_products: int = 4
    n_customers: int = 20
    n_features: int = 2
    max_size: int = 2
    scale: int = 1
    base_horizon: int = 1000
    base_capacity: float = 100.0
    max_duration: int = 12
    null_weight: float = 0.2
    price_range: tuple = (1.0, 2.0)
    duration_decay: tuple = (0.6, 0.85)
    seed: int = 0


def generate_instance(spec: GeneratorSpec) -> Instance:
    """The instance ``spec`` describes; ``ValueError`` names a bad field.

    Sizes, ``scale``, ``base_horizon``, ``base_capacity`` and
    ``max_duration`` must be positive and ``null_weight`` must lie in
    [0, 1).
    """
    positive = (
        "n_products", "n_customers", "max_size", "scale", "base_horizon", "base_capacity",
        "max_duration",
    )
    for name in positive:
        value = getattr(spec, name)
        if not value > 0:
            raise ValueError(f"GeneratorSpec.{name} must be positive, got {value!r}")
    if not 0.0 <= spec.null_weight < 1.0:
        raise ValueError(f"GeneratorSpec.null_weight must lie in [0, 1), got {spec.null_weight!r}")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 53]))
    n, j, f = spec.n_products, spec.n_customers, spec.n_features
    features = rng.standard_normal((n, f))
    cust_features = rng.standard_normal((j, n, f)) / math.sqrt(f)
    prices = rng.uniform(*spec.price_range, size=n)
    model = MnlModel(features, cust_features, spec.max_size, prices)
    decay = rng.uniform(*spec.duration_decay, size=n)
    curves = [
        SurvivalCurve(decay[i] ** np.arange(spec.max_duration)) for i in range(n)
    ]
    weights = rng.dirichlet(np.ones(j)) * (1.0 - spec.null_weight)
    weights = np.concatenate([weights, [spec.null_weight]])
    return build_mnl_instance(
        model,
        capacities=np.full(n, spec.base_capacity * spec.scale),
        survival_curves=curves,
        horizon=spec.base_horizon * spec.scale,
        arrival_weights=weights,
    )


@dataclass
class Benchmarks:
    """Steady-state planning values for one instance under its own arrival
    weights.

    ``upper_bound`` is the planning total T * lambda_ss, the reference
    every summary row's gap is measured against.  It is not a certified
    bound on what a policy can earn: the time-expanded relaxation starts
    with every resource free, so lambda_ss <= lambda_te, and only
    ``reuselab solve-benchmark`` solves that LP and reports lambda_te.
    The values hold for the instance they were solved on only: an instance
    derived from it (``dataclasses.replace`` with other customers,
    resources or actions) needs its own ``solve_benchmarks``.
    """

    lambda_ss: float
    rates: SteadyStateSolution
    upper_bound: float
    tail_cutoff: int
    delta: float


def solve_benchmarks(inst: Instance, delta: float = 0.0) -> Benchmarks:
    """Planning values under the instance's arrival weights; the tail
    cutoff ignores duration tail mass ``delta`` in [0, 1)."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    rates = _lp.plan_rates(inst, inst.arrival_weights())
    dbar = duration_tail_cutoff([r.survival for r in inst.resources], delta)
    return Benchmarks(rates.lambda_, rates, float(inst.horizon * rates.lambda_), dbar, delta)


_NAME_RE = re.compile(
    r"^(?P<base>static|adaptive|uniform|null|hybrid(?P<switch>\d+))"
    r"(\+saa(?P<saa>\d+))?(?P<tail>\+tailguard)?$"
)


def _parse_label(name: str):
    """(match, base, saa draws or None) of a policy label ``make_policy``
    accepts; a ValueError names any other label."""
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"unknown policy label {name!r}")
    base = m.group("base")
    saa = int(m.group("saa")) if m.group("saa") else None
    if saa is not None and saa < 1:
        raise ValueError(f"policy label {name!r}: +saa needs at least one draw")
    if saa is not None and base in ("uniform", "null"):
        raise ValueError(f"policy label {name!r}: {base} plans nothing, so +saa does not apply")
    return m, base, saa


def check_policy_labels(labels) -> None:
    """Raise the ValueError ``make_policy`` would raise on the first bad
    label, or one for an empty list; needs no instance and solves nothing."""
    if not labels:
        raise ValueError("need at least one policy")
    for name in labels:
        _parse_label(name)


def make_policy(name: str, inst: Instance, config: AlgoConfig, benchmarks: Benchmarks):
    """Build a policy from its label.

    Labels: static, adaptive, uniform, null, hybrid<s>; any of them may
    carry +tailguard (refuse allocations near stage ends), and all but
    uniform and null, which plan nothing, +saa<m> (plan on an m-draw
    subsample instead of full information).
    """
    m, base, saa = _parse_label(name)

    def saa_rates():
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 101]))
        p = subsample_distribution(inst.arrival_weights(), saa, rng)
        return _lp.plan_rates(inst, p)

    if base == "static":
        rates = saa_rates() if saa else benchmarks.rates
        pol = StaticPolicy(rates, config.epsilon)
        if saa:
            pol.name = f"static+saa{saa}"
    elif base == "adaptive":
        pol = AdaptivePolicy(config, stage_subsample=saa)
    elif base == "uniform":
        pol = UniformRandomPolicy()
    elif base == "null":
        pol = AlwaysNullPolicy()
    else:
        rates = saa_rates() if saa else benchmarks.rates
        pol = HybridPolicy(config, rates, int(m.group("switch")), stage_subsample=saa)
        if saa:
            pol.name = f"{pol.name}+saa{saa}"
    if m.group("tail"):
        pol = StageTailRejector(pol, config)
    return pol


@dataclass
class SummaryRow:
    """One policy's aggregate over the replication block."""

    horizon: int
    epsilon: float
    upper_bound: float
    policy: str
    mean: float
    std: float
    gap_pct: float
    forced_rejects: float
    seconds: float
    min_rewards: list = field(default_factory=list)


def run_experiment(
    inst: Instance,
    config: AlgoConfig,
    policies,
    reps: int = 10,
    benchmarks: Benchmarks | None = None,
) -> list[SummaryRow]:
    """Replicate each policy over seeds config.seed+1 .. config.seed+reps.

    Every label is checked before any LP is solved or episode played.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    check_policy_labels(policies)
    if benchmarks is None:
        benchmarks = solve_benchmarks(inst, delta=config.delta)
    rows = []
    for name in policies:
        pol = make_policy(name, inst, config, benchmarks)
        vals, forced = [], []
        t0 = time.perf_counter()
        for i in range(1, reps + 1):
            trace = run_episode(inst, pol, config.seed + i)
            vals.append(trace.min_reward)
            forced.append(trace.forced_rejects)
        seconds = time.perf_counter() - t0
        vals = np.asarray(vals)
        mean = float(vals.mean())
        std = float(vals.std(ddof=1)) if reps > 1 else 0.0
        ub = benchmarks.upper_bound
        gap = 100.0 * (ub - mean) / ub if ub > 0 else math.nan
        rows.append(
            SummaryRow(
                horizon=inst.horizon,
                epsilon=config.epsilon,
                upper_bound=ub,
                policy=pol.name,
                mean=mean,
                std=std,
                gap_pct=float(gap),
                forced_rejects=float(np.mean(forced)),
                seconds=seconds,
                min_rewards=[float(v) for v in vals],
            )
        )
    return rows


def write_csv(rows, path, timing: bool = False):
    """Fixed-header CSV; ``seconds`` stays empty unless timing is requested,
    keeping the bytes reproducible for a fixed base seed."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow(
                [
                    r.horizon,
                    repr(float(r.epsilon)),
                    repr(float(r.upper_bound)),
                    r.policy,
                    repr(float(r.mean)),
                    repr(float(r.std)),
                    repr(float(r.gap_pct)),
                    repr(float(r.forced_rejects)),
                    repr(float(r.seconds)) if timing else "",
                ]
            )


def run_trend(
    scales=(1, 2, 4),
    reps: int = 10,
    base_seed: int = 0,
    spec: GeneratorSpec | None = None,
    policies=("static", "adaptive"),
    base_epsilon: float = 0.25,
    relaxed: bool = False,
):
    """The scaling experiment: same load profile, growing horizon/capacity.

    epsilon shrinks inversely with scale so every run keeps the same
    exploration-stage length; ``relaxed`` sets every config's
    ``relaxed_schedule``.  Scales must be positive and distinct and at
    least one policy given, every label valid; a ``ValueError`` names the
    offending input before any work.  Every scale is generated, solved
    and its config checked against its instance's horizon
    (``ValueError("config: ...")``) before any experiment runs.
    Returns (rows, report); rows carry every scale's summaries in scale
    order.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    check_policy_labels(policies)
    bad = sorted({s for s in scales if s < 1})
    if bad:
        raise ValueError(f"trend scales must be positive, got {', '.join(map(str, bad))}")
    if len(set(scales)) < 3:
        raise ValueError(f"trend needs at least 3 scales, got {len(set(scales))}")
    repeated = sorted({s for s in scales if scales.count(s) > 1})
    if repeated:
        raise ValueError(
            f"trend scales must be distinct, got {', '.join(map(str, repeated))} more than once"
        )
    spec = spec or GeneratorSpec(seed=base_seed)
    plans = []
    for s in scales:
        inst = generate_instance(replace(spec, scale=s))
        bench = solve_benchmarks(inst)
        config = AlgoConfig(
            epsilon=base_epsilon * scales[0] / s,
            gamma=scale_parameter(inst, bench.lambda_ss),
            delta=0.0,
            tail_cutoff=bench.tail_cutoff,
            seed=base_seed,
            relaxed_schedule=relaxed,
        )
        config.check(inst.horizon)
        plans.append((s, inst, config, bench))
    rows = []
    per_scale = {}
    for s, inst, config, bench in plans:
        got = run_experiment(inst, config, policies, reps=reps, benchmarks=bench)
        rows.extend(got)
        per_scale[s] = got
    return rows, trend_report(per_scale)


def trend_report(per_scale: dict) -> dict:
    """Gap trajectories by policy across scales, with monotonicity flags.

    ``strictly_decreasing`` asks each adjacent gap difference to be
    negative; ``mean_se`` carries the standard errors so callers can
    judge whether a flip is within sampling noise.
    """
    scales = sorted(per_scale)
    if len(scales) < 3:
        raise ValueError(f"trend needs at least 3 scales, got {len(scales)}")
    by_policy: dict = {}
    for s in scales:
        for row in per_scale[s]:
            by_policy.setdefault(row.policy, {})[s] = row
    report = {"scales": scales, "policies": {}}
    for name, rows in by_policy.items():
        gaps = [rows[s].gap_pct for s in scales if s in rows]
        ses = [
            rows[s].std / math.sqrt(max(len(rows[s].min_rewards), 1))
            for s in scales
            if s in rows
        ]
        report["policies"][name] = {
            "gaps": gaps,
            "mean_se": ses,
            "strictly_decreasing": all(b < a for a, b in zip(gaps, gaps[1:])),
        }
    return report
