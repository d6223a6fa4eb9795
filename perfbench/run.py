#!/usr/bin/env python3
"""reuselab benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {replicate,adaptive,planning}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and from nowhere else.  The seed makes
the generated instances and the replication seeds; reuselab receives only
the generated instances.  Each run plays rounds one after another
(closed loop, one process, one thread), each round setting up and then
running its operations, until ``--seconds`` have passed; it checks every
output and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` plays every
round twice, untraced and then traced, checks the two agree exactly,
and reports the per-layer metrics from the traced copies, together with
the tracing overhead.  ``--size tiny`` shrinks every instance for the
smoke check.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One thread for BLAS/OpenMP in this process; set before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.metadata
import json
import logging
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("replicate", "adaptive", "planning")

# Instance recipes (GeneratorSpec fields; the seed is added per run).
SPECS = {
    "full": {
        "replicate": dict(scale=2),
        "adaptive": dict(scale=4),
        "te": dict(base_horizon=8, n_customers=4),
        "colgen": dict(n_products=12, max_size=4, n_customers=4),
        "ss": dict(n_products=7, max_size=3, n_customers=6),
    },
    "tiny": {
        # T * types * actions stays above the time-expanded cap in set-up
        "replicate": dict(base_horizon=96),
        "adaptive": dict(base_horizon=256),
        "te": dict(base_horizon=6, n_customers=3),
        "colgen": dict(n_products=8, max_size=3, n_customers=4),
        "ss": dict(n_products=5, max_size=2, n_customers=4),
    },
}
# epsilon follows ``harness.run_trend``: 1/4 at scale 1, shrinking with scale
EPSILON = {"replicate": 1 / 8, "adaptive": 1 / 16}
POLICIES = {"replicate": ("static", "uniform"), "adaptive": ("adaptive",)}
# instances played per pass over the episode block, replayed in a loop
EPISODE_INSTANCES = {"replicate": 5, "adaptive": 4}
SETUP_INSTANCES = 32                       # instances set up per block, for setup_s
PLANNING_ITEMS = 24                        # instance sets, replayed in a loop
REL_TOL = 1e-6                             # objective agreement with HiGHS
CAP_TOL = 1e-9                             # the simulator's own feasibility slack
CAL_REF_S = 0.010                          # calibration time at the reference speed


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy calls, independent of reuselab.

    A shared host can change speed by up to 2.5x from one second to the next,
    slowing this loop and reuselab's own loops alike.  So every timed
    operation is bracketed by this loop, and its time is reported at the
    speed at which the loop takes ``CAL_REF_S``: on a loaded 2-vCPU Xeon VM
    the median of (operation time / mean of the two bracketing loop times)
    over 36 s windows varied 3-5% between windows (interquartile range
    over median) for operations up to 0.1 s long, where the fastest raw
    time varied 18-28%.
    """
    rng = np.random.default_rng(0)
    cum = np.cumsum(np.full(22, 1.0 / 22))
    x = np.zeros(4)
    caps = np.full(4, 10.0)
    t0 = time.perf_counter()
    for _ in range(2000):
        int(np.searchsorted(cum, rng.random(), side="right"))
        x += 0.001
        np.maximum(x, 0.0, out=x)
        bool(np.all(x <= caps))
    return time.perf_counter() - t0


def import_reuselab():
    """Import reuselab from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "reuselab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no reuselab sources under {src}")
    sys.path.insert(0, str(src))
    rl = importlib.import_module("reuselab")
    if Path(rl.__file__).resolve().parent != (src / "reuselab").resolve():
        sys.exit(f"perfbench: imported reuselab from {rl.__file__}, not {src}")
    return rl


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:  # read without importing, so scipy stays out of peak_rss_mb
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


class PolicyWarnings(logging.Handler):
    """Counts the policy layer's silent degradations from its log records.

    Attaching it also keeps those warnings off stderr.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.margin_clamps = 0
        self.degenerate_stages = 0

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("reward margin"):
            self.margin_clamps += 1
        elif "degenerate" in msg:
            self.degenerate_stages += 1


def highs_objective(prog):
    """Optimum of a reuselab LinearProgram by scipy's HiGHS (max sense)."""
    from scipy.optimize import linprog

    senses = np.asarray(prog.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "=="
    lower = np.zeros(prog.n_vars) if prog.lower is None else prog.lower
    upper = np.full(prog.n_vars, np.inf) if prog.upper is None else prog.upper
    res = linprog(
        -prog.c,
        A_ub=np.vstack([prog.A[le], -prog.A[ge]]),
        b_ub=np.concatenate([prog.b[le], -prog.b[ge]]),
        A_eq=prog.A[eq] if eq.any() else None,
        b_eq=prog.b[eq] if eq.any() else None,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    return -res.fun if res.status == 0 else float("nan")


class Run:
    """Counts operations and checks; times and (optionally) traces them."""

    def __init__(self, rl, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.skipped: list[str] = []
        self.deferred: list = []          # checks run after the timed loop
        self.tracer = None
        if args.trace:
            import tracing

            self.tracer = tracing.Tracer(rl)
        self.warnings = PolicyWarnings()
        logging.getLogger("reuselab.policy").addHandler(self.warnings)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def op(self, label: str, kind: str, fn, traced: bool):
        """Run one operation; returns (seconds, result), result None on error."""
        self.attempted += 1
        try:
            if traced:
                with self.tracer.root(label, kind):
                    t0 = time.perf_counter()
                    out = fn()
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            print(f"perfbench: {label} failed", file=sys.stderr)
            traceback.print_exc()
            return None, None
        return dt, out

    def check_lp(self, label: str, build, objective: float):
        """Defer a HiGHS cross-check of ``objective`` on the LP ``build()`` makes."""

        def run():
            try:
                import scipy.optimize  # noqa: F401
            except ImportError:
                self.skipped.append(f"{label}: scipy unavailable")
                return
            ref = highs_objective(build())
            self.check(
                abs(objective - ref) <= REL_TOL * max(abs(ref), 1e-12),
                f"{label}: objective {objective!r} vs HiGHS {ref!r}",
            )

        self.deferred.append(run)


# ---------------------------------------------------------------------------
# workloads
#
# A run cycles through a fixed list of items (episode instances, or
# planning instance sets) until the time is up.  Each round plays one item:
# first it sets up the instances ``setups(item)`` names, each by
# ``setup(j)``, which returns (state, fingerprint); then ``ops(states,
# item)`` lists the round's operations as (label, callable, check), where
# ``check(result)`` runs that operation's output checks.


def spec(rl, size: str, name: str, seed: int):
    return rl.harness.GeneratorSpec(seed=seed, **SPECS[size][name])


def instance_seed(seed: int, j: int) -> int:
    """Generator seed of a run's instance j; instance 0 takes the run's seed."""
    if j == 0:
        return seed
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0])


def episode_setup(rl, size: str, workload: str, seed: int):
    """Generate, round-trip, plan and build policies as ``run_trend`` does."""
    inst = rl.harness.generate_instance(spec(rl, size, workload, seed))
    text = rl.serialize.instance_to_json(inst)
    inst = rl.serialize.instance_from_json(text)
    bench = rl.harness.solve_benchmarks(inst)
    config = rl.model.AlgoConfig(
        epsilon=EPSILON[workload],
        gamma=rl.model.scale_parameter(inst, bench.lambda_ss),
        delta=0.0,
        tail_cutoff=bench.tail_cutoff,
        seed=seed,
    )
    pols = {
        name: rl.harness.make_policy(name, inst, config, bench)
        for name in POLICIES[workload]
    }
    return inst, text, bench, config, pols


class EpisodeWorkload:
    """replicate and adaptive: policies played over a block of instances.

    Item j plays instance j, generated from ``instance_seed(seed, j)``,
    with the first replication seed ``run_experiment`` gives it: the
    instance's seed + 1.  Each block starts by setting up
    ``SETUP_INSTANCES`` instances, so that ``setup_s`` and ``round_s``
    average over instances rather than hanging on one.
    """

    def __init__(self, rl, run: Run, workload: str):
        self.rl, self.run, self.workload = rl, run, workload
        self.seed = run.args.seed
        self.items = EPISODE_INSTANCES[workload]
        self.min_rewards: dict = {}
        self.checked: set = set()
        self.upper_bound = None

    def setups(self, item: int):
        return range(SETUP_INSTANCES) if item == 0 else ()

    def setup(self, j: int):
        state = episode_setup(
            self.rl, self.run.args.size, self.workload, instance_seed(self.seed, j)
        )
        _inst, text, bench, _config, _pols = state
        return state, (text, bench.lambda_ss)

    def check_setup(self, j: int, state):
        rl = self.rl
        inst, text, bench, _config, _pols = state
        if j in self.checked:
            return
        self.checked.add(j)
        if j == 0:
            self.upper_bound = bench.upper_bound
        p = inst.arrival_weights()
        self.run.check(
            rl.serialize.instance_to_json(inst) == text, f"serialize round trip ({j})"
        )
        bad = bench.rates.violations(inst, p)
        self.run.check(not bad, f"benchmark rates ({j}): {bad}")
        self.run.check_lp(
            f"steady-state benchmark ({j})",
            lambda: rl.lp.build_steady_state_lp(inst, p)[0],
            bench.lambda_ss,
        )

    def ops(self, states, item: int):
        inst, _text, _bench, config, pols = states[item]
        rep_seed = config.seed + 1
        caps = inst.capacities()

        def check(name, trace):
            self.run.check(
                bool(np.all(trace.peak_occupied <= caps + CAP_TOL)),
                f"{name} seed {rep_seed}: peak occupancy over capacity",
            )
            self.run.check(
                int(trace.arrival_counts.sum()) == inst.horizon,
                f"{name} seed {rep_seed}: arrival counts do not sum to T",
            )
            first = self.min_rewards.setdefault((name, item, rep_seed), trace.min_reward)
            self.run.check(
                trace.min_reward == first,
                f"{name} seed {rep_seed}: min_reward {trace.min_reward!r} != {first!r}",
            )

        return [
            (
                name,
                lambda name=name: self.rl.sim.run_episode(inst, pols[name], rep_seed),
                lambda trace, name=name: check(name, trace),
            )
            for name in POLICIES[self.workload]
        ]

    def info(self) -> dict:
        """Gap to T * lambda_ss on instance 0, as ``run_experiment`` computes it."""
        gaps = {}
        for name in POLICIES[self.workload]:
            vals = [
                v for (n, j, _s), v in sorted(self.min_rewards.items())
                if n == name and j == 0
            ]
            gaps[f"{name}.gap_pct"] = (
                100.0 * (self.upper_bound - float(np.mean(vals))) / self.upper_bound
            )
            gaps[f"{name}.gap_reps"] = len(vals)
        return gaps


class PlanningWorkload:
    """planning: sets of three generated instances through the LP layer.

    Item k is the instance set generated from ``instance_seed(seed, k)``.
    """

    def __init__(self, rl, run: Run):
        self.rl, self.run = rl, run
        self.items = PLANNING_ITEMS
        self.objectives: dict = {}
        self.checked: set = set()

    def setups(self, item: int):
        return (item,)

    def setup(self, j: int):
        rl, size = self.rl, self.run.args.size
        seed = instance_seed(self.run.args.seed, j)
        insts, texts = {}, {}
        for name in ("te", "colgen", "ss"):
            inst = rl.harness.generate_instance(spec(rl, size, name, seed))
            texts[name] = rl.serialize.instance_to_json(inst)
            insts[name] = rl.serialize.instance_from_json(texts[name])
        return (seed, insts, texts), tuple(texts.values())

    def check_setup(self, j: int, state):
        seed, insts, texts = state
        if seed in self.checked:
            return
        self.checked.add(seed)
        for name, inst in insts.items():
            self.run.check(
                self.rl.serialize.instance_to_json(inst) == texts[name],
                f"serialize round trip ({name} seed {seed})",
            )

    def ops(self, states, item: int):
        rl = self.rl
        seed, insts, _texts = states[item]
        te, cg, ss = insts["te"], insts["colgen"], insts["ss"]
        first = ("te", seed) not in self.objectives

        def colgen():
            pricing = rl.mnl.make_assortment_pricing(
                cg.customers[0].outcomes.model, cg.durations()
            )
            return rl.lp.solve_steady_state_colgen(cg, cg.arrival_weights(), pricing=pricing)

        def check_te(result):
            lam_te, _y = result
            self.repeat(("te", seed), lam_te)
            if not first:
                return
            p = te.arrival_weights()

            def ordering():
                lam_ss = rl.lp.solve_steady_state(te, p).lambda_
                self.run.check(
                    lam_te <= lam_ss * (1 + 1e-9) + 1e-12,
                    f"te seed {seed}: lambda_te {lam_te!r} > lambda_ss {lam_ss!r}",
                )

            self.run.deferred.append(ordering)
            self.run.check_lp(
                f"te seed {seed}", lambda: rl.lp.build_time_expanded_lp(te, p)[0], lam_te
            )

        def check_ss(label, inst, sol, columns):
            self.repeat((label, seed), sol.lambda_)
            if not first:
                return
            p = inst.arrival_weights()
            bad = sol.violations(inst, p)
            self.run.check(not bad, f"{label} seed {seed}: {bad}")
            self.run.check_lp(
                f"{label} seed {seed}",
                lambda: rl.lp.build_steady_state_lp(inst, p, columns=columns)[0],
                sol.lambda_,
            )

        # column generation is checked against the LP over every column
        every_column = [
            (j, k) for j in range(cg.n_types) for k in cg.actions.all_actions()
        ]
        return [
            ("te", lambda: rl.lp.solve_time_expanded(te, te.arrival_weights()), check_te),
            ("colgen", colgen, lambda s: check_ss("colgen", cg, s, every_column)),
            ("ss", lambda: rl.lp.solve_steady_state(ss, ss.arrival_weights()),
             lambda s: check_ss("ss", ss, s, None)),
        ]

    def repeat(self, key, value):
        first = self.objectives.setdefault(key, value)
        self.run.check(value == first, f"{key}: objective {value!r} != {first!r}")

    def info(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# main loop


def play(rl, run: Run, workload: str):
    """Play rounds until the time is up and every item has had one.

    Each round sets up, then runs its item's operations; with tracing the
    round's set-up and operations run a second time, traced.  Every
    operation is bracketed by ``calibrate()``.  Returns, for the untraced
    and the traced copies, each operation's times in units of the mean of
    its two bracketing calibrations, keyed by (item, operation), and set-up
    times keyed by (instance, "setup").
    """
    wl = (
        PlanningWorkload(rl, run)
        if workload == "planning"
        else EpisodeWorkload(rl, run, workload)
    )
    copies = (False, True) if run.tracer is not None else (False,)
    times = {
        (what, copy): {} for what in ("setup", "round") for copy in copies
    }
    op_s: dict[str, list] = {}
    fingerprints: dict = {}
    states: dict = {copy: {} for copy in copies}

    calibration = [calibrate()]

    def timed(what, copy, key, label, fn):
        """Run ``fn`` as one operation; record its calibrated time."""
        dt, out = run.op(label, what, fn, copy)
        calibration.append(calibrate())
        bracket = 0.5 * (calibration[-2] + calibration[-1])
        ratio = float("nan") if out is None else dt / bracket
        times[(what, copy)].setdefault(key, []).append(ratio)
        return dt, out

    deadline = time.perf_counter() + run.args.seconds
    i = 0
    while i < wl.items or time.perf_counter() < deadline:
        item = i % wl.items
        for copy in copies:
            for j in wl.setups(item):
                _dt, out = timed(
                    "setup", copy, (j, "setup"), "setup", lambda: wl.setup(j)
                )
                if out is None:
                    sys.exit("perfbench: set-up failed")
                state, fingerprint = out
                first = fingerprints.setdefault(j, fingerprint)
                run.check(fingerprint == first, f"set-up of instance {j} differs")
                wl.check_setup(j, state)
                states[copy][j] = state
            for label, fn, check in wl.ops(states[copy], item):
                dt, result = timed("round", copy, (item, label), label, fn)
                if result is not None:
                    check(result)
                    if not copy:
                        op_s.setdefault(label, []).append(dt)
        i += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for deferred in run.deferred:
        try:
            deferred()
        except Exception:
            traceback.print_exc()
            run.check(False, "a deferred check raised")
    return {
        "wl": wl,
        "rounds": i,
        "times": times,
        "calibration_s": calibration,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
    }


def median_mean(passes: dict) -> float:
    """Mean over items of the sum of each operation's median pass, in seconds.

    ``passes`` maps (item, operation) to that operation's calibrated
    times, one per pass.  Every pass repeats identical work; the median
    over passes is robust to the passes a change of machine speed caught
    between calibrations, and the mean over items averages out how much
    work the items differ by.  Failed passes (nan) are left out, and so is
    an item with an operation that never succeeded.
    """
    per_item: dict = {}
    for (item, _op), times in passes.items():
        ok = [t * CAL_REF_S for t in times if t == t]
        per_item.setdefault(item, []).append(statistics.median(ok) if ok else float("nan"))
    sums = [sum(v) for v in per_item.values() if all(t == t for t in v)]
    return statistics.fmean(sums) if sums else float("nan")


def median(values) -> float:
    vals = [v for v in values if v == v]
    return statistics.median(vals) if vals else float("nan")


def end_to_end(res) -> dict:
    t = res["times"]
    return {
        "round_s": {"value": median_mean(t[("round", False)]), "unit": "s"},
        "setup_s": {"value": median_mean(t[("setup", False)]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(run: Run, res) -> dict:
    tr = run.tracer
    rounds = tr.summary("round")
    setup = tr.summary("setup")
    n_rounds = res["rounds"]            # each round ran once traced
    us, ms = 1e6, 1e3
    policy_calls = rounds.calls("policy.adaptive.choose")
    colgen_calls = rounds.calls("lp.solve_steady_state_colgen")
    traced_total = sum(rounds.self_total.values())
    layer_self = rounds.layer_self()
    warnings = run.warnings
    # the handler saw the untraced and the traced copy of every episode
    adaptive_eps = (len(res["op_s"].get("adaptive", ())) + rounds.calls("bench.adaptive")) or 1
    roundtrips = setup.calls("serialize.instance_to_json")
    m = {
        "sim.begin_step_us": (rounds.mean("sim.begin_step") * us, "us"),
        "sim.sample_arrival_us": (rounds.mean("sim.sample_arrival") * us, "us"),
        "sim.feasible_us": (rounds.mean("sim.feasible") * us, "us"),
        "sim.apply_action_us": (rounds.mean("sim.apply_action") * us, "us"),
        "sim.forced_reject_frac": (tr.forced / max(tr.proposals_nonnull, 1), "frac"),
        "sim.run_episode_ms": (rounds.mean("sim.run_episode") * ms, "ms"),
        "policy.static.choose_us": (rounds.mean("policy.static.choose") * us, "us"),
        "policy.uniform.choose_us": (rounds.mean("policy.uniform.choose") * us, "us"),
        "policy.adaptive.choose_us": (rounds.mean("policy.adaptive.choose") * us, "us"),
        "policy.adaptive.observe_us": (rounds.mean("policy.adaptive.observe") * us, "us"),
        "policy.select_action_us": (rounds.mean("policy.select_action") * us, "us"),
        "policy.update_penalty_weights_us": (
            rounds.mean("policy.update_penalty_weights") * us, "us"),
        "policy.stage_lp_ms": (rounds.mean("policy.stage_lp") * ms, "ms"),
        "policy.stage_lp_calls": (rounds.calls("policy.stage_lp") / n_rounds, "count"),
        "policy.weighted_step_frac": (
            rounds.calls("policy.select_action") / policy_calls if policy_calls else 0.0,
            "frac"),
        "policy.margin_clamps": (warnings.margin_clamps / adaptive_eps, "count"),
        "policy.degenerate_stages": (warnings.degenerate_stages / adaptive_eps, "count"),
        "model.sample_uniform_us": (rounds.mean("model.sample_uniform") * us, "us"),
        "mnl.best_assortment_us": (rounds.mean("mnl.best_assortment") * us, "us"),
        "mnl.best_assortment_calls": (
            rounds.calls("mnl.best_assortment") / n_rounds, "count"),
        "mnl.sample_us": (rounds.mean("mnl.sample") * us, "us"),
        "lp.solve_lp_us": (rounds.mean("lp.solve_lp") * us, "us"),
        "lp.solve_lp_calls": (rounds.calls("lp.solve_lp") / n_rounds, "count"),
        "lp.colgen_rounds": (
            rounds.colgen_builds / colgen_calls if colgen_calls else 0.0, "count"),
        "lp.tableau_mb_computed": (tr.tableau_mb_max, "MB"),
        "lp.te_rows": (tr.te_dims[0], "count"),
        "lp.te_cols": (tr.te_dims[1], "count"),
        "lp.solve_time_expanded_s": (rounds.mean("lp.solve_time_expanded"), "s"),
        "lp.solve_steady_state_colgen_s": (
            rounds.mean("lp.solve_steady_state_colgen"), "s"),
        "lp.solve_steady_state_s": (rounds.mean("lp.solve_steady_state"), "s"),
        "harness.solve_benchmarks_s": (setup.mean("harness.solve_benchmarks"), "s"),
        "harness.make_policy_ms": (setup.mean("harness.make_policy") * ms, "ms"),
        "harness.generate_instance_ms": (setup.mean("harness.generate_instance") * ms, "ms"),
        "serialize.roundtrip_ms": (
            (setup.total.get("serialize.instance_to_json", 0.0)
             + setup.total.get("serialize.instance_from_json", 0.0))
            / max(roundtrips, 1) * ms, "ms"),
        "trace.overhead_pct": (
            100.0 * (median_mean(res["times"][("round", True)])
                     / median_mean(res["times"][("round", False)]) - 1.0), "%"),
        "trace.spans_per_round": (rounds.spans / n_rounds, "count"),
    }
    for layer in ("sim", "policy", "mnl", "lp", "model", "bench"):
        share = layer_self.get(layer, 0.0) / traced_total if traced_total else 0.0
        m[f"{layer}.self_pct"] = (100.0 * share, "%")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=tuple(SPECS))
    args = ap.parse_args(argv)

    rl = import_reuselab()
    env = environment(args.seed)
    run = Run(rl, args)
    res = play(rl, run, args.workload)

    info = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": res["rounds"],
        "env": env,
        "op_median_s": {k: median(v) for k, v in res["op_s"].items()},
        "passes": min(len(v) for v in res["times"][("round", False)].values()),
        "calibration_median_s": median(res["calibration_s"]),
        "items": len({item for item, _op in res["times"][("round", False)]}),
        **res["wl"].info(),
    }
    if run.skipped:
        info["skipped_checks"] = run.skipped
    if args.trace:
        metrics = per_layer(run, res)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans_{args.workload}_{args.size}_seed{args.seed}.npz"
        run.tracer.save(out, env)
        info["spans_file"] = str(out.relative_to(ROOT))
    else:
        metrics = end_to_end(res)
    print("# info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
