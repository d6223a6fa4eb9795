"""Command line front end.

Verbs:
  validate         structural checks on an instance file (and a config)
  solve-benchmark  steady-state / time-expanded LP values and planning total
  simulate         play one policy for a few replications, optional dumps
  experiment       replicate several policies into a summary CSV
  trend            the scaling experiment on generated logit instances

Exit codes: 0 on success, 2 for bad input (invalid instance, infeasible
configuration, unknown flag value), 1 for unexpected failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import fields

import numpy as np

from .harness import (
    GeneratorSpec,
    make_policy,
    run_experiment,
    run_trend,
    solve_benchmarks,
    write_csv,
)
from .model import AlgoConfig, duration_tail_cutoff, scale_parameter, validate_instance
from .lp import IterationLimit, NumericalBreakdown, TooLarge, solve_time_expanded
from .policy import AdaptivePolicy, StageTailRejector
from .serialize import load_instance, trace_to_jsonl
from .sim import run_episode

_USER_ERRORS = (ValueError, OSError)


# AlgoConfig fields settable by flag; each flag is None unless given
_CONFIG_FLAGS = ("epsilon", "gamma", "delta", "tail_cutoff", "eta", "seed", "relaxed_schedule")

# the JSON values each AlgoConfig field annotation accepts (a bool is no number)
_JSON_KINDS = {
    "float": (int, float),
    "float | None": (int, float, type(None)),
    "int": (int,),
    "bool": (bool,),
}


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file of algorithm knobs (AlgoConfig fields)")
    p.add_argument("--epsilon", type=float, help="schedule/shrink parameter")
    p.add_argument("--gamma", type=float, help="scale parameter (default: derived from the steady-state LP)")
    p.add_argument("--delta", type=float, help="duration tail mass bound (default 0)")
    p.add_argument("--tail-cutoff", type=int, help="duration tail cutoff (default: derived)")
    p.add_argument("--eta", type=float, help="per-stage failure budget")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--relaxed-schedule", action="store_true", default=None,
                   help="waive the stage schedule's divisibility checks")


def _load_config(path) -> dict:
    """AlgoConfig fields from a JSON object, each checked against its annotation."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config: expected a JSON object of AlgoConfig fields")
    kinds = {f.name: f.type for f in fields(AlgoConfig)}
    for key, value in data.items():
        if key not in kinds:
            raise ValueError(f"config: unknown field {key!r}")
        kind = kinds[key]
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_KINDS[kind]):
            raise ValueError(f"config: {key} must be {kind}, got {value!r}")
    return data


def _resolve_config(args, inst, lambda_ss) -> AlgoConfig:
    """The config the flags and ``--config`` give, defaults filled in.

    ``lambda_ss()`` returns the steady-state rate; it is called only when
    gamma is derived, that is when neither a flag nor the file gives it,
    and only after every other field passed its checks.
    """
    data = _load_config(args.config) if args.config else {}
    for name in _CONFIG_FLAGS:
        v = getattr(args, name)
        if v is not None:
            data[name] = v
    data.setdefault("epsilon", 0.25)
    data.setdefault("delta", 0.0)
    data.setdefault("seed", 0)
    # an invalid delta keeps the default cutoff, so that check names delta itself
    if "tail_cutoff" not in data and 0.0 <= data["delta"] < 1.0:
        data["tail_cutoff"] = duration_tail_cutoff(
            [r.survival for r in inst.resources], data["delta"]
        )
    if "gamma" not in data:
        # the other fields are checked before the LP solve; 0.0, like any derived gamma, is valid
        AlgoConfig(**data, gamma=0.0).check(inst.horizon)
        data["gamma"] = scale_parameter(inst, lambda_ss())
    config = AlgoConfig(**data)
    config.check(inst.horizon)
    return config


def _config_and_benchmarks(args, inst):
    """The resolved config and ``solve_benchmarks(inst)``.

    The steady-state LP is solved once, and only after the config passed
    every check that needs no LP: inside :func:`_resolve_config` when
    gamma is derived, after it otherwise.
    """
    solved = []

    def lambda_ss():
        solved.append(solve_benchmarks(inst))
        return solved[0].lambda_ss

    config = _resolve_config(args, inst, lambda_ss)
    return config, solved[0] if solved else solve_benchmarks(inst)


def _policy_labels(args) -> list[str]:
    labels = [s.strip() for s in args.policy.split(",") if s.strip()]
    m = getattr(args, "saa_sample", None)
    if m is not None:
        if m < 1:
            raise ValueError(f"--saa-sample must be >= 1, got {m}")
        labels = [_with_saa(n, m) for n in labels]
    return labels


def _with_saa(label: str, m: int) -> str:
    """``label`` planning on an m-draw subsample: +saa<m> goes before +tailguard."""
    base, guard, rest = label.partition("+tailguard")
    if "+saa" in base:
        raise ValueError(f"--saa-sample {m}: policy label {label!r} already carries +saa")
    if base in ("uniform", "null"):
        return label
    return f"{base}+saa{m}{guard}{rest}"


def _load_valid_instance(path):
    """The instance at ``path``, or None once its problems went to stderr."""
    inst = load_instance(path)
    problems = validate_instance(inst)
    for msg in problems:
        print(f"invalid: {msg}", file=sys.stderr)
    return None if problems else inst


def _cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    problems = validate_instance(inst)
    for msg in problems:
        print(f"invalid: {msg}")
    if problems:
        return 2
    print(
        f"ok: horizon={inst.horizon} resources={inst.n_resources} "
        f"reward_indices={inst.reward_count} types={inst.n_types} "
        f"actions={inst.actions.size}"
    )
    if args.config or any(getattr(args, name) is not None for name in _CONFIG_FLAGS):
        config = _resolve_config(args, inst, lambda: solve_benchmarks(inst).lambda_ss)
        print(f"config ok: {config}")
    return 0


def _cmd_solve_benchmark(args) -> int:
    inst = _load_valid_instance(args.instance)
    if inst is None:
        return 2
    bench = solve_benchmarks(inst, delta=args.delta)
    try:
        lambda_te, _y = solve_time_expanded(inst, inst.arrival_weights(), cap=args.te_cap)
    except TooLarge:
        lambda_te = None
    print(f"steady-state rate: {bench.lambda_ss!r}")
    if lambda_te is None:
        print("time-expanded rate: skipped (over the size cap)")
    else:
        print(f"time-expanded rate: {lambda_te!r}")
    print(f"planning total (T * steady-state rate): {bench.upper_bound!r}")
    print(f"tail cutoff: {bench.tail_cutoff}")
    if args.out:
        doc = {
            "lambda_ss": bench.lambda_ss,
            "lambda_te": lambda_te,
            "upper_bound": bench.upper_bound,
            "tail_cutoff": bench.tail_cutoff,
            "delta": bench.delta,
            "rates": [
                {"type": j, "action": list(k) if isinstance(k, tuple) else k, "rate": v}
                for (j, k), v in sorted(bench.rates.x.items(), key=lambda kv: str(kv[0]))
            ],
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _dump_weights(inner: AdaptivePolicy, path):
    snap = inner.snapshot()
    doc = {
        "stages": [
            {
                "stage": rec.stage,
                "start": rec.start,
                "length": rec.length,
                "mode": rec.mode,
                "lam": rec.lam,
                "eps_x": rec.eps_x,
                "eps_z": rec.eps_z,
            }
            for rec in inner.history
        ],
        "final": {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in snap.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args) -> int:
    inst = _load_valid_instance(args.instance)
    if inst is None:
        return 2
    if args.reps < 1:
        raise ValueError(f"reps must be >= 1, got {args.reps}")
    config, bench = _config_and_benchmarks(args, inst)
    labels = _policy_labels(args)
    if len(labels) != 1:
        raise ValueError("simulate plays exactly one policy")
    pol = make_policy(labels[0], inst, config, bench)
    inner = pol.inner if isinstance(pol, StageTailRejector) else pol
    if args.dump_weights:
        if not isinstance(inner, AdaptivePolicy):
            raise ValueError("--dump-weights needs an adaptive or hybrid policy")
        inner.record_history = True
    vals = []
    for i in range(1, args.reps + 1):
        record = bool(args.dump_trace) and i == 1
        trace = run_episode(inst, pol, config.seed + i, record_steps=record)
        vals.append(trace.min_reward)
        print(
            f"rep {i}: min_reward={trace.min_reward!r} "
            f"forced_rejects={trace.forced_rejects}"
        )
        if record:
            with open(args.dump_trace, "w") as fh:
                trace_to_jsonl(trace, fh)
            print(f"wrote {args.dump_trace}")
    print(f"mean min_reward over {args.reps} reps: {float(np.mean(vals))!r}")
    print(f"planning total (T * steady-state rate): {bench.upper_bound!r}")
    if args.dump_weights:
        _dump_weights(inner, args.dump_weights)
        print(f"wrote {args.dump_weights}")
    return 0


def _cmd_experiment(args) -> int:
    inst = _load_valid_instance(args.instance)
    if inst is None:
        return 2
    config, bench = _config_and_benchmarks(args, inst)
    rows = run_experiment(
        inst,
        config,
        _policy_labels(args),
        reps=args.reps,
        benchmarks=bench,
    )
    for r in rows:
        print(
            f"{r.policy}: mean={r.mean!r} std={r.std!r} gap_pct={r.gap_pct!r} "
            f"forced={r.forced_rejects!r} seconds={r.seconds:.2f}"
        )
    if args.out:
        write_csv(rows, args.out, timing=args.timing)
        print(f"wrote {args.out}")
    return 0


def _cmd_trend(args) -> int:
    scales = tuple(int(s) for s in args.scales.split(","))
    spec = GeneratorSpec(seed=args.spec_seed)
    rows, report = run_trend(
        scales=scales,
        reps=args.reps,
        base_seed=args.seed,
        spec=spec,
        policies=tuple(_policy_labels(args)),
        base_epsilon=args.base_epsilon,
        relaxed=args.relaxed_schedule,
    )
    for name, info in report["policies"].items():
        marker = "strictly decreasing" if info["strictly_decreasing"] else "not monotone"
        gaps = ", ".join(f"{g:.2f}%" for g in info["gaps"])
        print(f"{name}: gaps [{gaps}] ({marker})")
    if args.out:
        write_csv(rows, args.out, timing=args.timing)
        print(f"wrote {args.out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reuselab",
        description="Online allocation of reusable resources: benchmarks, policies, experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check an instance file (and optional config)")
    v.add_argument("--instance", required=True)
    _add_config_flags(v)
    v.set_defaults(func=_cmd_validate)

    b = sub.add_parser("solve-benchmark", help="planning LP values and planning total")
    b.add_argument("--instance", required=True)
    b.add_argument("--delta", type=float, default=0.0)
    b.add_argument("--te-cap", type=int, default=20_000)
    b.add_argument("--out", help="write the values as JSON")
    b.set_defaults(func=_cmd_solve_benchmark)

    s = sub.add_parser("simulate", help="play one policy")
    s.add_argument("--instance", required=True)
    s.add_argument("--policy", default="static")
    s.add_argument("--reps", type=int, default=1)
    s.add_argument("--saa-sample", type=int)
    s.add_argument("--dump-trace", help="write replication 1 as JSON lines")
    s.add_argument("--dump-weights", help="write stage records and final weights as JSON")
    _add_config_flags(s)
    s.set_defaults(func=_cmd_simulate)

    e = sub.add_parser("experiment", help="replicate policies into a CSV")
    e.add_argument("--instance", required=True)
    e.add_argument("--policy", default="static,adaptive")
    e.add_argument("--reps", type=int, default=10)
    e.add_argument("--out", help="summary CSV path")
    e.add_argument("--timing", action="store_true", help="fill the seconds column")
    e.add_argument("--saa-sample", type=int)
    _add_config_flags(e)
    e.set_defaults(func=_cmd_experiment)

    t = sub.add_parser("trend", help="scaling experiment on generated instances")
    t.add_argument("--scales", default="1,2,4")
    t.add_argument("--reps", type=int, default=10)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--spec-seed", type=int, default=0)
    t.add_argument("--policy", default="static,adaptive")
    t.add_argument("--base-epsilon", type=float, default=0.25)
    t.add_argument("--saa-sample", type=int)
    t.add_argument("--relaxed-schedule", action="store_true")
    t.add_argument("--timing", action="store_true")
    t.add_argument("--out", help="summary CSV path")
    t.set_defaults(func=_cmd_trend)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalBreakdown, IterationLimit) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
