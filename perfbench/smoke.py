#!/usr/bin/env python3
"""Smoke check of the benchmark at a tiny size.

    python3 perfbench/smoke.py

For each workload and two seeds, runs ``run.py --size tiny`` untraced and
traced and checks that:

* the metric names and units printed match ``BENCHMARK.json`` exactly
  (``end_to_end`` untraced, ``per_layer`` traced), every value finite;
* ``correct`` holds and no operation or check failed (error rate 0);
* each policy's ``gap_pct`` equals what ``harness.run_experiment`` reports
  for the same instance, configuration and replication seeds.

Finally it copies ``BENCHMARK.json`` and this directory, without the
package sources, into ``.perfbench_out/bare`` and checks that a run there
fails with a non-zero exit and prints no result.  Exits non-zero on any
failure.
"""

from __future__ import annotations

import json
import logging
import math
import shutil
import subprocess
import sys

import run as bench

SEEDS = (0, 7)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    rl = bench.import_reuselab()
    # run_experiment below logs margin clamps; the benchmark counts them
    logging.getLogger("reuselab.policy").addHandler(logging.NullHandler())
    for workload in bench.WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                tag = f"{workload} seed {seed} trace {trace}"
                proc = subprocess.run(
                    [sys.executable, str(bench.HERE / "run.py"),
                     "--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny"],
                    cwd=bench.ROOT, capture_output=True, text=True, timeout=300,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(lines[-1])
                info = json.loads(lines[-2].removeprefix("# info "))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want[trace]:
                    problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                    f"or units differ from BENCHMARK.json")
                bad = [k for k, v in result["metrics"].items()
                       if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
                if bad:
                    problems.append(f"{tag}: non-finite values {bad}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{tag}: correct={result['correct']} "
                                    f"failed={result['failed']}/{result['attempted']}")
                if workload in bench.POLICIES and trace == 0:
                    problems += check_gaps(rl, workload, seed, info, tag)
                print(f"{tag}: {result['failed']}/{result['attempted']} failed, "
                      f"{info['rounds']} rounds", flush=True)
    problems += check_bare()
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def check_gaps(rl, workload, seed, info, tag) -> list[str]:
    """The benchmark's gap must be run_experiment's for the same seeds."""
    inst, _text, bench_lp, config, _pols = bench.episode_setup(rl, "tiny", workload, seed)
    rows = rl.harness.run_experiment(
        inst, config, bench.POLICIES[workload], reps=1,
        benchmarks=bench_lp,
    )
    out = []
    for row in rows:
        if info.get(f"{row.policy}.gap_reps") != 1:
            out.append(f"{tag}: {row.policy} did not finish its replication block")
        elif info[f"{row.policy}.gap_pct"] != row.gap_pct:
            out.append(f"{tag}: {row.policy} gap {info[f'{row.policy}.gap_pct']!r} "
                       f"!= run_experiment {row.gap_pct!r}")
    return out


def check_bare() -> list[str]:
    """Without the package sources the benchmark must fail and print no result."""
    bare = bench.ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, bare / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bare / bench.HERE.name / "run.py"), "--workload", "replicate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"bare directory: exit {proc.returncode} without a result", flush=True)
    return []


if __name__ == "__main__":
    sys.exit(main())
