#!/usr/bin/env python3
"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --rev HEAD --tag mytag --pairs 10 \\
        --workloads replicate,adaptive,planning [--trace]

Runs ``perfbench/run.py --trace 0`` alternately in a checkout of ``--rev``
and in a copy of the working tree, for seeds 1 to ``--pairs`` and each
chosen workload, each run lasting ``BENCHMARK.json``'s ``run_seconds``.
With ``--trace`` the runs are ``--trace 1`` runs, and the per-layer
metrics take the end-to-end metrics' place in everything below.
Pair k runs the parent first when k is even and the working tree first
when k is odd, so neither side always gets the warmer (or the quieter)
machine.  Both sides run from fresh temporary directories, removed at the
end: the parent is a ``git archive`` of the revision unpacked with
``tar``, and the working tree is copied file by file (tracked and
untracked files, not the ones ``.gitignore`` lists), so neither side
starts with the other's bytecode caches or benchmark outputs.  The
repository's own ``.git`` is left untouched.

Writes ``BENCH_<tag>.json`` at the repository root: for every workload
and every end-to-end (or, with ``--trace``, per-layer) metric in
``BENCHMARK.json``, each side's median, quartiles and interquartile
range, the change of the medians in percent (null when the parent's
median is 0), and how many pairs the working tree won, lost and tied,
plus every run's raw metrics.  Every run
must print ``correct: true`` with ``failed: 0``; the tool says which did
not and exits 1.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (inclusive method) and their IQR."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric sides and wins of the change over ``runs``' pairs.

    Each run is ``{"parent": {name: value}, "change": {name: value}}``;
    ``metrics`` are ``BENCHMARK.json`` ``end_to_end`` or ``per_layer``
    entries.
    """
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_side, c_side = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": p_side,
            "change": c_side,
            "change_pct": (
                100.0 * (c_side["median"] / p_side["median"] - 1.0)
                if p_side["median"] else None
            ),
            "wins": wins,
            "losses": len(runs) - wins - ties,
            "ties": ties,
            "pairs": len(runs),
        }
    return out


def run_once(
    root: Path, workload: str, seed: int, seconds: float, size: str = "full",
    trace: bool = False,
) -> dict:
    """One benchmark run in ``root``; its metric values and checks."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--size", size,
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr[-300:]}"}
    result = json.loads(lines[-1])
    return {
        "ok": result["correct"] is True and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def unpack_rev(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into ``dest``; returns the full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, ["git", "archive", sha])
    return sha


def copy_worktree(dest: Path) -> int:
    """Copy the working tree's tracked and untracked files into ``dest``.

    Files ``.gitignore`` lists (bytecode caches, benchmark outputs) and
    tracked files deleted from the tree are left out.  Returns the number
    of files copied.
    """
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    names = sorted({n for n in listed.split("\0") if n and (ROOT / n).is_file()})
    for name in names:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dest / name)
    return len(names)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="replicate,adaptive,planning")
    ap.add_argument(
        "--trace", action="store_true", help="paired --trace 1 runs: per-layer metrics"
    )
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        ap.error(f"unknown workloads {', '.join(unknown)}; choose from {', '.join(known)}")
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    headline = "lp.self_pct" if args.trace else "round_s"

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_root, change_root = Path(tmp) / "parent", Path(tmp) / "change"
        parent_root.mkdir()
        parent_rev = unpack_rev(args.rev, parent_root)
        copy_worktree(change_root)
        report = {
            "tag": args.tag,
            "parent": parent_rev,
            "change": "working tree (copy)",
            "seconds": seconds,
            "trace": args.trace,
            "pairs": args.pairs,
            "seeds": list(range(1, args.pairs + 1)),
            "workloads": {},
        }
        failures = []
        for workload in workloads:
            runs = []
            for k, seed in enumerate(report["seeds"]):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                got = {}
                for side in order:
                    root = parent_root if side == "parent" else change_root
                    got[side] = run_once(root, workload, seed, seconds, trace=args.trace)
                    if not got[side]["ok"]:
                        failures.append(f"{workload} seed {seed} {side}: {got[side]}")
                runs.append({"seed": seed, "first": order[0], **got})
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{side} {headline}={got[side].get('metrics', {}).get(headline, float('nan')):.4g}"
                    for side in ("parent", "change")
                ), flush=True)
            complete = [
                {side: r[side]["metrics"] for side in ("parent", "change")}
                for r in runs if r["parent"]["ok"] and r["change"]["ok"]
            ]
            report["workloads"][workload] = {
                "all_correct": len(complete) == len(runs),
                "metrics": summarize(complete, metrics) if complete else {},
                "runs": runs,
            }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    width = max(len(m["name"]) for m in metrics)
    for workload, got in report["workloads"].items():
        for name, m in got["metrics"].items():
            pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f}%"
            print(
                f"{workload:9s} {name:{width}s} parent {m['parent']['median']:.4g} "
                f"(IQR {m['parent']['iqr']:.2g})  change {m['change']['median']:.4g} "
                f"(IQR {m['change']['iqr']:.2g})  {pct}  "
                f"wins {m['wins']}/{m['pairs']}"
            )
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
