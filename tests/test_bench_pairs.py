"""``tools/bench_pairs.py``: paired parent/working-tree benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_summary_counts_wins_ties_and_quartiles():
    bp = _bench_pairs()
    runs = [
        {"parent": {"t": 4.0, "r": 1.0}, "change": {"t": 3.0, "r": 2.0}},
        {"parent": {"t": 2.0, "r": 1.0}, "change": {"t": 2.0, "r": 1.0}},
        {"parent": {"t": 3.0, "r": 1.0}, "change": {"t": 5.0, "r": 0.5}},
    ]
    metrics = [
        {"name": "t", "unit": "s", "better": "lower"},
        {"name": "r", "unit": "1/s", "better": "higher"},
    ]
    got = bp.summarize(runs, metrics)
    t, r = got["t"], got["r"]
    assert (t["wins"], t["ties"], t["losses"], t["pairs"]) == (1, 1, 1, 3)
    assert (r["wins"], r["ties"], r["losses"]) == (1, 1, 1)
    assert t["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5, "iqr": 1.0, "n": 3}
    assert t["change"]["median"] == 3.0 and t["change_pct"] == 0.0
    assert bp.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0, "n": 1}


def _sides(bp, tmp_path):
    """A checkout of HEAD and a copy of the working tree, by side."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    try:
        bp.unpack_rev("HEAD", parent)
        copied = bp.copy_worktree(change)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout with a commit")
    for root in (parent, change):
        assert (root / "perfbench" / "run.py").is_file()
    # the copy holds source files only: no .git, no bytecode caches
    assert copied > 0 and not (change / ".git").exists()
    assert not list(change.rglob("__pycache__"))
    return {"parent": parent, "change": change}


def test_tiny_pair_against_head(tmp_path):
    bp = _bench_pairs()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = {
        side: bp.run_once(root, "replicate", 1, 0.3, size="tiny")
        for side, root in _sides(bp, tmp_path).items()
    }
    assert got["parent"]["ok"] and got["change"]["ok"], got
    summary = bp.summarize(
        [{side: got[side]["metrics"] for side in got}], spec["end_to_end"]
    )
    assert set(summary) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["pairs"] == 1 for m in summary.values())


def test_tiny_traced_pair_against_head(tmp_path):
    # per-layer metrics are summarized as the end-to-end ones are; the
    # adaptive workload solves no time-expanded LP, so that median is 0
    bp = _bench_pairs()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = {
        side: bp.run_once(root, "adaptive", 1, 0.3, size="tiny", trace=True)
        for side, root in _sides(bp, tmp_path).items()
    }
    assert got["parent"]["ok"] and got["change"]["ok"], got
    summary = bp.summarize(
        [{side: got[side]["metrics"] for side in got}], spec["per_layer"]
    )
    assert set(summary) == {m["name"] for m in spec["per_layer"]}
    assert all(m["pairs"] == 1 for m in summary.values())
    assert summary["lp.solve_time_expanded_s"]["change_pct"] is None
    assert summary["lp.solve_lp_us"]["parent"]["median"] > 0.0


def test_unknown_workload_exits_2():
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().main(["--tag", "t", "--workloads", "replicate,nope"])
    assert exc.value.code == 2
