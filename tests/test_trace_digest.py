"""``tools/trace_digest.py``: per-policy episode digests, the Bernoulli
explicit digest, the planning digest, the logit pricing digest and the
instance-file digest."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "trace_digest.py"
NAMES = [
    "static", "uniform", "adaptive", "hybrid16", "null", "bernoulli", "planning", "pricing",
    "instances",
]


def _digests(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, check=True, env=env,
    ).stdout


def test_two_runs_print_the_same_digests():
    first, second = _digests("1"), _digests("2")
    assert first == second
    lines = [line.split() for line in first.splitlines()]
    assert [name for name, _ in lines] == NAMES
    assert all(re.fullmatch(r"[0-9a-f]{64}", hexdigest) for _, hexdigest in lines)
    assert len({hexdigest for _, hexdigest in lines}) == len(NAMES)


def test_rev_mode_reports_every_policy(capsys):
    try:
        subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout with a commit")
    spec = importlib.util.spec_from_file_location("trace_digest", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    rc = mod.main(["--rev", "HEAD"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == NAMES
    assert all(row[3] in ("same", "DIFFERS") for row in rows)
    assert rc == (1 if any(row[3] == "DIFFERS" for row in rows) else 0)
