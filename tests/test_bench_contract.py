"""The names the benchmark reaches the package by.

``perfbench/tracing.py`` wraps reuselab functions and methods by owner and
attribute name.  Renaming or removing one of them would break only the
benchmark's traced runs, so the names are checked here; nothing under
``perfbench/`` is edited.
"""

import importlib.util
from pathlib import Path

from helpers import hand_instance, small_mnl_instance
import reuselab
from reuselab import policy
from reuselab.lp import solve_steady_state
from reuselab.model import AlgoConfig, scale_parameter
from reuselab.sim import run_episode

# what one arrival's step runs, per the benchmark's span names
PER_STEP_SPANS = (
    "sim.run_episode",
    "sim.begin_step",
    "sim.sample_arrival",
    "sim.feasible",
    "sim.apply_action",
    "policy.select_action",
    "policy.update_penalty_weights",
    "mnl.best_assortment",
    "mnl.sample",
    "model.sample_uniform",
)


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_targets_resolve():
    targets = _tracing().targets(reuselab)
    assert targets
    for owner, attr, name in targets:
        assert callable(getattr(owner, attr, None)), name


def test_adaptive_plans_stages_through_policy_binding(monkeypatch):
    calls = []
    real = policy.solve_stage_lambda

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(policy, "solve_stage_lambda", spy)
    inst = hand_instance(16)
    lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
    config = AlgoConfig(epsilon=0.25, gamma=scale_parameter(inst, lam))
    pol = policy.AdaptivePolicy(config)
    run_episode(inst, pol, seed=3)
    assert len(calls) == pol.lp_solves == 2


def test_per_step_targets_record_spans():
    # a step that bypasses a wrapped binding would leave its span, and the
    # per-layer metric read from it, empty
    tracer = _tracing().Tracer(reuselab)
    inst = small_mnl_instance(horizon=64)
    lam = solve_steady_state(inst, inst.arrival_weights()).lambda_
    config = AlgoConfig(epsilon=0.25, gamma=scale_parameter(inst, lam))
    with tracer.root("episodes", "round"):
        # through the module, as the benchmark calls it
        reuselab.sim.run_episode(inst, policy.AdaptivePolicy(config), seed=1)
        reuselab.sim.run_episode(inst, policy.UniformRandomPolicy(), seed=2)
    spans = tracer.summary("round")
    for name in PER_STEP_SPANS:
        assert spans.calls(name) > 0, name
    assert spans.calls("sim.begin_step") == 2 * inst.horizon
    assert not hasattr(policy.select_action, "__wrapped__")   # uninstalled
