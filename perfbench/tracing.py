"""Span tracing of reuselab from outside the package.

The tracer wraps the public functions and methods of each reuselab module
inside the benchmark's own process; nothing under ``src/`` is edited.  A
module-level function is rebound in every reuselab module that imported it
(``policy`` calls ``best_assortment`` through its own binding, ``mnl``
calls ``solve_lp`` through its own, and so on), so every call path is seen.

Each span records its name, start, end, parent span and group: the
benchmark opens one root span per episode, LP solve or set-up, and every
span beneath it shares that root's group id.  Spans are kept in flat
arrays in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

def targets(rl):
    """(owner, attribute, span name) for every wrapped function or method.

    Layers are the package modules.  ``cli`` only parses arguments before
    calling ``harness``; ``model`` is wrapped only where it sits on a hot path.
    """
    sim, policy, mnl, lp, model = rl.sim, rl.policy, rl.mnl, rl.lp, rl.model
    harness, serialize = rl.harness, rl.serialize
    return [
        (sim, "run_episode", "sim.run_episode"),
        (sim.Episode, "begin_step", "sim.begin_step"),
        (sim.Episode, "sample_arrival", "sim.sample_arrival"),
        (sim.Episode, "feasible", "sim.feasible"),
        (sim.Episode, "apply_action", "sim.apply_action"),
        (policy.StaticPolicy, "choose", "policy.static.choose"),
        (policy.UniformRandomPolicy, "choose", "policy.uniform.choose"),
        (policy.AdaptivePolicy, "choose", "policy.adaptive.choose"),
        (policy.AdaptivePolicy, "observe", "policy.adaptive.observe"),
        (policy, "select_action", "policy.select_action"),
        (policy, "update_penalty_weights", "policy.update_penalty_weights"),
        # the stage LP, as the adaptive policy calls it
        (policy, "solve_stage_lambda", "policy.stage_lp"),
        (model.AssortmentActions, "sample_uniform", "model.sample_uniform"),
        (mnl, "best_assortment", "mnl.best_assortment"),
        (mnl.MnlOutcomes, "sample", "mnl.sample"),
        (lp, "solve_lp", "lp.solve_lp"),
        # the restricted master of column generation needs its duals
        (lp, "solve_lp_with_duals", "lp.solve_lp"),
        (lp, "build_steady_state_lp", "lp.build_steady_state_lp"),
        (lp, "build_time_expanded_lp", "lp.build_time_expanded_lp"),
        (lp, "solve_steady_state", "lp.solve_steady_state"),
        (lp, "solve_time_expanded", "lp.solve_time_expanded"),
        (lp, "solve_steady_state_colgen", "lp.solve_steady_state_colgen"),
        (harness, "generate_instance", "harness.generate_instance"),
        (harness, "solve_benchmarks", "harness.solve_benchmarks"),
        (harness, "make_policy", "harness.make_policy"),
        (serialize, "instance_to_json", "serialize.instance_to_json"),
        (serialize, "instance_from_json", "serialize.instance_from_json"),
    ]


def tableau_mb(prog) -> float:
    """Size of the dense simplex tableau ``lp.solve_lp`` builds for ``prog``.

    Computed from the LP's dimensions as the two-phase solver lays them
    out (one slack per inequality row and per finite upper bound, one
    artificial per equality row or row whose normalized rhs is negative),
    not measured.
    """
    senses = np.asarray(prog.senses)
    rhs = prog.b if prog.lower is None else prog.b - prog.A @ prog.lower
    n_up = 0 if prog.upper is None else int(np.isfinite(prog.upper).sum())
    eq = senses == "=="
    flipped = np.where(senses == ">=", -rhs, rhs)
    n_slack = int((~eq).sum()) + n_up
    n_art = int(eq.sum()) + int(((~eq) & (flipped < 0)).sum())
    rows = prog.n_rows + n_up + 1
    cols = prog.n_vars + n_slack + n_art + 1
    return rows * cols * 8 / 1e6


class Tracer:
    """Records spans around reuselab's public functions while installed."""

    def __init__(self, rl):
        self._modules = [
            rl, rl.sim, rl.policy, rl.mnl, rl.lp, rl.model, rl.harness, rl.serialize,
        ]
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._group = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._group_now = -1
        self.group_kind: list[str] = []
        self.group_label: list[str] = []
        # counters read at the same boundaries as the spans
        self.proposals_nonnull = 0
        self.forced = 0
        self.tableau_mb_max = 0.0
        self.te_dims = (0, 0)
        self._hooks = {
            "sim.feasible": self._on_feasible,
            "lp.solve_lp": self._on_solve_lp,
            "lp.build_time_expanded_lp": self._on_build_te,
        }
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = [
            (owner, attr, self._wrap(getattr(owner, attr), name))
            for owner, attr, name in targets(rl)
        ]

    # -- counters (round groups only; set-up is reported separately) ------

    def _in_round(self) -> bool:
        return self.group_kind[self._group_now] == "round"

    def _on_feasible(self, args, result):
        episode, _customer, action = args[:3]
        if action != episode.inst.actions.null_action:
            self.proposals_nonnull += 1
            self.forced += not result

    def _on_solve_lp(self, args, result):
        if self._in_round():
            self.tableau_mb_max = max(self.tableau_mb_max, tableau_mb(args[0]))

    def _on_build_te(self, args, result):
        if self._in_round():
            self.te_dims = (result[0].n_rows, result[0].n_vars)

    # -- spans ------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._group.append(self._group_now)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name):
        nid = self._nid(name)
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self._start[idx] = t0
                self._end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _install(self):
        for owner, attr, wrapper in self._wrappers:
            original = wrapper.__wrapped__
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in self._modules:
                if mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, label: str, kind: str):
        """Install the wrappers and open one root span (a new group)."""
        self._group_now = len(self.group_kind)
        self.group_kind.append(kind)
        self.group_label.append(label)
        self._install()
        idx = self._open(self._nid("bench." + label))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._start[idx] = t0
            self._end[idx] = t1
            self._uninstall()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "group": np.frombuffer(self._group, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path, env: dict):
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            group_kind=np.array(self.group_kind),
            group_label=np.array(self.group_label),
            env=np.array(repr(env)),
            **a,
        )

    def summary(self, kind: str) -> "SpanSummary":
        """Per-name call counts, inclusive and self time over groups of ``kind``."""
        return SpanSummary(self, kind)


class SpanSummary:
    def __init__(self, tracer: Tracer, kind: str):
        a = tracer.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has = a["parent"] >= 0
        np.add.at(child, a["parent"][has], dur[has])
        self_t = dur - child
        kinds = np.array(tracer.group_kind + ["?"])
        keep = kinds[a["group"]] == kind
        names = np.array(tracer.names + ["?"])[a["name"][keep]]
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_total: dict[str, float] = {}
        for nm, d, s in zip(names.tolist(), dur[keep].tolist(), self_t[keep].tolist()):
            self.count[nm] = self.count.get(nm, 0) + 1
            self.total[nm] = self.total.get(nm, 0.0) + d
            self.self_total[nm] = self.self_total.get(nm, 0.0) + s
        self.spans = int(keep.sum())
        # a span's parent always lies in the span's own group
        parents = a["parent"][keep]
        parent_names = np.array(tracer.names + ["?"])[a["name"][parents[parents >= 0]]]
        child_names = names[parents >= 0]
        self.colgen_builds = int(
            np.sum(
                (child_names == "lp.build_steady_state_lp")
                & (parent_names == "lp.solve_steady_state_colgen")
            )
        )

    def mean(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total[name] / n if n else 0.0

    def calls(self, name: str) -> int:
        return self.count.get(name, 0)

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nm, s in self.self_total.items():
            layer = nm.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s
        return out
