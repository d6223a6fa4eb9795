#!/usr/bin/env python3
"""SHA-256 digests of episodes, planning LPs and instance files, for byte identity.

    python3 tools/trace_digest.py              # digests of this tree
    python3 tools/trace_digest.py --rev HEAD   # a revision against this tree

Plays ``static``, ``uniform``, ``adaptive``, ``hybrid16`` and ``null`` on
two fixed instances shaped like the benchmark's episode workloads,
``GeneratorSpec(scale=2, seed=1)`` with epsilon 1/8 and
``GeneratorSpec(scale=4, seed=1)`` with epsilon 1/16, planned as
``run_trend`` plans them, one episode each with replication seed 2.  A
policy's digest covers, on both instances, every step record (type,
chosen and executed action, forced flag, reward and consumption bytes,
durations), the reward totals, the peak occupancy, for the weighted
policies the final stage's log weights, and the final
``bit_generator.state`` of the policy stream, kept by wrapping the
policy's ``reset``.  Any change to a draw, a float or a decision changes
the digest, and so does a policy that reads its stream ahead of what it
uses.

The ``bernoulli`` digest covers the same records for all five policies
on one fixed explicit instance whose outcomes are Bernoulli draws
(``bernoulli_instance``: 2048 steps, tight enough capacities that steps
are forced), the instance type whose outcome draws are sized
``random(n)`` calls rather than scalar ones.

One more digest, ``planning``, covers the planning LPs of four fixed
instances, three shaped like the benchmark's ``planning`` workload and one
with every assortment of up to 12 of 12 products, 4096 actions, whose
attraction sums of 8 terms and more take numpy's unrolled pairwise loop
(``GeneratorSpec(seed=1)`` with the fields in ``PLANNING``): the bytes of
the steady-state LP over every column and over column generation's
columns, of the time-expanded LP where it fits under its caps, and the
value and rates of ``solve_steady_state``, ``solve_time_expanded`` and
``solve_steady_state_colgen``.

The ``pricing`` digest covers the logit pricing oracle directly, not
only the calls an episode happens to make: ``best_assortment`` answers,
for list and array coefficients, and ``MnlOutcomes.best_action`` answers
on seeded logit models with 1 to 12 products and a size cap of 1 to 4
(one customer's attractions reach about 1e300 and 1e-300), on
coefficients with no, one, two, half and all products negative, and on
the edge coefficients ``EDGE_COEFS`` (``-0.0``, subnormal, ``-inf`` and
-1e300), alone and beside one ordinary negative coefficient.

The last digest, ``instances``, covers the instance files of the fixed
instances above (the two episode instances, ``bernoulli_instance`` and the
four planning instances), each written, read back and written again,
``instance_to_json(instance_from_json(instance_to_json(inst)))``, so that
it covers the reader as well as the writer.

With ``--rev`` the same digests are computed for ``git archive REV``
unpacked in a temporary directory (this script, that revision's
``src/``) and for this tree, printed side by side; the exit status is 1
when any digest differs.  ``--root DIR`` imports reuselab from
``DIR/src`` instead of this tree's.  Uses the standard library, numpy and
reuselab's public functions only.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
POLICIES = ("static", "uniform", "adaptive", "hybrid16", "null")
# (scale, epsilon) of the replicate- and adaptive-shaped instances
INSTANCES = ((2, 1 / 8), (4, 1 / 16))
SEED = 1
# GeneratorSpec fields of the planning instances: time-expanded,
# steady-state and column-generation shaped, then assortment sizes 1-12
PLANNING = (
    dict(base_horizon=8, n_customers=4),
    dict(n_products=7, max_size=3, n_customers=6),
    dict(n_products=12, max_size=4, n_customers=4),
    dict(n_products=12, max_size=12, n_customers=2),
)
# coefficients at the edges of best_assortment's candidate test:
# -0.0 makes no candidate, the others are negative
EDGE_COEFS = (-0.0, -5e-324, -1e-310, -float("inf"), -1e300)
NAMES = (*POLICIES, "bernoulli", "planning", "pricing", "instances")


def _floats(h, values) -> None:
    h.update(np.ascontiguousarray(values, dtype=float).tobytes())


def _config(rl, inst, bench, epsilon):
    """The policy configuration ``run_trend`` gives ``inst`` at ``epsilon``."""
    return rl.AlgoConfig(
        epsilon=epsilon,
        gamma=rl.scale_parameter(inst, bench.lambda_ss),
        delta=0.0,
        tail_cutoff=bench.tail_cutoff,
        seed=SEED,
    )


def _episode(h, rl, inst, pol) -> None:
    """Every step record, the totals, any final weights and the policy
    stream's final state of one episode."""
    streams = []
    reset = pol.reset

    def recording_reset(inst, rng):   # keeps the policy stream the episode hands over
        streams.append(rng)
        reset(inst, rng)

    pol.reset = recording_reset
    trace = rl.run_episode(inst, pol, SEED + 1, record_steps=True)
    for st in trace.steps:
        h.update(repr((st.step, st.customer, st.chosen, st.executed, st.forced,
                       sorted(st.durations.items()))).encode())
        _floats(h, st.reward)
        _floats(h, st.consumption)
    _floats(h, trace.reward_total)
    _floats(h, trace.peak_occupied)
    ws = getattr(pol, "ws", None)
    if ws is not None:
        _floats(h, ws.log_resource)
        _floats(h, ws.log_reward_mag)
    h.update(repr(streams[0].bit_generator.state).encode())


def bernoulli_instance(rl):
    """Explicit instance with Bernoulli outcomes: 3 resources, 2 reward
    indices, 4 actions, 3 real types plus a null type, 2048 steps."""
    rng = np.random.default_rng(SEED)
    n_res, n_rew, n_act = 3, 2, 4
    customers = [rl.CustomerType(0.25, rl.zero_outcomes(n_rew, n_res, n_act))]
    for _ in range(3):
        w = rng.uniform(0.0, 1.0, size=(n_rew, n_act))
        a = rng.uniform(0.0, 1.0, size=(n_res, n_act))
        w[:, 0] = a[:, 0] = 0.0
        customers.append(rl.CustomerType(0.25, rl.ExplicitOutcomes(w, a, noise="bernoulli")))
    resources = [
        rl.ResourceSpec(2.0, rl.SurvivalCurve([1.0, 0.8, 0.5, 0.2])) for _ in range(n_res)
    ]
    return rl.Instance(
        resources=resources,
        reward_count=n_rew,
        customers=customers,
        actions=rl.ExplicitActions(n_act),
        horizon=2048,
        null_type=0,
    )


def digests(rl) -> dict:
    """Name -> hex SHA-256 over its episodes or planning LPs."""
    hashes = {name: hashlib.sha256() for name in POLICIES}
    for scale, epsilon in INSTANCES:
        inst = rl.generate_instance(rl.GeneratorSpec(scale=scale, seed=SEED))
        bench = rl.solve_benchmarks(inst)
        config = _config(rl, inst, bench, epsilon)
        for name in POLICIES:
            _episode(hashes[name], rl, inst, rl.make_policy(name, inst, config, bench))
    hashes["bernoulli"] = hashlib.sha256()
    inst = bernoulli_instance(rl)
    bench = rl.solve_benchmarks(inst)
    config = _config(rl, inst, bench, 1 / 8)
    for name in POLICIES:
        _episode(hashes["bernoulli"], rl, inst, rl.make_policy(name, inst, config, bench))
    hashes["planning"] = planning_hash(rl)
    hashes["pricing"] = pricing_hash(rl)
    hashes["instances"] = instances_hash(rl)
    return {name: h.hexdigest() for name, h in hashes.items()}


def planning_hash(rl):
    """SHA-256 over the planning LPs and answers of the ``PLANNING`` instances."""
    h = hashlib.sha256()

    def lp(built):
        prog, columns = built
        for values in (prog.c, prog.A, prog.b):
            _floats(h, values)
        h.update(repr((prog.senses, columns)).encode())

    def answer(lam, rates):
        h.update(repr((lam, list(rates.items()))).encode())

    for spec in PLANNING:
        inst = rl.generate_instance(rl.GeneratorSpec(seed=SEED, **spec))
        p = inst.arrival_weights()
        sol = rl.solve_steady_state_colgen(inst, p)
        answer(sol.lambda_, sol.x)
        lp(rl.build_steady_state_lp(inst, p, columns=list(sol.x)))
        lp(rl.build_steady_state_lp(inst, p))
        sol = rl.solve_steady_state(inst, p)
        answer(sol.lambda_, sol.x)
        try:
            lp(rl.build_time_expanded_lp(inst, p))
        except rl.TooLarge:
            continue
        answer(*rl.solve_time_expanded(inst, p))
    return h


def pricing_hash(rl):
    """SHA-256 over logit pricing answers on seeded models and coefficients."""
    h = hashlib.sha256()
    rng = np.random.default_rng(SEED)

    def coefs(n):
        for k in sorted({0, 1, min(2, n), n // 2, n}):
            coef = rng.uniform(0.0, 1.0, size=n)
            coef[rng.choice(n, size=k, replace=False)] *= -2.0
            yield coef.tolist()
        for edge in EDGE_COEFS:
            coef = rng.uniform(0.0, 1.0, size=n).tolist()
            coef[int(rng.integers(n))] = edge
            yield coef
            if n > 1:
                i, other = rng.choice(n, size=2, replace=False).tolist()
                coef = rng.uniform(0.0, 1.0, size=n).tolist()
                coef[i], coef[other] = edge, -float(rng.uniform(0.0, 2.0))
                yield coef

    for n in range(1, 13):
        for size in range(1, 5):
            logs = rng.normal(0.0, 1.5, size=(2, n, 1))
            logs[1, -1] -= 680.0          # an attraction near 1e-300 when n > 1
            logs[1, 0] = 690.7            # and one near 1e300
            model = rl.MnlModel(np.ones((n, 1)), logs, size, rng.uniform(0.5, 2.0, size=n))
            space = model.action_space()
            for j in range(2):
                for coef in coefs(n):
                    answers = (rl.best_assortment(model, j, coef),
                               rl.best_assortment(model, j, np.array(coef)))
                    h.update(repr((n, size, j, coef, answers)).encode())
                om = rl.MnlOutcomes(model, j)
                for _ in range(8):
                    cost, credit = rng.random(n), rng.random(n) * 3.0
                    h.update(repr(om.best_action(space, cost, credit)).encode())
            h.update(repr(rl.MnlOutcomes(model, None).best_action(space, cost, credit)).encode())
    return h


def instances_hash(rl):
    """SHA-256 over the instance files of the episode, Bernoulli and planning
    instances, each after a load and a save."""
    h = hashlib.sha256()
    insts = [rl.generate_instance(rl.GeneratorSpec(scale=scale, seed=SEED)) for scale, _ in INSTANCES]
    insts.append(bernoulli_instance(rl))
    insts += [rl.generate_instance(rl.GeneratorSpec(seed=SEED, **spec)) for spec in PLANNING]
    for inst in insts:
        h.update(rl.instance_to_json(rl.instance_from_json(rl.instance_to_json(inst))).encode())
    return h


def _run_at(root: Path) -> dict:
    """``digests`` of ``root/src`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--root", str(root)],
        capture_output=True, text=True, check=True,
    ).stdout
    return dict(line.split() for line in out.splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=ROOT, help="import reuselab from ROOT/src")
    ap.add_argument("--rev", help="compare the digests of this revision against this tree")
    args = ap.parse_args(argv)
    if args.rev is None:
        sys.path.insert(0, str(args.root.resolve() / "src"))
        import reuselab

        logging.getLogger("reuselab").setLevel(logging.ERROR)   # clamped-margin notes
        for name, hexdigest in digests(reuselab).items():
            print(f"{name} {hexdigest}")
        return 0
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_pairs import unpack_rev

    with tempfile.TemporaryDirectory(prefix="trace_digest_") as tmp:
        sha = unpack_rev(args.rev, Path(tmp))
        parent = _run_at(Path(tmp))
    change = _run_at(args.root)
    print(f"parent {sha[:12]} vs {args.root}")
    differ = [name for name in NAMES if parent[name] != change[name]]
    for name in NAMES:
        verdict = "DIFFERS" if name in differ else "same"
        print(f"{name:9s} {parent[name][:16]} {change[name][:16]} {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
