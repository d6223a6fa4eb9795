import json
import time

import pytest

from helpers import hand_instance, small_mnl_instance
from reuselab import harness
from reuselab.cli import main
from reuselab.harness import GeneratorSpec, generate_instance
from reuselab.serialize import instance_to_json, save_instance


@pytest.fixture()
def inst_file(tmp_path):
    path = tmp_path / "hand.json"
    save_instance(path, hand_instance(16))
    return str(path)


class TestValidate:
    def test_ok(self, inst_file, capsys):
        assert main(["validate", "--instance", inst_file]) == 0
        out = capsys.readouterr().out
        assert "ok: horizon=16" in out

    def test_with_config_flags(self, inst_file, capsys):
        rc = main(["validate", "--instance", inst_file, "--epsilon", "0.25"])
        assert rc == 0
        assert "config ok" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, solves", [
        (["--gamma", "1.0", "--tail-cutoff", "2"], 0),
        (["--config", "gamma.json"], 0),
        (["--epsilon", "0.25"], 1),
    ])
    def test_steady_state_lp_solved_only_to_derive_gamma(
        self, inst_file, tmp_path, monkeypatch, capsys, flags, solves
    ):
        (tmp_path / "gamma.json").write_text('{"gamma": 1.0}')
        monkeypatch.chdir(tmp_path)
        calls = []
        plan_rates = harness._lp.plan_rates
        monkeypatch.setattr(
            harness._lp, "plan_rates", lambda *a: calls.append(a) or plan_rates(*a)
        )
        assert main(["validate", "--instance", inst_file, *flags]) == 0
        assert "config ok" in capsys.readouterr().out
        assert len(calls) == solves

    @pytest.mark.parametrize("flag, message", [
        (["--delta", "-0.1"], "delta must lie in [0, 1), got -0.1"),
        (["--epsilon", "0.3"], "1/epsilon must be a power of two, got 0.3"),
    ])
    def test_invalid_config_named_before_any_solve(
        self, inst_file, monkeypatch, capsys, flag, message
    ):
        # gamma is left to be derived, but the config fails without an LP solve
        calls = []
        monkeypatch.setattr(harness._lp, "plan_rates", lambda *a: calls.append(a))
        assert main(["validate", "--instance", inst_file, *flag]) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert calls == []

    def test_invalid_instance(self, inst_file, capsys):
        doc = json.loads(open(inst_file).read())
        doc["customers"][1]["weight"] = 0.7  # weights no longer sum to 1
        with open(inst_file, "w") as fh:
            json.dump(doc, fh)
        assert main(["validate", "--instance", inst_file]) == 2
        assert "invalid" in capsys.readouterr().out

    @pytest.mark.parametrize("path, value, field", [
        (("resources", 0, "capacity"), float("inf"), "resources[0].capacity"),
        (("resources", 0, "survival", 0), float("inf"), "resources[0].survival"),
        (("resources", 0, "survival", 1), float("nan"), "resources[0].survival"),
        (("customers", 1, "weight"), float("nan"), "customers[1].weight"),
        (("customers", 1, "outcomes", "rewards", 0, 1), float("nan"), "customers[1].outcomes: reward table"),
        (("customers", 1, "outcomes", "consumption", 0, 1), float("inf"), "customers[1].outcomes: consumption table"),
    ])
    @pytest.mark.parametrize("command", ["validate", "solve-benchmark"])
    def test_non_finite_field_named(self, inst_file, path, value, field, command, capsys):
        doc = json.loads(open(inst_file).read())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with open(inst_file, "w") as fh:
            json.dump(doc, fh)
        assert main([command, "--instance", inst_file]) == 2
        cap = capsys.readouterr()
        lines = (cap.out if command == "validate" else cap.err).splitlines()
        assert any(ln.startswith(f"invalid: {field}") and "finite" in ln for ln in lines), lines

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["validate", "--instance", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--instance", str(path)]) == 2

    def test_bad_epsilon(self, inst_file, capsys):
        for eps in ("0.3", "0", "-0.1", "nan"):
            rc = main(["validate", "--instance", inst_file, "--epsilon", eps])
            assert rc == 2, eps
            err = capsys.readouterr().err
            assert err.startswith("error: config: "), eps
            assert err.count("\n") == 1, eps

    @pytest.mark.parametrize("flag", [
        ["--eta", "3"], ["--gamma", "-1"], ["--delta", "1.5"],
        ["--tail-cutoff", "0"], ["--seed", str(2**64)],
        ["--delta", "-0.1"], ["--delta", "nan"],
    ])
    def test_every_config_flag_is_checked(self, inst_file, flag, capsys):
        assert main(["validate", "--instance", inst_file, *flag]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")

    def test_relaxed_schedule_flag_sets_the_field(self, inst_file, capsys):
        rc = main(["validate", "--instance", inst_file, "--relaxed-schedule"])
        assert rc == 0
        assert "relaxed_schedule=True)" in capsys.readouterr().out

    def test_config_file_sets_every_field(self, inst_file, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "epsilon": 0.3, "gamma": 2, "delta": 0.0, "tail_cutoff": 1,
            "eta": None, "seed": 3, "relaxed_schedule": True,
        }))
        assert main(["validate", "--instance", inst_file, "--config", str(path)]) == 0
        assert (
            "config ok: AlgoConfig(epsilon=0.3, gamma=2, delta=0.0, tail_cutoff=1, "
            "eta=None, seed=3, relaxed_schedule=True)"
        ) in capsys.readouterr().out

    @pytest.mark.parametrize("doc, msg", [
        ({"epsilon": 0.25, "bogus": 1}, "error: config: unknown field 'bogus'"),
        ({"epsilon": "x"}, "error: config: epsilon must be float, got 'x'"),
        ({"relaxed_schedule": 1}, "error: config: relaxed_schedule must be bool, got 1"),
        ([0.25], "error: config: expected a JSON object"),
    ])
    def test_bad_config_file(self, inst_file, tmp_path, doc, msg, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--instance", inst_file, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(msg)
        assert err.count("\n") == 1


class TestSolveBenchmark:
    def test_prints_values(self, inst_file, capsys):
        assert main(["solve-benchmark", "--instance", inst_file]) == 0
        out = capsys.readouterr().out
        assert "steady-state rate: 0.5" in out
        assert "planning total (T * steady-state rate): 8.0" in out
        assert "time-expanded rate:" in out
        assert "tail cutoff:" in out

    def test_out_json(self, inst_file, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        rc = main(["solve-benchmark", "--instance", inst_file, "--out", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {
            "lambda_ss", "lambda_te", "upper_bound", "tail_cutoff", "delta", "rates",
        }
        assert doc["lambda_ss"] == pytest.approx(0.5)
        assert doc["upper_bound"] == pytest.approx(8.0)
        assert any(r["rate"] > 0 for r in doc["rates"])

    def test_te_cap_skips(self, inst_file, capsys):
        rc = main(["solve-benchmark", "--instance", inst_file, "--te-cap", "3"])
        assert rc == 0
        assert "skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", ["1.5", "1", "-0.1", "nan"])
    def test_delta_outside_unit_interval_rejected(self, inst_file, delta, capsys):
        rc = main(["solve-benchmark", "--instance", inst_file, "--delta", delta])
        assert rc == 2
        cap = capsys.readouterr()
        assert cap.err == f"error: delta must lie in [0, 1), got {float(delta)}\n"
        assert cap.out == ""

    def test_tableau_cap_skips(self, tmp_path, capsys):
        # 13,201 variables pass the default variable cap, but with 2,004
        # rows the dense tableau would take 244 MB and the solve minutes
        path = tmp_path / "long.json"
        save_instance(path, generate_instance(GeneratorSpec(base_horizon=200, n_customers=5)))
        start = time.perf_counter()
        assert main(["solve-benchmark", "--instance", str(path)]) == 0
        assert time.perf_counter() - start < 20.0
        out = capsys.readouterr().out
        assert "time-expanded rate: skipped (over the size cap)" in out
        assert float(out.split("steady-state rate: ")[1].split()[0]) > 0.0


class TestSimulate:
    def test_single_rep(self, inst_file, capsys):
        rc = main(["simulate", "--instance", inst_file, "--policy", "static"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rep 1: min_reward=" in out
        assert "mean min_reward over 1 reps:" in out
        assert "planning total (T * steady-state rate): 8.0" in out

    def test_dump_trace(self, inst_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        rc = main([
            "simulate", "--instance", inst_file, "--policy", "static",
            "--dump-trace", str(trace_path),
        ])
        assert rc == 0
        lines = trace_path.read_text().strip().split("\n")
        assert len(lines) == 16
        assert json.loads(lines[0])["t"] == 1

    def test_dump_weights(self, inst_file, tmp_path, capsys):
        for label in ("adaptive", "adaptive+tailguard"):
            weights_path = tmp_path / f"{label}.json"
            rc = main([
                "simulate", "--instance", inst_file, "--policy", label,
                "--dump-weights", str(weights_path),
            ])
            assert rc == 0, label
            doc = json.loads(weights_path.read_text())
            assert [st["stage"] for st in doc["stages"]] == [-1, 0, 1], label
            assert doc["final"]["mode"] in ("weighted", "uniform")

    def test_dump_weights_needs_adaptive(self, inst_file, tmp_path, capsys):
        for label in ("static", "static+tailguard"):
            path = tmp_path / "weights.json"
            rc = main([
                "simulate", "--instance", inst_file, "--policy", label,
                "--dump-weights", str(path),
            ])
            assert rc == 2, label
            assert not path.exists()

    def test_exactly_one_policy(self, inst_file, capsys):
        rc = main(["simulate", "--instance", inst_file, "--policy", "static,adaptive"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_policy_label(self, inst_file, capsys):
        rc = main(["simulate", "--instance", inst_file, "--policy", "greedy"])
        assert rc == 2
        assert "policy label" in capsys.readouterr().err


@pytest.fixture
def plan_calls(monkeypatch):
    """The arguments of every ``lp.plan_rates`` call, which still solves."""
    calls = []
    plan = harness._lp.plan_rates

    def counted(*args):
        calls.append(args)
        return plan(*args)

    monkeypatch.setattr(harness._lp, "plan_rates", counted)
    return calls


@pytest.mark.parametrize("command", ["simulate", "experiment"])
class TestConfigBeforeSolve:
    def test_invalid_config_named_before_any_solve(self, inst_file, plan_calls, capsys, command):
        argv = [command, "--instance", inst_file, "--policy", "static", "--delta", "-0.1"]
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.err == "error: config: delta must lie in [0, 1), got -0.1\n"
        assert cap.out == ""
        assert plan_calls == []

    @pytest.mark.parametrize("flags", [[], ["--gamma", "0.5"]])
    def test_valid_run_solves_once(self, inst_file, plan_calls, capsys, command, flags):
        argv = [command, "--instance", inst_file, "--policy", "static", "--reps", "2", *flags]
        assert main(argv) == 0
        assert len(plan_calls) == 1


class TestExperiment:
    def test_csv_deterministic(self, inst_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main([
                "experiment", "--instance", inst_file,
                "--policy", "static,null", "--reps", "3", "--out", str(path),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0].startswith("T,eps,UB,policy,")
        assert len(lines) == 3

    def test_prints_summary(self, inst_file, capsys):
        rc = main(["experiment", "--instance", inst_file, "--policy", "null", "--reps", "2"])
        assert rc == 0
        assert "null: mean=0.0" in capsys.readouterr().out

    def test_saa_sample_goes_before_tailguard(self, inst_file, tmp_path, capsys):
        path = tmp_path / "saa.csv"
        rc = main([
            "experiment", "--instance", inst_file, "--policy", "static+tailguard",
            "--saa-sample", "10", "--reps", "2", "--out", str(path),
        ])
        assert rc == 0
        assert "static+saa10+tailguard: mean=" in capsys.readouterr().out
        header, row = path.read_text().strip().split("\n")
        assert row.split(",")[header.split(",").index("policy")] == "static+saa10+tailguard"

    @pytest.mark.parametrize("argv, err", [
        (["--policy", "static", "--saa-sample", "0"], "error: --saa-sample must be >= 1"),
        (["--policy", "adaptive", "--saa-sample", "-2"], "error: --saa-sample must be >= 1"),
        (["--policy", "hybrid2+saa0"], "error: policy label 'hybrid2+saa0'"),
    ])
    def test_empty_subsample_rejected(self, inst_file, tmp_path, argv, err, capsys):
        path = tmp_path / "saa.csv"
        rc = main([
            "experiment", "--instance", inst_file, *argv, "--reps", "1", "--out", str(path),
        ])
        assert rc == 2
        cap = capsys.readouterr()
        assert cap.err.startswith(err)
        assert cap.err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("argv, err", [
        (["--policy", "static+saa5", "--saa-sample", "10"],
         "error: --saa-sample 10: policy label 'static+saa5' already carries +saa\n"),
        (["--policy", "uniform+saa5"],
         "error: policy label 'uniform+saa5': uniform plans nothing, so +saa does not apply\n"),
    ], ids=["saa-twice", "saa-on-uniform"])
    def test_subsample_label_conflicts_rejected(self, inst_file, argv, err, capsys):
        assert main(["experiment", "--instance", inst_file, *argv, "--reps", "1"]) == 2
        assert capsys.readouterr().err == err

    def test_saa_sample_skips_unplanned_policies(self, inst_file, capsys):
        rc = main([
            "experiment", "--instance", inst_file, "--policy", "static,uniform",
            "--saa-sample", "10", "--reps", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("static+saa10: mean=") and "\nuniform: mean=" in out

    @pytest.mark.parametrize("policy", [",", "", " , "])
    def test_empty_policy_list_rejected(self, inst_file, tmp_path, policy, capsys):
        path = tmp_path / "rows.csv"
        rc = main([
            "experiment", "--instance", inst_file, "--policy", policy,
            "--reps", "1", "--out", str(path),
        ])
        assert rc == 2
        cap = capsys.readouterr()
        assert cap.err == "error: need at least one policy\n"
        assert cap.out == "" and not path.exists()

    def test_relaxed_schedule_waives_divisibility(self, inst_file, capsys):
        rc = main([
            "experiment", "--instance", inst_file, "--policy", "adaptive",
            "--reps", "1", "--epsilon", "0.3", "--relaxed-schedule",
        ])
        assert rc == 0

    def test_relaxed_schedule_keeps_other_checks(self, inst_file, capsys):
        rc = main([
            "experiment", "--instance", inst_file, "--policy", "null",
            "--reps", "1", "--relaxed-schedule", "--eta", "3",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config: eta must lie in (0, 1)")
        assert "Traceback" not in err


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("build, path, value, field", [
    (hand_instance, ("horizon",), 8.5, "horizon must be an integer, got 8.5"),
    (hand_instance, ("horizon",), "8", "horizon must be an integer, got '8'"),
    (hand_instance, ("horizon",), True, "horizon must be an integer, got True"),
    (hand_instance, ("null_type",), 0.0, "null_type must be an integer, got 0.0"),
    (hand_instance, ("reward_count",), None, "reward_count must be an integer"),
    (hand_instance, ("resources", 0, "capacity"), "5", "resources[0].capacity must be a number"),
    (hand_instance, ("resources", 0, "capacity"), True, "resources[0].capacity must be a number"),
    (hand_instance, ("resources", 0, "survival", 0), True, "resources[0].survival must be a number"),
    (hand_instance, ("resources", 0, "survival", 1), "0.5", "resources[0].survival must be a number"),
    (hand_instance, ("resources", 0, "survival"), 0.5, "resources[0].survival must be a list, got 0.5"),
    (hand_instance, ("customers", 1, "weight"), "0.5", "customers[1].weight must be a number"),
    (hand_instance, ("customers", 1, "outcomes", "rewards", 0, 1), False,
     "customers[1].outcomes.rewards must be a number"),
    (hand_instance, ("customers", 1, "outcomes", "consumption", 0), 1.0,
     "customers[1].outcomes.consumption must be a list"),
    (hand_instance, ("customers", 1, "outcomes", "reward_cap"), "1", "customers[1].outcomes.reward_cap"),
    (hand_instance, ("actions", "count"), 2.0, "actions.count must be an integer"),
    (hand_instance, ("actions", "null_action"), False, "actions.null_action must be an integer"),
    (small_mnl_instance, ("actions", "n_products"), "3", "actions.n_products must be an integer"),
    (small_mnl_instance, ("actions", "max_size"), 2.5, "actions.max_size must be an integer"),
    (small_mnl_instance, ("mnl", "m"), True, "mnl.m must be an integer"),
    (small_mnl_instance, ("customers", 0, "outcomes", "customer"), 0.0,
     "customers[0].outcomes.customer must be an integer"),
    (small_mnl_instance, ("mnl", "products", 1, "price"), "1.5", "mnl.products[1].price must be a number"),
    (small_mnl_instance, ("mnl", "products", 0, "f", 1), None, "mnl.products[0].f must be a number"),
    (small_mnl_instance, ("mnl", "customers", 1, "b", 2), 0.5, "mnl.customers[1].b must be a list"),
    # containers of the wrong JSON type, and an mnl.n that is not the product count
    (small_mnl_instance, ("resources",), 5, "resources must be a list, got 5\n"),
    (small_mnl_instance, ("customers", 0), "x", "customers[0] must be an object, got 'x'\n"),
    (small_mnl_instance, ("actions",), [], "actions must be an object, got []\n"),
    (small_mnl_instance, ("mnl", "products"), {"f": [1.0], "price": 1.0},
     "mnl.products must be a list, got {'f': [1.0], 'price': 1.0}\n"),
    (small_mnl_instance, ("mnl", "n"), 99, "mnl.n must be 3, the number of mnl.products, got 99\n"),
    (small_mnl_instance, ("mnl", "n"), 3.0, "mnl.n must be an integer, got 3.0\n"),
    (small_mnl_instance, ("mnl",), [1], "mnl must be an object, got [1]\n"),
    (small_mnl_instance, ("mnl", "customers", 0), 3, "mnl.customers[0] must be an object, got 3\n"),
    (hand_instance, ("resources", 0), None, "resources[0] must be an object, got None\n"),
    (hand_instance, ("customers",), {}, "customers must be a list, got {}\n"),
    (hand_instance, ("customers", 1, "outcomes"), "y", "customers[1].outcomes must be an object, got 'y'\n"),
    # an mnl stub's customer index past the mnl model's customers
    (small_mnl_instance, ("customers", 0, "outcomes", "customer"), 7,
     "customers[0].outcomes.customer must index the 2 mnl.customers, got 7\n"),
])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_wrongly_typed_field_named(tmp_path, build, path, value, field, command, capsys):
    doc = json.loads(instance_to_json(build(8)))
    _set(doc, path, value)
    inst_file = tmp_path / "typed.json"
    inst_file.write_text(json.dumps(doc))
    assert main([command, "--instance", str(inst_file)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.count("\n") == 1 and cap.err.startswith(f"error: {field}"), cap.err


def _key_paths(node, path=()):
    """The path of every key in a JSON document, each before those below it."""
    if type(node) is dict:
        for key, value in node.items():
            yield (*path, key)
            yield from _key_paths(value, (*path, key))
    elif type(node) is list:
        for k, value in enumerate(node):
            yield from _key_paths(value, (*path, k))


def _dotted(path) -> str:
    """("resources", 0, "capacity") -> "resources[0].capacity"."""
    return path[0] + "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path[1:])


def _older_doc(build) -> dict:
    """``build(8)`` as older writers saved it, with a ``unit_price`` per resource."""
    doc = json.loads(instance_to_json(build(8)))
    for r in doc["resources"]:
        r["unit_price"] = 1.0
    return doc


_DELETIONS = [
    (build, path)
    for build in (hand_instance, small_mnl_instance)
    for path in _key_paths(_older_doc(build))
]


@pytest.mark.parametrize(
    "build, path", _DELETIONS, ids=[f"{b.__name__}-{_dotted(p)}" for b, p in _DELETIONS]
)
def test_deleted_field_named(tmp_path, build, path, capsys):
    """Every key an older file carries is required but the ignored
    unit_price, and a missing one is named."""
    doc = _older_doc(build)
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    inst_file = tmp_path / "deleted.json"
    inst_file.write_text(json.dumps(doc))
    rc = main(["validate", "--instance", str(inst_file)])
    cap = capsys.readouterr()
    if path[-1] == "unit_price":
        assert rc == 0 and cap.out.startswith("ok: "), cap.err
        return
    assert rc == 2 and cap.out == ""
    assert cap.err.count("\n") == 1 and cap.err.startswith("error: "), cap.err
    assert _dotted(path) in cap.err, cap.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--reps", "0"],
    ["experiment", "--reps", "0", "--policy", "null", "--out", "rows.csv"],
    ["experiment", "--reps", "-3", "--policy", "null", "--out", "rows.csv"],
])
def test_reps_below_one_rejected(inst_file, tmp_path, monkeypatch, argv, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--instance", inst_file]) == 2
    assert capsys.readouterr().err.startswith("error: reps must be >= 1")
    assert not (tmp_path / "rows.csv").exists()


class TestTrend:
    def test_two_scales_rejected(self, capsys):
        rc = main(["trend", "--scales", "1,2", "--reps", "1", "--policy", "null"])
        assert rc == 2
        assert "3 scales" in capsys.readouterr().err

    def test_empty_subsample_rejected(self, tmp_path, capsys):
        out = tmp_path / "trend.csv"
        rc = main([
            "trend", "--reps", "1", "--policy", "static", "--saa-sample", "0",
            "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --saa-sample must be >= 1")
        assert not out.exists()

    def test_reps_below_one_rejected(self, capsys):
        rc = main(["trend", "--scales", "1,2,3", "--reps", "0", "--policy", "null"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: reps must be >= 1")

    @pytest.mark.parametrize("scales, err", [
        # scale 3's 1/epsilon = 12 is no power of two; scales 1 and 2 are fine
        ("1,2,3", "error: config: "),
        ("1,2,2", "error: trend needs at least 3 scales"),
    ])
    def test_every_scale_checked_before_any_runs(self, scales, err, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(a))
        rc = main(["trend", "--scales", scales, "--reps", "1", "--policy", "null"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(err)
        assert calls == []

    @pytest.mark.parametrize("scales, err", [
        # a zero scale used to reach the LP and fail as "unbounded"; a
        # repeated one used to write its rows to the CSV twice
        ("0,1,2", "error: trend scales must be positive, got 0\n"),
        ("1,2,2,4", "error: trend scales must be distinct, got 2 more than once\n"),
    ])
    def test_bad_scales_rejected(self, scales, err, tmp_path, capsys):
        out = tmp_path / "trend.csv"
        rc = main([
            "trend", "--scales", scales, "--reps", "1", "--policy", "null",
            "--out", str(out),
        ])
        assert rc == 2
        cap = capsys.readouterr()
        assert cap.err == err
        assert cap.out == "" and not out.exists()

    @pytest.mark.parametrize("policy", [",", ""])
    def test_empty_policy_list_rejected_before_any_instance(
        self, policy, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(harness, "generate_instance", lambda *a: calls.append(a))
        out = tmp_path / "trend.csv"
        rc = main(["trend", "--reps", "1", "--policy", policy, "--out", str(out)])
        assert rc == 2
        cap = capsys.readouterr()
        assert cap.err == "error: need at least one policy\n"
        assert cap.out == "" and not out.exists()
        assert calls == []

    def test_invalid_config_rejected(self, tmp_path, capsys):
        out = tmp_path / "trend.csv"
        rc = main([
            "trend", "--base-epsilon", "0.7", "--reps", "1", "--policy", "static",
            "--scales", "1,2,3", "--out", str(out),
        ])
        assert rc == 2
        cap = capsys.readouterr()
        assert cap.err.startswith("error: config: ")
        assert cap.err.count("\n") == 1
        assert cap.out == "" and not out.exists()
