import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import hand_instance, small_mnl_instance, two_resource_instance
from reuselab import harness, lp
from reuselab.cli import main
from reuselab.harness import (
    CSV_HEADER,
    GeneratorSpec,
    SummaryRow,
    generate_instance,
    make_policy,
    run_experiment,
    run_trend,
    solve_benchmarks,
    trend_report,
    write_csv,
)
from reuselab.lp import TooLarge, plan_rates, solve_stage_lambda, solve_time_expanded
from reuselab.mnl import MnlModel, build_mnl_instance
from reuselab.model import AlgoConfig, Instance, SurvivalCurve, scale_parameter, validate_instance
from reuselab.serialize import instance_from_json, instance_to_json, save_instance

TINY_SPEC = GeneratorSpec(
    n_products=2,
    n_customers=3,
    n_features=2,
    max_size=2,
    base_horizon=32,
    base_capacity=4.0,
    max_duration=3,
    seed=1,
)


class TestGenerator:
    def test_generated_instance_is_valid(self):
        inst = generate_instance(GeneratorSpec(seed=3))
        validate_instance(inst)
        assert inst.horizon == 1000
        assert np.all(inst.capacities() == 100.0)
        assert inst.null_type == inst.n_types - 1

    def test_deterministic(self):
        a = generate_instance(GeneratorSpec(seed=5))
        b = generate_instance(GeneratorSpec(seed=5))
        assert instance_to_json(a) == instance_to_json(b)
        c = generate_instance(GeneratorSpec(seed=6))
        assert instance_to_json(a) != instance_to_json(c)

    def test_scale_multiplies_horizon_and_capacity(self):
        base = generate_instance(TINY_SPEC)
        big = generate_instance(GeneratorSpec(**{**TINY_SPEC.__dict__, "scale": 4}))
        assert big.horizon == 4 * base.horizon
        assert np.all(big.capacities() == 4 * base.capacities())
        # same load profile: identical products, prices, and arrival weights
        assert np.array_equal(big.arrival_weights(), base.arrival_weights())
        assert np.array_equal(big.durations(), base.durations())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scale", 0), ("scale", -1), ("base_horizon", 0), ("base_capacity", 0.0),
            ("base_capacity", -100.0), ("base_capacity", math.nan), ("n_products", 0),
            ("n_customers", 0), ("max_size", 0), ("max_duration", 0),
            ("null_weight", -0.1), ("null_weight", 1.0), ("null_weight", math.nan),
        ],
    )
    def test_bad_spec_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=rf"^GeneratorSpec\.{field} must "):
            generate_instance(GeneratorSpec(**{**TINY_SPEC.__dict__, field: value}))

    def test_zero_null_weight_is_accepted(self):
        inst = generate_instance(GeneratorSpec(**{**TINY_SPEC.__dict__, "null_weight": 0.0}))
        assert inst.arrival_weights()[inst.null_type] == 0.0


class TestBenchmarks:
    def test_upper_bound_is_planning_total(self, hand):
        bench = solve_benchmarks(hand)
        assert bench.lambda_ss == pytest.approx(0.5, abs=1e-9)
        assert bench.upper_bound == pytest.approx(hand.horizon * bench.lambda_ss, abs=1e-12)

    def test_time_expanded_diagnostic_present_when_small(self, hand):
        # solve-benchmark's diagnostic: the exact-occupancy LP starts with
        # every resource free, so it is the looser of the two relaxations
        p = hand.arrival_weights()
        lam_te, _y = solve_time_expanded(hand, p)
        assert lam_te + 1e-9 >= plan_rates(hand, p).lambda_

    def test_time_expanded_skipped_when_too_large(self, hand):
        # solve-benchmark's --te-cap skip comes from this TooLarge; the
        # planning values never depend on that LP
        with pytest.raises(TooLarge):
            solve_time_expanded(hand, hand.arrival_weights(), cap=3)
        bench = solve_benchmarks(hand)
        assert bench.upper_bound == pytest.approx(hand.horizon * bench.lambda_ss)

    def test_time_expanded_skipped_over_tableau_cap(self):
        # 13,201 variables pass the variable cap, but with 2,004 rows the
        # dense tableau would take 244 MB and the solve minutes
        inst = generate_instance(GeneratorSpec(base_horizon=200, n_customers=5))
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            solve_time_expanded(inst, inst.arrival_weights())
        bench = solve_benchmarks(inst)
        assert time.perf_counter() - start < 20.0
        assert bench.lambda_ss > 0.0

    def test_explicit_arrival_override(self, hand):
        assert plan_rates(hand, [0.5, 0.5]).lambda_ == pytest.approx(0.5, abs=1e-9)

    def test_planning_path_builds_no_time_expanded_lp(self, monkeypatch, tmp_path, capsys):
        # experiments read lambda_ss, the rates and T * lambda_ss only;
        # the time-expanded LP belongs to solve-benchmark alone
        def boom(*_a, **_k):
            raise AssertionError("time-expanded LP built")

        monkeypatch.setattr(lp, "build_time_expanded_lp", boom)
        inst = two_resource_instance(64)
        run_experiment(inst, AlgoConfig(epsilon=0.25, gamma=1.0), ["static", "adaptive"], reps=1)
        run_trend(scales=(1, 2, 4), reps=1, spec=TINY_SPEC, policies=("static",))
        path = tmp_path / "inst.json"
        save_instance(path, small_mnl_instance(48))
        for argv in (
            ["experiment", "--policy", "static,adaptive", "--reps", "2"],
            ["simulate", "--policy", "adaptive"],
            ["validate", "--epsilon", "0.25"],
        ):
            assert main([*argv, "--instance", str(path)]) == 0, capsys.readouterr().err

    def test_type_order_does_not_change_colgen_plan(self):
        # 15 products, size <= 5: 4944 assortments, past the enumeration
        # cap, so both planners run column generation; each instance type
        # must be priced by its own logit customer, not by its position
        rng = np.random.default_rng(3)
        n, J = 15, 2
        model = MnlModel(
            rng.standard_normal((n, 2)), rng.standard_normal((J, n, 2)), 5,
            rng.uniform(1.0, 2.0, n),
        )
        weights = np.concatenate([rng.dirichlet(np.ones(J)) * 0.8, [0.2]])
        inst = build_mnl_instance(
            model, np.full(n, 3.0), [SurvivalCurve([1.0, 0.5])] * n, 40, weights
        )
        assert inst.actions.size == 4944
        null_first = Instance(
            resources=inst.resources,
            reward_count=inst.reward_count,
            customers=[inst.customers[-1]] + inst.customers[:-1],
            actions=inst.actions,
            horizon=inst.horizon,
            null_type=0,
        )
        null_first = instance_from_json(instance_to_json(null_first))
        assert validate_instance(null_first) == []
        want = solve_benchmarks(inst).lambda_ss
        got = solve_benchmarks(null_first).lambda_ss
        assert got == pytest.approx(want, abs=1e-9)
        p_hat = np.array([0.5, 0.25, 0.25])  # model order: customers, then null
        want = solve_stage_lambda(inst, p_hat, 0.5).lambda_r
        got = solve_stage_lambda(null_first, np.roll(p_hat, 1), 0.5).lambda_r
        assert got == pytest.approx(want, abs=1e-9)


class TestMakePolicy:
    def setup_method(self):
        self.inst = hand_instance(16)
        self.bench = solve_benchmarks(self.inst)
        self.config = AlgoConfig(epsilon=0.25, gamma=1.0, seed=0)

    def build(self, label):
        return make_policy(label, self.inst, self.config, self.bench)

    @pytest.mark.parametrize(
        "label",
        [
            "static",
            "adaptive",
            "uniform",
            "null",
            "hybrid3",
            "static+saa100",
            "adaptive+saa50",
            "hybrid2+saa10",
            "adaptive+tailguard",
            "static+saa20+tailguard",
        ],
    )
    def test_label_round_trips_to_name(self, label):
        assert self.build(label).name == label

    @pytest.mark.parametrize(
        "label", ["greedy", "Static", "static+", "hybridx", "saa10", "adaptive+saa"]
    )
    def test_unknown_labels_rejected(self, label):
        with pytest.raises(ValueError, match="policy label"):
            self.build(label)

    @pytest.mark.parametrize(
        "label", ["static+saa0", "adaptive+saa0", "hybrid2+saa0", "static+saa00+tailguard"]
    )
    def test_empty_subsample_rejected(self, label):
        # +saa0 used to play full-information rates under the plain name
        with pytest.raises(ValueError, match="at least one draw"):
            self.build(label)

    @pytest.mark.parametrize("label", ["uniform+saa5", "null+saa5+tailguard"])
    def test_subsample_on_unplanned_policy_rejected(self, label):
        # these used to play and report the label without its +saa
        with pytest.raises(ValueError, match=re.escape(f"policy label '{label}'")):
            self.build(label)


class TestRunExperiment:
    def rows(self, reps=4, policies=("null", "static", "adaptive")):
        inst = hand_instance(16)
        config = AlgoConfig(epsilon=0.25, gamma=1.0, seed=0)
        return run_experiment(inst, config, policies, reps=reps)

    def test_null_row_is_all_zero(self):
        row = next(r for r in self.rows() if r.policy == "null")
        assert row.mean == 0.0 and row.std == 0.0
        assert row.gap_pct == pytest.approx(100.0)
        assert row.forced_rejects == 0.0

    def test_gap_recomputes_from_row(self):
        for row in self.rows():
            want = 100.0 * (row.upper_bound - row.mean) / row.upper_bound
            assert row.gap_pct == pytest.approx(want, rel=1e-12)
            assert len(row.min_rewards) == 4
            assert row.mean == pytest.approx(np.mean(row.min_rewards))

    def test_replace_copy_plays_on_its_own_bounds(self):
        # a replace copy used to keep its original's w_max and a_max: here
        # w_max 1.98 instead of 5.94, so gamma and the adaptive weights
        # were those of the cheaper products
        inst = generate_instance(GeneratorSpec(seed=1, base_horizon=256))
        m = inst.customers[0].outcomes.model
        fresh = build_mnl_instance(
            MnlModel(m.features, m.cust_features, m.max_size, 3.0 * m.prices),
            inst.capacities(),
            [r.survival for r in inst.resources],
            inst.horizon,
            inst.arrival_weights(),
        )
        copy = replace(inst, customers=fresh.customers)
        got = []
        for a in (copy, fresh):
            bench = solve_benchmarks(a)
            gamma = scale_parameter(a, bench.lambda_ss)
            config = AlgoConfig(epsilon=0.25, gamma=gamma)
            (row,) = run_experiment(a, config, ["adaptive"], reps=3, benchmarks=bench)
            got.append([a.w_max, a.a_max, gamma, row.mean, row.std])
        assert np.array(got[0]).tobytes() == np.array(got[1]).tobytes()
        assert got[0][0] == 3.0 * inst.w_max

    def test_deterministic_given_seed(self):
        a = self.rows(policies=("static", "adaptive"))
        b = self.rows(policies=("static", "adaptive"))
        for ra, rb in zip(a, b):
            assert ra.policy == rb.policy
            assert ra.mean == rb.mean
            assert ra.std == rb.std
            assert ra.min_rewards == rb.min_rewards


class TestWriteCsv:
    def test_byte_identical_without_timing(self, tmp_path):
        rows_a = TestRunExperiment().rows(policies=("static",))
        rows_b = TestRunExperiment().rows(policies=("static",))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows_a, pa)
        write_csv(rows_b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        lines = pa.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].endswith(",")  # empty seconds column

    def test_timing_fills_seconds(self, tmp_path):
        rows = TestRunExperiment().rows(policies=("static",))
        path = tmp_path / "t.csv"
        write_csv(rows, path, timing=True)
        last = path.read_text().strip().split("\n")[1].split(",")
        assert float(last[-1]) >= 0.0


def fake_row(policy, gap, n=4):
    return SummaryRow(
        horizon=32, epsilon=0.25, upper_bound=10.0, policy=policy,
        mean=10.0 - gap / 10.0, std=1.0, gap_pct=gap, forced_rejects=0.0,
        seconds=0.0, min_rewards=[0.0] * n,
    )


class TestTrendReport:
    def test_needs_three_scales(self):
        per_scale = {1: [fake_row("static", 10.0)], 2: [fake_row("static", 9.0)]}
        with pytest.raises(ValueError, match="3 scales"):
            trend_report(per_scale)

    def test_monotonicity_flag(self):
        down = {s: [fake_row("static", g)] for s, g in zip((1, 2, 4), (10.0, 8.0, 6.0))}
        rep = trend_report(down)
        assert rep["scales"] == [1, 2, 4]
        assert rep["policies"]["static"]["gaps"] == [10.0, 8.0, 6.0]
        assert rep["policies"]["static"]["strictly_decreasing"]
        assert rep["policies"]["static"]["mean_se"] == [0.5, 0.5, 0.5]
        bump = {s: [fake_row("static", g)] for s, g in zip((1, 2, 4), (10.0, 11.0, 6.0))}
        assert not trend_report(bump)["policies"]["static"]["strictly_decreasing"]

    @pytest.mark.parametrize("scales, err", [
        ((0, 1, 2), "trend scales must be positive, got 0"),
        ((-2, 0, 1, 2), "trend scales must be positive, got -2, 0"),
        ((1, 2, 2, 4), "trend scales must be distinct, got 2 more than once"),
        ((1, 1, 2, 4, 4), "trend scales must be distinct, got 1, 4 more than once"),
    ])
    def test_bad_scales_rejected_before_any_work(self, scales, err, monkeypatch):
        def boom(*_a, **_k):
            raise AssertionError("work started")

        monkeypatch.setattr(harness, "generate_instance", boom)
        with pytest.raises(ValueError) as exc:
            run_trend(scales=scales, reps=1, spec=TINY_SPEC, policies=("null",))
        assert str(exc.value) == err

    def test_run_trend_smoke(self):
        rows, report = run_trend(
            scales=(1, 2, 4), reps=2, base_seed=3, spec=TINY_SPEC, policies=("static",)
        )
        assert len(rows) == 3
        assert [r.horizon for r in rows] == [32, 64, 128]
        assert [r.epsilon for r in rows] == [0.25, 0.125, 0.0625]
        assert report["scales"] == [1, 2, 4]
        assert len(report["policies"]["static"]["gaps"]) == 3
        for gap in report["policies"]["static"]["gaps"]:
            assert math.isfinite(gap)
