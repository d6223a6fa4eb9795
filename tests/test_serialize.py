import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    hand_instance,
    random_explicit_instance,
    small_mnl_instance,
    two_resource_instance,
    wide_logit_instance,
)
from oracles import reference_run_episode
from reuselab.harness import GeneratorSpec, generate_instance
from reuselab.mnl import MnlModel, build_mnl_instance
from reuselab.model import (
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    ResourceSpec,
    SurvivalCurve,
    zero_outcomes,
)
from reuselab.policy import UniformRandomPolicy
from reuselab.serialize import (
    _document,
    _dumps,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from reuselab.serialize import trace_to_jsonl
from reuselab.sim import run_episode

# GeneratorSpec fields of the benchmark's instance shapes: the two episode
# shapes, then the time-expanded, column-generation and steady-state ones
SHAPES = (
    dict(scale=2),
    dict(scale=4),
    dict(base_horizon=8, n_customers=4),
    dict(n_products=12, max_size=4, n_customers=4),
    dict(n_products=7, max_size=3, n_customers=6),
)


def scalar_instance() -> Instance:
    """Explicit instance with np.float64 and int scalars, edge floats and
    Bernoulli outcomes, with default and with given caps."""
    noisy = ([[0.0, 1.0, 0.5]] * 2, [[0.0, 0.5, 1e-07]] * 2)
    return Instance(
        resources=[
            ResourceSpec(5, SurvivalCurve([1.0, 1e-07, 5e-324])),
            ResourceSpec(np.float64(2.5), SurvivalCurve([np.float64(1.0), 0.5])),
        ],
        reward_count=2,
        customers=[
            CustomerType(np.float64(0.25), zero_outcomes(2, 2, 3)),
            CustomerType(0.5, ExplicitOutcomes(
                [[0.0, 1e16, 5e-324], [0.0, -0.0, 1e-07]], [[0.0, 1.0, 0.5], [0.0, -0.0, 1e16]],
            )),
            CustomerType(-0.0, ExplicitOutcomes(*noisy, noise="bernoulli")),
            CustomerType(0.25, ExplicitOutcomes(*noisy, noise="bernoulli", reward_cap=2, consumption_cap=0.5)),
        ],
        actions=ExplicitActions(3),
        horizon=16,
        null_type=0,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("build", [hand_instance, two_resource_instance, small_mnl_instance])
    def test_equal_after_round_trip(self, build):
        inst = build()
        back = instance_from_json(instance_to_json(inst))
        assert back.horizon == inst.horizon
        assert back.reward_count == inst.reward_count
        assert back.null_type == inst.null_type
        assert back.capacities().tolist() == inst.capacities().tolist()
        for a, b in zip(back.resources, inst.resources):
            assert a.survival.surv.tolist() == b.survival.surv.tolist()
        assert back.arrival_weights().tolist() == inst.arrival_weights().tolist()
        for a, b in zip(back.customers, inst.customers):
            assert a.outcomes == b.outcomes
        assert list(back.actions.all_actions()) == list(inst.actions.all_actions())

    @pytest.mark.parametrize("build", [two_resource_instance, small_mnl_instance])
    def test_reserialization_is_byte_identical(self, build):
        inst = build()
        text = instance_to_json(inst)
        assert instance_to_json(instance_from_json(text)) == text
        assert text.endswith("\n")

    @pytest.mark.parametrize("spec", SHAPES)
    def test_logit_tastes_are_the_nested_array_byte_for_byte(self, spec):
        # the reader builds them from its flat list of checked numbers
        text = instance_to_json(generate_instance(GeneratorSpec(seed=3, **spec)))
        nested = [c["b"] for c in json.loads(text)["mnl"]["customers"]]
        got = instance_from_json(text).customers[0].outcomes.model.cust_features
        want = np.asarray(nested, dtype=float)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_logit_model_without_customers_reads_back(self):
        model = MnlModel(np.ones((2, 1)), np.zeros((0, 2, 1)), 1)
        inst = build_mnl_instance(model, [1.0, 1.0], [SurvivalCurve([1.0])] * 2, 4, [1.0])
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert back.customers[0].outcomes.model == model
        assert instance_to_json(back) == text

    def test_older_unit_price_key_is_ignored(self, tmp_path):
        # older writers put a unit price on every resource: such a file
        # loads, and saving it again drops the key
        inst = small_mnl_instance()
        doc = json.loads(instance_to_json(inst))
        for r, price in zip(doc["resources"], [1.0, 1.5, 2.0]):
            r["unit_price"] = price
        path = tmp_path / "older.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        back = load_instance(path)
        save_instance(path, back)
        assert all("unit_price" not in r for r in json.loads(path.read_text())["resources"])
        assert path.read_text() == instance_to_json(inst)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(path, two_resource_instance())
        back = load_instance(path)
        assert back.horizon == two_resource_instance().horizon
        doc = json.loads(path.read_text())
        assert doc["format"] == "reusable-allocation-instance"
        assert doc["version"] == 1


def _instances():
    """The helper instances, the benchmark shapes on four seeds each and
    ``scalar_instance``."""
    yield from (hand_instance(), two_resource_instance(), small_mnl_instance(), wide_logit_instance(6))
    rng = np.random.default_rng(19)
    yield from (random_explicit_instance(rng) for _ in range(6))
    for spec in SHAPES:
        for seed in (1, 2, 3, 17):
            yield generate_instance(GeneratorSpec(seed=seed, **spec))
    yield scalar_instance()


class _Int(int):
    def __repr__(self):
        return "_Int()"


class _Str(str):
    def __repr__(self):
        return "_Str()"


class TestEmitter:
    """``_dumps`` against ``json.dumps(..., indent=2, sort_keys=True)``."""

    def test_instance_files_are_json_dumps_byte_for_byte(self):
        for inst in _instances():
            doc = _document(inst)
            assert instance_to_json(inst) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_scalar_instance_keeps_its_scalar_types(self):
        # the document hands the emitter the subclasses and edge values
        doc = _document(scalar_instance())
        assert type(doc["resources"][0]["capacity"]) is int
        assert type(doc["resources"][1]["capacity"]) is np.float64
        assert type(doc["customers"][0]["weight"]) is np.float64
        text = instance_to_json(scalar_instance())
        for token in ("1e-07", "5e-324", "1e+16", "-0.0", '"capacity": 5,', '"bernoulli"'):
            assert token in text

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.integers().map(_Int)
        | st.text() | st.text().map(_Str)
        | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"])
        | st.floats() | st.floats().map(np.float64),
        lambda inner: (
            st.lists(inner) | st.lists(st.floats(), min_size=1)
            | st.dictionaries(st.text(), inner)
        ),
        max_leaves=40,
    ))
    @settings(max_examples=150, deadline=None)
    def test_json_values_as_json_writes_them(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        np.int64(1), np.bool_(True), b"bytes", {1, 2}, [np.int64(1)], {"a": {1.5}}, {(1, 2): 0.5},
        {"a": 1, 2: 3},
    ])
    def test_values_json_rejects_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _dumps(value)

    @pytest.mark.parametrize("value", [(1, 2), {1: "a"}])
    def test_tuples_and_keys_that_are_no_str_raise_type_error(self, value):
        # json would write these; an instance document holds none
        with pytest.raises(TypeError):
            _dumps(value)


class TestErrors:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            instance_from_json(json.dumps({"format": "something-else", "version": 1}))

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
    def test_document_that_is_no_object_rejected(self, text):
        with pytest.raises(ValueError, match=r"not an instance file \(format=None\)"):
            instance_from_json(text)

    def test_wrong_version_rejected(self):
        doc = json.loads(instance_to_json(hand_instance()))
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            instance_from_json(json.dumps(doc))

    def test_unknown_action_kind_rejected(self):
        doc = json.loads(instance_to_json(hand_instance()))
        doc["actions"]["kind"] = "mystery"
        with pytest.raises(ValueError, match="action space kind"):
            instance_from_json(json.dumps(doc))

    def test_unknown_outcome_kind_rejected(self):
        doc = json.loads(instance_to_json(hand_instance()))
        doc["customers"][1]["outcomes"]["kind"] = "mystery"
        with pytest.raises(ValueError, match="outcome kind"):
            instance_from_json(json.dumps(doc))

    def test_mnl_stub_without_block_rejected(self):
        doc = json.loads(instance_to_json(small_mnl_instance()))
        del doc["mnl"]
        with pytest.raises(ValueError, match=r"mnl is missing, and customers\[0\]\.outcomes is an mnl stub"):
            instance_from_json(json.dumps(doc))


class TestTraceDump:
    def test_one_json_object_per_step(self):
        inst = hand_instance(8)
        trace = run_episode(inst, UniformRandomPolicy(), seed=4, record_steps=True)
        buf = io.StringIO()
        trace_to_jsonl(trace, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 8
        for i, line in enumerate(lines, start=1):
            rec = json.loads(line)
            assert rec["t"] == i
            assert set(rec) == {
                "t", "customer", "chosen", "executed", "forced",
                "reward", "consumption", "durations",
            }
            assert isinstance(rec["reward"], list)

    def test_assortment_actions_serialize_as_lists(self):
        inst = small_mnl_instance(horizon=6)
        trace = run_episode(inst, UniformRandomPolicy(), seed=1, record_steps=True)
        buf = io.StringIO()
        trace_to_jsonl(trace, buf)
        for line in buf.getvalue().strip().split("\n"):
            rec = json.loads(line)
            assert isinstance(rec["chosen"], list)

    def test_shared_outcome_arrays_dump_as_fresh_ones(self):
        # logit steps record the model's shared read-only outcome arrays and
        # forced steps the episode's zeros; the dump equals that of the
        # reference loop, which builds fresh arrays on every step
        inst = generate_instance(GeneratorSpec(seed=5, base_horizon=200, base_capacity=1, n_customers=3))
        got = run_episode(inst, UniformRandomPolicy(), seed=4, record_steps=True)
        want = reference_run_episode(inst, UniformRandomPolicy(), seed=4)
        assert got.forced_rejects > 0
        assert all(not st.reward.flags.writeable for st in got.steps)
        dumps = []
        for trace in (got, want):
            buf = io.StringIO()
            trace_to_jsonl(trace, buf)
            dumps.append(buf.getvalue())
        assert dumps[0] == dumps[1]
