import io
import json

import pytest

from helpers import hand_instance, small_mnl_instance, two_resource_instance
from oracles import reference_run_episode
from reuselab.harness import GeneratorSpec, generate_instance
from reuselab.policy import UniformRandomPolicy
from reuselab.serialize import (
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from reuselab.serialize import trace_to_jsonl
from reuselab.sim import run_episode


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

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(path, two_resource_instance())
        back = load_instance(path)
        assert back.horizon == two_resource_instance().horizon
        doc = json.loads(path.read_text())
        assert doc["format"] == "reusable-allocation-instance"
        assert doc["version"] == 1


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
        with pytest.raises(ValueError, match="mnl block"):
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
