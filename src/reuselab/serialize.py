"""Instance files and trace dumps.

Instance JSON (version 1): top-level ``horizon``, ``reward_count``,
``null_type``; ``resources`` as [{capacity, survival, unit_price}];
``actions`` as {"kind": "explicit", count, null_action} or
{"kind": "assortment", n_products, max_size}; ``customers`` as
[{weight, outcomes}].  Logit instances carry one shared ``mnl`` block
{m, n, products: [{f, price}], customers: [{b}]} (m the assortment size
cap, n the product count, b one taste matrix per customer) and their
per-customer outcome stubs are {"kind": "mnl", "customer": j or null}.

An instance file is written by ``_dumps``, a recursive emitter whose
output is exactly ``json.dumps(doc, indent=2, sort_keys=True)``, byte for
byte: two-space indent, keys sorted, strings through json's own C
escaper, floats in shortest round-trip form (``float.__repr__``, with
NaN/Infinity as json writes them).  On Python 3.11 any ``indent`` sends
json to its pure-Python encoder; the emitter joins each row of floats in
one call and so costs about half as much.  Saving the same instance twice
produces identical bytes and a save/load cycle reproduces every number
exactly.

Loading checks each field's JSON type (an integer field takes no float
and no ``true``, a list field no object, an object field no list) and
names the first field that is wrong; ``mnl.n`` must equal the number of
products.  A list is checked in one pass over its entries and walked
entry by entry only to name the one that is wrong.

Traces dump as JSON lines, one step per line.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .mnl import MnlModel, MnlOutcomes
from .model import (
    AssortmentActions,
    CustomerType,
    ExplicitActions,
    ExplicitOutcomes,
    Instance,
    ResourceSpec,
    SurvivalCurve,
)

__all__ = [
    "instance_to_json",
    "instance_from_json",
    "save_instance",
    "load_instance",
    "trace_to_jsonl",
]

_FORMAT = "reusable-allocation-instance"
_VERSION = 1


def _actions_to_dict(space):
    if isinstance(space, ExplicitActions):
        return {"kind": "explicit", "count": space.count, "null_action": space.null_action}
    if isinstance(space, AssortmentActions):
        return {
            "kind": "assortment",
            "n_products": space.n_products,
            "max_size": space.max_size,
        }
    raise TypeError(f"cannot serialize action space {type(space).__name__}")


def _outcomes_to_dict(om):
    if isinstance(om, MnlOutcomes):
        return {"kind": "mnl", "customer": om.customer}
    if isinstance(om, ExplicitOutcomes):
        return {
            "kind": "explicit",
            "rewards": om.rewards.tolist(),
            "consumption": om.consumption.tolist(),
            "noise": om.noise,
            "reward_cap": om.reward_cap,
            "consumption_cap": om.consumption_cap,
        }
    raise TypeError(f"cannot serialize outcome model {type(om).__name__}")


def instance_to_json(inst: Instance) -> str:
    return _dumps(_document(inst)) + "\n"


def _document(inst: Instance) -> dict:
    """The JSON document of ``inst``, as plain dicts, lists and scalars."""
    mnl_model = None
    for cust in inst.customers:
        if isinstance(cust.outcomes, MnlOutcomes):
            mnl_model = cust.outcomes.model
            break
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "horizon": inst.horizon,
        "reward_count": inst.reward_count,
        "null_type": inst.null_type,
        "resources": [
            {
                "capacity": r.capacity,
                "survival": np.asarray(r.survival.surv, dtype=float).tolist(),
                "unit_price": r.unit_price,
            }
            for r in inst.resources
        ],
        "actions": _actions_to_dict(inst.actions),
        "customers": [
            {"weight": c.weight, "outcomes": _outcomes_to_dict(c.outcomes)}
            for c in inst.customers
        ],
    }
    if mnl_model is not None:
        doc["mnl"] = {
            "m": mnl_model.max_size,
            "n": mnl_model.n_products,
            "products": [
                {"f": mnl_model.features[i].tolist(), "price": float(mnl_model.prices[i])}
                for i in range(mnl_model.n_products)
            ],
            "customers": [
                {"b": mnl_model.cust_features[j].tolist()}
                for j in range(mnl_model.n_customers)
            ],
        }
    return doc


_ESCAPE = json.encoder.encode_basestring_ascii       # json's own C escaper
_FLOAT = float.__repr__
_INT = int.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(value, nl: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    Takes dicts with str keys, lists, str, int, float (with their
    subclasses, such as ``np.float64``), bool and None; any other value,
    a tuple or a non-str key included, raises a TypeError.  ``nl`` is the
    newline and indent that precede the closing bracket of ``value``.
    """
    t = type(value)
    inner = nl + "  "
    if t is list:
        if not value:
            return "[]"
        sep = "," + inner
        if type(value[0]) is float:
            # a row of floats in one join; an entry that is no float
            # raises, and a NaN or infinity shows as an "n"
            try:
                body = sep.join(map(_FLOAT, value))
            except TypeError:
                body = "n"
            if "n" not in body:
                return "[" + inner + body + nl + "]"
        return "[" + inner + sep.join([_dumps(v, inner) for v in value]) + nl + "]"
    if t is dict:
        if not value:
            return "{}"
        parts = []
        for k in sorted(value):
            v = value[k]
            tv = type(v)
            # scalars without a call: most values in an instance file are
            if tv is float:
                text = _FLOAT(v)
                text = _NONFINITE.get(text, text)
            elif tv is str:
                text = _ESCAPE(v)
            elif tv is int:
                text = _INT(v)
            else:
                text = _dumps(v, inner)
            parts.append(_ESCAPE(k) + ": " + text)     # _ESCAPE rejects a non-str key
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    # scalars in json's order of tests, subclasses included
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _INT(value)
    if isinstance(value, float):
        text = _FLOAT(value)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


# json.loads builds exact int and float objects, so the checks below test
# type() itself: that also keeps out bool, a subclass of int.  A field's
# name is spelled out from its path only when the check fails.
_NUMBER = frozenset((int, float))
_LIST = frozenset((list,))
_OBJECT = frozenset((dict,))


def _field(path) -> str:
    """("resources", 0, "capacity") -> "resources[0].capacity"."""
    return path[0] + "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path[1:])


def _int(value, *path) -> int:
    """``value`` if it is a JSON integer, else a ValueError naming its field."""
    if type(value) is not int:
        raise ValueError(f"{_field(path)} must be an integer, got {value!r}")
    return value


def _number(value, *path):
    """``value`` if it is a JSON number, else a ValueError naming its field."""
    if type(value) not in _NUMBER:
        raise ValueError(f"{_field(path)} must be a number, got {value!r}")
    return value


def _object(value, *path) -> dict:
    """``value`` if it is a JSON object, else a ValueError naming its field."""
    if type(value) is not dict:
        raise ValueError(f"{_field(path)} must be an object, got {value!r}")
    return value


def _objects(values, *path) -> list:
    """``values`` if it is a list of JSON objects, checked in one pass.

    ``values[k]`` is the field named by ``path`` with ``[k]`` after its
    first part; only when the pass fails is each checked on its own, to
    name the first that is wrong.
    """
    if type(values) is not list:
        raise ValueError(f"{_field(path)} must be a list, got {values!r}")
    if not _OBJECT.issuperset(map(type, values)):
        for k, value in enumerate(values):
            _object(value, path[0], k, *path[1:])
    return values


def _is_numbers(value, depth: int) -> bool:
    """True when ``value`` is a list (of lists, ``depth`` deep) of JSON numbers."""
    items = [value]
    for _ in range(depth):
        if not _LIST.issuperset(map(type, items)):
            return False
        items = list(chain.from_iterable(items))
    return _NUMBER.issuperset(map(type, items))


def _numbers(value, *path, depth: int = 1):
    """``value`` if it is a list (of lists, ``depth`` deep) of JSON numbers."""
    if _is_numbers(value, depth):
        return value
    # some entry is wrong: find the first, to name it
    if type(value) is not list:
        raise ValueError(f"{_field(path)} must be a list, got {value!r}")
    for x in value:
        if depth > 1:
            _numbers(x, *path, depth=depth - 1)
        else:
            _number(x, *path)


def _numbers_each(values, *path, depth: int = 1):
    """``values`` if each is what :func:`_numbers` takes, checked in one pass.

    ``values[k]`` is the field named by ``path`` with ``[k]`` after its
    first part; only when the pass fails is each checked on its own, to
    name the first that is wrong.
    """
    if not _is_numbers(values, depth + 1):
        for k, value in enumerate(values):
            _numbers(value, path[0], k, *path[1:], depth=depth)
    return values


def instance_from_json(text: str) -> Instance:
    """The instance a JSON document describes.

    Integer fields must be JSON integers and numeric fields JSON numbers
    (``true`` is neither), list and object fields JSON lists and objects,
    and ``mnl.n`` the number of products; any other value raises a
    :class:`ValueError` that names the field.  What the types cannot tell
    (a negative horizon, weights that do not sum to one) is left to
    :func:`~reuselab.model.validate_instance`.
    """
    doc = json.loads(text)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != _FORMAT:
        raise ValueError(f"not an instance file (format={fmt!r})")
    if doc.get("version") != _VERSION:
        raise ValueError(f"unsupported instance version {doc.get('version')!r}")
    horizon = _int(doc["horizon"], "horizon")
    reward_count = _int(doc["reward_count"], "reward_count")
    null_type = _int(doc["null_type"], "null_type")
    mnl_model = None
    if "mnl" in doc:
        blk = _object(doc["mnl"], "mnl")
        products = _objects(blk["products"], "mnl.products")
        custs = _objects(blk["customers"], "mnl.customers")
        if _int(blk["n"], "mnl.n") != len(products):
            raise ValueError(
                f"mnl.n must be {len(products)}, the number of mnl.products, got {blk['n']}"
            )
        mnl_model = MnlModel(
            features=_numbers_each([p["f"] for p in products], "mnl.products", "f"),
            cust_features=_numbers_each([c["b"] for c in custs], "mnl.customers", "b", depth=2),
            max_size=_int(blk["m"], "mnl.m"),
            prices=[_number(p["price"], "mnl.products", i, "price") for i, p in enumerate(products)],
        )
    specs = _objects(doc["resources"], "resources")
    curves = _numbers_each([r["survival"] for r in specs], "resources", "survival")
    resources = [
        ResourceSpec(
            capacity=_number(r["capacity"], "resources", i, "capacity"),
            survival=SurvivalCurve(surv),
            unit_price=_number(r.get("unit_price", 0.0), "resources", i, "unit_price"),
        )
        for i, (r, surv) in enumerate(zip(specs, curves))
    ]
    ad = _object(doc["actions"], "actions")
    if ad["kind"] == "explicit":
        actions = ExplicitActions(
            _int(ad["count"], "actions.count"),
            _int(ad["null_action"], "actions.null_action"),
        )
    elif ad["kind"] == "assortment":
        actions = AssortmentActions(
            _int(ad["n_products"], "actions.n_products"),
            _int(ad["max_size"], "actions.max_size"),
        )
    else:
        raise ValueError(f"unknown action space kind {ad['kind']!r}")
    entries = _objects(doc["customers"], "customers")
    outcomes = _objects([c["outcomes"] for c in entries], "customers", "outcomes")
    customers = []
    for j, (c, od) in enumerate(zip(entries, outcomes)):
        if od["kind"] == "explicit":
            caps = {
                key: None if od[key] is None else _number(od[key], "customers", j, "outcomes", key)
                for key in ("reward_cap", "consumption_cap")
            }
            om = ExplicitOutcomes(
                _numbers(od["rewards"], "customers", j, "outcomes", "rewards", depth=2),
                _numbers(od["consumption"], "customers", j, "outcomes", "consumption", depth=2),
                noise=od["noise"],
                **caps,
            )
        elif od["kind"] == "mnl":
            if mnl_model is None:
                raise ValueError("mnl outcome stub without an mnl block")
            who = od["customer"]
            if who is not None:
                _int(who, "customers", j, "outcomes", "customer")
            om = MnlOutcomes(mnl_model, who)
        else:
            raise ValueError(f"unknown outcome kind {od['kind']!r}")
        weight = _number(c["weight"], "customers", j, "weight")
        customers.append(CustomerType(weight=weight, outcomes=om))
    return Instance(
        resources=resources,
        reward_count=reward_count,
        customers=customers,
        actions=actions,
        horizon=horizon,
        null_type=null_type,
    )


def save_instance(path, inst: Instance):
    with open(path, "w") as fh:
        fh.write(instance_to_json(inst))


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_json(fh.read())


def _action_json(action):
    if isinstance(action, tuple):
        return list(action)
    return int(action)


def trace_to_jsonl(trace, fh):
    """One JSON object per recorded step (run the episode with record_steps)."""
    for st in trace.steps:
        fh.write(
            json.dumps(
                {
                    "t": st.step,
                    "customer": st.customer,
                    "chosen": _action_json(st.chosen),
                    "executed": _action_json(st.executed),
                    "forced": st.forced,
                    "reward": np.asarray(st.reward, dtype=float).tolist(),
                    "consumption": np.asarray(st.consumption, dtype=float).tolist(),
                    "durations": {str(i): int(d) for i, d in sorted(st.durations.items())},
                },
                sort_keys=True,
            )
            + "\n"
        )
