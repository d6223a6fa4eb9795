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

Loading names the first field that is missing (only a resource's
``unit_price`` may be left out, for 0.0) or not of its JSON type (an
integer field takes no float and no ``true``, a list field no object, an
object field no list); ``mnl.n`` must equal the number of products and an
mnl stub's ``customer`` must index ``mnl.customers``.

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


# A kind is what a field may hold: the set of exact types its JSON values
# may have, or [kind] for a list of that kind, nested for a matrix.
# json.loads builds exact int and float objects, so type() itself is
# tested: that also keeps out bool, a subclass of int.  A message names a
# kind as _NAMES does, a kind that also takes null by its other type.
_INTEGER = frozenset((int,))
_NUMBER = frozenset((int, float))
_OBJECT = frozenset((dict,))
_STRING = frozenset((str,))
_INTEGER_OR_NULL = frozenset((int, type(None)))
_NUMBER_OR_NULL = frozenset((int, float, type(None)))
_NAMES = {
    _INTEGER: "an integer",
    _NUMBER: "a number",
    _OBJECT: "an object",
    _STRING: "a string",
    _INTEGER_OR_NULL: "an integer",
    _NUMBER_OR_NULL: "a number",
}
_LIST = frozenset((list,))


def _field(path) -> str:
    """("resources", 0, "capacity") -> "resources[0].capacity"."""
    return path[0] + "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path[1:])


def _check(value, kind, path):
    """``value`` if it is of ``kind``, else a ValueError naming its field.

    A list is tested in one pass over its entries, flattened as deep as
    ``kind`` nests, and walked only when that fails, to name the first
    entry that is wrong: an object by its index, any other by its list.
    """
    if type(kind) is frozenset:
        if type(value) in kind:
            return value
        raise ValueError(f"{_field(path)} must be {_NAMES[kind]}, got {value!r}")
    if type(value) is not list:
        raise ValueError(f"{_field(path)} must be a list, got {value!r}")
    leaf, items = kind[0], value
    while type(leaf) is list and _LIST.issuperset(map(type, items)):
        leaf, items = leaf[0], list(chain.from_iterable(items))
    if type(leaf) is frozenset and leaf.issuperset(map(type, items)):
        return value
    entry = kind[0]
    for k, x in enumerate(value):
        _check(x, entry, (*path, k) if entry is _OBJECT else path)


def _get(obj, key, kind, *path):
    """``obj[key]`` checked by :func:`_check`; ``path`` is the field of ``obj``.

    ``obj`` may also be a list of objects, entry k being the field
    ``path[0][k]`` then ``path[1:]``: their ``key`` values are then read as
    one list, checked in one pass, and walked entry by entry only to name
    the one that is missing or wrong.
    """
    if type(obj) is list:
        try:
            return _check([o[key] for o in obj], [kind], path)
        except (KeyError, ValueError):
            for k, o in enumerate(obj):
                _get(o, key, kind, path[0], k, *path[1:])
            raise
    try:
        value = obj[key]
    except KeyError:
        raise ValueError(f"{_field((*path, key))} is missing") from None
    # a scalar of its kind is done without a call; a list kind holds no types
    if type(value) in kind:
        return value
    return _check(value, kind, (*path, key))


def instance_from_json(text: str) -> Instance:
    """The instance a JSON document describes.

    Every field but ``resources[i].unit_price`` (default 0.0) must be
    present.  Integer fields must be JSON integers and numeric fields JSON
    numbers (``true`` is neither), list, object and string fields JSON
    lists, objects and strings; ``reward_cap``, ``consumption_cap`` and an
    mnl stub's ``customer`` may also be null.  ``mnl.n`` must be the number
    of products and an mnl stub's ``customer`` an index into
    ``mnl.customers``.  Any other value raises a :class:`ValueError` that
    names the field.  What the types cannot tell (a negative horizon,
    weights that do not sum to one) is left to
    :func:`~reuselab.model.validate_instance`.
    """
    doc = json.loads(text)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != _FORMAT:
        raise ValueError(f"not an instance file (format={fmt!r})")
    if doc.get("version") != _VERSION:
        raise ValueError(f"unsupported instance version {doc.get('version')!r}")
    horizon = _get(doc, "horizon", _INTEGER)
    reward_count = _get(doc, "reward_count", _INTEGER)
    null_type = _get(doc, "null_type", _INTEGER)
    mnl_model = None
    if "mnl" in doc:
        blk = _get(doc, "mnl", _OBJECT)
        products = _get(blk, "products", [_OBJECT], "mnl")
        custs = _get(blk, "customers", [_OBJECT], "mnl")
        n = _get(blk, "n", _INTEGER, "mnl")
        if n != len(products):
            raise ValueError(f"mnl.n must be {len(products)}, the number of mnl.products, got {n}")
        mnl_model = MnlModel(
            features=_get(products, "f", [_NUMBER], "mnl.products"),
            cust_features=_get(custs, "b", [[_NUMBER]], "mnl.customers"),
            max_size=_get(blk, "m", _INTEGER, "mnl"),
            prices=_get(products, "price", _NUMBER, "mnl.products"),
        )
    specs = _get(doc, "resources", [_OBJECT])
    resources = [
        ResourceSpec(
            capacity=capacity,
            survival=SurvivalCurve(surv),
            unit_price=_get(r, "unit_price", _NUMBER, "resources", i) if "unit_price" in r else 0.0,
        )
        for i, (r, capacity, surv) in enumerate(zip(
            specs,
            _get(specs, "capacity", _NUMBER, "resources"),
            _get(specs, "survival", [_NUMBER], "resources"),
        ))
    ]
    ad = _get(doc, "actions", _OBJECT)
    kind = _get(ad, "kind", _STRING, "actions")
    if kind == "explicit":
        actions = ExplicitActions(
            _get(ad, "count", _INTEGER, "actions"),
            _get(ad, "null_action", _INTEGER, "actions"),
        )
    elif kind == "assortment":
        actions = AssortmentActions(
            _get(ad, "n_products", _INTEGER, "actions"),
            _get(ad, "max_size", _INTEGER, "actions"),
        )
    else:
        raise ValueError(f"unknown action space kind {kind!r}")
    entries = _get(doc, "customers", [_OBJECT])
    outcomes = _get(entries, "outcomes", _OBJECT, "customers")
    customers = []
    for j, (od, kind, weight) in enumerate(zip(
        outcomes,
        _get(outcomes, "kind", _STRING, "customers", "outcomes"),
        _get(entries, "weight", _NUMBER, "customers"),
    )):
        if kind == "explicit":
            at = ("customers", j, "outcomes")
            om = ExplicitOutcomes(
                _get(od, "rewards", [[_NUMBER]], *at),
                _get(od, "consumption", [[_NUMBER]], *at),
                noise=_get(od, "noise", _STRING, *at),
                reward_cap=_get(od, "reward_cap", _NUMBER_OR_NULL, *at),
                consumption_cap=_get(od, "consumption_cap", _NUMBER_OR_NULL, *at),
            )
        elif kind == "mnl":
            if mnl_model is None:
                raise ValueError(f"mnl is missing, and customers[{j}].outcomes is an mnl stub")
            who = _get(od, "customer", _INTEGER_OR_NULL, "customers", j, "outcomes")
            try:
                om = MnlOutcomes(mnl_model, who)
            except ValueError:
                raise ValueError(
                    f"customers[{j}].outcomes.customer must index the "
                    f"{mnl_model.n_customers} mnl.customers, got {who}"
                ) from None
        else:
            raise ValueError(f"unknown outcome kind {kind!r}")
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
