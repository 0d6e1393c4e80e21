"""The one JSON codec of the config dataclasses.

``from_json(cls, raw, where)`` reads a dataclass from its JSON object and
``to_json(obj)`` writes it back, both from ``dataclasses.fields`` and the
resolved type hints: the keys are the field names in field order, and a key
may be left out when its field has a default. Annotations understood: ``float``,
``int``, ``bool``, ``str``, ``tuple``, ``X | None``, ``np.ndarray`` (as long as
the field's default) and nested dataclasses. A nested field declared with
``metadata=INLINE`` keeps its keys in the parent's object. A class whose JSON
object is not its fields, dataclass or not (``geometry.Pose``), defines
``json_decode(raw, where)`` (a classmethod) and ``json_encode()``. Malformed input, and a ``TypeError``/``ValueError`` from
a ``__post_init__``, raise ``InputError`` naming the object and the key.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

import numpy as np

from .errors import InputError

INLINE = {"json": "inline"}


def parse_vector(value, n: int, what: str) -> np.ndarray:
    """A JSON list of ``n`` finite numbers as a float array; InputError otherwise."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        v = None
    if v is None or v.shape != (n,) or not np.isfinite(v).all():
        raise InputError(f"{what} must be a list of {n} finite numbers, got {value!r}")
    return v


def check_keys(raw, names, where: str, required=()) -> None:
    """InputError unless ``raw`` is a JSON object whose keys are among
    ``names`` and include every key of ``required``."""
    if not isinstance(raw, dict):
        raise InputError(f"{where} must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(names)
    if unknown:
        raise InputError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")
    for name in required:
        if name not in raw:
            raise InputError(f"missing key '{name}' in {where}")


def from_json(cls, raw, where: str):
    """An instance of ``cls`` read from its JSON object ``raw``."""
    if hasattr(cls, "json_decode"):
        return cls.json_decode(raw, where)
    keys = _keys(cls)
    required = [f.name for f in keys if _default(f) is dataclasses.MISSING]
    check_keys(raw, [f.name for f in keys], where, required)
    return _build(cls, raw, where)


def to_json(obj):
    """The JSON value of ``obj``; a config dataclass becomes its JSON object."""
    if hasattr(obj, "json_encode"):
        return obj.json_encode()
    if dataclasses.is_dataclass(obj):
        out = {}
        for f in dataclasses.fields(obj):
            value = to_json(getattr(obj, f.name))
            out.update(value if f.metadata == INLINE else {f.name: value})
        return out
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, tuple):
        return [to_json(v) for v in obj]
    return obj


def _keys(cls) -> list[dataclasses.Field]:
    """The fields behind the keys of ``cls``'s JSON object, inlined ones expanded."""
    hints = typing.get_type_hints(cls)
    keys = []
    for f in dataclasses.fields(cls):
        keys += _keys(hints[f.name]) if f.metadata == INLINE else [f]
    return keys


def _default(f: dataclasses.Field):
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


def _build(cls, raw: dict, where: str):
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.metadata == INLINE:
            kwargs[f.name] = _build(hints[f.name], raw, where)
        elif f.name in raw:
            kwargs[f.name] = _decode(hints[f.name], raw[f.name], f, where)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from None


# JSON value types accepted for each scalar annotation, and their description
_SCALARS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a finite number"),
    str: (str, "a string"),
    tuple: (list, "a list"),
}


def _decode(tp, value, f: dataclasses.Field, where: str):
    if isinstance(tp, types.UnionType):
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if dataclasses.is_dataclass(tp) or hasattr(tp, "json_decode"):
        return from_json(tp, value, f.name)
    what = f"{where} '{f.name}'"
    if tp is np.ndarray:
        return parse_vector(value, len(_default(f)), what)
    accepted, kind = _SCALARS[tp]
    # bool is a subclass of int, but true is not a number here
    ok = isinstance(value, accepted) and (tp is bool or not isinstance(value, bool))
    if not ok or (tp is float and not math.isfinite(value)):
        raise InputError(f"{what} must be {kind}, got {value!r}")
    return float(value) if tp is float else _tuple(value) if tp is tuple else value


def _tuple(value: list) -> tuple:
    return tuple(_tuple(v) if isinstance(v, list) else v for v in value)
