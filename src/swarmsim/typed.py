"""Typed values: the loader that checks a scenario key, and a trace
header's copy of it, against its type, naming the key path when it fails.
"""

from __future__ import annotations

import math
import numbers
import typing
from contextlib import suppress
from types import UnionType
from typing import Annotated, Literal, Union


class ScenarioError(ValueError):
    pass


def is_number(value) -> bool:
    """An int or float; YAML's true/yes/on (a bool) is neither."""
    return not isinstance(value, bool) and isinstance(value, (float, int, numbers.Integral))


def is_finite(value) -> bool:
    """A number that a float holds, and not inf or NaN."""
    if isinstance(value, float):
        return math.isfinite(value)
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def load_typed(path: str, typ, value):
    """value loaded as a typ, or a ScenarioError naming the key path. typ is
    float or int (a finite number; a whole one for int), str, bool, dict (a
    null one loads empty), a Literal, a list or dict of types, a tuple of
    floats (loaded as a list), a union (its first option that loads, else
    the first option's error) or Annotated[typ, what, ok]."""
    if typ is float or typ is int:
        if not is_finite(value):
            what = "a finite number" if is_number(value) else "a number"
        elif typ is int and isinstance(value, float) and not value.is_integer():
            what = "a whole number"
        else:
            return typ(value)  # int(): exact, where a float round trip rounds above 2**53
        raise ScenarioError(f"{path}: {value!r} is not {what}")
    origin, args = typing.get_origin(typ), typing.get_args(typ)
    if origin is Annotated:
        loaded = load_typed(path, args[0], value)
        if not args[2](loaded):
            raise ScenarioError(f"{path}: {value!r} is not {args[1]}")
        return loaded
    if origin is Literal and value in args:
        return value
    if origin in (Union, UnionType):
        try:
            return load_typed(path, args[0], value)
        except ScenarioError:
            for option in args[1:]:
                with suppress(ScenarioError):
                    return load_typed(path, option, value)
            raise
    if origin is list and isinstance(value, (list, tuple)):
        return [load_typed(path, args[0], v) for v in value]
    if origin is tuple and isinstance(value, (list, tuple)) and len(value) == len(args):
        if all(map(is_finite, value)):
            return [float(v) for v in value]
    if origin is dict and isinstance(value, dict):
        key, item = args
        return {
            load_typed(path, key, k): load_typed(f"{path}[{k!r}]", item, v)
            for k, v in value.items()
        }
    if origin is None and isinstance(value, typ):
        return value
    if typ is dict and value is None:
        return {}
    what = {str: "a string", bool: "a boolean", dict: "a mapping"}.get(typ, typ)
    raise ScenarioError(f"{path}: {value!r} is not {what}")


POSITIVE = Annotated[float, "> 0", lambda v: v > 0]
