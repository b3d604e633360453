"""Exception types shared across modules, the reader of JSON input files
that raises them, the one rule for the JSON type of an input value, and the
writer of JSON artifacts."""
from __future__ import annotations

import json
import os
import types
import typing


class OrbtourError(Exception):
    """Base class for all toolkit errors."""


class SingularStateError(OrbtourError, ValueError):
    """Raised when a state hits a representation singularity (e.g. i = pi
    for equinoctial elements, or w <= 0 in the variational equations)."""


class InsufficientFuelError(OrbtourError, ValueError):
    """Raised when a release would leave the spacecraft with no mass."""


class SchemaError(OrbtourError, ValueError):
    """Raised on malformed or version-mismatched artifact files."""


def read_json_object(path: str | os.PathLike) -> dict:
    """The JSON object held in the file ``path``.  Invalid JSON, or a value
    that is not an object, raises a schema error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object, found {type(data).__name__}")
    return data


def json_fits(value, hint) -> bool | None:
    """Whether the JSON ``value`` can set a field of type ``hint``: a bool
    is not a number and a float is not an int.  None when no JSON value can
    set such a field."""
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    if hint in (bool, str, type(None)):
        return isinstance(value, hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(json_fits(value, arg) for arg in typing.get_args(hint))
    return None


def write_json(path: str | os.PathLike, obj) -> None:
    """Write ``obj`` to ``path`` as JSON indented by 2, with sorted keys and
    a final newline, so equal objects give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
