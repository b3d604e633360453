"""Exception types shared across modules, the reader of JSON input files
that raises them, and the writer of JSON artifacts."""
from __future__ import annotations

import json
import os


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


def write_json(path: str | os.PathLike, obj) -> None:
    """Write ``obj`` to ``path`` as JSON indented by 2, with sorted keys and
    a final newline, so equal objects give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
