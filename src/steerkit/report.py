"""Report rendering and JSON input, without numpy.

Every `steerkit` subcommand reads its inputs and writes its report through
this module, so it imports only the standard library: the closed-form
`criteria` planners then run without loading numpy at all.
"""

from __future__ import annotations

import json
import math

__all__ = ["jsonify", "render_report", "load_json"]


def jsonify(obj):
    """Recursive conversion to plain JSON values.

    Numpy scalars and arrays become Python numbers and nested lists
    through their `tolist()`, complex leaves become [re, im] pairs, and
    non-finite floats, a complex leaf's parts included, become null
    (log-space companion fields stay finite where they exist).  An
    integer that Python's limit on int-to-str conversion (4300 digits by
    default) refuses, which json.dumps would fail on, becomes its exact
    hexadecimal string "0x..."; int(s, 16) reads it back with no limit.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        try:
            str(obj)
        except ValueError:
            return hex(obj)
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return [jsonify(obj.real), jsonify(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    tolist = getattr(obj, "tolist", None)
    if tolist is not None:
        plain = tolist()
        if type(plain) is type(obj):
            # extended-precision numpy scalars return themselves; a complex
            # one has a real part of another type
            plain = float(obj) if type(obj.real) is type(obj) else complex(obj)
        return jsonify(plain)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise json.JSONDecodeError(f"{path}: {err.msg}", err.doc, err.pos) from None
