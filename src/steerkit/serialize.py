"""JSON encoding and decoding for the library's domain objects.

Complex entries are stored as [re, im] pairs.  Operator collections
indexed by outcome and setting use string keys "a|x", so the member for
outcome 0 of setting 1 sits under "0|1".  Reports are rendered with
sorted keys and a fixed indent, which makes equal inputs produce byte
identical output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .assemblages import Assemblage, MeasurementFamily
from .functionals import BellFunctional, Correlation, SteeringFunctional
from .states import DensityMatrix, isotropic

__all__ = [
    "encode_matrix",
    "decode_matrix",
    "encode_state",
    "decode_state",
    "encode_assemblage",
    "decode_assemblage",
    "encode_functional",
    "decode_functional",
    "encode_measurements",
    "decode_measurements",
    "encode_bell",
    "decode_bell",
    "encode_correlation",
    "decode_correlation",
    "jsonify",
    "render_report",
    "load_json",
]


def encode_matrix(matrix: np.ndarray) -> list:
    """Nested lists with [re, im] leaf pairs, any array rank."""
    arr = np.asarray(matrix, dtype=np.complex128)
    paired = np.stack([arr.real, arr.imag], axis=-1)
    return paired.tolist()


# Decoding checks the JSON types, so malformed input raises ValueError.
def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    return obj


def _fields(obj: dict, what: str, *keys: str) -> list:
    try:
        return [obj[key] for key in keys]
    except KeyError as missing:
        raise ValueError(f"{what} is missing {missing}") from None


def _scalar(value, kind: type, what: str):
    """A JSON number of the given kind, int or float; a float field takes an integer too."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ValueError(f"{what} must be {'an integer' if kind is int else 'a number'}, not {value!r}")
    return kind(value)


def _real_array(data, what: str) -> np.ndarray:
    try:
        return np.asarray(data, dtype=float)
    except TypeError:
        raise ValueError(f"{what} must be numbers") from None


def decode_matrix(data) -> np.ndarray:
    arr = _real_array(data, "matrix entries")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError("matrix entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _operator_table(block: dict, settings: int, outcomes: int, dim: int, what: str) -> np.ndarray:
    """The (settings, outcomes, dim, dim) table of an "a|x" block, allocated
    only once every entry has been read, so its size is bounded by the input's."""
    _object(block, f"{what} block")
    if min(settings, outcomes, dim) < 1:
        raise ValueError(f"{what} dim, settings and outcomes must be at least 1")
    table = {}
    for key, entry in block.items():
        try:
            a_str, x_str = key.split("|")
            a, x = int(a_str), int(x_str)
        except ValueError:
            raise ValueError(f"{what} keys must look like 'a|x', got {key!r}") from None
        if not (0 <= x < settings and 0 <= a < outcomes):
            raise ValueError(f"{what} key {key!r} is outside the declared index ranges")
        matrix = decode_matrix(entry)
        if matrix.shape != (dim, dim):
            raise ValueError(f"{what} {key!r} must be a {dim}x{dim} matrix")
        table[x, a] = matrix
    if len(table) != settings * outcomes:
        raise ValueError(f"{what} block must contain all {settings * outcomes} entries")
    return np.array([[table[x, a] for a in range(outcomes)] for x in range(settings)], dtype=np.complex128)


def _encode_operator_table(table: np.ndarray) -> dict:
    settings, outcomes = table.shape[:2]
    return {
        f"{a}|{x}": encode_matrix(table[x, a]) for x in range(settings) for a in range(outcomes)
    }


def encode_state(rho: DensityMatrix) -> dict:
    return {"dA": rho.dA, "dB": rho.dB, "matrix": encode_matrix(rho.matrix)}


def decode_state(obj: dict) -> DensityMatrix:
    """Accepts the full descriptor or the isotropic shorthand
    {"isotropic": {"d": ..., "p": ...}}."""
    _object(obj, "state descriptor")
    if "isotropic" in obj:
        spec = _object(obj["isotropic"], "isotropic shorthand")
        d, p = _fields(spec, "isotropic shorthand", "d", "p")
        return isotropic(_scalar(d, int, "isotropic d"), _scalar(p, float, "isotropic p"))
    d_a, d_b, matrix = _fields(obj, "state descriptor", "dA", "dB", "matrix")
    return DensityMatrix(_scalar(d_a, int, "state dA"), _scalar(d_b, int, "state dB"), decode_matrix(matrix))


def encode_assemblage(sigma: Assemblage) -> dict:
    return {
        "dim": sigma.dim,
        "settings": sigma.settings,
        "outcomes": sigma.outcomes,
        "sigma": _encode_operator_table(sigma.members),
    }


def _unwrap(obj: dict, marker: str, *wrappers: str) -> dict:
    """Descend one level into a report that nests the descriptor, so a
    subcommand's output file can feed another subcommand directly."""
    if isinstance(obj, dict) and marker not in obj:
        for key in wrappers:
            if key in obj and isinstance(obj[key], dict):
                return obj[key]
    return obj


def _table_descriptor(obj, what: str, key: str, *wrappers: str) -> tuple[int, np.ndarray]:
    """dim and operator table of an assemblage, functional or measurement descriptor."""
    obj = _object(_unwrap(obj, key, *wrappers), f"{what} descriptor")
    names = ("dim", "settings", "outcomes")
    *sizes, block = _fields(obj, f"{what} descriptor", *names, key)
    dim, m, o = (_scalar(v, int, f"{what} {name}") for v, name in zip(sizes, names))
    return dim, _operator_table(block, m, o, dim, what)


def decode_assemblage(obj: dict) -> Assemblage:
    return Assemblage(*_table_descriptor(obj, "assemblage", "sigma", "assemblage"))


def encode_functional(func: SteeringFunctional) -> dict:
    return {
        "dim": func.dim,
        "settings": func.settings,
        "outcomes": func.outcomes,
        "operators": _encode_operator_table(func.operators),
    }


def decode_functional(obj: dict) -> SteeringFunctional:
    return SteeringFunctional(*_table_descriptor(obj, "functional", "operators", "functional"))


def encode_measurements(fam: MeasurementFamily) -> dict:
    return {
        "dim": fam.dim,
        "settings": fam.effects.shape[0],
        "outcomes": fam.effects.shape[1],
        "effects": _encode_operator_table(fam.effects),
    }


def decode_measurements(obj: dict) -> MeasurementFamily:
    return MeasurementFamily(*_table_descriptor(obj, "measurement", "effects", "family", "measurements"))


def encode_bell(bell: BellFunctional) -> dict:
    return {
        "settings": [bell.settings_a, bell.settings_b],
        "outcomes": [bell.outcomes_a, bell.outcomes_b],
        "coefficients": bell.coefficients.tolist(),
    }


def decode_bell(obj: dict) -> BellFunctional:
    obj = _object(_unwrap(obj, "coefficients", "bell"), "Bell descriptor")
    (coeffs,) = _fields(obj, "Bell descriptor", "coefficients")
    return BellFunctional(_real_array(coeffs, "Bell coefficients"))


def encode_correlation(corr: Correlation) -> dict:
    return {"table": corr.table.tolist()}


def decode_correlation(obj: dict) -> Correlation:
    (table,) = _fields(_object(obj, "correlation descriptor"), "correlation descriptor", "table")
    return Correlation(_real_array(table, "correlation table"))


def jsonify(obj):
    """Recursive conversion to plain JSON values.

    Numpy scalars and arrays become Python numbers and nested lists,
    complex leaves become [re, im] pairs, and non-finite floats become
    null (log-space companion fields stay finite where they exist).
    An integer that Python's limit on int-to-str conversion (4300 digits
    by default) refuses, which json.dumps would fail on, becomes its exact
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
        return [obj.real, obj.imag]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return jsonify(float(obj))
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return encode_matrix(obj)
        return jsonify(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_report(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise json.JSONDecodeError(f"{path}: {err.msg}", err.doc, err.pos) from None
