"""JSON round trips for states, assemblages, functionals, and reports."""

import json

import numpy as np
import pytest

from steerkit.assemblages import MeasurementFamily, steer
from steerkit.functionals import BellFunctional, Correlation, SteeringFunctional
from steerkit.games import cglmp, mub, mub_functional
from steerkit.serialize import (
    decode_assemblage,
    decode_bell,
    decode_correlation,
    decode_functional,
    decode_matrix,
    decode_measurements,
    decode_state,
    encode_assemblage,
    encode_bell,
    encode_correlation,
    encode_functional,
    encode_matrix,
    encode_measurements,
    encode_state,
    jsonify,
    render_report,
)
from steerkit.states import max_entangled, random_density_matrix


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_projective(dim: int, settings: int, seed: int) -> MeasurementFamily:
    g = rng(seed)
    eff = np.empty((settings, dim, dim, dim), dtype=np.complex128)
    for x in range(settings):
        raw = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
        q, _ = np.linalg.qr(raw)
        for a in range(dim):
            eff[x, a] = np.outer(q[:, a], q[:, a].conj())
    return MeasurementFamily(dim, eff)


class TestMatrixCodec:
    def test_round_trip_exact(self):
        g = rng(0)
        m = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
        assert np.array_equal(decode_matrix(encode_matrix(m)), m)

    def test_round_trip_through_json_text(self):
        g = rng(1)
        m = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
        back = decode_matrix(json.loads(json.dumps(encode_matrix(m))))
        assert np.array_equal(back, m)

    def test_higher_rank(self):
        g = rng(2)
        m = g.normal(size=(2, 3, 2, 2)) + 1j * g.normal(size=(2, 3, 2, 2))
        assert np.array_equal(decode_matrix(encode_matrix(m)), m)

    def test_rejects_bare_numbers(self):
        with pytest.raises(ValueError, match="pairs"):
            decode_matrix([[1.0, 2.0, 3.0]])


class TestStateCodec:
    def test_round_trip(self):
        rho = random_density_matrix(2, 3, rng=rng(3))
        back = decode_state(encode_state(rho))
        assert back.dA == 2 and back.dB == 3
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-14

    def test_isotropic_shorthand(self):
        rho = decode_state({"isotropic": {"d": 2, "p": 0.5}})
        assert rho.dA == rho.dB == 2
        expected = 0.5 * max_entangled(2).matrix + 0.5 * np.eye(4) / 4
        assert np.max(np.abs(rho.matrix - expected)) < 1e-14

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            decode_state({"dA": 2, "dB": 2})

    def test_non_object(self):
        with pytest.raises(ValueError, match="object"):
            decode_state([1, 2])


class TestAssemblageCodec:
    def test_round_trip(self):
        sigma = steer(max_entangled(2), random_projective(2, 3, seed=4))
        obj = encode_assemblage(sigma)
        assert obj["dim"] == 2 and obj["settings"] == 3 and obj["outcomes"] == 2
        back = decode_assemblage(obj)
        assert np.max(np.abs(back.members - sigma.members)) < 1e-14

    def test_key_convention(self):
        # outcome a of setting x sits under "a|x"
        sigma = steer(max_entangled(2), random_projective(2, 2, seed=5))
        obj = encode_assemblage(sigma)
        entry = decode_matrix(obj["0|1"]) if "0|1" in obj else decode_matrix(obj["sigma"]["0|1"])
        assert np.max(np.abs(entry - sigma.members[1, 0])) < 1e-14

    def test_bad_key_shape(self):
        sigma = steer(max_entangled(2), random_projective(2, 2, seed=6))
        obj = encode_assemblage(sigma)
        obj["sigma"] = {"nonsense": obj["sigma"]["0|0"]}
        with pytest.raises(ValueError, match="a|x"):
            decode_assemblage(obj)

    def test_out_of_range_key(self):
        sigma = steer(max_entangled(2), random_projective(2, 2, seed=7))
        obj = encode_assemblage(sigma)
        obj["sigma"]["5|0"] = obj["sigma"]["0|0"]
        with pytest.raises(ValueError, match="index ranges"):
            decode_assemblage(obj)

    def test_incomplete_block(self):
        sigma = steer(max_entangled(2), random_projective(2, 2, seed=8))
        obj = encode_assemblage(sigma)
        del obj["sigma"]["1|1"]
        with pytest.raises(ValueError, match="all"):
            decode_assemblage(obj)


class TestFunctionalCodec:
    def test_round_trip(self):
        func = mub_functional(mub(3, 2))
        back = decode_functional(encode_functional(func))
        assert back.dim == 3
        assert np.max(np.abs(back.operators - func.operators)) < 1e-14

    def test_unwraps_nested_report(self):
        func = mub_functional(mub(2, 3))
        report = {"kind": "mub", "functional": encode_functional(func)}
        back = decode_functional(report)
        assert np.max(np.abs(back.operators - func.operators)) < 1e-14


class TestMeasurementCodec:
    def test_round_trip(self):
        fam = random_projective(3, 2, seed=9)
        back = decode_measurements(encode_measurements(fam))
        assert np.max(np.abs(back.effects - fam.effects)) < 1e-14

    def test_unwraps_family_report(self):
        fam = random_projective(2, 2, seed=10)
        report = {"value": 1.0, "family": encode_measurements(fam)}
        back = decode_measurements(report)
        assert np.max(np.abs(back.effects - fam.effects)) < 1e-14


class TestBellCodec:
    def test_round_trip(self):
        bell = cglmp(3)
        obj = encode_bell(bell)
        assert obj["settings"] == [2, 2] and obj["outcomes"] == [3, 3]
        back = decode_bell(obj)
        assert np.array_equal(back.coefficients, bell.coefficients)

    def test_unwraps_nested_report(self):
        bell = cglmp(2)
        back = decode_bell({"kind": "cglmp", "bell": encode_bell(bell)})
        assert np.array_equal(back.coefficients, bell.coefficients)


class TestCorrelationCodec:
    def test_round_trip(self):
        table = np.full((1, 1, 2, 2), 0.25)
        corr = Correlation(table)
        back = decode_correlation(encode_correlation(corr))
        assert np.array_equal(back.table, corr.table)


class TestJsonify:
    def test_numpy_scalars(self):
        assert jsonify(np.float64(0.5)) == 0.5
        assert jsonify(np.int64(3)) == 3
        assert isinstance(jsonify(np.int64(3)), int)

    def test_complex_leaves(self):
        assert jsonify(1 + 2j) == [1.0, 2.0]
        assert jsonify(np.complex128(3 - 1j)) == [3.0, -1.0]

    def test_non_finite_becomes_null(self):
        assert jsonify(float("inf")) is None
        assert jsonify({"a": float("nan")}) == {"a": None}

    def test_nested_structures(self):
        payload = {"x": [np.float64(1.0), {"y": np.arange(3)}]}
        assert jsonify(payload) == {"x": [1.0, {"y": [0, 1, 2]}]}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            jsonify(object())

    def test_big_integers_survive(self):
        huge = 2**14_000 + 12_345
        assert jsonify({"d": huge}) == {"d": huge}

    def test_integers_past_the_digit_limit_become_exact_hex(self):
        huge = 3**10_000 + 1   # 4,772 decimal digits
        assert jsonify({"d": huge, "e": [-huge]}) == {"d": hex(huge), "e": [hex(-huge)]}
        assert int(json.loads(render_report({"d": huge}))["d"], 16) == huge


class TestJsonifyBytes:
    """Reports keep their bytes: numpy values go through `tolist()`."""

    @pytest.mark.parametrize("value, text", [
        (np.float64(0.1), "0.1\n"),
        (np.int64(-7), "-7\n"),
        (np.complex128(1.5 - 2j), "[\n  1.5,\n  -2.0\n]\n"),
        (np.array([1.5, -2.0]), "[\n  1.5,\n  -2.0\n]\n"),
        (np.array([[1 + 2j, 3]]),
         "[\n  [\n    [\n      1.0,\n      2.0\n    ],\n    [\n      3.0,\n      0.0\n    ]\n  ]\n]\n"),
        (np.array(2.5), "2.5\n"),
        (np.array(1j), "[\n  0.0,\n  1.0\n]\n"),
        (np.float64("nan"), "null\n"),
        (np.float64("-inf"), "null\n"),
        (np.array([np.nan, 1.0]), "[\n  null,\n  1.0\n]\n"),
        ({"a": np.int64(3), "b": (np.float32(1.25),)}, '{\n  "a": 3,\n  "b": [\n    1.25\n  ]\n}\n'),
        (2**16_000, '"0x1' + "0" * 4000 + '"\n'),
    ], ids=["float64", "int64", "complex128", "real_array", "complex_array", "real_0d", "complex_0d",
            "nan", "inf", "nan_in_array", "nested", "past_digit_limit"])
    def test_same_bytes(self, value, text):
        assert render_report(value) == text

    def test_numpy_bools(self):
        assert render_report([np.bool_(True), np.bool_(False)]) == "[\n  true,\n  false\n]\n"
        assert render_report(np.array([True])) == "[\n  true\n]\n"


class TestRenderReport:
    def test_deterministic_bytes(self):
        payload = {"b": 1.0, "a": [2.0, {"z": 3, "y": None}]}
        assert render_report(payload) == render_report(dict(reversed(payload.items())))

    def test_sorted_keys(self):
        text = render_report({"beta": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"beta"')
