"""End-to-end command-line runs: reports, round trips, exit codes."""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

import steerkit.cli
import steerkit.monotones
from steerkit.assemblages import MeasurementFamily, steer
from steerkit.cli import build_parser, run
from steerkit.criteria import amplification_plan
from steerkit.functionals import BellFunctional, correlation_from
from steerkit.games import cglmp, mub, mub_functional
from steerkit.serialize import (
    encode_assemblage,
    encode_bell,
    encode_correlation,
    encode_functional,
    encode_measurements,
    encode_state,
)
from steerkit.states import max_entangled, random_density_matrix
from steerkit.strategies import all_strategies


def write(tmp_path, name: str, payload) -> str:
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"report is not strict JSON: bare {name}")


def strict_json(text):
    """Parse a report, refusing the NaN/Infinity tokens that json.dumps
    writes for non-finite floats but no strict JSON parser accepts."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_json(tmp_path, *argv):
    out = tmp_path / f"report_{len(list(tmp_path.iterdir()))}.json"
    code = run([*argv, "--out", str(out)])
    return code, strict_json(out.read_text())


def zx_family() -> MeasurementFamily:
    z = np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 0], [0, 1]], dtype=complex)
    x = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex), 0.5 * np.array(
        [[1, -1], [-1, 1]], dtype=complex
    )
    return MeasurementFamily(2, np.array([z, x]))


class TestFef:
    def test_isotropic_shorthand(self, tmp_path):
        state = write(tmp_path, "iso.json", {"isotropic": {"d": 2, "p": 0.5}})
        code, report = run_json(tmp_path, "fef", "--state", state)
        assert code == 0
        assert abs(report["fef"] - 0.625) < 1e-9
        assert report["exact"] is True

    def test_full_state_descriptor(self, tmp_path):
        state = write(tmp_path, "psi.json", encode_state(max_entangled(2)))
        code, report = run_json(tmp_path, "fef", "--state", state)
        assert code == 0
        assert abs(report["fef"] - 1.0) < 1e-9

    def test_negative_restarts_is_domain_error(self, tmp_path):
        rho = random_density_matrix(2, 2, rng=np.random.default_rng(0))
        state = write(tmp_path, "rho.json", encode_state(rho))
        code, report = run_json(tmp_path, "fef", "--state", state, "--strategy", "ascent", "--restarts", "-3")
        assert code == 1
        assert report["error"] == {"kind": "domain", "message": "restarts must be at least 1, not -3"}


class TestTwirl:
    def test_output_feeds_back_as_state(self, tmp_path):
        rho = random_density_matrix(2, 2, rng=np.random.default_rng(0))
        state = write(tmp_path, "rho.json", encode_state(rho))
        code, report = run_json(tmp_path, "twirl", "--state", state)
        assert code == 0
        twirled = write(tmp_path, "twirled.json", report)
        code, fef_report = run_json(tmp_path, "fef", "--state", twirled)
        assert code == 0
        p = report["isotropic"]["p"]
        # for p < 0 the best local unitary is traceless, not the identity
        expected = max(p, 0.0) + (1 - p) / 4
        assert abs(fef_report["fef"] - expected) < 1e-9

    def test_monte_carlo_block(self, tmp_path):
        rho = random_density_matrix(2, 2, rng=np.random.default_rng(1))
        state = write(tmp_path, "rho.json", encode_state(rho))
        code, report = run_json(
            tmp_path, "twirl", "--state", state, "--samples", "500", "--seed", "3"
        )
        assert code == 0
        assert report["monte_carlo"]["samples"] == 500
        assert 0.0 <= report["monte_carlo"]["trace_distance"] < 0.1

    def test_nan_state_entry_is_domain_error(self, tmp_path):
        payload = encode_state(max_entangled(2))
        payload["matrix"][1][2][0] = float("nan")
        code, report = run_json(tmp_path, "twirl", "--state", write(tmp_path, "rho.json", payload))
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "finite" in report["error"]["message"]


class TestSteerAndMonotone:
    def test_chain(self, tmp_path):
        state = write(tmp_path, "psi.json", encode_state(max_entangled(2)))
        meas = write(tmp_path, "zx.json", encode_measurements(zx_family()))
        code, asm = run_json(tmp_path, "steer", "--state", state, "--measurements", meas)
        assert code == 0
        assert asm["dim"] == 2 and asm["settings"] == 2 and asm["outcomes"] == 2
        asm_path = write(tmp_path, "asm.json", asm)

        code, so = run_json(tmp_path, "monotone", "--assemblage", asm_path)
        assert code == 0
        assert so["monotone"] == "S_O"
        assert set(so) >= {"monotone", "value", "gap", "certificate", "status"}
        assert abs(so["value"] - (3 - 2 * math.sqrt(2))) < 1e-5

        code, sw = run_json(tmp_path, "monotone", "--assemblage", asm_path, "--which", "S_W")
        assert code == 0
        assert abs(sw["value"] - 1.0) < 1e-6

        code, sr = run_json(tmp_path, "monotone", "--assemblage", asm_path, "--which", "S_R")
        assert code == 0
        assert sr["value"] > 1e-3

    def test_certificates_name_their_strategies(self, tmp_path):
        asm = write(tmp_path, "asm.json", encode_assemblage(steer(max_entangled(2), zx_family())))
        for which in ("S_O", "S_W", "S_R"):
            code, report = run_json(tmp_path, "monotone", "--which", which, "--assemblage", asm)
            assert code == 0
            assert "strategy_indicator" not in json.dumps(report)
            if which != "S_O":
                answers = report["certificate"]["strategies"]
                assert all(type(a) is int for row in answers for a in row)
                assert answers == all_strategies(2, 2).tolist()

    @pytest.mark.parametrize("which", ["S_W", "S_R"])
    def test_indeterminate_solve_is_solver_exit(self, tmp_path, monkeypatch, which):
        # the program runs to the end and only its status is replaced
        real = steerkit.monotones.solve

        def indeterminate(problem, **kwargs):
            return dataclasses.replace(real(problem, **kwargs), status="indeterminate")

        monkeypatch.setattr(steerkit.monotones, "solve", indeterminate)
        asm = write(tmp_path, "asm.json", encode_assemblage(steer(max_entangled(2), zx_family())))
        code, report = run_json(tmp_path, "monotone", "--which", which, "--assemblage", asm)
        assert code == 2
        assert report["monotone"] == which
        assert report["status"] == "indeterminate"
        assert report["value"] is None

    def test_report_renders_every_field(self, tmp_path, monkeypatch):
        # a field added to MonotoneReport reaches the report with no CLI change
        @dataclasses.dataclass(frozen=True)
        class Extended(steerkit.monotones.MonotoneReport):
            bracket: tuple = (0.25, 0.5)

        real = steerkit.monotones.steering_robustness

        def extended(sigma, **kwargs):
            return Extended(**dataclasses.asdict(real(sigma, **kwargs)))

        monkeypatch.setattr(steerkit.monotones, "steering_robustness", extended)
        asm = write(tmp_path, "asm.json", encode_assemblage(steer(max_entangled(2), zx_family())))
        code, report = run_json(tmp_path, "monotone", "--which", "S_R", "--assemblage", asm)
        assert code == 0
        assert set(report) == {f.name for f in dataclasses.fields(Extended)}
        assert report["bracket"] == [0.25, 0.5]


class TestBound:
    def test_steering_bound(self, tmp_path):
        func = write(tmp_path, "f.json", encode_functional(mub_functional(mub(2, 2))))
        code, report = run_json(tmp_path, "bound", "--functional", func)
        assert code == 0
        assert report["kind"] == "steering"
        assert abs(report["value"] - (1 + 1 / math.sqrt(2))) < 1e-12

    def test_local_bound(self, tmp_path):
        bell = write(tmp_path, "b.json", encode_bell(cglmp(2)))
        code, report = run_json(tmp_path, "bound", "--bell", bell)
        assert code == 0
        assert report["kind"] == "local"
        assert abs(report["value"] - 6.0) < 1e-12

    def test_requires_exactly_one_input(self, tmp_path):
        func = write(tmp_path, "f.json", encode_functional(mub_functional(mub(2, 2))))
        bell = write(tmp_path, "b.json", encode_bell(cglmp(2)))
        code, report = run_json(tmp_path, "bound", "--functional", func, "--bell", bell)
        assert code == 1
        assert report["error"]["kind"] == "domain"

    def test_nan_functional_entry_is_domain_error(self, tmp_path):
        # json.dumps writes the NaN literal, which the decoder accepts
        payload = encode_functional(mub_functional(mub(2, 2)))
        payload["operators"]["0|1"][0][1][0] = float("nan")
        code, report = run_json(tmp_path, "bound", "--functional", write(tmp_path, "f.json", payload))
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "finite" in report["error"]["message"]


class TestFraction:
    def test_steering_fraction(self, tmp_path):
        state = write(tmp_path, "psi.json", encode_state(max_entangled(2)))
        meas = write(tmp_path, "zx.json", encode_measurements(zx_family()))
        _, asm = run_json(tmp_path, "steer", "--state", state, "--measurements", meas)
        asm_path = write(tmp_path, "asm.json", asm)
        func = write(tmp_path, "f.json", encode_functional(mub_functional(mub(2, 2))))
        code, report = run_json(
            tmp_path, "fraction", "--assemblage", asm_path, "--functional", func
        )
        assert code == 0
        assert report["kind"] == "steering"
        assert abs(report["value"] - (4 - 2 * math.sqrt(2))) < 1e-9
        assert report["violated"] is True

    def test_bell_fraction(self, tmp_path):
        fam = zx_family()
        corr = correlation_from(max_entangled(2), fam, fam)
        corr_path = write(tmp_path, "c.json", encode_correlation(corr))
        bell = write(tmp_path, "b.json", encode_bell(cglmp(2)))
        code, report = run_json(
            tmp_path, "fraction", "--correlation", corr_path, "--bell", bell
        )
        assert code == 0
        assert report["kind"] == "bell"
        assert report["bound"] == 6.0
        assert 0.0 < report["value"] <= 1.0

    def test_steering_functional_of_other_shape(self, tmp_path):
        family = mub(2, 2).to_measurements()
        asm = write(tmp_path, "asm.json", encode_assemblage(steer(max_entangled(2), family)))
        func = write(tmp_path, "f.json", encode_functional(mub_functional(mub(2, 1))))
        code, report = run_json(tmp_path, "fraction", "--assemblage", asm, "--functional", func)
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "does not match" in report["error"]["message"]

    def test_bell_table_of_other_shape(self, tmp_path):
        family = mub(2, 2).to_measurements()
        corr = write(tmp_path, "c.json", encode_correlation(correlation_from(max_entangled(2), family, family)))
        bell = write(tmp_path, "b.json", encode_bell(BellFunctional(np.ones((1, 1, 2, 2)))))
        code, report = run_json(tmp_path, "fraction", "--correlation", corr, "--bell", bell)
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "does not match" in report["error"]["message"]

    def test_mixed_inputs_rejected(self, tmp_path):
        state = write(tmp_path, "psi.json", encode_state(max_entangled(2)))
        code, report = run_json(tmp_path, "fraction", "--assemblage", state)
        assert code == 1
        assert report["error"]["kind"] == "domain"


class TestLvs:
    def test_value_and_family_round_trip(self, tmp_path):
        state = write(tmp_path, "psi.json", encode_state(max_entangled(2)))
        func_obj = encode_functional(mub_functional(mub(2, 2)))
        func = write(tmp_path, "f.json", func_obj)
        code, report = run_json(tmp_path, "lvs", "--state", state, "--functional", func)
        assert code == 0
        assert abs(report["value"] - (4 - 2 * math.sqrt(2))) < 1e-6
        assert abs(report["achieved"] - report["value"]) < 1e-6
        # the optimal family block feeds the steer subcommand directly
        lv_path = write(tmp_path, "lv.json", report)
        code, asm = run_json(tmp_path, "steer", "--state", state, "--measurements", lv_path)
        assert code == 0
        asm_path = write(tmp_path, "asm.json", asm)
        code, frac = run_json(tmp_path, "fraction", "--assemblage", asm_path, "--functional", func)
        assert code == 0
        assert abs(frac["value"] - report["value"]) < 1e-6


class TestGame:
    def test_kv_report(self, tmp_path):
        code, report = run_json(tmp_path, "game", "kv", "--n", "2", "--eta", "0.25")
        assert code == 0
        assert report["kind"] == "kv" and report["n"] == 2
        expected = (1 - 2 * 0.25) ** 2 + 4 * 0.25 * 0.75 / 2
        assert abs(report["report"]["value"] - expected) < 1e-12
        assert report["bell"]["settings"] == [2, 2]

    def test_kv_needs_eta_for_small_n(self, tmp_path):
        code, report = run_json(tmp_path, "game", "kv", "--n", "2")
        assert code == 1
        assert report["error"]["kind"] == "domain"

    @pytest.mark.parametrize("n", ["16", "64"])
    def test_kv_past_the_cap_is_domain_error(self, tmp_path, n):
        code, report = run_json(tmp_path, "game", "kv", "--n", n, "--eta", "0.25")
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "n <= 8" in report["error"]["message"]

    def test_cglmp_feeds_bound(self, tmp_path):
        code, report = run_json(tmp_path, "game", "cglmp", "--d", "2")
        assert code == 0
        assert abs(report["lv_lower"] - (2 + math.sqrt(2)) / 3) < 1e-12
        game_path = write(tmp_path, "cg.json", report)
        code, bound = run_json(tmp_path, "bound", "--bell", game_path)
        assert code == 0
        assert abs(bound["value"] - 6.0) < 1e-12

    def test_cglmp_past_the_cap_is_domain_error(self, tmp_path):
        code, report = run_json(tmp_path, "game", "cglmp", "--d", str(10**15))
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "d <= 1000" in report["error"]["message"]

    def test_mub_past_the_cap_is_domain_error(self, tmp_path):
        # d = 1000003 is prime, and one d x d basis of it would take 14.6 TiB
        code, report = run_json(tmp_path, "game", "mub", "--d", "1000003", "--n", "2")
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "d <= 73" in report["error"]["message"]

    def test_mub_functional_past_the_cap_is_domain_error(self, tmp_path):
        # 20 bases in d = 19: 137,180 entries; 18 bases in d = 17 (88,434) still run
        code, report = run_json(tmp_path, "game", "mub", "--d", "19", "--n", "20")
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "entries" in report["error"]["message"]
        code, report = run_json(tmp_path, "game", "mub", "--d", "17", "--n", "18")
        assert code == 0
        assert report["functional"]["dim"] == 17 and report["functional"]["settings"] == 18

    def test_mub_report(self, tmp_path):
        code, report = run_json(tmp_path, "game", "mub", "--d", "3", "--n", "4")
        assert code == 0
        assert abs(report["fef_threshold"] - 2 / 3) < 1e-12
        assert report["functional"]["dim"] == 3
        assert report["functional"]["settings"] == 4

    def test_game_requires_name(self, tmp_path, capsys):
        assert run(["game"]) == 1
        assert "usage" in capsys.readouterr().err


class TestCriteria:
    def test_criteria_requires_name(self, capsys):
        assert run(["criteria"]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err
        assert captured.out == ""

    def test_thresholds(self, tmp_path):
        code, report = run_json(tmp_path, "criteria", "thresholds", "--d", "2")
        assert code == 0
        assert report["p_ent"] == pytest.approx(1 / 3, abs=1e-15)
        assert report["p_steer"] == 0.5
        assert report["p_povm"] == pytest.approx(5 / 12, abs=1e-15)
        assert report["fef_steer"] == 0.625

    def test_upper_bounds(self, tmp_path):
        code, report = run_json(tmp_path, "criteria", "upper-bounds", "--d", "3")
        assert code == 0
        assert report["qubit_grothendieck"] is None
        assert abs(report["projective"] - 27 / 13) < 1e-12

    def test_upper_bounds_at_huge_d(self, tmp_path):
        code, report = run_json(tmp_path, "criteria", "upper-bounds", "--d", str(10**30))
        assert code == 0
        assert report["d"] == 10**30
        assert math.isfinite(report["projective"]) and math.isfinite(report["povm"])

    @pytest.mark.parametrize(
        "argv", [["thresholds"], ["superactivate", "--p", "0.9"]], ids=["thresholds", "superactivate"]
    )
    def test_d_past_the_float_range_is_domain_error(self, tmp_path, argv):
        code, report = run_json(tmp_path, "criteria", *argv, "--d", str(10**400))
        assert code == 1
        assert report["error"]["kind"] == "domain"

    def test_amplify_past_the_search_cap_is_solver_exit(self, tmp_path):
        code, report = run_json(tmp_path, "criteria", "amplify", "--eps", "0.2", "--delta", "10")
        assert code == 2
        assert report["error"]["kind"] == "solver"

    def test_amplify_tiny_epsilon_is_solver_exit(self, tmp_path):
        code, report = run_json(tmp_path, "criteria", "amplify", "--eps", "1e-300", "--delta", "3")
        assert code == 2
        assert report["error"]["kind"] == "solver"

    def test_amplify(self, tmp_path):
        code, report = run_json(
            tmp_path, "criteria", "amplify", "--eps", "0.5", "--delta", "10"
        )
        assert code == 0
        d = report["d"]
        assert isinstance(d, int)
        assert abs(math.log(d) - 9828.935304390448) < 1e-6
        assert report["log_bound"] > math.log(10.0)
        assert report["p"] == 0.0
        assert report["unsteerable_projective"] is True

    @pytest.mark.parametrize("eps, delta", [("0.4", "10"), ("0.3", "5")])
    def test_amplify_past_the_digit_limit(self, tmp_path, eps, delta):
        code, report = run_json(tmp_path, "criteria", "amplify", "--eps", eps, "--delta", delta)
        assert code == 0
        d = report["d"]
        assert d.startswith("0x")
        assert int(d, 16) == amplification_plan(float(eps), float(delta)).d

    def test_superactivate(self, tmp_path):
        code, report = run_json(tmp_path, "criteria", "superactivate", "--d", "5", "--p", "0.25")
        assert code == 0
        assert report["copies"] == 32
        assert report["status"] == "superactivated"

    def test_superactivate_impossible(self, tmp_path):
        code, report = run_json(tmp_path, "criteria", "superactivate", "--d", "5", "--p", "0.1")
        assert code == 0
        assert report["status"] == "impossible-by-criterion"
        assert report["copies"] is None

    def test_inconclusive_is_solver_exit(self, tmp_path):
        code, report = run_json(
            tmp_path, "criteria", "superactivate", "--d", "2", "--p", "0.33335"
        )
        assert code == 2
        assert report["error"]["kind"] == "solver"

    @pytest.mark.parametrize("eps, delta", [("nan", "3"), ("0.5", "nan"), ("inf", "3"), ("0.5", "inf")])
    def test_amplify_non_finite_target_is_domain_error(self, tmp_path, eps, delta):
        code, report = run_json(tmp_path, "criteria", "amplify", "--eps", eps, "--delta", delta)
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "finite" in report["error"]["message"]

    def test_invalid_copy_count(self, tmp_path):
        code, report = run_json(
            tmp_path, "criteria", "amplify", "--eps", "0.5", "--delta", "10", "--k", "2"
        )
        assert code == 1
        assert report["error"]["kind"] == "domain"


class TestReproduce:
    def test_table_passes(self, tmp_path):
        code, report = run_json(tmp_path, "reproduce")
        assert code == 0
        assert report["table"] == "paper"
        assert report["passed"] is True
        assert report["failures"] == 0
        assert len(report["rows"]) == 11
        for row in report["rows"]:
            assert row["pass"] is True
            assert set(row) == {
                "quantity",
                "expected",
                "computed",
                "delta",
                "tolerance",
                "comparison",
                "pass",
            }

    def test_table_flag_is_gone(self, capsys):
        assert run(["reproduce", "--table", "paper"]) == 1
        assert "unrecognized arguments: --table" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run(["reproduce", "--out", str(first)]) == 0
        assert run(["reproduce", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestErrorHandling:
    def test_malformed_json_reports_position(self, tmp_path):
        bad = write(tmp_path, "bad.json", '{"dA": 2,,}')
        code, report = run_json(tmp_path, "fef", "--state", bad)
        assert code == 1
        err = report["error"]
        assert err["kind"] == "input"
        assert err["line"] == 1 and err["column"] > 1
        assert "bad.json" in err["message"]

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"isotropic": ' + "[" * 5_000 + "]" * 5_000 + "}",
    ], ids=["arrays", "inside_a_descriptor"])
    def test_nesting_too_deep_is_input_error(self, tmp_path, text):
        # the decoder's recursion limit, not a solver failure
        code, report = run_json(tmp_path, "fef", "--state", write(tmp_path, "deep.json", text))
        assert code == 1
        assert report["error"]["kind"] == "input"
        assert "deep.json: nesting too deep" in report["error"]["message"]

    def test_missing_file(self, tmp_path):
        code, report = run_json(tmp_path, "fef", "--state", str(tmp_path / "nope.json"))
        assert code == 1
        assert report["error"]["kind"] == "domain"

    def test_tolerance_window(self, tmp_path):
        asm = write(tmp_path, "asm.json", encode_assemblage(steer(max_entangled(2), zx_family())))
        code, report = run_json(tmp_path, "monotone", "--assemblage", asm, "--tol", "1e-2")
        assert code == 1
        assert "tolerance" in report["error"]["message"]
        code, report = run_json(tmp_path, "monotone", "--assemblage", asm, "--tol", "1e-15")
        assert code == 1

    @pytest.mark.parametrize("tol, code", [("1e-12", 0), ("1e-4", 0), ("1e-2", 1), ("1e-13", 1)])
    def test_tolerance_window_edges(self, tmp_path, tol, code):
        # two outcomes per setting: lvs takes the closed form and runs no solve
        state = write(tmp_path, "psi.json", encode_state(max_entangled(2)))
        func = write(tmp_path, "f.json", encode_functional(mub_functional(mub(2, 2))))
        got, report = run_json(tmp_path, "lvs", "--state", state, "--functional", func, "--tol", tol)
        assert got == code
        if code:
            assert report["error"] == {
                "kind": "domain", "message": "tolerance must lie in [1e-12, 0.0001]"
            }

    def test_tolerance_only_where_a_solver_runs(self, tmp_path, capsys):
        state = write(tmp_path, "iso.json", {"isotropic": {"d": 2, "p": 0.5}})
        assert run(["fef", "--state", state, "--tol", "1e-9"]) == 1
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, payload, message", [
        (("fef", "--state"), {"dA": 1, "dB": 2, "matrix": [[[1, 0], [0, 0]]]}, "square matrix"),
        (("monotone", "--assemblage"), {"dim": 2, "settings": 1, "outcomes": 1, "sigma": []},
         "assemblage block must be a JSON object"),
        (("monotone", "--assemblage"), {"dim": None, "settings": 1, "outcomes": 1, "sigma": {}},
         "assemblage dim must be an integer, not None"),
        (("monotone", "--assemblage"), [1, 2], "assemblage descriptor must be a JSON object"),
        (("monotone", "--assemblage"), {"dim": 2.9, "settings": 1, "outcomes": 1, "sigma": {}},
         "assemblage dim must be an integer, not 2.9"),
        (("monotone", "--assemblage"), {"dim": 2, "settings": 0, "outcomes": 2, "sigma": {}},
         "assemblage dim, settings and outcomes must be at least 1"),
        (("monotone", "--assemblage"), {"dim": 10**8, "settings": 1, "outcomes": 1, "sigma": {}},
         "assemblage block must contain all 1 entries"),
    ], ids=["nonsquare_matrix", "sigma_list", "dim_null", "top_level_list", "dim_float", "no_settings",
            "dim_beyond_the_entries"])
    def test_malformed_descriptor_is_domain_error(self, tmp_path, argv, payload, message):
        code, report = run_json(tmp_path, *argv, write(tmp_path, "bad.json", payload))
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert message in report["error"]["message"]

    @pytest.mark.parametrize("command", ["twirl", "fef"])
    def test_isotropic_past_the_cap_is_domain_error(self, tmp_path, command):
        # the d^2 x d^2 matrix of d = 100000 would take 149 GiB
        state = write(tmp_path, "iso.json", {"isotropic": {"d": 100000, "p": 0.5}})
        code, report = run_json(tmp_path, command, "--state", state)
        assert code == 1
        assert report["error"]["kind"] == "domain"
        assert "d <= 30" in report["error"]["message"]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_twirl_needs_a_sample(self, tmp_path, samples):
        state = write(tmp_path, "iso.json", {"isotropic": {"d": 2, "p": 0.5}})
        code, report = run_json(tmp_path, "twirl", "--state", state, "--samples", samples)
        assert code == 1
        assert report["error"] == {"kind": "domain", "message": "samples must be at least 1"}

    @pytest.mark.parametrize("argv", [
        ("criteria", "thresholds", "--d", "10"),
        ("game", "kv", "--n", "2"),
    ], ids=["report", "error_report"])
    def test_unwritable_out_reports_to_stdout(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.json"
        assert run([*argv, "--out", str(out)]) == 1
        report = strict_json(capsys.readouterr().out)
        assert report["error"]["kind"] == "domain"
        assert str(out) in report["error"]["message"]
        assert not out.parent.exists()

    def test_unknown_flag_prints_usage(self, capsys):
        assert run(["fef", "--state", "x.json", "--bogus"]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err
        assert captured.out == ""

    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err


class TestParser:
    def test_every_leaf_names_one_handler(self):
        def leaves(parser):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                return [parser]
            return [leaf for sub in subs for child in sub.choices.values() for leaf in leaves(child)]

        handlers = {leaf.get_default("command") for leaf in leaves(build_parser())}
        assert all(callable(handler) for handler in handlers)
        assert {handler.__name__ for handler in handlers} == {
            name for name in vars(steerkit.cli) if name.startswith("_cmd_")
        }


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, tmp_path):
        state = write(tmp_path, "psi.json", encode_state(max_entangled(2)))
        func = write(tmp_path, "f.json", encode_functional(mub_functional(mub(2, 2))))
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        assert run(["lvs", "--state", state, "--functional", func, "--out", str(first)]) == 0
        assert run(["lvs", "--state", state, "--functional", func, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_controls_randomized_paths(self, tmp_path):
        rho = random_density_matrix(2, 2, rng=np.random.default_rng(5))
        state = write(tmp_path, "rho.json", encode_state(rho))
        runs = []
        for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
            out = tmp_path / f"{name}.json"
            assert (
                run(
                    [
                        "twirl",
                        "--state",
                        state,
                        "--samples",
                        "50",
                        "--seed",
                        seed,
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]
