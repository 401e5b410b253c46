"""Command-line interface.

Every subcommand reads UTF-8 JSON descriptors, runs one computation, and
writes a JSON report to standard output or to --out.  Reports are
rendered with sorted keys, so identical inputs and seed produce byte
identical output.  Exit codes: 0 on success, 1 on a domain error (the
report is a structured error object) or a failed reproduction table,
2 when a solver ends without a certified optimum.  Each leaf parser
carries its handler as the `command` default, and `run` calls it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from dataclasses import asdict

# One BLAS thread unless the caller chose, set before numpy loads: numpy
# starts OpenBLAS's thread pool on import and no command gains from it.
# On 2 vCPUs, importing numpy took 271 ms of process CPU with the pool
# against 163 ms with one thread (medians of 15 runs), and the CPU time of
# a `steerkit` command fell by 36-39% on the cli_cold bench.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .report import load_json, render_report

# Each subcommand imports the modules it calls when it runs, so a command
# loads only those: the `criteria` planners run without numpy, and only
# `twirl` imports numpy itself.  The names bench/spans.py wraps as
# `cli.<name>` still resolve here on first lookup (PEP 562), from their
# home modules.
_LAZY = {
    "assemblages": ("steer",),
    "functionals": ("lv_s", "steering_bound"),
    "games": ("kv_fraction", "kv_game"),
    "monotones": ("optimal_steering_fraction", "steerable_weight", "steering_robustness"),
    "serialize": (
        "decode_assemblage", "decode_bell", "decode_correlation", "decode_functional",
        "decode_measurements", "decode_state", "encode_assemblage", "encode_bell",
        "encode_functional", "encode_matrix", "encode_measurements",
    ),
    "states": ("fef",),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


__all__ = ["main", "run"]

TOL_RANGE = (1e-12, 1e-4)


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str) -> None:
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(self, message)


def _common(parser: argparse.ArgumentParser, command, solver: bool = False) -> None:
    parser.set_defaults(command=command)
    if solver:
        parser.add_argument("--tol", type=float, default=1e-9, help="solver tolerance")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    parser.add_argument("--out", default=None, help="write the report to this file")


def build_parser() -> _Parser:
    parser = _Parser(prog="steerkit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(metavar="subcommand", required=True)

    p = subs.add_parser("fef", help="fully entangled fraction of a state")
    p.add_argument("--state", required=True, help="state descriptor JSON")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--strategy", choices=("auto", "closed-form", "ascent"), default="auto")
    _common(p, _cmd_fef)

    p = subs.add_parser("twirl", help="project a state onto the isotropic family")
    p.add_argument("--state", required=True)
    p.add_argument("--samples", type=int, default=None, help="also average this many random unitaries")
    _common(p, _cmd_twirl)

    p = subs.add_parser("steer", help="assemblage produced by measuring a state")
    p.add_argument("--state", required=True)
    p.add_argument("--measurements", required=True, help="measurement family JSON")
    _common(p, _cmd_steer)

    p = subs.add_parser("bound", help="classical bound of a functional")
    p.add_argument("--functional", help="steering functional JSON")
    p.add_argument("--bell", help="Bell coefficient JSON")
    _common(p, _cmd_bound)

    p = subs.add_parser("fraction", help="violation fraction of data against a functional")
    p.add_argument("--assemblage", help="assemblage JSON (with --functional)")
    p.add_argument("--functional", help="steering functional JSON")
    p.add_argument("--correlation", help="correlation JSON (with --bell)")
    p.add_argument("--bell", help="Bell coefficient JSON")
    _common(p, _cmd_fraction)

    p = subs.add_parser("lvs", help="largest violation of a steering functional by a state")
    p.add_argument("--state", required=True)
    p.add_argument("--functional", required=True)
    _common(p, _cmd_lvs, solver=True)

    p = subs.add_parser("monotone", help="convex steering monotone of an assemblage")
    p.add_argument("--assemblage", required=True)
    p.add_argument("--which", choices=("S_O", "S_W", "S_R"), default="S_O")
    _common(p, _cmd_monotone, solver=True)

    p = subs.add_parser("game", help="named game and measurement generators")
    game_subs = p.add_subparsers(dest="game", metavar="name", required=True)
    g = game_subs.add_parser("kv", help="biased coset game on n-bit strings")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--eta", type=float, default=None)
    _common(g, _cmd_game)
    g = game_subs.add_parser("cglmp", help="two-setting d-outcome inequality")
    g.add_argument("--d", type=int, required=True)
    _common(g, _cmd_game)
    g = game_subs.add_parser("mub", help="mutually unbiased basis functional")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    _common(g, _cmd_game)

    p = subs.add_parser("criteria", help="closed-form thresholds and planners")
    crit_subs = p.add_subparsers(dest="criteria", metavar="name", required=True)
    c = crit_subs.add_parser("thresholds", help="isotropic steerability thresholds")
    c.add_argument("--d", type=int, required=True)
    _common(c, _cmd_criteria)
    c = crit_subs.add_parser("upper-bounds", help="violation ceilings of the maximally entangled state")
    c.add_argument("--d", type=int, required=True)
    _common(c, _cmd_criteria)
    c = crit_subs.add_parser(
        "amplify", help="dimension planner for a target multi-copy violation",
        description="Smallest isotropic dimension d meeting both targets. d is an exact "
                    "JSON integer, or an exact hexadecimal string (\"0x...\", read back "
                    "with int(s, 16)) when it has more decimal digits than Python "
                    "converts (4300 by default).")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--k", type=int, default=3)
    _common(c, _cmd_criteria)
    c = crit_subs.add_parser("superactivate", help="copy count activating an isotropic state")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--p", type=float, required=True)
    _common(c, _cmd_criteria)

    p = subs.add_parser("reproduce", help="regression table of the library's reference numbers")
    _common(p, _cmd_reproduce)

    return parser


def _cmd_fef(args):
    from .serialize import decode_state, encode_matrix
    from .states import fef

    rho = decode_state(load_json(args.state))
    res = fef(rho, strategy=args.strategy, restarts=args.restarts, seed=args.seed)
    return {
        "fef": res.value,
        "exact": res.exact,
        "method": res.method,
        "upper_bound": res.upper_bound,
        "unitary": encode_matrix(res.unitary),
    }, 0


def _cmd_twirl(args):
    import numpy as np

    from .serialize import decode_state
    from .states import isotropic, twirl, twirl_monte_carlo

    rho = decode_state(load_json(args.state))
    iso = twirl(rho)
    report = {"isotropic": {"d": iso.d, "p": iso.p}}
    if args.samples is not None:
        sampled = twirl_monte_carlo(rho, samples=args.samples, rng=args.seed)
        target = isotropic(iso.d, iso.p).matrix
        spectrum = np.linalg.eigvalsh(sampled.matrix - target)
        report["monte_carlo"] = {
            "samples": args.samples,
            "trace_distance": float(np.abs(spectrum).sum() / 2.0),
        }
    return report, 0


def _cmd_steer(args):
    from .assemblages import steer
    from .serialize import decode_measurements, decode_state, encode_assemblage

    rho = decode_state(load_json(args.state))
    fam = decode_measurements(load_json(args.measurements))
    return encode_assemblage(steer(rho, fam)), 0


def _cmd_bound(args):
    from .functionals import local_bound, steering_bound
    from .serialize import decode_bell, decode_functional, encode_matrix

    if (args.functional is None) == (args.bell is None):
        raise ValueError("bound needs exactly one of --functional or --bell")
    if args.functional is not None:
        func = decode_functional(load_json(args.functional))
        res = steering_bound(func)
        return {
            "kind": "steering",
            "value": res.value,
            "strategy": res.strategy.tolist(),
            "eigenvector": encode_matrix(res.eigenvector),
        }, 0
    bell = decode_bell(load_json(args.bell))
    res = local_bound(bell)
    return {
        "kind": "local",
        "value": res.value,
        "alice_strategy": res.alice_strategy.tolist(),
        "bob_strategy": res.bob_strategy.tolist(),
    }, 0


def _cmd_fraction(args):
    from .functionals import nonlocality_fraction, steering_fraction
    from .serialize import decode_assemblage, decode_bell, decode_correlation, decode_functional

    steering_inputs = args.assemblage is not None and args.functional is not None
    bell_inputs = args.correlation is not None and args.bell is not None
    if steering_inputs == bell_inputs:
        raise ValueError(
            "fraction needs either --assemblage with --functional or --correlation with --bell"
        )
    if steering_inputs:
        sigma = decode_assemblage(load_json(args.assemblage))
        func = decode_functional(load_json(args.functional))
        res = steering_fraction(sigma, func)
        kind = "steering"
    else:
        corr = decode_correlation(load_json(args.correlation))
        bell = decode_bell(load_json(args.bell))
        res = nonlocality_fraction(corr, bell)
        kind = "bell"
    return {
        "kind": kind,
        "value": res.value,
        "numerator": res.numerator,
        "bound": res.bound,
        "violated": res.violated,
    }, 0


def _cmd_lvs(args):
    from .functionals import lv_s
    from .serialize import decode_functional, decode_state, encode_measurements

    rho = decode_state(load_json(args.state))
    func = decode_functional(load_json(args.functional))
    res = lv_s(rho, func, tol=args.tol)
    return {
        "value": res.value,
        "gap": res.gap,
        "achieved": res.achieved,
        "family": encode_measurements(res.family),
    }, 0


def _cmd_monotone(args):
    from .monotones import optimal_steering_fraction, steerable_weight, steering_robustness
    from .serialize import decode_assemblage

    sigma = decode_assemblage(load_json(args.assemblage))
    compute = {
        "S_O": optimal_steering_fraction,
        "S_W": steerable_weight,
        "S_R": steering_robustness,
    }[args.which]
    report = compute(sigma, tol=args.tol)
    return asdict(report), 0 if report.status == "optimal" else 2


def _cmd_game(args):
    from .games import _kv_fraction, cglmp, cglmp_lv_lower, kv_game, kv_measurements, mub, mub_functional
    from .serialize import encode_bell, encode_functional, encode_measurements

    if args.game == "kv":
        game = kv_game(args.n, args.eta)
        fam = kv_measurements(args.n)
        frac = _kv_fraction(game, fam)
        return {
            "kind": "kv",
            "n": game.n,
            "eta": game.eta,
            "bell": encode_bell(game.coefficients),
            "measurements": encode_measurements(fam),
            "report": {
                "value": frac.value,
                "local_value": frac.local_value,
                "local_bound_analytic": frac.local_bound_analytic,
                "fraction": frac.fraction,
                "fraction_lower": frac.fraction_lower,
                "estimate": frac.estimate,
            },
        }, 0
    if args.game == "cglmp":
        bell = cglmp(args.d)
        lv = cglmp_lv_lower(args.d)
        return {
            "kind": "cglmp",
            "d": args.d,
            "bell": encode_bell(bell),
            "lv_lower": lv,
            "fef_threshold": 1.0 / lv,
        }, 0
    if args.game == "mub":
        fam = mub(args.d, args.n)
        report = {
            "kind": "mub",
            "d": args.d,
            "n": args.n,
            "functional": encode_functional(mub_functional(fam)),
        }
        if args.n >= 2:
            from .criteria import mub_threshold

            report["fef_threshold"] = mub_threshold(args.d, args.n)
        return report, 0


def _cmd_criteria(args):
    from . import criteria as crit

    if args.criteria == "thresholds":
        return asdict(crit.isotropic_thresholds(args.d)), 0
    if args.criteria == "upper-bounds":
        return asdict(crit.bell_upper_bounds(args.d)), 0
    if args.criteria == "amplify":
        return asdict(crit.amplification_plan(args.eps, args.delta, args.k)), 0
    if args.criteria == "superactivate":
        return asdict(crit.superactivation_min_copies(args.d, args.p)), 0


def _reference_rows() -> list[dict]:
    from . import criteria as crit
    from .functionals import local_bound
    from .games import cglmp

    rows = []

    def match(quantity, expected, computed, tolerance, comparison):
        if comparison == "rel":
            delta = abs(computed - expected) / abs(expected)
            ok = delta <= tolerance
        elif comparison == "abs":
            delta = abs(computed - expected)
            ok = delta <= tolerance
        else:  # computed must stay at or below expected
            delta = computed - expected
            ok = delta <= tolerance
        rows.append(
            {
                "quantity": quantity,
                "expected": expected,
                "computed": computed,
                "delta": delta,
                "tolerance": tolerance,
                "comparison": comparison,
                "pass": bool(ok),
            }
        )

    match("fef threshold, 3 unbiased qubit bases", 0.7887, crit.mub_threshold(2, 3), 5e-4, "rel")
    match("fef threshold, full qutrit unbiased family", 2.0 / 3.0, crit.mub_threshold(3, 4), 1e-12, "abs")
    match(
        "nonlocality fef threshold, two-setting inequality d=2",
        0.8787,
        crit.bell_sufficient(2, "cglmp").threshold,
        5e-4,
        "rel",
    )
    match(
        "nonlocality fef threshold, two-setting inequality d=10^6",
        0.8611,
        crit.bell_sufficient(10**6, "cglmp").threshold,
        5e-4,
        "rel",
    )
    match(
        "nonlocality fef threshold, coset game d=2^10",
        0.6404,
        crit.bell_sufficient(2**10, "kv").threshold,
        5e-4,
        "rel",
    )
    match("projective violation ceiling, qubits", 1.6, crit.lvs_upper_projective(2), 1e-12, "abs")
    envelope = max(
        crit.lvs_upper_projective(d) * math.log(d) / d for d in range(2, 10_001)
    )
    match("projective ceiling envelope over d <= 10^4", 1.0900, envelope, 0.0, "upper")
    match(
        "qubit Bell ceiling from the Grothendieck constant",
        1.2552,
        crit.bell_upper_bounds(2).qubit_grothendieck,
        5e-4,
        "rel",
    )
    match("planner threshold kappa, qubits", 0.3, crit.kappa(2), 1e-12, "abs")
    for d in (2, 3):
        match(
            f"two-setting inequality local bound, d={d} (brute force)",
            6.0,
            local_bound(cglmp(d)).value,
            1e-9,
            "abs",
        )
    return rows


def _cmd_reproduce(args):
    rows = _reference_rows()
    failures = sum(1 for row in rows if not row["pass"])
    report = {
        "table": "paper",
        "rows": rows,
        "passed": failures == 0,
        "failures": failures,
    }
    return report, 0 if failures == 0 else 1


def _error(kind: str, message: str, **where) -> str:
    return render_report({"error": {"kind": kind, "message": message, **where}})


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        err.parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {err}\n")
        return 1
    out = args.out
    try:
        if not TOL_RANGE[0] <= getattr(args, "tol", TOL_RANGE[0]) <= TOL_RANGE[1]:
            raise ValueError(f"tolerance must lie in [{TOL_RANGE[0]}, {TOL_RANGE[1]}]")
        payload, code = args.command(args)
        text = render_report(payload)
    except json.JSONDecodeError as err:
        text, code = _error("input", err.msg, line=err.lineno, column=err.colno), 1
    except (ValueError, OSError, KeyError) as err:
        text, code = _error("domain", str(err)), 1
    except RuntimeError as err:
        text, code = _error("solver", str(err)), 2
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
            return code
        except OSError as err:
            # the report cannot reach --out, so the error goes to stdout
            text, code = _error("domain", str(err)), 1
    sys.stdout.write(text)
    return code


def main() -> int:
    return run(sys.argv[1:])
