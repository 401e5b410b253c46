"""The benchmark's three workloads: seeded inputs, one cycle of operations,
and the correctness oracle for every operation.

A cycle is one pass over a workload's inputs, in a fixed order.  The
runner repeats whole cycles, so every run sees the same mix of operations
and every count taken per cycle repeats exactly.  All callers are closed
loop with one client: the next operation starts when the last one ends.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from steerkit import assemblages, criteria, functionals, games, monotones, serialize, states

# Closed-form anchors for isotropic(2, p) under m Pauli bases:
# S_R = S_O = max(0, m (1 + p) / (2 lambda_m) - 1), so membership flips at
# p = 1/sqrt(m).
LAMBDA = {2: 1.0 + 1.0 / math.sqrt(2.0), 3: (3.0 + math.sqrt(3.0)) / 2.0}
ANCHOR_TOL = 1e-8   # |value - closed form|; seen below 3e-9
CERT_TOL = 1e-6     # |certificate_value - value| and |dual_value - value|
AGREE_TOL = 1e-6    # |S_O - S_R| on one assemblage
MEMBER_TOL = 1e-7   # lhs_membership's default threshold on the robustness
REF_REL = 1e-9      # CLI report value against the in-process library call
REF_SOLVER = 1e-8   # the same for solver outputs: decoding re-validates the
                    # input, which moves the solve by ~1e-10


def anchor(m: int, p: float) -> float:
    return max(0.0, m * (1.0 + p) / (2.0 * LAMBDA[m]) - 1.0)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def projective_family(dim: int, settings: int, gen) -> assemblages.MeasurementFamily:
    """Random rank-1 projective measurements, one Haar-like basis per setting."""
    eff = np.empty((settings, dim, dim, dim), dtype=np.complex128)
    for x in range(settings):
        q, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
        for a in range(dim):
            eff[x, a] = np.outer(q[:, a], q[:, a].conj())
    return assemblages.MeasurementFamily(dim, eff)


def rotated_paulis(settings: int, gen) -> assemblages.MeasurementFamily:
    """The first `settings` Pauli bases conjugated by one random unitary.

    The isotropic state is U x U* invariant, so this only rotates Bob's side
    of the assemblage and leaves every monotone at its closed form.
    """
    u, _ = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
    eff = games.mub(2, settings).to_measurements().effects
    return assemblages.MeasurementFamily(2, np.einsum("ij,xajk,lk->xail", u, eff, u.conj()))


def random_instrument(dim: int, gen) -> assemblages.Instrument1W:
    """Two-branch one-way instrument with random wirings and Kraus pair."""
    wiring = assemblages.WiringMap(
        gen.dirichlet(np.ones(2), size=2), gen.dirichlet(np.ones(2), size=(2, 2, 2))
    )
    k1 = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    k2 = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    w, v = np.linalg.eigh(k1.conj().T @ k1 + k2.conj().T @ k2)
    s = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return assemblages.Instrument1W(
        (assemblages.InstrumentBranch(k1 @ s, wiring), assemblages.InstrumentBranch(k2 @ s, wiring))
    )


@dataclass(frozen=True)
class Op:
    key: str                    # unique within a cycle
    call: Callable[[], object]


def _check_report(rep, expected: float | None = None) -> str | None:
    if rep.status != "optimal":
        return f"status {rep.status}"
    if rep.certificate_value is None or abs(rep.certificate_value - rep.value) > CERT_TOL:
        return f"certificate_value {rep.certificate_value} vs value {rep.value}"
    if rep.dual_value is None or abs(rep.dual_value - rep.value) > CERT_TOL:
        return f"dual_value {rep.dual_value} vs value {rep.value}"
    if expected is not None and abs(rep.value - expected) > ANCHOR_TOL:
        return f"value {rep.value} vs closed form {expected}"
    return None


def _check_membership(res, robustness: float | None, expected: float | None = None) -> str | None:
    if res.status == "indeterminate" or res.robustness is None:
        return "indeterminate"
    if robustness is not None and res.robustness != robustness:
        return f"robustness {res.robustness} differs from S_R {robustness}"
    if expected is not None and abs(res.robustness - expected) > ANCHOR_TOL:
        return f"robustness {res.robustness} vs closed form {expected}"
    want = "member" if res.robustness <= MEMBER_TOL else "nonmember"
    if res.status != want:
        return f"status {res.status} at robustness {res.robustness}"
    if res.status == "nonmember" and not res.witness_value > res.witness_bound:
        return f"witness {res.witness_value} does not exceed bound {res.witness_bound}"
    if res.status == "member" and not res.residual <= 1e-6:
        return f"model residual {res.residual}"
    return None


class SolveMid:
    """Serial monotone and membership calls on mid-size assemblages."""

    name = "solve_mid"
    in_process = True
    MIN_CYCLES = 1
    # (d, m) -> number of assemblages.  Each measures isotropic(d, p), p
    # seeded in [0.75, 0.95], in a seeded random projective family.  Random
    # pure and random mixed states make the solver end `indeterminate` for
    # some seeds (README.md, findings), and a benchmark operation must not
    # fail.  The middle sizes get four assemblages each, which puts the
    # median latency inside their cluster rather than at its edge.
    SIZES = {(2, 2): 2, (2, 3): 2, (3, 2): 4, (2, 4): 4, (3, 3): 2, (4, 2): 2}
    CALLS = {
        "S_R": lambda s: monotones.steering_robustness(s),
        "S_W": lambda s: monotones.steerable_weight(s),
        "S_O": lambda s: monotones.optimal_steering_fraction(s),
        "lhs": lambda s: assemblages.lhs_membership(s),
    }
    # ROADMAP re-anchor points, reported with rows, iterations and times.
    REANCHOR = {"sr_d2m2": "d2m2-0:S_R", "sr_d3m3": "d3m3-0:S_R", "so_d3m3": "d3m3-0:S_O"}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        gen = _rng(self.seed, 1)
        self.inputs = {}
        self.expected = {}
        for (d, m), count in self.SIZES.items():
            for i in range(count):
                rho = states.isotropic(d, gen.uniform(0.75, 0.95))
                self.inputs[f"d{d}m{m}-{i}"] = assemblages.steer(rho, projective_family(d, m, gen))
        for m in (2, 3):
            for side, sign in (("below", -1.0), ("above", 1.0)):
                p = 1.0 / math.sqrt(m) + sign * gen.uniform(2e-4, 1e-3)
                label = f"iso-m{m}-{side}"
                paulis = games.mub(2, m).to_measurements()
                self.inputs[label] = assemblages.steer(states.isotropic(2, p), paulis)
                self.expected[label] = anchor(m, p)
        warm = self.inputs["d2m2-0"]
        for call in self.CALLS.values():
            call(warm)

    def cycle(self, tracer=None) -> list[Op]:
        ops = []
        for label, sigma in self.inputs.items():
            if label in self.expected:
                # One operation checks an anchor: S_R, S_O and membership.
                calls = [self.CALLS[fn] for fn in ("S_R", "S_O", "lhs")]
                ops.append(Op(f"{label}:anchor", lambda s=sigma, cs=calls: [c(s) for c in cs]))
                continue
            for fn, call in self.CALLS.items():
                ops.append(Op(f"{label}:{fn}", lambda c=call, s=sigma: c(s)))
        return ops

    def check(self, key: str, result, results: dict, first: dict) -> str | None:
        label, fn = key.split(":")
        if fn == "anchor":
            expected = self.expected[label]
            s_r, s_o, lhs = result
            return (
                _check_report(s_r, expected)
                or _check_report(s_o, expected)
                or _check_membership(lhs, s_r.value, expected)
            )
        s_r = results.get(f"{label}:S_R")
        if fn == "lhs":
            return _check_membership(result, s_r.value if s_r is not None else None)
        err = _check_report(result)
        if err is None and fn == "S_O" and s_r is not None and abs(result.value - s_r.value) > AGREE_TOL:
            err = f"S_O {result.value} vs S_R {s_r.value}"
        return err


class AuditTiny:
    """Monotonicity audits of qubit assemblages on the thread pool, plus
    membership of qubit nonmembers."""

    name = "audit_tiny"
    in_process = True
    MIN_CYCLES = 2
    AUDITS = 24     # assemblages audited per cycle
    BATCH = 2       # instruments per audit
    MEMBERS = 12    # membership calls per cycle
    REANCHOR: dict = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.threads = min(4, os.cpu_count() or 1)

    def setup(self) -> None:
        gen = _rng(self.seed, 2)
        self.audits = [
            (
                states.random_density_matrix(2, 2, rng=gen),
                projective_family(2, 2, gen),
                [random_instrument(2, gen) for _ in range(self.BATCH)],
            )
            for _ in range(self.AUDITS)
        ]
        self.members = []
        for i in range(self.MEMBERS):
            m, p = 2 + i % 2, gen.uniform(0.85, 1.0)
            self.members.append((states.isotropic(2, p), rotated_paulis(m, gen), anchor(m, p)))
        rho, fam, batch = self.audits[0]
        self._audit(rho, fam, batch[:1])
        rho, fam, _ = self.members[0]
        assemblages.lhs_membership(assemblages.steer(rho, fam))

    def _audit(self, rho, fam, batch):
        sigma = assemblages.steer(rho, fam)
        return monotones.monotonicity_audit(sigma, batch, tol=1e-5, threads=self.threads)

    def cycle(self, tracer=None) -> list[Op]:
        ops = []
        per_member = self.AUDITS // self.MEMBERS
        for i, (rho, fam, batch) in enumerate(self.audits):
            ops.append(Op(f"audit{i}", lambda r=rho, f=fam, b=batch: self._audit(r, f, b)))
            if (i + 1) % per_member == 0:
                j = i // per_member
                rho_m, fam_m, _ = self.members[j]
                ops.append(Op(
                    f"lhs{j}",
                    lambda r=rho_m, f=fam_m: assemblages.lhs_membership(assemblages.steer(r, f)),
                ))
        return ops

    def check(self, key: str, result, results: dict, first: dict) -> str | None:
        if key.startswith("lhs"):
            expected = self.members[int(key[3:])][2]
            err = _check_membership(result, None, expected)
            if err is None and result.status != "nonmember":
                err = f"status {result.status}, expected nonmember"
            return err
        if len(result.rows) != self.BATCH:
            return f"{len(result.rows)} audit rows for {self.BATCH} instruments"
        values = [v for row in result.rows for v in row.branch_values]
        if not all(math.isfinite(v) for v in values + [result.base_value]):
            return "a branch solve ended without a value"
        if not result.holds:
            return "an instrument raised the fraction monotone"
        return None


class CliCold:
    """Fresh `python -m steerkit` processes over seeded JSON inputs."""

    name = "cli_cold"
    in_process = False
    MIN_CYCLES = 3  # repeats every command, so repeated reports can be compared
    REANCHOR: dict = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        here = Path(__file__).resolve().parent
        self.child = str(here / "cli_child.py")
        src = str(here.parent / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.cwd = str(here.parent)
        self.refs: dict = {}

    def _write(self, name: str, payload) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def setup(self) -> None:
        gen = _rng(self.seed, 3)
        raw = gen.normal(size=(16, 2, 2, 2)) + 1j * gen.normal(size=(16, 2, 2, 2))
        self.f16 = functionals.SteeringFunctional(2, np.einsum("xaij,xakj->xaik", raw, raw.conj()) / 4)
        self.rho2 = states.random_density_matrix(2, 2, rng=gen)
        self.fam16 = projective_family(2, 16, gen)
        self.sig16 = assemblages.steer(self.rho2, self.fam16)
        self.rho4 = states.random_density_matrix(4, 4, rng=gen)
        self.p_iso3 = float(gen.uniform(0.6, 1.0))
        self.sig_q = assemblages.steer(
            states.random_density_matrix(2, 2, rank=1, rng=gen), projective_family(2, 3, gen)
        )
        self.rho3 = states.random_density_matrix(3, 3, rng=gen)
        self.fam3 = projective_family(3, 3, gen)
        self.corr = functionals.correlation_from(
            states.random_density_matrix(2, 2, rank=1, rng=gen),
            projective_family(2, 2, gen),
            projective_family(2, 2, gen),
        )
        self.bell = functionals.BellFunctional(gen.uniform(size=(4, 4, 3, 3)))
        self.d_thr = 999_000 + int(gen.integers(0, 1000))
        self.d_sup = int(gen.integers(3, 11))
        self.p_sup = float(gen.uniform(1.0 / (self.d_sup + 1.0) + 0.1, 1.0))
        # Plans beyond ~4300 decimal digits fail to encode (Python's int to
        # str limit), so the targets stay where d has at most ~2100 digits.
        self.eps = float(gen.uniform(0.5, 0.6))
        self.delta = float(gen.uniform(2.0, 5.0))
        self.d_upper = int(gen.integers(100, 1001))
        files = {
            "f16": self._write("f16.json", serialize.encode_functional(self.f16)),
            "rho2": self._write("rho2.json", serialize.encode_state(self.rho2)),
            "fam16": self._write("fam16.json", serialize.encode_measurements(self.fam16)),
            "sig16": self._write("sig16.json", serialize.encode_assemblage(self.sig16)),
            "rho4": self._write("rho4.json", serialize.encode_state(self.rho4)),
            "iso3": self._write("iso3.json", {"isotropic": {"d": 3, "p": self.p_iso3}}),
            "mub3": self._write(
                "mub3.json", serialize.encode_functional(games.mub_functional(games.mub(3, 4)))
            ),
            "sigq": self._write("sigq.json", serialize.encode_assemblage(self.sig_q)),
            "rho3": self._write("rho3.json", serialize.encode_state(self.rho3)),
            "fam3": self._write("fam3.json", serialize.encode_measurements(self.fam3)),
            "corr": self._write("corr.json", serialize.encode_correlation(self.corr)),
            "cglmp2": self._write("cglmp2.json", serialize.encode_bell(games.cglmp(2))),
            "bell": self._write("bell.json", serialize.encode_bell(self.bell)),
        }
        seed = ["--seed", str(self.seed)]
        self.commands = {
            "game-kv": ["game", "kv", "--n", "8", *seed],
            "game-mub": ["game", "mub", "--d", "3", "--n", "4", *seed],
            "bound": ["bound", "--functional", files["f16"], *seed],
            "bound-bell": ["bound", "--bell", files["bell"], *seed],
            "steer": ["steer", "--state", files["rho2"], "--measurements", files["fam16"], *seed],
            "steer-qutrit": [
                "steer", "--state", files["rho3"], "--measurements", files["fam3"], *seed
            ],
            "fraction": [
                "fraction", "--assemblage", files["sig16"], "--functional", files["f16"], *seed
            ],
            "fraction-bell": [
                "fraction", "--correlation", files["corr"], "--bell", files["cglmp2"], *seed
            ],
            "fef": ["fef", "--state", files["rho4"], "--strategy", "ascent", *seed],
            "lvs": ["lvs", "--state", files["iso3"], "--functional", files["mub3"], *seed],
            "monotone-S_R": ["monotone", "--which", "S_R", "--assemblage", files["sigq"], *seed],
            "monotone-S_O": ["monotone", "--which", "S_O", "--assemblage", files["sigq"], *seed],
            "monotone-S_W": ["monotone", "--which", "S_W", "--assemblage", files["sigq"], *seed],
            "twirl": ["twirl", "--state", files["rho4"], "--samples", "2000", *seed],
            "game-cglmp": ["game", "cglmp", "--d", "3", *seed],
            "upper-bounds": ["criteria", "upper-bounds", "--d", str(self.d_upper), *seed],
            "thresholds": ["criteria", "thresholds", "--d", str(self.d_thr), *seed],
            "superactivate": [
                "criteria", "superactivate", "--d", str(self.d_sup), "--p", repr(self.p_sup), *seed
            ],
            "amplify": [
                "criteria", "amplify", "--eps", repr(self.eps), "--delta", repr(self.delta), *seed
            ],
            "reproduce": ["reproduce", *seed],
        }
        # Warm-up: one throwaway process loads the interpreter, numpy and the
        # package into the page cache and leaves the bytecode compiled.
        self._spawn(self.commands["superactivate"], None)

    def _spawn(self, argv: list[str], tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "steerkit", *argv]
        else:
            spans_path = self.workdir / "child-spans.json"
            cmd = [sys.executable, self.child, str(spans_path), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.cwd, check=False)
        end = time.perf_counter()
        if tracer is not None:
            process = tracer.record("cli.process", start, end)
            if spans_path.exists():
                tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")), root=process)
                spans_path.unlink()
        return proc.returncode, proc.stdout

    def cycle(self, tracer=None) -> list[Op]:
        return [
            Op(key, lambda argv=argv: self._spawn(argv, tracer))
            for key, argv in self.commands.items()
        ]

    def check(self, key: str, result, results: dict, first: dict) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        if out != first[key][1]:
            return "report bytes differ from the first cycle's"
        report = json.loads(out)
        if key not in self.refs:
            self.refs[key] = self._reference(key)
        return self._compare(key, report, self.refs[key], results)

    def _reference(self, key: str):
        """The same quantity from an in-process library call."""
        if key == "game-kv":
            return asdict(games.kv_fraction(8))
        if key == "game-mub":
            return {
                "functional": games.mub_functional(games.mub(3, 4)).operators,
                "fef_threshold": criteria.mub_threshold(3, 4),
            }
        if key == "bound":
            return functionals.steering_bound(self.f16).value
        if key == "bound-bell":
            return functionals.local_bound(self.bell).value
        if key == "steer":
            return assemblages.steer(self.rho2, self.fam16).members
        if key == "steer-qutrit":
            return assemblages.steer(self.rho3, self.fam3).members
        if key == "fraction":
            return functionals.steering_fraction(self.sig16, self.f16).value
        if key == "fraction-bell":
            return functionals.nonlocality_fraction(self.corr, games.cglmp(2)).value
        if key == "fef":
            return states.fef(self.rho4, strategy="ascent", seed=self.seed).value
        if key == "lvs":
            func = games.mub_functional(games.mub(3, 4))
            return functionals.lv_s(states.isotropic(3, self.p_iso3), func).value
        if key == "monotone-S_R":
            return monotones.steering_robustness(self.sig_q)
        if key == "monotone-S_O":
            return monotones.optimal_steering_fraction(self.sig_q)
        if key == "monotone-S_W":
            return monotones.steerable_weight(self.sig_q)
        if key == "twirl":
            iso = states.twirl(self.rho4)
            sampled = states.twirl_monte_carlo(self.rho4, samples=2000, rng=self.seed)
            diff = sampled.matrix - states.isotropic(iso.d, iso.p).matrix
            return {"p": iso.p, "trace_distance": float(np.abs(np.linalg.eigvalsh(diff)).sum() / 2)}
        if key == "game-cglmp":
            return {"bell": games.cglmp(3).coefficients, "lv_lower": games.cglmp_lv_lower(3)}
        if key == "upper-bounds":
            return serialize.jsonify(asdict(criteria.bell_upper_bounds(self.d_upper)))
        if key == "thresholds":
            return serialize.jsonify(asdict(criteria.isotropic_thresholds(self.d_thr)))
        if key == "superactivate":
            return serialize.jsonify(asdict(criteria.superactivation_min_copies(self.d_sup, self.p_sup)))
        if key == "amplify":
            return serialize.jsonify(asdict(criteria.amplification_plan(self.eps, self.delta)))
        if key == "reproduce":
            return criteria.mub_threshold(2, 3)
        raise KeyError(key)

    @staticmethod
    def _compare(key: str, report: dict, ref, results: dict) -> str | None:
        def close(a, b) -> bool:
            if a is None or b is None:
                return a is b
            if key.startswith(("monotone", "lvs")):
                return abs(a - b) <= REF_SOLVER
            return math.isclose(a, b, rel_tol=REF_REL, abs_tol=1e-12)

        if key == "game-kv":
            got = report["report"]
            for field in ("value", "local_value", "fraction", "fraction_lower"):
                if not close(got[field], ref[field]):
                    return f"{field} {got[field]} vs library {ref[field]}"
            return None
        if key == "game-mub":
            ops = serialize.decode_functional(report["functional"]).operators
            if not np.allclose(ops, ref["functional"], rtol=0, atol=1e-12):
                return "MUB functional differs from the library's"
            if not close(report["fef_threshold"], ref["fef_threshold"]):
                return f"fef_threshold {report['fef_threshold']} vs {ref['fef_threshold']}"
            return None
        if key.startswith("steer"):
            members = serialize.decode_assemblage(report).members
            return None if np.allclose(members, ref, rtol=0, atol=1e-12) else "assemblage differs"
        if key.startswith("monotone"):
            err = _check_report(ref)
            if err is None and report["status"] != "optimal":
                err = f"status {report['status']}"
            if err is None and not close(report["value"], ref.value):
                err = f"value {report['value']} vs library {ref.value}"
            other = results.get("monotone-S_R")
            if err is None and key == "monotone-S_O" and isinstance(other, tuple):
                s_r = json.loads(other[1])["value"]
                if abs(report["value"] - s_r) > AGREE_TOL:
                    err = f"S_O {report['value']} vs S_R {s_r}"
            return err
        if key == "twirl":
            got = (report["isotropic"]["p"], report["monte_carlo"]["trace_distance"])
            if not (close(got[0], ref["p"]) and close(got[1], ref["trace_distance"])):
                return f"twirl {got} vs library {ref}"
            return None
        if key == "game-cglmp":
            bell = serialize.decode_bell(report["bell"]).coefficients
            if not (np.array_equal(bell, ref["bell"]) and close(report["lv_lower"], ref["lv_lower"])):
                return "CGLMP inequality differs from the library's"
            return None
        if key in ("thresholds", "superactivate", "amplify", "upper-bounds"):
            return None if report == ref else f"report {report} vs library {ref}"
        if key == "reproduce":
            if report["failures"] != 0 or not report["passed"]:
                return f"{report['failures']} reference rows fail"
            got = report["rows"][0]["computed"]
            return None if close(got, ref) else f"first row {got} vs library {ref}"
        value = report["fef"] if key == "fef" else report["value"]
        return None if close(value, ref) else f"value {value} vs library {ref}"


WORKLOADS = {w.name: w for w in (SolveMid, AuditTiny, CliCold)}
