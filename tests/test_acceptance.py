"""Acceptance gate: the ten product criteria, one test and one line each.

Run with -v to get one PASSED/FAILED line per criterion; each test also
prints a short `criterion N PASS` summary with its headline numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from steerkit.assemblages import (
    Instrument1W,
    InstrumentBranch,
    MeasurementFamily,
    WiringMap,
    steer,
)
from steerkit.cli import run
from steerkit.criteria import superactivation_min_copies, amplification_plan, _plan_metrics
from steerkit.functionals import (
    SteeringFunctional,
    best_rotated_fraction,
    induced_functional,
    local_bound,
    lv_s,
    steering_bound,
    steering_bound_sdp,
    steering_fraction,
)
from steerkit.games import kv_game, kv_fraction, kv_measurements, mub, mub_functional
from steerkit.linalg import haar_unitary, kron, dagger
from steerkit.monotones import (
    _fraction_report,
    check_proposition_robustness,
    check_proposition_weight,
    monotonicity_audit,
    optimal_steering_fraction,
    steerable_weight,
    steering_robustness,
)
from steerkit.states import (
    DensityMatrix,
    fef,
    isotropic,
    max_entangled,
    random_density_matrix,
    twirl,
    twirl_monte_carlo,
)

SQRT2 = math.sqrt(2.0)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def zx_family() -> MeasurementFamily:
    z0 = np.array([[1, 0], [0, 0]], dtype=complex)
    x0 = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return MeasurementFamily(2, np.array([[z0, eye - z0], [x0, eye - x0]]))


def random_projective_family(dim: int, settings: int, gen) -> MeasurementFamily:
    eff = np.empty((settings, dim, dim, dim), dtype=np.complex128)
    for x in range(settings):
        raw = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        q, _ = np.linalg.qr(raw)
        for a in range(dim):
            eff[x, a] = np.outer(q[:, a], q[:, a].conj())
    return MeasurementFamily(dim, eff)


def random_povm_family(dim: int, settings: int, outcomes: int, gen) -> MeasurementFamily:
    eff = np.empty((settings, outcomes, dim, dim), dtype=np.complex128)
    for x in range(settings):
        raw = gen.normal(size=(outcomes, dim, dim)) + 1j * gen.normal(size=(outcomes, dim, dim))
        ops = np.einsum("aij,akj->aik", raw, raw.conj())
        total = ops.sum(axis=0)
        w, v = np.linalg.eigh(total)
        s = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
        eff[x] = np.einsum("ij,ajk,kl->ail", s, ops, s)
    return MeasurementFamily(dim, eff)


def random_instrument(d: int, gen) -> Instrument1W:
    ps = gen.dirichlet(np.ones(2), size=2)
    po = gen.dirichlet(np.ones(2), size=(2, 2, 2))
    wiring = WiringMap(ps, po)
    k1 = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    k2 = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    tot = k1.conj().T @ k1 + k2.conj().T @ k2
    w, v = np.linalg.eigh(tot)
    s = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Instrument1W((InstrumentBranch(k1 @ s, wiring), InstrumentBranch(k2 @ s, wiring)))


def test_criterion_01_reference_number_regression(tmp_path):
    started = time.monotonic()
    out = tmp_path / "table.json"
    code = run(["reproduce", "--out", str(out)])
    report = json.loads(out.read_text())
    elapsed = time.monotonic() - started
    assert code == 0
    assert report["passed"] is True
    failed = [row["quantity"] for row in report["rows"] if not row["pass"]]
    assert failed == []
    assert elapsed < 60.0
    print(f"criterion 1 PASS: {len(report['rows'])} reference rows in {elapsed:.1f}s")


def fraction_program_value(sig):
    """S_O from the separately solved fraction program, an oracle independent
    of the robustness solve that `optimal_steering_fraction` reads."""
    return _fraction_report(sig.members, 1e-9)


def test_criterion_02_fraction_equals_robustness():
    started = time.monotonic()
    gen = rng(2024)
    worst = 0.0
    for i in range(200):
        settings = 2 + (i % 2)
        rho = random_density_matrix(2, 2, rng=gen)
        if i % 3 == 0:
            fam = random_povm_family(2, settings, 2, gen)
        else:
            fam = random_projective_family(2, settings, gen)
        sig = steer(rho, fam)
        so = optimal_steering_fraction(sig)
        sr = steering_robustness(sig)
        gap = abs(so.value - sr.value)
        assert gap <= 1e-5 + so.gap + sr.gap
        fo = fraction_program_value(sig)
        independent = abs(sr.value - fo.value)
        assert independent <= 1e-5 + fo.gap + sr.gap
        worst = max(worst, gap, independent)
    sig = steer(max_entangled(2), zx_family())
    so = optimal_steering_fraction(sig)
    sr = steering_robustness(sig)
    fo = fraction_program_value(sig)
    assert abs(so.value - sr.value) <= 1e-5 + so.gap + sr.gap
    assert abs(sr.value - fo.value) <= 1e-5 + fo.gap + sr.gap
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"criterion 2 PASS: 201 assemblages, worst |S_O - S_R| = {worst:.2e} "
          f"(S_O also from the fraction program), {elapsed:.0f}s")


def test_criterion_03_proposition_chains():
    gen = rng(33)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        rho = random_density_matrix(2, 2, rank=1, rng=gen)
        fam = random_projective_family(2, 2, gen)
        sig = steer(rho, fam)
        if optimal_steering_fraction(sig).value <= 1e-3:
            continue
        weight = check_proposition_weight(sig, slack_tol=1e-5)
        robust = check_proposition_robustness(sig, slack_tol=1e-5)
        assert weight.steerable and weight.holds
        assert robust.steerable and robust.holds
        checked += 1
    assert checked == 100
    print(f"criterion 3 PASS: both chains hold on {checked} steerable assemblages")


def test_criterion_04_monotonicity_audit():
    gen = rng(44)
    instruments = [random_instrument(2, gen) for _ in range(50)]
    for i in range(20):
        rho = random_density_matrix(2, 2, rng=gen)
        fam = random_projective_family(2, 2, gen)
        report = monotonicity_audit(steer(rho, fam), instruments, tol=1e-5)
        assert report.holds
        assert len(report.rows) == 50
    print("criterion 4 PASS: 50 instruments x 20 assemblages never raise S_O")


def test_criterion_05_exact_solver_agreement():
    gen = rng(55)
    worst = 0.0
    for i in range(100):
        dim = 2 + (i % 2)
        settings = 2 + (i % 3 == 0)
        outcomes = 2 + (i % 5 == 0)
        raw = gen.normal(size=(settings, outcomes, dim, dim)) + 1j * gen.normal(
            size=(settings, outcomes, dim, dim)
        )
        ops = np.einsum("xaij,xakj->xaik", raw, raw.conj()) / dim
        func = SteeringFunctional(dim, ops)
        enum = steering_bound(func).value
        dual = steering_bound_sdp(func)
        worst = max(worst, abs(enum - dual))
        assert abs(enum - dual) <= 1e-6
    res = lv_s(max_entangled(2), mub_functional(mub(2, 2)))
    assert abs(res.value - (4.0 - 2.0 * SQRT2)) <= 1e-6
    print(f"criterion 5 PASS: 100 bound agreements (worst {worst:.2e}), qubit lv_s exact")


def test_criterion_06_kv_construction():
    for n in (2, 4, 8):
        game = kv_game(n, 0.25)
        subgroup = set(game.cosets[0])
        assert 0 in subgroup and len(subgroup) == n
        for g in subgroup:
            for h in subgroup:
                assert (g ^ h) in subgroup
        seen = sorted(v for coset in game.cosets for v in coset)
        assert seen == list(range(2**n))
        gram = np.einsum("xaij,xbji->xab", kv_measurements(n).effects, kv_measurements(n).effects)
        eye = np.broadcast_to(np.eye(n), gram.shape)
        assert np.max(np.abs(gram - eye)) <= 1e-10

    for n in (2, 4):
        for eta in np.arange(0.0, 0.5001, 0.05):
            fr = kv_fraction(n, float(eta))
            assert fr.local_value <= n ** (-eta / (1.0 - eta)) + 1e-12

    # exact violation chain at n=4
    n, eta = 4, 0.25
    game = kv_game(n, eta)
    fam = kv_measurements(n)
    func = induced_functional(game.coefficients, fam)
    sig = steer(max_entangled(n), fam)
    frac = steering_fraction(sig, func)
    fr = kv_fraction(n, eta)
    assert abs(frac.numerator - fr.value) <= 1e-9
    assert fr.fraction <= frac.value + 1e-9

    # at n=8 enumeration is out of reach: check the same numerator identity
    # plus that sampled deterministic strategies respect the analytic bound
    n = 8
    fr = kv_fraction(n)
    game = kv_game(n)
    fam = kv_measurements(n)
    func = induced_functional(game.coefficients, fam)
    sig = steer(max_entangled(n), fam)
    numerator = float(np.einsum("xaij,xaji->", func.operators, sig.members).real)
    assert abs(numerator - fr.value) <= 1e-9
    gen = rng(66)
    settings, outcomes = func.operators.shape[:2]
    strategies = [gen.integers(0, outcomes, size=settings) for _ in range(200)]
    strategies += [np.full(settings, a) for a in range(outcomes)]
    for strategy in strategies:
        summed = func.operators[np.arange(settings), strategy].sum(axis=0)
        top = float(np.linalg.eigvalsh(summed)[-1])
        assert top <= fr.local_bound_analytic + 1e-9
    print("criterion 6 PASS: axioms n=2,4,8; eta sweep bounds; chains at n=4 and n=8")


def test_criterion_07_twirl_monte_carlo():
    for d, seed in ((2, 7), (3, 8)):
        gen = rng(seed)
        rho = random_density_matrix(d, d, rng=gen)
        exact = isotropic(d, twirl(rho).p).matrix
        sampled = twirl_monte_carlo(rho, samples=10_000, rng=gen).matrix
        distance = float(np.abs(np.linalg.eigvalsh(sampled - exact)).sum() / 2.0)
        assert distance <= 1e-2
    print("criterion 7 PASS: closed-form twirl matches 10^4 Haar samples at d=2,3")


def test_criterion_08_fef_optimizer():
    count = 0
    for d in (2, 3, 4, 5):
        for p in np.linspace(0.0, 1.0, 13):
            if count == 50:
                break
            got = fef(isotropic(d, float(p)))
            assert abs(got.value - (p + (1.0 - p) / d**2)) <= 1e-6
            count += 1
    assert count == 50

    gen = rng(88)
    worst = 0.0
    for _ in range(50):
        rho = random_density_matrix(2, 2, rank=2, rng=gen)
        u, v = haar_unitary(2, gen), haar_unitary(2, gen)
        w = kron(u, v)
        rotated = DensityMatrix(2, 2, w @ rho.matrix @ dagger(w))
        base = fef(rho, restarts=16, seed=0).value
        moved = fef(rotated, restarts=16, seed=0).value
        worst = max(worst, abs(base - moved))
        assert abs(base - moved) <= 1e-4
    print(f"criterion 8 PASS: 50 isotropic exact, LU invariance worst drift {worst:.2e}")


def test_criterion_09_superactivation_and_planner():
    report = superactivation_min_copies(5, 0.25)
    assert report.status == "superactivated"
    assert report.copies is not None and report.copies < 10**6
    assert report.bound > 1.0

    boundary = superactivation_min_copies(5, 1.0 / 6.0)
    assert boundary.status == "impossible-by-criterion"
    assert boundary.copies is None

    plan = amplification_plan(0.5, 10.0, 3)
    feasible, log_bound, _ = _plan_metrics(plan.d, 0.5, 3)
    assert feasible
    assert log_bound > math.log(10.0)
    assert plan.bound > 10.0
    print(
        f"criterion 9 PASS: d=5,p=0.25 activates at k={report.copies} "
        f"(bound {report.bound:.3f}); planner bound {plan.bound:.6f} > 10"
    )


def test_criterion_10_rotation_dominates_twirl():
    gen = rng(1010)
    checked = 0
    for i in range(100):
        rho = random_density_matrix(2, 2, rank=1, rng=gen)
        fam = random_projective_family(2, 2, gen)
        raw = gen.normal(size=(2, 2, 2, 2)) + 1j * gen.normal(size=(2, 2, 2, 2))
        func = SteeringFunctional(2, np.einsum("xaij,xakj->xaik", raw, raw.conj()) / 2)
        baseline = steering_fraction(steer(twirl(rho).to_density(), fam), func).value
        best = best_rotated_fraction(rho, fam, func, samples=64, seed=i, steps=10)
        assert best.value >= baseline - 1e-4
        checked += 1
    assert checked == 100
    print("criterion 10 PASS: rotated maxima dominate the twirled fraction on 100 triples")
