"""Steering monotones: values, certificates, propositions, audits."""

import dataclasses

import numpy as np
import pytest

from steerkit.assemblages import (
    Assemblage,
    Instrument1W,
    InstrumentBranch,
    MeasurementFamily,
    WiringMap,
    apply_instrument,
    lhs_membership,
    steer,
)
from steerkit.monotones import (
    check_proposition_robustness,
    check_proposition_weight,
    monotonicity_audit,
    optimal_steering_fraction,
    robustness_program,
    steerable_weight,
    steering_robustness,
)
from steerkit import monotones
from steerkit.games import mub
from steerkit.sdp import SdpSolution
from steerkit.states import DensityMatrix, isotropic, max_entangled, random_density_matrix

SQRT2 = np.sqrt(2.0)


def rng(seed=0):
    return np.random.default_rng(seed)


def zx_family():
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
    return MeasurementFamily.from_bases([z, x])


def random_projective_family(d, settings, gen):
    bases = []
    for _ in range(settings):
        z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        q, _ = np.linalg.qr(z)
        bases.append(q)
    return MeasurementFamily.from_bases(bases)


def random_assemblage(gen, settings=2):
    rho = random_density_matrix(2, 2, rng=gen)
    return steer(rho, random_projective_family(2, settings, gen))


def mix(sig1, sig2, t):
    return Assemblage(sig1.dim, t * sig1.members + (1.0 - t) * sig2.members)


class TestValues:
    def test_lhs_assemblage_measures_zero(self):
        sig = steer(isotropic(2, 0.3), zx_family())
        assert optimal_steering_fraction(sig).value == 0.0
        assert steerable_weight(sig).value == 0.0
        assert steering_robustness(sig).value == 0.0

    def test_max_entangled_fraction_and_robustness_agree(self):
        sig = steer(max_entangled(2), zx_family())
        so = optimal_steering_fraction(sig)
        sr = steering_robustness(sig)
        assert abs(so.value - sr.value) <= 1e-5 + so.gap + sr.gap
        assert so.value >= (4.0 - 2.0 * SQRT2) - 1.0 - 1e-6

    def test_max_entangled_weight_is_one(self):
        # each conditional state is pure and the two settings' supports
        # only intersect at the origin, so no positive-weight hidden-state
        # table fits under the assemblage: the steerable part carries
        # everything
        sig = steer(max_entangled(2), zx_family())
        sw = steerable_weight(sig)
        assert abs(sw.value - 1.0) <= 1e-7

    def test_agreement_on_random_assemblages(self):
        gen = rng(1)
        for _ in range(10):
            sig = random_assemblage(gen)
            so = optimal_steering_fraction(sig)
            sr = steering_robustness(sig)
            assert abs(so.value - sr.value) <= 1e-5 + so.gap + sr.gap

    def test_enumeration_cap(self, monkeypatch):
        members = np.zeros((13, 2, 2, 2), dtype=complex)
        members[:, 0] = np.diag([0.5, 0.0])
        members[:, 1] = np.diag([0.0, 0.5])
        sig = Assemblage(2, members)

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran past the enumeration cap")

        # every entry point refuses the table before any solve
        monkeypatch.setattr(monotones, "solve", no_solve)
        entries = (optimal_steering_fraction, steerable_weight, steering_robustness, lhs_membership)
        for entry in entries:
            with pytest.raises(ValueError, match="cap"):
                entry(sig)


class TestNonOptimalSolve:
    """A solve that ends short of optimal gives a NaN value or an
    `indeterminate` membership, never a traceback."""

    @pytest.fixture(autouse=True)
    def indeterminate_solves(self, monkeypatch):
        # every program still runs to the end; only its status is replaced
        real = monotones.solve
        calls = []

        def indeterminate(problem, **kwargs):
            calls.append(problem)
            return dataclasses.replace(real(problem, **kwargs), status="indeterminate")

        monkeypatch.setattr(monotones, "solve", indeterminate)
        yield
        assert calls

    @pytest.mark.parametrize(
        "entry", [steerable_weight, steering_robustness, optimal_steering_fraction],
        ids=["S_W", "S_R", "S_O"],
    )
    def test_monotone_value_is_nan(self, entry):
        report = entry(steer(max_entangled(2), zx_family()))
        assert report.status == "indeterminate"
        assert np.isnan(report.value)

    def test_robustness_program_value_is_nan(self):
        prog = robustness_program(steer(max_entangled(2), zx_family()))
        assert prog.status == "indeterminate"
        assert np.isnan(prog.value)
        assert prog.model is None and prog.witness is None

    def test_membership_is_indeterminate(self):
        res = lhs_membership(steer(max_entangled(2), zx_family()))
        assert res.status == "indeterminate"
        assert res.robustness is None

    @pytest.mark.parametrize(
        "chain", [check_proposition_weight, check_proposition_robustness],
        ids=["weight", "robustness"],
    )
    def test_proposition_carries_the_status(self, chain):
        rep = chain(steer(max_entangled(2), zx_family()))
        assert rep.status == "indeterminate"
        assert rep.steerable is None
        assert not rep.holds
        assert np.isnan(rep.lower_slack) and np.isnan(rep.upper_slack)
        assert all(np.isnan(v) for v in rep.terms.values())


# Largest eigenvalue of the LHS bound of the m-setting Pauli steering
# functional, which sets the isotropic qubit anchors below.
PAULI_LAMBDA = {2: 1.0 + 1.0 / SQRT2, 3: (3.0 + np.sqrt(3.0)) / 2.0}


class TestAnalyticAnchors:
    """isotropic(2, p) measured in m Pauli bases: S_R = S_O =
    max(0, m (1 + p) / (2 lambda_m) - 1), so membership flips at 1/sqrt(m)."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_robustness_and_fraction_closed_form(self, m):
        paulis = mub(2, m).to_measurements()
        edge = 1.0 / np.sqrt(m)
        for p in (0.3, edge - 1e-3, edge + 1e-3, 0.9, 1.0):
            sig = steer(isotropic(2, p), paulis)
            exact = max(0.0, m * (1.0 + p) / (2.0 * PAULI_LAMBDA[m]) - 1.0)
            assert abs(steering_robustness(sig).value - exact) <= 1e-8
            assert abs(optimal_steering_fraction(sig).value - exact) <= 1e-8

    @pytest.mark.parametrize("m", [2, 3])
    def test_membership_flips_at_threshold(self, m):
        paulis = mub(2, m).to_measurements()
        edge = 1.0 / np.sqrt(m)
        assert lhs_membership(steer(isotropic(2, edge - 1e-3), paulis)).status == "member"
        assert lhs_membership(steer(isotropic(2, edge + 1e-3), paulis)).status == "nonmember"


class TestBoundaryStall:
    @pytest.mark.xfail(strict=True, reason="the robustness and weight programs stall on "
                       "the noise part of a nearly unsteerable assemblage")
    def test_noise_part_of_robustness_decomposition_solves(self):
        # seventh draw of the rank-1 generator of acceptance criterion 3
        gen = rng(33)
        for _ in range(7):
            rho = random_density_matrix(2, 2, rank=1, rng=gen)
            eff = np.empty((2, 2, 2, 2), dtype=np.complex128)
            for x in range(2):
                q, _ = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
                for a in range(2):
                    eff[x, a] = np.outer(q[:, a], q[:, a].conj())
            sig = steer(rho, MeasurementFamily(2, eff))
        prog = robustness_program(sig)
        assert abs(prog.raw_value - 0.00265) <= 1e-5
        noise = Assemblage(2, prog.noise)
        assert optimal_steering_fraction(noise).status == "optimal"
        assert steering_robustness(noise).status == "optimal"
        assert steerable_weight(noise).status == "optimal"
        assert lhs_membership(noise).status != "indeterminate"


def pure_qubit_draw(seed, draws):
    """Last of `draws` rank-1 qubit assemblages in two random projective
    bases, drawn as in acceptance criterion 3."""
    gen = rng(seed)
    for _ in range(draws):
        rho = random_density_matrix(2, 2, rank=1, rng=gen)
        eff = np.empty((2, 2, 2, 2), dtype=np.complex128)
        for x in range(2):
            q, _ = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
            for a in range(2):
                eff[x, a] = np.outer(q[:, a], q[:, a].conj())
        sig = steer(rho, MeasurementFamily(2, eff))
    return sig


class TestFractionFromRobustness:
    """S_O is read off the robustness program; the fraction program is
    solved only when the robustness solve does not end optimal."""

    def test_fraction_on_input_where_the_fraction_program_stalls(self):
        # a (d, m) = (3, 3) draw of the ROADMAP's non-optimal-exit scan at
        # visibility 0.85, on which the fraction program ends indeterminate
        gen = np.random.default_rng([85, 3, 3, 32])
        rho = random_density_matrix(3, 3, rank=1, rng=gen)
        mixed = DensityMatrix(3, 3, 0.85 * rho.matrix + 0.15 * np.eye(9) / 9)
        eff = np.empty((3, 3, 3, 3), dtype=np.complex128)
        for x in range(3):
            q, _ = np.linalg.qr(gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)))
            for a in range(3):
                eff[x, a] = np.outer(q[:, a], q[:, a].conj())
        sig = steer(mixed, MeasurementFamily(3, eff))
        so = optimal_steering_fraction(sig)
        sr = steering_robustness(sig)
        assert so.status == sr.status == "optimal"
        assert abs(so.value - 0.0529789142) <= 1e-8
        assert abs(sr.value - 0.0529789142) <= 1e-8

    def test_fraction_of_boundary_noise_falls_back_to_the_fraction_program(self):
        # the noise part of the seventh draw of criterion 3, on which the
        # robustness program stalls and the fraction program does not
        noise = Assemblage(2, robustness_program(pure_qubit_draw(33, 7)).noise)
        so = optimal_steering_fraction(noise)
        fallback, _ = monotones._fraction_report(noise.members, 2, 1e-9)
        assert so.status == fallback.status == "optimal"
        assert abs(so.value - fallback.value) <= 1e-9

    def test_report_matches_the_robustness_solve(self):
        sig = steer(isotropic(2, 0.9), zx_family())
        so = optimal_steering_fraction(sig)
        prog = robustness_program(sig)
        assert so.value == prog.value
        assert so.certificate["supremum"] == 1.0 + prog.raw_value
        assert so.certificate_value == prog.dual_value
        assert np.array_equal(so.certificate["functional"], prog.witness)
        assert np.array_equal(so.certificate["dual_cover"], prog.model)


class TestCertificates:
    def test_certificate_arrays_own_their_data(self):
        # a view into the solver's block stacks would keep every block of
        # the solution alive for as long as the report is held
        sig = steer(isotropic(2, 0.9), zx_family())
        prog = robustness_program(sig)
        weight = steerable_weight(sig).certificate
        fraction = monotones._fraction_report(sig.members, 2, 1e-9)[0].certificate
        arrays = (prog.model, prog.witness, weight["weights"], weight["witness"],
                  fraction["functional"], fraction["dual_cover"])
        assert all(a.base is None for a in arrays)

    def test_fraction_certificates(self):
        sig = steer(max_entangled(2), zx_family())
        rep = optimal_steering_fraction(sig)
        # primal: re-evaluating the reported functional is achievable
        assert rep.certificate_value <= rep.value + 1e-9
        assert rep.value - rep.certificate_value <= 1e-6
        # dual: the strategy cover bounds the value from above
        assert rep.dual_value >= rep.value - 1e-9
        assert rep.dual_value - rep.value <= 1e-5
        functional = rep.certificate["functional"]
        eigs = np.linalg.eigvalsh(functional.reshape(-1, 2, 2))
        assert eigs.min() >= -1e-9

    def test_weight_certificates(self):
        sig = steer(isotropic(2, 0.85), zx_family())
        rep = steerable_weight(sig)
        assert 0.0 < rep.value < 1.0
        assert rep.certificate_value >= rep.value - 1e-9
        assert rep.certificate_value - rep.value <= 1e-6
        assert rep.dual_value <= rep.value + 1e-9
        assert rep.value - rep.dual_value <= 1e-5
        # decomposition: unsteerable + weight * steerable == members
        unst = rep.certificate["unsteerable"]
        part = rep.certificate["steerable"]
        raw = 1.0 - float(np.einsum("kii->", rep.certificate["weights"]).real)
        assert np.max(np.abs(unst + raw * part - sig.members)) <= 1e-7
        # the steerable part is itself a valid assemblage and is steerable
        part_sig = Assemblage(2, part)
        assert optimal_steering_fraction(part_sig).value > 1e-6

    def test_robustness_certificates(self):
        sig = steer(max_entangled(2), zx_family())
        rep = steering_robustness(sig)
        assert rep.certificate_value >= rep.value - 1e-9
        assert rep.certificate_value - rep.value <= 1e-6
        assert rep.dual_value <= rep.value + 1e-9
        assert rep.value - rep.dual_value <= 1e-5

    def test_robustness_mixture_restores_membership(self):
        sig = steer(max_entangled(2), zx_family())
        prog = robustness_program(sig)
        assert prog.raw_value > 1e-3
        noise_sig = Assemblage(2, prog.noise)
        mixture = Assemblage(
            2, (sig.members + prog.raw_value * noise_sig.members) / (1.0 + prog.raw_value)
        )
        assert lhs_membership(mixture).member

    def test_robustness_program_contract(self):
        sig = steer(max_entangled(2), zx_family())
        prog = robustness_program(sig)
        assert prog.model.shape == (4, 2, 2)
        assert prog.strategy_indicator.shape == (4, 2, 2)
        assert prog.witness.shape == (2, 2, 2, 2)
        assert np.linalg.eigvalsh(prog.model).min() >= -1e-9
        assert np.linalg.eigvalsh(prog.witness.reshape(-1, 2, 2)).min() >= -1e-9

    def test_weight_witness_dominates_identity(self):
        sig = steer(isotropic(2, 0.85), zx_family())
        rep = steerable_weight(sig)
        witness = rep.certificate["witness"]
        ind = rep.certificate["strategy_indicator"]
        summed = np.einsum("kxa,xaij->kij", ind, witness)
        assert np.linalg.eigvalsh(summed)[:, 0].min() >= -1e-7

    def test_fraction_dual_cover_dominates_members(self):
        sig = steer(max_entangled(2), zx_family())
        rep = optimal_steering_fraction(sig)
        duals = rep.certificate["dual_cover"]
        # reconstruct the per-(x, a) cover from the strategy sums
        prog = robustness_program(sig)
        ind = prog.strategy_indicator
        cover = np.einsum("kxa,kij->xaij", ind, duals)
        gap = cover - sig.members
        assert np.linalg.eigvalsh(gap.reshape(-1, 2, 2)).min() >= -1e-7


class TestConvexity:
    def test_fraction_convex_in_assemblage(self):
        gen = rng(2)
        for _ in range(5):
            s1 = random_assemblage(gen)
            s2 = random_assemblage(gen)
            t = float(gen.random())
            lhs = optimal_steering_fraction(mix(s1, s2, t)).value
            rhs = (
                t * optimal_steering_fraction(s1).value
                + (1 - t) * optimal_steering_fraction(s2).value
            )
            assert lhs <= rhs + 1e-5

    def test_weight_convex_in_assemblage(self):
        gen = rng(3)
        for _ in range(5):
            s1 = random_assemblage(gen)
            s2 = random_assemblage(gen)
            t = float(gen.random())
            lhs = steerable_weight(mix(s1, s2, t)).value
            rhs = t * steerable_weight(s1).value + (1 - t) * steerable_weight(s2).value
            assert lhs <= rhs + 1e-6

    def test_robustness_never_raised_by_lhs_mixing(self):
        gen = rng(4)
        member = steer(isotropic(2, 0.3), zx_family())
        target = steer(max_entangled(2), zx_family())
        base = steering_robustness(target).value
        for t in (0.25, 0.5, 0.75):
            mixed = mix(target, member, t)
            assert steering_robustness(mixed).value <= t * base + 1e-6


class TestPropositions:
    def test_weight_chain_on_steerable(self):
        sig = steer(max_entangled(2), zx_family())
        rep = check_proposition_weight(sig)
        assert rep.steerable
        assert rep.holds
        assert rep.lower_slack >= -1e-5 and rep.upper_slack >= -1e-5
        lo, hi = rep.window
        assert lo - 1e-5 <= rep.terms["weight"] <= hi + 1e-5

    def test_weight_chain_on_partially_steerable(self):
        sig = steer(isotropic(2, 0.85), zx_family())
        rep = check_proposition_weight(sig)
        assert rep.steerable and rep.holds

    def test_weight_chain_on_member(self):
        sig = steer(isotropic(2, 0.3), zx_family())
        rep = check_proposition_weight(sig)
        assert not rep.steerable
        assert rep.holds

    def test_robustness_chain_on_steerable(self):
        sig = steer(max_entangled(2), zx_family())
        rep = check_proposition_robustness(sig)
        assert rep.steerable and rep.holds
        lo, hi = rep.window
        assert lo - 1e-5 <= rep.terms["robustness"] <= hi + 1e-5

    def test_robustness_chain_on_member(self):
        sig = steer(isotropic(2, 0.3), zx_family())
        rep = check_proposition_robustness(sig)
        assert not rep.steerable
        assert rep.holds

    def test_robustness_chain_solves_twice(self, monkeypatch):
        # one robustness solve gives S_R and S_O of sigma; one fraction
        # solve gives S_O of the noise part
        real = monotones.solve
        calls = []

        def counted(problem, **kwargs):
            calls.append(problem)
            return real(problem, **kwargs)

        monkeypatch.setattr(monotones, "solve", counted)
        rep = check_proposition_robustness(steer(max_entangled(2), zx_family()))
        assert rep.steerable and rep.holds
        assert len(calls) == 2

    def test_stalled_noise_solve_leaves_the_other_terms(self, monkeypatch):
        # the second solve of the chain is the noise part's fraction program
        real = monotones.solve
        calls = []

        def second_indeterminate(problem, **kwargs):
            calls.append(problem)
            sol = real(problem, **kwargs)
            return dataclasses.replace(sol, status="indeterminate") if len(calls) == 2 else sol

        monkeypatch.setattr(monotones, "solve", second_indeterminate)
        rep = check_proposition_robustness(steer(max_entangled(2), zx_family()))
        assert rep.status == "indeterminate"
        assert rep.steerable is None and not rep.holds
        assert rep.terms["robustness"] > 0.1 and rep.terms["fraction"] == rep.terms["robustness"]
        assert np.isnan(rep.terms["fraction_of_noise"])
        assert np.isnan(rep.lower_slack) and np.isnan(rep.upper_slack)

    def test_chains_on_random_steerable(self):
        gen = rng(5)
        found = 0
        while found < 3:
            rho = random_density_matrix(2, 2, rank=1, rng=gen)
            sig = steer(rho, zx_family())
            if optimal_steering_fraction(sig).value < 1e-3:
                continue
            found += 1
            assert check_proposition_weight(sig).holds
            assert check_proposition_robustness(sig).holds


def identity_instrument(settings, outcomes, d):
    return Instrument1W(
        (InstrumentBranch(np.eye(d, dtype=complex), WiringMap.identity(settings, outcomes)),)
    )


def coarse_graining_instrument(d):
    ps = np.eye(2)
    po = np.zeros((2, 2, 2, 2))
    po[:, :, :, 0] = 1.0
    return Instrument1W((InstrumentBranch(np.eye(d, dtype=complex), WiringMap(ps, po)),))


def random_instrument(d, gen):
    ps = gen.dirichlet(np.ones(2), size=2)
    po = gen.dirichlet(np.ones(2), size=(2, 2, 2))
    wiring = WiringMap(ps, po)
    k1 = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    k2 = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    tot = k1.conj().T @ k1 + k2.conj().T @ k2
    w, v = np.linalg.eigh(tot)
    s = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Instrument1W((InstrumentBranch(k1 @ s, wiring), InstrumentBranch(k2 @ s, wiring)))


def random_qutrit_instrument(gen, branches=2):
    """One-way instrument on a qutrit assemblage with (2 settings, 3 outcomes):
    random Kraus operators completed to sum K^dag K = I, and per branch a
    random deterministic wiring (a permutation of the settings and a random
    map of each observed outcome onto 2 or 3 reported ones)."""
    kraus = gen.standard_normal((branches, 3, 3)) + 1j * gen.standard_normal((branches, 3, 3))
    w, v = np.linalg.eigh(np.einsum("bji,bjk->ik", kraus.conj(), kraus))
    kraus = kraus @ (v / np.sqrt(w)) @ v.conj().T
    out = int(gen.integers(2, 4))
    return Instrument1W(tuple(
        InstrumentBranch(k, WiringMap(np.eye(2)[gen.permutation(2)],
                                      np.eye(out)[gen.integers(0, out, size=(2, 2, 3))]))
        for k in kraus
    ))


class TestAudit:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_qutrit_instruments_respect_monotonicity(self, seed):
        # property test: a seeded draw of a steerable qutrit assemblage (a
        # random pure state) and two instruments; no instrument raises S_O
        # on average or on a branch
        gen = rng(600 + seed)
        rho = random_density_matrix(3, 3, rank=1, rng=gen)
        sig = steer(rho, random_projective_family(3, 2, gen))
        instruments = [random_qutrit_instrument(gen) for _ in range(2)]
        report = monotonicity_audit(sig, instruments)
        assert report.base_value > 1e-3
        assert report.holds
        for row in report.rows:
            assert row.average <= report.base_value + report.tol

    def test_identity_instrument_is_tight(self):
        sig = steer(max_entangled(2), zx_family())
        report = monotonicity_audit(sig, [identity_instrument(2, 2, 2)])
        assert report.holds
        row = report.rows[0]
        assert abs(row.average - report.base_value) <= 1e-7

    def test_coarse_graining_never_helps(self):
        sig = steer(max_entangled(2), zx_family())
        report = monotonicity_audit(sig, [coarse_graining_instrument(2)])
        assert report.holds
        # merging both outcomes erases all steering information
        assert report.rows[0].average <= 1e-6

    def test_random_instruments_respect_monotonicity(self):
        gen = rng(6)
        sig = steer(max_entangled(2), zx_family())
        instruments = [random_instrument(2, gen) for _ in range(5)]
        report = monotonicity_audit(sig, instruments)
        assert report.holds
        for row in report.rows:
            assert row.average <= report.base_value + 1e-5

    def test_threaded_audit_matches_sequential(self):
        # `threads` is inert: the same rows, and a DeprecationWarning
        gen = rng(7)
        sig = steer(isotropic(2, 0.9), zx_family())
        instruments = [random_instrument(2, gen) for _ in range(4)]
        seq = monotonicity_audit(sig, instruments)
        with pytest.warns(DeprecationWarning, match="threads"):
            par = monotonicity_audit(sig, instruments, threads=2)
        assert par.rows == seq.rows
        assert (par.base_value, par.base_supremum) == (seq.base_value, seq.base_supremum)

    def test_audit_values_equal_the_solo_fraction_bit_for_bit(self):
        # the identity keeps the (2, 2) shape and the widening wiring makes
        # it (3, 3): two shape groups, each solved in its own batch
        ps = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        po = np.empty((3, 2, 2, 3))
        po[:, :, 0] = [0.7, 0.2, 0.1]
        po[:, :, 1] = [0.1, 0.3, 0.6]
        widen = Instrument1W((InstrumentBranch(np.eye(2, dtype=complex), WiringMap(ps, po)),))
        instruments = [identity_instrument(2, 2, 2), widen]
        sig = steer(isotropic(2, 0.9), zx_family())
        report = monotonicity_audit(sig, instruments)
        solo = optimal_steering_fraction(sig)
        assert report.base_value == solo.value
        assert report.base_supremum == solo.certificate["supremum"]
        shapes = set()
        for row, ins in zip(report.rows, instruments):
            branches = [br for _, br in apply_instrument(sig, ins)]
            shapes.update(br.members.shape for br in branches)
            reports = [optimal_steering_fraction(br) for br in branches]
            assert row.branch_values == tuple(r.value for r in reports)
            assert row.branch_suprema == tuple(r.certificate["supremum"] for r in reports)
        assert shapes == {(2, 2, 2, 2), (3, 3, 2, 2)}

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_non_optimal_solve_fails_the_audit_without_raising(self, monkeypatch, failing):
        # one batch of three programs: 0 is the input's, 1 the branch of the
        # identity instrument, 2 the branch of the coarse graining. The
        # failed table falls back to a solo fraction solve, which fails too.
        # A branch that does not solve fails its row; an input that does not
        # solve fails every row.
        real = monotones.solve_many
        real_solo = monotones.solve

        def one_indeterminate(problems, **kwargs):
            sols = real(problems, **kwargs)
            assert len(sols) == 3
            sols[failing] = SdpSolution(status="indeterminate", iterations=sols[failing].iterations)
            return sols

        def indeterminate(problem, **kwargs):
            return dataclasses.replace(real_solo(problem, **kwargs), status="indeterminate")

        monkeypatch.setattr(monotones, "solve_many", one_indeterminate)
        monkeypatch.setattr(monotones, "solve", indeterminate)
        sig = steer(max_entangled(2), zx_family())
        report = monotonicity_audit(sig, [identity_instrument(2, 2, 2), coarse_graining_instrument(2)])
        assert not report.holds
        if failing == 0:
            assert np.isnan(report.base_value) and np.isnan(report.base_supremum)
            assert not any(r.holds_average or r.holds_branches for r in report.rows)
            return
        bad, good = report.rows[failing - 1], report.rows[2 - failing]
        assert np.isnan(bad.branch_suprema[0]) and np.isnan(bad.average)
        assert not bad.holds_branches and not bad.holds_average
        assert good.holds_average and good.holds_branches

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_failed_batch_solve_falls_back_to_the_fraction_program(self, monkeypatch, failing):
        # only the batched robustness solve of one table fails; that table's
        # value then comes from the solo fraction program and the row holds
        real = monotones.solve_many

        def one_indeterminate(problems, **kwargs):
            sols = real(problems, **kwargs)
            sols[failing] = SdpSolution(status="indeterminate", iterations=sols[failing].iterations)
            return sols

        monkeypatch.setattr(monotones, "solve_many", one_indeterminate)
        sig = steer(max_entangled(2), zx_family())
        instruments = [identity_instrument(2, 2, 2), coarse_graining_instrument(2)]
        report = monotonicity_audit(sig, instruments)
        assert report.holds
        if failing == 0:
            table = sig.members
            value, supremum = report.base_value, report.base_supremum
        else:
            (_, branch), = apply_instrument(sig, instruments[failing - 1])
            table = branch.members
            row = report.rows[failing - 1]
            value, supremum = row.branch_values[0], row.branch_suprema[0]
        fallback, fallback_sup = monotones._fraction_report(table, 2, 1e-9)
        assert fallback.status == "optimal"
        assert (value, supremum) == (fallback.value, fallback_sup)


def random_unitary(d, gen):
    q, r = np.linalg.qr(gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize("seed", [91, 92, 93])
    def test_robustness_and_weight_of_a_qutrit_assemblage(self, seed):
        # sigma_{a|x} -> U sigma_{a|x} U^dag on the steered side
        gen = rng(seed)
        sig = steer(random_density_matrix(3, 3, rng=gen), random_projective_family(3, 2, gen))
        u = random_unitary(3, gen)
        turned = Assemblage(3, np.einsum("ij,xajk,lk->xail", u, sig.members, u.conj()))
        for monotone in (steering_robustness, steerable_weight):
            before, after = monotone(sig), monotone(turned)
            assert before.status == after.status == "optimal"
            assert abs(after.value - before.value) <= 1e-7


class TestEdgeCases:
    @pytest.mark.parametrize("rho", [max_entangled(2), isotropic(2, 0.8), isotropic(2, 0.6)],
                             ids=["max_entangled", "p=0.8", "p=0.6"])
    def test_all_zero_outcome_changes_nothing(self, rho):
        # a third setting whose outcome 0 is I and outcome 1 is 0: Alice's
        # answer is fixed, so no monotone and no membership answer moves
        trivial = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        fam = MeasurementFamily(2, np.concatenate([zx_family().effects, trivial[np.newaxis]]))
        plain, padded = steer(rho, zx_family()), steer(rho, fam)
        assert np.array_equal(padded.members[2, 1], np.zeros((2, 2)))
        for monotone in (steering_robustness, optimal_steering_fraction, steerable_weight):
            before, after = monotone(plain), monotone(padded)
            assert before.status == after.status == "optimal"
            assert abs(after.value - before.value) <= 1e-8
        assert lhs_membership(padded).status == lhs_membership(plain).status


class TestFunctionalValue:
    """`_functional_value` is the one enumeration behind the dual values of
    S_R and S_W and the fraction program's certificate value."""

    @pytest.mark.parametrize("d, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_min_side_is_the_public_steering_fraction(self, d, m):
        # imported here: the module's imports stay as they are, so line
        # numbers above this class do not move
        from steerkit.functionals import SteeringFunctional, steering_fraction

        gen = rng(400 + 10 * d + m)
        values = []
        for trial in range(6):
            # on the maximally entangled state a functional leaning on sigma
            # itself has a fraction above 1, so half the values are not clamped
            rho = random_density_matrix(d, d, rng=gen) if trial % 2 else max_entangled(d)
            sig = steer(rho, random_projective_family(d, m, gen))
            raw = gen.normal(size=(m, d, d, d)) + 1j * gen.normal(size=(m, d, d, d))
            noise = np.einsum("xaij,xakj->xaik", raw, raw.conj())
            ops = noise if trial % 2 else sig.members + 0.01 * noise
            func = SteeringFunctional(d, ops)
            ind = monotones._strategy_indicator(m, d)
            got = monotones._functional_value(sig.members, ind, func.operators, "min")
            want = monotones._clamped(steering_fraction(sig, func).value - 1.0)
            assert abs(got - want) <= 1e-12
            values.append(got)
        assert max(values) > 0.0

    def test_max_side_refuses_a_singular_strategy_sum(self):
        gen = rng(417)
        sig = steer(random_density_matrix(2, 2, rng=gen), random_projective_family(2, 3, gen))
        raw = gen.normal(size=(3, 2, 2, 2)) + 1j * gen.normal(size=(3, 2, 2, 2))
        ops = np.einsum("xaij,xakj->xaik", raw, raw.conj())
        ops[:, 0] = 0.0  # the strategy answering 0 everywhere sums to zero
        ind = monotones._strategy_indicator(3, 2)
        assert monotones._functional_value(sig.members, ind, ops, "max") is None
        assert monotones._functional_value(sig.members, ind, ops, "min") is not None
