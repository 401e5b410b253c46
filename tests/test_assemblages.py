"""Measurement families, steered assemblages, membership, instruments."""

import numpy as np
import pytest

from steerkit.assemblages import (
    MEMBERSHIP_CAP_BITS,
    Assemblage,
    Instrument1W,
    InstrumentBranch,
    MeasurementFamily,
    WiringMap,
    apply_instrument,
    lhs_membership,
    steer,
)
from steerkit.states import (
    DensityMatrix,
    isotropic,
    max_entangled,
    random_density_matrix,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_basis(d, gen):
    z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    return q


def zx_family():
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return MeasurementFamily.from_bases([z, x])


def random_projective_family(d, settings, gen):
    return MeasurementFamily.from_bases([random_basis(d, gen) for _ in range(settings)])


def random_povm_family(d, settings, outcomes, gen):
    raw = gen.standard_normal((settings, outcomes, d, d)) + 1j * gen.standard_normal(
        (settings, outcomes, d, d)
    )
    eff = np.einsum("xaij,xakj->xaik", raw, raw.conj())
    total = eff.sum(axis=1)
    w, v = np.linalg.eigh(total)
    inv_sqrt = np.einsum("xij,xj,xkj->xik", v, 1.0 / np.sqrt(w), v.conj())
    return MeasurementFamily(d, np.einsum("xij,xajk,xkl->xail", inv_sqrt, eff, inv_sqrt))


class TestMeasurementFamily:
    def test_from_bases_builds_rank_one_projectors(self):
        fam = zx_family()
        assert fam.settings == 2 and fam.outcomes == 2 and fam.dim == 2
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(fam.effects[1, 0], np.outer(plus, plus.conj()), atol=1e-12)

    def test_incomplete_povm_rejected(self):
        eff = np.zeros((1, 2, 2, 2), dtype=complex)
        eff[0, 0] = np.diag([0.5, 0.5])
        eff[0, 1] = np.diag([0.5, 0.4])
        with pytest.raises(ValueError, match="sum to identity"):
            MeasurementFamily(2, eff)

    def test_first_incomplete_setting_is_named(self):
        eff = np.array([zx_family().effects[0]] * 3)
        eff[1, 1] *= 0.9
        eff[2, 0] *= 0.8
        with pytest.raises(ValueError, match="setting 1 sum to identity only within 1.00e-01"):
            MeasurementFamily(2, eff)

    def test_negative_effect_rejected(self):
        eff = np.zeros((1, 2, 2, 2), dtype=complex)
        eff[0, 0] = np.diag([1.5, 0.5])
        eff[0, 1] = np.diag([-0.5, 0.5])
        with pytest.raises(ValueError):
            MeasurementFamily(2, eff)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_effect_rejected(self, bad):
        eff = zx_family().effects.copy()
        eff[1, 0, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            MeasurementFamily(2, eff)


class TestSteer:
    def test_product_state_factorizes(self):
        gen = rng(1)
        rho_a = random_density_matrix(1, 2, rng=gen).matrix
        rho_b = random_density_matrix(1, 3, rng=gen).matrix
        rho = DensityMatrix(2, 3, np.kron(rho_a, rho_b))
        fam = random_projective_family(2, 2, gen)
        sig = steer(rho, fam)
        for x in range(2):
            for a in range(2):
                weight = float(np.trace(rho_a @ fam.effects[x, a]).real)
                assert np.allclose(sig.members[x, a], weight * rho_b, atol=1e-12)

    def test_max_entangled_z_basis_gives_half_projectors(self):
        fam = MeasurementFamily.from_bases([np.eye(2, dtype=complex)])
        sig = steer(max_entangled(2), fam)
        for a in range(2):
            proj = np.zeros((2, 2), dtype=complex)
            proj[a, a] = 0.5
            assert np.allclose(sig.members[0, a], proj, atol=1e-12)

    def test_reduced_state_is_bob_marginal(self):
        gen = rng(2)
        rho = random_density_matrix(2, 3, rng=gen)
        sig = steer(rho, random_projective_family(2, 3, gen))
        assert np.allclose(sig.reduced_state, rho.reduced("B"), atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        gen = rng(3)
        rho = random_density_matrix(2, 2, rng=gen)
        fam = random_projective_family(3, 2, gen)
        with pytest.raises(ValueError):
            steer(rho, fam)

    def test_no_signalling_on_random_pairs(self):
        gen = rng(4)
        for _ in range(500):
            da = int(gen.integers(2, 4))
            db = int(gen.integers(2, 4))
            m = int(gen.integers(1, 4))
            o = int(gen.integers(2, 4))
            rho = random_density_matrix(da, db, rng=gen)
            fam = random_povm_family(da, m, o, gen)
            sig = steer(rho, fam)
            sums = sig.members.sum(axis=1)
            assert np.max(np.abs(sums - sums[0])) <= 1e-9
            assert abs(np.trace(sums[0]).real - 1.0) <= 1e-9


class TestAssemblageValidation:
    def test_signalling_table_rejected(self):
        members = np.zeros((2, 2, 2, 2), dtype=complex)
        members[0, 0] = np.diag([0.5, 0.0])
        members[0, 1] = np.diag([0.0, 0.5])
        members[1, 0] = np.diag([0.7, 0.0])
        members[1, 1] = np.diag([0.0, 0.3])
        with pytest.raises(ValueError, match="differ across settings"):
            Assemblage(2, members)

    def test_wrong_total_trace_rejected(self):
        members = np.zeros((1, 2, 2, 2), dtype=complex)
        members[0, 0] = np.diag([0.3, 0.0])
        members[0, 1] = np.diag([0.0, 0.3])
        with pytest.raises(ValueError):
            Assemblage(2, members)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_rejected(self, bad):
        members = steer(max_entangled(2), zx_family()).members.copy()
        members[0, 1, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Assemblage(2, members)


class TestMembership:
    def test_separable_mixture_is_member(self):
        gen = rng(5)
        mat = np.zeros((4, 4), dtype=complex)
        weights = gen.dirichlet(np.ones(3))
        for q in weights:
            a = random_density_matrix(1, 2, rng=gen).matrix
            b = random_density_matrix(1, 2, rng=gen).matrix
            mat += q * np.kron(a, b)
        sig = steer(DensityMatrix(2, 2, mat), zx_family())
        res = lhs_membership(sig)
        assert res.status == "member"
        assert res.member
        assert res.residual <= 1e-6

    def test_max_entangled_zx_is_nonmember_with_verified_witness(self):
        sig = steer(max_entangled(2), zx_family())
        res = lhs_membership(sig)
        assert res.status == "nonmember"
        assert not res.member
        # the witness value and its enumeration bound are recomputed facts
        value = float(
            np.einsum("xaij,xaji->", res.witness.operators, sig.members).real
        )
        assert abs(value - res.witness_value) <= 1e-12
        assert res.witness_value > res.witness_bound
        # cross-check with an independent monotone solve
        from steerkit.monotones import steerable_weight

        assert steerable_weight(sig).value > 1e-3

    def test_isotropic_below_threshold_is_member(self):
        sig = steer(isotropic(2, 0.3), zx_family())
        res = lhs_membership(sig)
        assert res.status == "member"
        from steerkit.monotones import steerable_weight

        assert steerable_weight(sig).value == 0.0

    def test_enumeration_cap_enforced(self):
        d = 2
        m = 13
        members = np.zeros((m, 2, d, d), dtype=complex)
        members[:, 0] = np.diag([0.5, 0.0])
        members[:, 1] = np.diag([0.0, 0.5])
        sig = Assemblage(d, members)
        assert m * np.log2(2) > MEMBERSHIP_CAP_BITS
        with pytest.raises(ValueError, match="cap"):
            lhs_membership(sig)


class TestWiring:
    def test_identity_wiring_is_noop(self):
        gen = rng(6)
        sig = steer(random_density_matrix(2, 2, rng=gen), zx_family())
        wid = WiringMap.identity(2, 2)
        assert np.allclose(wid.apply(sig.members), sig.members, atol=1e-12)

    def test_setting_permutation_relabels(self):
        gen = rng(7)
        sig = steer(random_density_matrix(2, 2, rng=gen), zx_family())
        ps = np.array([[0.0, 1.0], [1.0, 0.0]])
        po = np.zeros((2, 2, 2, 2))
        po[:, :] = np.eye(2)
        wired = WiringMap(ps, po).apply(sig.members)
        assert np.allclose(wired[0], sig.members[1], atol=1e-12)
        assert np.allclose(wired[1], sig.members[0], atol=1e-12)

    def test_outcome_coarse_graining_merges(self):
        gen = rng(8)
        sig = steer(random_density_matrix(2, 2, rng=gen), zx_family())
        # both outcomes map to outcome 0
        ps = np.eye(2)
        po = np.zeros((2, 2, 2, 2))
        po[:, :, :, 0] = 1.0
        wired = WiringMap(ps, po).apply(sig.members)
        for x in range(2):
            assert np.allclose(wired[x, 0], sig.members[x].sum(axis=0), atol=1e-12)
            assert np.allclose(wired[x, 1], 0.0, atol=1e-12)

    def test_nonstochastic_kernel_rejected(self):
        ps = np.array([[0.5, 0.2], [0.5, 0.5]])
        po = np.zeros((2, 2, 2, 2))
        po[:, :] = np.eye(2)
        with pytest.raises(ValueError):
            WiringMap(ps, po)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kernel", ["p_setting", "p_outcome"])
    def test_non_finite_kernel_rejected(self, kernel, bad):
        ident = WiringMap.identity(2, 2)
        tables = {"p_setting": ident.p_setting.copy(), "p_outcome": ident.p_outcome.copy()}
        tables[kernel].flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            WiringMap(**tables)


def normalized_kraus_pair(d, gen):
    k1 = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    k2 = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    tot = k1.conj().T @ k1 + k2.conj().T @ k2
    w, v = np.linalg.eigh(tot)
    s = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return k1 @ s, k2 @ s


def random_instrument(settings, outcomes, d, gen):
    ps = gen.dirichlet(np.ones(settings), size=settings)
    po = gen.dirichlet(np.ones(outcomes), size=(settings, settings, outcomes))
    wiring = WiringMap(ps, po)
    k1, k2 = normalized_kraus_pair(d, gen)
    return Instrument1W((InstrumentBranch(k1, wiring), InstrumentBranch(k2, wiring)))


class TestInstruments:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_rejected(self, bad):
        kraus = 0.5 * np.eye(2, dtype=complex)
        kraus[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Instrument1W((InstrumentBranch(kraus, WiringMap.identity(2, 2)),))

    def test_identity_instrument_returns_input(self):
        gen = rng(9)
        sig = steer(random_density_matrix(2, 2, rng=gen), zx_family())
        ins = Instrument1W(
            (InstrumentBranch(np.eye(2, dtype=complex), WiringMap.identity(2, 2)),)
        )
        out = apply_instrument(sig, ins)
        assert len(out) == 1
        weight, branch = out[0]
        assert abs(weight - 1.0) <= 1e-12
        assert np.allclose(branch.members, sig.members, atol=1e-12)

    def test_trace_preserving_weights_sum_to_one(self):
        gen = rng(10)
        sig = steer(random_density_matrix(2, 3, rng=gen), random_projective_family(2, 2, gen))
        wid = WiringMap.identity(2, 2)
        k1, k2 = normalized_kraus_pair(3, gen)
        ins = Instrument1W((InstrumentBranch(k1, wid), InstrumentBranch(k2, wid)))
        out = apply_instrument(sig, ins)
        assert abs(sum(p for p, _ in out) - 1.0) <= 1e-9

    def test_outputs_are_valid_assemblages(self):
        gen = rng(11)
        for _ in range(20):
            d = int(gen.integers(2, 4))
            rho = random_density_matrix(2, d, rng=gen)
            sig = steer(rho, random_povm_family(2, 2, 2, gen))
            ins = random_instrument(2, 2, d, gen)
            for weight, branch in apply_instrument(sig, ins):
                assert weight > 0.0
                # Assemblage construction itself enforces the invariants;
                # re-assert the no-signalling consistency explicitly
                sums = branch.members.sum(axis=1)
                assert np.max(np.abs(sums - sums[0])) <= 1e-9

    def test_zero_weight_branches_dropped(self):
        gen = rng(12)
        sig = steer(random_density_matrix(2, 2, rng=gen), zx_family())
        wid = WiringMap.identity(2, 2)
        ins = Instrument1W(
            (
                InstrumentBranch(np.eye(2, dtype=complex), wid),
                InstrumentBranch(np.zeros((2, 2), dtype=complex), wid),
            )
        )
        out = apply_instrument(sig, ins)
        assert len(out) == 1

    def test_trace_increasing_kraus_rejected(self):
        wid = WiringMap.identity(2, 2)
        with pytest.raises(ValueError, match="exceeds identity"):
            Instrument1W((InstrumentBranch(1.2 * np.eye(2, dtype=complex), wid),))

    def test_membership_closed_under_instruments(self):
        gen = rng(13)
        sig = steer(isotropic(2, 0.3), zx_family())
        assert lhs_membership(sig).member
        for trial in range(5):
            ins = random_instrument(2, 2, 2, gen)
            for _, branch in apply_instrument(sig, ins):
                assert lhs_membership(branch).member
