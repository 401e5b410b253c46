"""Tests for states, the fully entangled fraction, and twirling."""

import numpy as np
import pytest

from steerkit.linalg import dagger, haar_unitary, kron, trace_distance
from steerkit.states import (
    DensityMatrix,
    IsotropicState,
    fef,
    isotropic,
    ket_max_entangled,
    max_entangled,
    random_density_matrix,
    singlet_fidelity,
    tensor_copies,
    twirl,
    twirl_monte_carlo,
)


def fidelity_at(rho: DensityMatrix, u: np.ndarray) -> float:
    """Overlap of (u x I) rho (u x I)^dag with the maximally entangled state."""
    d = rho.dA
    psi = ket_max_entangled(d)
    w = kron(u, np.eye(d))
    return float(np.real(np.vdot(psi, w @ rho.matrix @ dagger(w) @ psi)))


class TestMaxEntangled:
    def test_d2_projector(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        assert np.max(np.abs(max_entangled(2).matrix - np.outer(psi, psi))) <= 1e-14

    def test_marginals_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = max_entangled(d)
            assert np.max(np.abs(rho.reduced("B") - np.eye(d) / d)) <= 1e-12
            assert np.max(np.abs(rho.reduced("A") - np.eye(d) / d)) <= 1e-12

    def test_self_fidelity(self):
        assert abs(singlet_fidelity(max_entangled(3)) - 1.0) <= 1e-12

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError):
            max_entangled(1)


class TestIsotropic:
    def test_endpoints(self):
        assert np.max(np.abs(isotropic(3, 1.0).matrix - max_entangled(3).matrix)) <= 1e-12
        assert np.max(np.abs(isotropic(3, 0.0).matrix - np.eye(9) / 9)) <= 1e-14

    def test_fidelity_formula(self):
        for d, p in ((2, 0.3), (3, -0.1), (4, 0.9)):
            f = singlet_fidelity(isotropic(d, p))
            assert abs(f - (p + (1 - p) / d**2)) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            isotropic(2, 1.5)
        with pytest.raises(ValueError):
            isotropic(2, -0.5)  # below -1/(d^2-1) = -1/3

    def test_lower_edge_is_valid_state(self):
        d = 3
        rho = isotropic(d, -1 / (d**2 - 1))
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12


class TestDensityMatrixValidation:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, 2, np.eye(4))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1])
        with pytest.raises(ValueError):
            DensityMatrix(2, 2, m)

    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.2
        with pytest.raises(ValueError):
            DensityMatrix(2, 2, m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(2, 2, m)

    def test_accepts_roundoff_noise(self):
        gen = np.random.default_rng(0)
        m = np.eye(4) / 4 + 1e-13 * gen.standard_normal((4, 4))
        rho = DensityMatrix(2, 2, m)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-14


class TestFefClosedForms:
    def test_max_entangled_is_one(self):
        res = fef(max_entangled(3))
        assert abs(res.value - 1.0) <= 1e-10
        assert res.exact

    def test_maximally_mixed(self):
        res = fef(isotropic(2, 0.0))
        assert abs(res.value - 0.25) <= 1e-12

    def test_isotropic_positive_p(self):
        res = fef(isotropic(2, 0.5))
        assert abs(res.value - 0.625) <= 1e-12
        assert res.exact and res.method == "isotropic"
        assert abs(fidelity_at(isotropic(2, 0.5), res.unitary) - res.value) <= 1e-12

    def test_isotropic_negative_p(self):
        d, p = 3, -0.1
        res = fef(isotropic(d, p))
        assert abs(res.value - (1 - p) / d**2) <= 1e-12
        assert abs(fidelity_at(isotropic(d, p), res.unitary) - res.value) <= 1e-12

    def test_pure_state_singular_value_formula(self):
        gen = np.random.default_rng(1)
        for d in (2, 3):
            v = gen.standard_normal(d * d) + 1j * gen.standard_normal(d * d)
            v /= np.linalg.norm(v)
            rho = DensityMatrix(d, d, np.outer(v, v.conj()))
            res = fef(rho)
            expected = np.linalg.svd(v.reshape(d, d), compute_uv=False).sum() ** 2 / d
            assert abs(res.value - expected) <= 1e-10
            assert res.exact and res.method == "pure"
            assert abs(fidelity_at(rho, res.unitary) - res.value) <= 1e-10

    def test_bell_diagonal_takes_largest_coefficient(self):
        from steerkit.states import _BELL_BASIS

        probs = np.array([0.1, 0.2, 0.4, 0.3])
        m = _BELL_BASIS @ np.diag(probs) @ dagger(_BELL_BASIS)
        rho = DensityMatrix(2, 2, m)
        res = fef(rho)
        assert abs(res.value - 0.4) <= 1e-12
        assert res.method == "bell_diagonal"
        assert abs(fidelity_at(rho, res.unitary) - res.value) <= 1e-12

    def test_closed_form_strategy_raises_when_inapplicable(self):
        rho = random_density_matrix(2, 2, rng=2)
        with pytest.raises(ValueError):
            fef(rho, strategy="closed-form")


class TestFefAscent:
    def test_matches_isotropic_closed_form(self):
        rho = isotropic(2, 0.5)
        res = fef(rho, strategy="ascent", restarts=32, seed=0)
        assert abs(res.value - 0.625) <= 1e-6

    def test_certificate_reproduces_value(self):
        rho = random_density_matrix(2, 2, rng=3)
        res = fef(rho)
        assert abs(fidelity_at(rho, res.unitary) - res.value) <= 1e-10
        assert np.max(np.abs(dagger(res.unitary) @ res.unitary - np.eye(2))) <= 1e-10

    def test_value_within_bounds(self):
        for seed in range(5):
            rho = random_density_matrix(2, 2, rng=seed)
            res = fef(rho)
            d = rho.dA
            assert 1 / d**2 - 1e-9 <= res.value <= 1.0 + 1e-9
            assert res.value <= res.upper_bound + 1e-9

    def test_local_unitary_invariance(self):
        gen = np.random.default_rng(4)
        for seed in range(3):
            rho = random_density_matrix(2, 2, rng=100 + seed)
            u, v = haar_unitary(2, gen), haar_unitary(2, gen)
            w = kron(u, v)
            rotated = DensityMatrix(2, 2, w @ rho.matrix @ dagger(w))
            a = fef(rho, restarts=32, seed=0)
            b = fef(rotated, restarts=32, seed=0)
            assert abs(a.value - b.value) <= 1e-4

    def test_tensor_power_supermultiplicative(self):
        rho = random_density_matrix(2, 2, rng=5)
        single = fef(rho)
        double = tensor_copies(rho, 2)
        res2 = fef(double, restarts=16, seed=0)
        assert res2.value >= single.value**2 - 1e-9
        # the product certificate achieves exactly the squared value
        u2 = kron(single.unitary, single.unitary)
        assert abs(fidelity_at(double, u2) - single.value**2) <= 1e-10

    def test_twirl_never_increases_fef(self):
        for seed in range(3):
            rho = random_density_matrix(2, 2, rng=200 + seed)
            before = fef(rho)
            after = fef(twirl(rho).to_density())
            assert after.value <= before.value + 1e-6


class TestTwirl:
    def test_isotropic_fixed_point(self):
        for d, p in ((2, 0.7), (3, -0.05)):
            out = twirl(isotropic(d, p))
            assert out.d == d
            assert abs(out.p - p) <= 1e-10

    def test_max_entangled_maps_to_p1(self):
        assert abs(twirl(max_entangled(2)).p - 1.0) <= 1e-12

    def test_matches_monte_carlo(self):
        rho = random_density_matrix(2, 2, rng=6)
        closed = twirl(rho).to_density()
        sampled = twirl_monte_carlo(rho, samples=10_000, rng=7)
        assert trace_distance(closed.matrix, sampled.matrix) <= 1e-2

    def test_preserves_fidelity(self):
        rho = random_density_matrix(3, 3, rng=8)
        assert abs(twirl(rho).fidelity - singlet_fidelity(rho)) <= 1e-12

    @pytest.mark.parametrize("samples", [0, -3])
    def test_monte_carlo_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            twirl_monte_carlo(max_entangled(2), samples=samples)


class TestTensorCopies:
    def test_dimensions_and_fidelity_factorization(self):
        rho = random_density_matrix(2, 2, rng=9)
        doubled = tensor_copies(rho, 2)
        assert (doubled.dA, doubled.dB) == (4, 4)
        f1 = singlet_fidelity(rho)
        # fidelity against Psi+ of the doubled system factorizes for U = I
        assert abs(fidelity_at(doubled, np.eye(4)) - fidelity_at(rho, np.eye(2)) ** 2) <= 1e-12
        assert abs(np.trace(doubled.matrix) - 1.0) <= 1e-12
        assert f1 <= 1.0

    def test_single_copy_is_identity(self):
        rho = random_density_matrix(2, 3, rng=10)
        assert np.max(np.abs(tensor_copies(rho, 1).matrix - rho.matrix)) <= 1e-14


class TestRandomDensityMatrix:
    def test_valid_state(self):
        rho = random_density_matrix(2, 3, rng=11)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12

    def test_rank_control(self):
        rho = random_density_matrix(2, 2, rank=1, rng=12)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[-1] >= 1.0 - 1e-10

    def test_deterministic_given_seed(self):
        a = random_density_matrix(2, 2, rng=13)
        b = random_density_matrix(2, 2, rng=13)
        assert np.array_equal(a.matrix, b.matrix)


class TestIsotropicStateType:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            IsotropicState(2, 1.2)
        with pytest.raises(ValueError):
            IsotropicState(2, -0.4)

    def test_roundtrip_through_density(self):
        iso = IsotropicState(3, 0.4)
        assert abs(twirl(iso.to_density()).p - 0.4) <= 1e-12
