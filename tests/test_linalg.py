"""Tests for the dense linear algebra helpers."""

import numpy as np
import pytest

from steerkit.linalg import (
    dagger,
    haar_unitary,
    herm,
    herm_eig,
    kron,
    partial_trace,
    permute_systems,
    project_psd,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def random_hermitian(n, gen):
    m = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


class TestHermEig:
    def test_identity(self):
        w, v = herm_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v @ dagger(v), np.eye(2))

    def test_diagonal_sorted_ascending(self):
        w, _ = herm_eig(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0])

    def test_reconstruction_residual(self):
        gen = rng(1)
        for _ in range(1000):
            n = int(gen.integers(2, 17))
            m = random_hermitian(n, gen)
            w, v = herm_eig(m)
            rec = v @ np.diag(w) @ dagger(v)
            assert np.max(np.abs(rec - m)) <= 1e-10 * max(1.0, np.abs(w).max())
            assert np.all(np.diff(w) >= -1e-12)

    def test_rejects_nonsquare(self):
        # a ValueError, not an assert, so that python -O keeps the check
        with pytest.raises(ValueError, match=r"expected square matrix, got \(2, 3\)"):
            herm_eig(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"expected square matrix, got \(4, 2, 3\)"):
            herm(np.ones((4, 2, 3)))


class TestHerm:
    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 1e-14], [0.0, 2.0]])
        out = herm(m)
        assert np.allclose(out, dagger(out))

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError):
            herm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStacks:
    """herm, project_psd and dagger take (..., n, n) stacks, matrix by matrix."""

    @staticmethod
    def noisy_stack(gen, shape=(3, 4), n=3):
        # PSD matrices at mixed scales, with roundoff asymmetry and tiny
        # negative eigenvalues for the checks to repair
        g = gen.standard_normal((*shape, n, n)) + 1j * gen.standard_normal((*shape, n, n))
        psd = g @ g.conj().swapaxes(-1, -2) * 10.0 ** gen.integers(-3, 4, size=(*shape, 1, 1))
        w, v = np.linalg.eigh(psd)
        w[..., 0] = -1e-12
        out = (v * w[..., np.newaxis, :]) @ v.conj().swapaxes(-1, -2)
        return out + 1e-15 * gen.standard_normal(out.shape)

    def test_results_match_per_matrix_calls_bit_for_bit(self):
        stack = self.noisy_stack(rng(5))
        flat = stack.reshape(-1, 3, 3)
        for fn in (herm, project_psd, dagger):
            per_matrix = np.stack([fn(m) for m in flat]).reshape(stack.shape)
            assert fn(stack).tobytes() == per_matrix.tobytes()

    def test_each_matrix_is_judged_on_its_own_scale(self):
        big = np.diag([1e6, 1.0]).astype(complex)
        big[0, 1] = 1e-7  # within 1e-12 of its scale, 1e6
        small = np.eye(2, dtype=complex)
        small[0, 1] = 1e-11  # beyond 1e-12 of its scale, 1
        herm(np.stack([big, big]))
        with pytest.raises(ValueError, match="not Hermitian"):
            herm(small)
        with pytest.raises(ValueError, match="not Hermitian"):
            herm(np.stack([big, small]))

    @pytest.mark.parametrize("fn,bad", [
        (herm, np.array([[0.0, 1.0], [0.0, 0.0]])),
        (project_psd, np.diag([1.0, -1e-6])),
    ])
    def test_one_bad_matrix_raises_as_alone(self, fn, bad):
        with pytest.raises(ValueError) as alone:
            fn(bad)
        stack = np.stack([np.eye(2), np.diag([0.5, 0.5]), bad, np.eye(2)]).reshape(2, 2, 2, 2)
        with pytest.raises(ValueError) as stacked:
            fn(stack)
        assert str(stacked.value) == str(alone.value)


class TestKron:
    def test_identity_product(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_placement(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out, expected)

    def test_trace_multiplicativity(self):
        gen = rng(2)
        a = random_hermitian(3, gen)
        b = random_hermitian(4, gen)
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12 * max(
            1.0, abs(np.trace(a) * np.trace(b))
        )


class TestPartialTrace:
    def test_uniform_state(self):
        out = partial_trace(np.eye(4) / 4, (2, 2), "A")
        assert np.allclose(out, np.eye(2) / 2)

    def test_max_entangled_marginal(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        out = partial_trace(np.outer(psi, psi), (2, 2), "A")
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        gen = rng(3)
        m = random_hermitian(6, gen)
        for side in ("A", "B"):
            out = partial_trace(m, (2, 3), side)
            assert abs(np.trace(out) - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))

    def test_kron_identity(self):
        gen = rng(4)
        a = random_hermitian(2, gen)
        b = random_hermitian(3, gen)
        out_a = partial_trace(kron(a, b), (2, 3), "A")
        assert np.max(np.abs(out_a - np.trace(a) * b)) <= 1e-12
        out_b = partial_trace(kron(a, b), (2, 3), "B")
        assert np.max(np.abs(out_b - np.trace(b) * a)) <= 1e-12


class TestHaarUnitary:
    def test_scalar_is_phase(self):
        u = haar_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_unitarity(self):
        for seed in range(5):
            u = haar_unitary(4, seed)
            assert np.max(np.abs(dagger(u) @ u - np.eye(4))) <= 1e-10

    def test_deterministic_given_seed(self):
        assert np.array_equal(haar_unitary(3, 42), haar_unitary(3, 42))

    def test_first_moment_twirl(self):
        # E[U X U^dag] = tr(X) I / d, checked entrywise within 3 standard errors
        gen = rng(6)
        x = np.diag([1.0, 0.0]).astype(complex)
        n = 10_000
        samples = np.empty((n, 2, 2), dtype=complex)
        for i in range(n):
            u = haar_unitary(2, gen)
            samples[i] = u @ x @ dagger(u)
        mean = samples.mean(axis=0)
        se = samples.std(axis=0) / np.sqrt(n)
        target = np.trace(x) * np.eye(2) / 2
        assert np.all(np.abs(mean - target) <= 3 * se + 1e-12)


class TestPositivity:
    def test_project_psd_clips_tiny_negatives(self):
        m = np.diag([1.0, -5e-11])
        out = project_psd(m)
        assert np.linalg.eigvalsh(out)[0] >= 0.0

    def test_project_psd_rejects_negative_beyond_floor(self):
        with pytest.raises(ValueError):
            project_psd(np.diag([1.0, -1e-6]))


class TestPermuteSystems:
    def test_swap_reverses_kron(self):
        gen = rng(9)
        a = random_hermitian(2, gen)
        b = random_hermitian(3, gen)
        out = permute_systems(kron(a, b), [2, 3], [1, 0])
        assert np.max(np.abs(out - kron(b, a))) <= 1e-12

    def test_identity_permutation(self):
        gen = rng(10)
        m = random_hermitian(6, gen)
        assert np.array_equal(permute_systems(m, [2, 3], [0, 1]), m)
