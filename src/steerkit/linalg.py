"""Dense complex linear algebra helpers shared by every other module.

Everything here wraps numpy/LAPACK; the value added is validation (Hermiticity
and positivity are checked against explicit tolerances, never assumed) and a
couple of conventions the rest of the package relies on:

* matrices are numpy arrays of complex128, row-major;
* bipartite operators act on C^dA (x) C^dB with the A factor first in the
  Kronecker ordering;
* eigenvalues are returned ascending (LAPACK order).
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-12
PSD_TOL = 1e-10


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got {a.shape}")
    return a


def herm(m: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Validate Hermiticity and return the symmetrized (m + m^dag)/2.

    Raises ValueError if the anti-Hermitian part exceeds tol relative to the
    matrix scale; roundoff-level asymmetry is silently repaired.
    """
    a = as_matrix(m)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    dev = float(np.abs(a - dagger(a)).max(initial=0.0))
    if dev > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} "
                         f"exceeds {tol:.1e} * scale")
    return 0.5 * (a + dagger(a))


def herm_eig(m: np.ndarray, tol: float = HERM_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w ascending and v unitary such that
    m = v @ diag(w) @ v^dag.
    """
    h = herm(m, tol)
    w, v = np.linalg.eigh(h)
    return w, v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def partial_trace(m: np.ndarray, dims: tuple[int, int], trace_out: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on C^dA (x) C^dB.

    trace_out: 'A' keeps the B factor, 'B' keeps the A factor.
    """
    da, db = dims
    a = np.asarray(m, dtype=np.complex128)
    assert a.shape == (da * db, da * db), f"operator shape {a.shape} does not match dims {dims}"
    t = a.reshape(da, db, da, db)
    if trace_out == "A":
        return np.einsum("ijik->jk", t)
    if trace_out == "B":
        return np.einsum("ijkj->ik", t)
    raise ValueError(f"trace_out must be 'A' or 'B', got {trace_out!r}")


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random U(d) sample.

    QR of a complex Ginibre matrix, with the R diagonal's phases pushed back
    into Q so the distribution is exactly Haar rather than QR-convention
    dependent.
    """
    rng = np.random.default_rng(rng)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r).copy()
    diag /= np.abs(diag)
    return q * diag[np.newaxis, :]


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    w = np.linalg.eigvalsh(herm(m, tol=np.inf))
    return bool(w.min(initial=0.0) >= -tol)


def project_psd(m: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Clip slightly negative eigenvalues to zero.

    Accepts matrices whose minimum eigenvalue is >= -tol (numerical noise) and
    projects them onto the PSD cone; anything more negative is an error, not
    noise, and raises.
    """
    w, v = herm_eig(m, tol=np.inf)
    if w[0] < -tol:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e} below -{tol:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * w) @ dagger(v)


def trace_norm(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.svd(m, compute_uv=False)).sum())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) || a - b ||_1 for Hermitian a, b."""
    w = np.linalg.eigvalsh(herm(a, tol=np.inf) - herm(b, tol=np.inf))
    return 0.5 * float(np.abs(w).sum())


def permute_systems(m: np.ndarray, dims: list[int], perm: list[int]) -> np.ndarray:
    """Reorder tensor factors of an operator on (x)_i C^dims[i].

    perm[j] = i means output slot j carries input factor i.
    """
    n = len(dims)
    assert sorted(perm) == list(range(n)), f"perm {perm} is not a permutation"
    total = int(np.prod(dims))
    a = np.asarray(m, dtype=np.complex128)
    assert a.shape == (total, total)
    t = a.reshape(dims + dims)
    axes = list(perm) + [n + p for p in perm]
    out_dims = [dims[p] for p in perm]
    return t.transpose(axes).reshape(int(np.prod(out_dims)), -1)
