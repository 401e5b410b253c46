"""Bipartite density matrices, the isotropic family, the fully entangled
fraction, and the (U x U*) twirl.

The fully entangled fraction (FEF) of a state rho on C^d x C^d is the
largest overlap with a maximally entangled state reachable by a local
unitary on the first subsystem,

    F(rho) = max_U <Psi+| (U x I) rho (U x I)^dag |Psi+>.

Closed forms are used where the state class admits one (isotropic states,
two-qubit Bell-diagonal states, pure states); everything else falls back
to gradient ascent on the unitary group with random restarts.  Results
carry the certificate unitary and an ``exact`` flag so callers can tell a
certified optimum from a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .linalg import (
    as_matrix,
    dagger,
    haar_unitary,
    herm,
    herm_eig,
    kron,
    partial_trace,
    permute_systems,
    project_psd,
)

__all__ = [
    "DensityMatrix",
    "IsotropicState",
    "FefResult",
    "ket_max_entangled",
    "max_entangled",
    "isotropic",
    "singlet_fidelity",
    "fef",
    "twirl",
    "twirl_monte_carlo",
    "tensor_copies",
    "random_density_matrix",
]

TRACE_TOL = 1e-10
# isotropic(d, p) builds and validates a d^2 x d^2 matrix: d = 30 takes
# 0.95 s (one BLAS thread, 2-vCPU host), d = 36 takes 2.7 s.
ISOTROPIC_MAX_DIM = 30


@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite density matrix on C^dA x C^dB.

    The matrix is validated on construction: finite, Hermitian to 1e-12
    (then symmetrized), positive semidefinite up to a -1e-10 eigenvalue
    floor (then clipped), and unit trace to 1e-10 (then renormalized).
    """

    dA: int
    dB: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.dA < 1 or self.dB < 1:
            raise ValueError("local dimensions must be positive")
        m = as_matrix(self.matrix)
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        m = herm(m)
        n = self.dA * self.dB
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match dA*dB={n}")
        m = project_psd(m)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1 beyond {TRACE_TOL}")
        m = m / tr
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dA * self.dB

    def reduced(self, side: str) -> np.ndarray:
        """Reduced state of the *kept* side: reduced('B') = tr_A(rho)."""
        trace_out = "A" if side == "B" else "B"
        return partial_trace(self.matrix, (self.dA, self.dB), trace_out)


@dataclass(frozen=True)
class IsotropicState:
    """The two-parameter family p |Psi+><Psi+| + (1-p) I/d^2."""

    d: int
    p: float

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("isotropic family needs d >= 2")
        lo = -1.0 / (self.d**2 - 1)
        if not (lo - 1e-12 <= self.p <= 1.0 + 1e-12):
            raise ValueError(f"p={self.p} outside [{lo}, 1]")

    def to_density(self) -> DensityMatrix:
        return isotropic(self.d, self.p)

    @property
    def fidelity(self) -> float:
        """Overlap with the maximally entangled state, p + (1-p)/d^2."""
        return self.p + (1.0 - self.p) / self.d**2


@dataclass(frozen=True)
class FefResult:
    """Outcome of a fully-entangled-fraction computation.

    ``value`` equals the fidelity of ``(U x I) rho (U x I)^dag`` with the
    maximally entangled state for the certificate ``unitary``, so it is
    always a valid lower bound on the FEF.  ``exact`` is True when the
    value is certified optimal (a closed-form path, or ascent meeting the
    spectral upper bound); otherwise the result is a lower bound only.
    """

    value: float
    unitary: np.ndarray
    exact: bool
    method: str
    upper_bound: float


def ket_max_entangled(d: int) -> np.ndarray:
    """The maximally entangled ket sum_i |ii>/sqrt(d) as a vector of length d^2."""
    if d < 2:
        raise ValueError("need d >= 2")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto the maximally entangled state of local dimension d."""
    psi = ket_max_entangled(d)
    return DensityMatrix(d, d, np.outer(psi, psi.conj()))


def isotropic(d: int, p: float) -> DensityMatrix:
    """The isotropic state p |Psi+><Psi+| + (1-p) I/d^2.

    Positivity restricts p to [-1/(d^2-1), 1]; values outside raise, and
    so does d above ISOTROPIC_MAX_DIM.
    """
    iso = IsotropicState(d, p)
    if d > ISOTROPIC_MAX_DIM:
        raise ValueError(f"the isotropic density matrix is capped at d <= {ISOTROPIC_MAX_DIM} (d^2 x d^2 entries)")
    psi = ket_max_entangled(d)
    m = iso.p * np.outer(psi, psi.conj()) + (1.0 - iso.p) * np.eye(d * d) / d**2
    return DensityMatrix(d, d, m)


def _require_square(rho: DensityMatrix) -> int:
    if rho.dA != rho.dB:
        raise ValueError("operation requires dA == dB")
    return rho.dA


def singlet_fidelity(rho: DensityMatrix) -> float:
    """Overlap <Psi+| rho |Psi+> with the maximally entangled state."""
    d = _require_square(rho)
    psi = ket_max_entangled(d)
    return float(np.real(psi.conj() @ rho.matrix @ psi))


def twirl(rho: DensityMatrix) -> IsotropicState:
    """Average of (U x U*) rho (U x U*)^dag over Haar-random U.

    The image is the isotropic state with the same maximally entangled
    fidelity f as rho, hence p = (f d^2 - 1)/(d^2 - 1).  Computed in
    closed form; `twirl_monte_carlo` provides the sampled counterpart.
    """
    d = _require_square(rho)
    f = singlet_fidelity(rho)
    p = (f * d**2 - 1.0) / (d**2 - 1.0)
    p = min(1.0, max(-1.0 / (d**2 - 1), p))
    return IsotropicState(d, p)


def twirl_monte_carlo(rho: DensityMatrix, samples: int = 10_000, rng=None) -> DensityMatrix:
    """Empirical (U x U*) twirl from Haar samples, for cross-checking `twirl`."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    d = _require_square(rho)
    gen = np.random.default_rng(rng)
    acc = np.zeros_like(rho.matrix)
    for _ in range(samples):
        u = haar_unitary(d, gen)
        w = kron(u, u.conj())
        acc = acc + w @ rho.matrix @ dagger(w)
    return DensityMatrix(d, d, acc / samples)


def tensor_copies(rho: DensityMatrix, k: int) -> DensityMatrix:
    """k-fold tensor power with subsystems ordered as (A1..Ak)(B1..Bk)."""
    if k < 1:
        raise ValueError("need k >= 1")
    m = rho.matrix
    for _ in range(k - 1):
        m = kron(m, rho.matrix)
    dims = [rho.dA, rho.dB] * k
    perm = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    m = permute_systems(m, dims, perm)
    return DensityMatrix(rho.dA**k, rho.dB**k, m)


def random_density_matrix(dA: int, dB: int, rank: int | None = None, rng=None) -> DensityMatrix:
    """Random density matrix from a normalized Wishart draw of the given rank."""
    gen = np.random.default_rng(rng)
    n = dA * dB
    r = n if rank is None else int(rank)
    if not 1 <= r <= n:
        raise ValueError("rank must lie in [1, dA*dB]")
    g = gen.standard_normal((n, r)) + 1j * gen.standard_normal((n, r))
    m = g @ dagger(g)
    return DensityMatrix(dA, dB, m / np.trace(m).real)


# --- fully entangled fraction ---


def _reshuffle(matrix: np.ndarray, d: int) -> np.ndarray:
    """Hermitian form M of the FEF objective: F = max_z z^dag M z / d over
    z = vec(conj(U)), with rho[(k,l),(m,n)] mapped to M[(l,k),(n,m)]."""
    r4 = matrix.reshape(d, d, d, d)
    return r4.transpose(1, 0, 3, 2).reshape(d * d, d * d)


def _fef_objective(u: np.ndarray, m_form: np.ndarray, d: int) -> float:
    z = u.conj().reshape(-1)
    return float(np.real(z.conj() @ m_form @ z)) / d


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    p, _, qh = np.linalg.svd(a)
    return p @ qh


def _traceless_unitary(d: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


_BELL_BASIS = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
).T / np.sqrt(2)

_BELL_UNITARIES = (
    np.eye(2, dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1], [-1, 0]], dtype=complex),
)


def _fef_closed_form(rho: DensityMatrix, d: int) -> FefResult | None:
    """Exact FEF for pure, isotropic, and two-qubit Bell-diagonal states."""
    w, v = herm_eig(rho.matrix)
    if w[-1] >= 1.0 - 1e-12:
        psi = v[:, -1].reshape(d, d)
        p, s, qh = np.linalg.svd(psi)
        value = float(s.sum() ** 2) / d
        u = (p @ qh).conj().T
        return FefResult(value, u, True, "pure", value)

    f = singlet_fidelity(rho)
    p_iso = (f * d**2 - 1.0) / (d**2 - 1.0)
    psi = ket_max_entangled(d)
    iso_m = p_iso * np.outer(psi, psi.conj()) + (1.0 - p_iso) * np.eye(d * d) / d**2
    if np.max(np.abs(rho.matrix - iso_m)) <= 1e-12:
        if p_iso >= 0:
            return FefResult(f, np.eye(d, dtype=complex), True, "isotropic", f)
        value = (1.0 - p_iso) / d**2
        return FefResult(value, _traceless_unitary(d), True, "isotropic", value)

    if d == 2:
        in_bell = dagger(_BELL_BASIS) @ rho.matrix @ _BELL_BASIS
        if np.max(np.abs(in_bell - np.diag(np.diag(in_bell)))) <= 1e-12:
            coeffs = np.real(np.diag(in_bell))
            best = int(np.argmax(coeffs))
            return FefResult(float(coeffs[best]), _BELL_UNITARIES[best], True, "bell_diagonal", float(coeffs[best]))

    return None


def _ascend(u: np.ndarray, m_form: np.ndarray, d: int, max_iter: int = 500) -> tuple[np.ndarray, float]:
    """Geodesic gradient ascent of the FEF quadratic form from a unitary start."""
    val = _fef_objective(u, m_form, d)
    step = 1.0
    for _ in range(max_iter):
        z = u.conj().reshape(-1)
        g = np.conj((m_form @ z).reshape(d, d)) / d
        omega = g @ dagger(u) - u @ dagger(g)
        if np.linalg.norm(omega) < 1e-9:
            break
        # omega is skew-Hermitian; exponentiate through the Hermitian -i*omega
        hw, hv = herm_eig(-1j * omega)
        improved = False
        while step > 1e-14:
            expo = hv @ np.diag(np.exp(1j * step * hw)) @ dagger(hv)
            cand = expo @ u
            cval = _fef_objective(cand, m_form, d)
            if cval > val + 1e-15:
                u, val = cand, cval
                step = min(step * 1.3, 10.0)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return u, val


def fef(
    rho: DensityMatrix,
    strategy: str = "auto",
    restarts: int = 32,
    seed=0,
) -> FefResult:
    """Fully entangled fraction of a state on C^d x C^d.

    Parameters
    ----------
    rho : DensityMatrix
        State with dA == dB.
    strategy : str
        "auto" tries the closed-form classes first and falls back to
        ascent; "closed-form" raises if no exact class applies; "ascent"
        forces the iterative optimizer.
    restarts : int
        Number of ascent starts, at least 1 (ValueError below).  The
        identity and the two spectral warm starts come first; the starts
        past those three are Haar random, drawn as they are needed.
    seed
        Seed or Generator for the random restarts.

    Returns
    -------
    FefResult
        The achieved value, its certificate unitary, whether the value is
        certified exact, the path taken, and the spectral upper bound.
    """
    d = _require_square(rho)
    if strategy not in ("auto", "closed-form", "ascent"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, not {restarts}")

    if strategy != "ascent":
        closed = _fef_closed_form(rho, d)
        if closed is not None:
            return closed
        if strategy == "closed-form":
            raise ValueError("no closed-form path applies to this state")

    m_form = herm(_reshuffle(rho.matrix, d), tol=1e-10)
    mw, mv = herm_eig(m_form)
    upper = float(mw[-1])

    gen = np.random.default_rng(seed)
    starts = [np.eye(d, dtype=complex)]
    # warm starts: the top eigenvector of the objective form, and the
    # optimal unitary for the closest pure state
    starts.append(_polar_unitary(mv[:, -1].conj().reshape(d, d)))
    w, v = herm_eig(rho.matrix)
    pm, _, qh = np.linalg.svd(v[:, -1].reshape(d, d))
    starts.append((pm @ qh).conj().T)
    # Haar starts are drawn as the loop reaches them: none past a certified one
    haar = (haar_unitary(d, gen) for _ in range(restarts - len(starts)))

    best_u = starts[0]
    best = -np.inf
    certified = False
    for u0 in chain(starts, haar):
        u, val = _ascend(u0, m_form, d)
        if val > best:
            best, best_u = val, u
        if best >= upper - 1e-9 * max(1.0, abs(upper)):
            certified = True
            break
    return FefResult(best, best_u, certified, "ascent", upper)
