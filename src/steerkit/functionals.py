"""Bell and steering functionals, their classical bounds, violation
fractions, induced functionals, and the largest steering violation of a
state.

Conventions: Bell coefficients and correlations are stored as dense
arrays indexed [x][y][a][b]; steering functionals and assemblages as
operator tables indexed [x][a].  Bell coefficients are required
non-negative (any functional can be shifted into this normal form, see
`shift_nonnegative`), which makes the classical bounds finite maxima
over deterministic strategies.

Both classical bounds run `strategies.best_strategy`; `lv_s` and the
see-saw take each setting's best POVM from `_best_povms`; and
`best_rotated_fraction` climbs its exact gradient (`_rotation_gradient`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assemblages import Assemblage, MeasurementFamily, _clean_operator_table, steer
from .linalg import dagger, haar_unitary, herm, herm_eig
from .sdp import SdpProblem, solve, solve_many
from .states import DensityMatrix
from .strategies import all_strategies, best_strategy, strategy_count

__all__ = [
    "BellFunctional",
    "SteeringFunctional",
    "Correlation",
    "LocalBound",
    "SteeringBound",
    "Fraction",
    "LvsResult",
    "SeesawResult",
    "shift_nonnegative",
    "local_bound",
    "steering_bound",
    "steering_bound_sdp",
    "nonlocality_fraction",
    "steering_fraction",
    "induced_functional",
    "correlation_from",
    "lv_s",
    "lv_bell_seesaw",
    "RotatedFraction",
    "best_rotated_fraction",
    "LOCAL_BOUND_CAP",
    "STEERING_BOUND_CAP",
]

NS_TOL = 1e-9
LOCAL_BOUND_CAP = 1 << 24
STEERING_BOUND_CAP = 1 << 20


@dataclass(frozen=True)
class BellFunctional:
    """Non-negative Bell coefficients B[x, y, a, b]."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 4:
            raise ValueError("coefficients must be a [x][y][a][b] array")
        if not np.isfinite(c).all():
            raise ValueError("Bell coefficients must be finite")
        if c.min() < -1e-12:
            raise ValueError(
                "negative Bell coefficients; use shift_nonnegative to renormalize first"
            )
        c = np.clip(c, 0.0, None)
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def settings_a(self) -> int:
        return self.coefficients.shape[0]

    @property
    def settings_b(self) -> int:
        return self.coefficients.shape[1]

    @property
    def outcomes_a(self) -> int:
        return self.coefficients.shape[2]

    @property
    def outcomes_b(self) -> int:
        return self.coefficients.shape[3]


def shift_nonnegative(coefficients) -> tuple[BellFunctional, float]:
    """Shift each (x, y) cell of a real coefficient table up to make it
    non-negative.

    Adding a constant to every entry of one cell adds that constant to
    the functional's value on any normalized correlation, so the returned
    offset is what the shift adds to both values and classical bounds.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 4:
        raise ValueError("coefficients must be a [x][y][a][b] array")
    cell_min = c.min(axis=(2, 3))
    shift = np.maximum(0.0, -cell_min)
    shifted = c + shift[:, :, None, None]
    return BellFunctional(shifted), float(shift.sum())


@dataclass(frozen=True)
class SteeringFunctional:
    """PSD operator coefficients F[x, a] of a steering inequality."""

    dim: int
    operators: np.ndarray  # (settings, outcomes, dim, dim)

    def __post_init__(self) -> None:
        ops = np.asarray(self.operators, dtype=np.complex128)
        if ops.ndim != 4 or ops.shape[2:] != (self.dim, self.dim):
            raise ValueError(f"operators must have shape (m, o, {self.dim}, {self.dim})")
        ops = _clean_operator_table(ops, "functional operator")
        object.__setattr__(self, "operators", ops)

    @property
    def settings(self) -> int:
        return self.operators.shape[0]

    @property
    def outcomes(self) -> int:
        return self.operators.shape[1]


@dataclass(frozen=True)
class Correlation:
    """Joint conditional distribution P[x, y, a, b] = P(a, b | x, y)."""

    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 4:
            raise ValueError("table must be a [x][y][a][b] array")
        if not np.isfinite(t).all() or t.min() < -1e-12:
            raise ValueError("probabilities must be finite and non-negative")
        t = np.clip(t, 0.0, None)
        if np.max(np.abs(t.sum(axis=(2, 3)) - 1.0)) > NS_TOL:
            raise ValueError("each setting pair must be normalized")
        marg_a = t.sum(axis=3)  # (x, y, a)
        if np.max(np.abs(marg_a - marg_a[:, :1, :])) > NS_TOL:
            raise ValueError("Alice's marginal signals across Bob's settings")
        marg_b = t.sum(axis=2)  # (x, y, b)
        if np.max(np.abs(marg_b - marg_b[:1, :, :])) > NS_TOL:
            raise ValueError("Bob's marginal signals across Alice's settings")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class LocalBound:
    value: float
    alice_strategy: np.ndarray  # map x -> a
    bob_strategy: np.ndarray  # map y -> b


@dataclass(frozen=True)
class SteeringBound:
    value: float
    strategy: np.ndarray  # map x -> a
    eigenvector: np.ndarray


@dataclass(frozen=True)
class Fraction:
    value: float
    numerator: float
    bound: float

    @property
    def violated(self) -> bool:
        return self.value > 1.0


def local_bound(bell: BellFunctional) -> LocalBound:
    """Exact classical bound: max over deterministic strategy pairs.

    Enumerates Bob's strategies; for each, the best Alice reply decouples
    across settings.  Ties resolve to the lexicographically smallest pair.
    """
    c = bell.coefficients
    ma, mb, oa, ob = c.shape
    if strategy_count(ma, oa) * strategy_count(mb, ob) > LOCAL_BOUND_CAP:
        raise ValueError(f"strategy space exceeds the enumeration cap {LOCAL_BOUND_CAP}")
    # arr[y, b, x, a] lets a Bob strategy gather its (x, a) reply table
    arr = np.ascontiguousarray(c.transpose(1, 3, 0, 2))
    best, best_bob = best_strategy(
        mb, ob, lambda chunk: arr[np.arange(mb)[None, :], chunk].sum(axis=1).max(axis=2).sum(axis=1)
    )
    reply = arr[np.arange(mb), best_bob].sum(axis=0)  # (ma, oa)
    best_alice = reply.argmax(axis=1)
    return LocalBound(best, best_alice.astype(np.int64), best_bob)


def steering_bound(func: SteeringFunctional) -> SteeringBound:
    """Exact steering bound: max over deterministic response strategies D
    of the top eigenvalue of sum_x F[x, D(x)]."""
    f = func.operators
    m, o = func.settings, func.outcomes
    if strategy_count(m, o) > STEERING_BOUND_CAP:
        raise ValueError(f"strategy space exceeds the enumeration cap {STEERING_BOUND_CAP}")
    best, strategy = best_strategy(
        m, o, lambda chunk: np.linalg.eigvalsh(f[np.arange(m)[None, :], chunk].sum(axis=1))[:, -1]
    )
    _, vecs = herm_eig(f[np.arange(m), strategy].sum(axis=0))
    return SteeringBound(best, strategy, vecs[:, -1])


def steering_bound_sdp(func: SteeringFunctional, tol: float = 1e-9) -> float:
    """Steering bound as a conic program: max sum_k tr(S_k rho_k) over PSD
    rho_k of total trace 1, S_k the deterministic strategy sums.
    Cross-validates the enumeration."""
    f = func.operators
    m, o, d = func.settings, func.outcomes, func.dim
    strategies = all_strategies(m, o, cap=4096)
    p = SdpProblem()
    blocks = [p.add_block(d) for _ in strategies]
    p.set_objective({blk: herm(f[np.arange(m), strat].sum(axis=0))
                     for blk, strat in zip(blocks, strategies)}, sense="max")
    p.add_scalar_constraint({blk: np.eye(d) for blk in blocks}, 1.0)
    sol = solve(p, tol=tol)
    if sol.status != "optimal":
        raise RuntimeError(f"steering bound solve ended {sol.status}")
    return float(sol.primal_objective)


def nonlocality_fraction(corr: Correlation, bell: BellFunctional) -> Fraction:
    """Ratio of the functional's value on the correlation to its classical
    bound; above 1 means Bell violation."""
    numerator = float(np.sum(bell.coefficients * corr.table))
    bound = local_bound(bell).value
    if bound <= 0.0:
        raise ValueError("classical bound is not positive")
    return Fraction(numerator / bound, numerator, bound)


def steering_fraction(sigma: Assemblage, func: SteeringFunctional) -> Fraction:
    """Ratio of sum_ax tr(F sigma) to the steering bound; above 1 certifies
    steerability."""
    numerator = float(np.einsum("xaij,xaji->", func.operators, sigma.members).real)
    bound = steering_bound(func).value
    if bound <= 0.0:
        raise ValueError("steering bound is not positive")
    return Fraction(numerator / bound, numerator, bound)


def induced_functional(bell: BellFunctional, bob: MeasurementFamily) -> SteeringFunctional:
    """Steering functional F[x, a] = sum_{y, b} B[x, y, a, b] E[y, b] obtained
    by fixing Bob's measurements."""
    if bell.settings_b != bob.settings or bell.outcomes_b != bob.outcomes:
        raise ValueError("Bob's side of the functional does not match the family")
    ops = np.einsum("xyab,ybij->xaij", bell.coefficients, bob.effects)
    return SteeringFunctional(bob.dim, ops)


def correlation_from(
    rho: DensityMatrix, alice: MeasurementFamily, bob: MeasurementFamily
) -> Correlation:
    """Joint outcome distribution of local measurements on a shared state."""
    if alice.dim != rho.dA or bob.dim != rho.dB:
        raise ValueError("measurement dimensions do not match the state")
    rho4 = rho.matrix.reshape(rho.dA, rho.dB, rho.dA, rho.dB)
    table = np.einsum(
        "ijkl,xaki,yblj->xyab", rho4, alice.effects, bob.effects, optimize=True
    )
    if np.max(np.abs(table.imag)) > 1e-10:
        raise ValueError("correlation table has a non-real component")
    return Correlation(table.real)


# --- largest steering violation ---


def _steered_operators(rho: DensityMatrix, ops: np.ndarray) -> np.ndarray:
    """G[x, a] = tr_B[rho (I x F[x, a])]: Alice-side operators whose POVM
    overlap gives the functional's value."""
    rho4 = rho.matrix.reshape(rho.dA, rho.dB, rho.dA, rho.dB)
    return np.einsum("ijkl,xalj->xaik", rho4, ops)


def _optimal_povm_exact2(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Two-outcome closed form: the positive eigenspace of G0 - G1."""
    diff = herm(g[0] - g[1], tol=1e-8)
    d = diff.shape[0]
    w, v = herm_eig(diff)
    keep = w > 0.0
    e0 = v[:, keep] @ v[:, keep].conj().T if keep.any() else np.zeros((d, d), dtype=complex)
    value = float(np.trace(g[1]).real + w[keep].sum())
    return value, np.stack([e0, np.eye(d) - e0])


def _povm_program(g: np.ndarray) -> SdpProblem:
    """max sum_a tr(E_a G_a) over POVMs as a conic program: one block per
    outcome, one matrix equality sum_a E_a = I."""
    o, d = g.shape[0], g.shape[1]
    p = SdpProblem()
    blocks = [p.add_block(d) for _ in range(o)]
    p.set_objective({blk: herm(g[a], tol=1e-8) for a, blk in enumerate(blocks)}, sense="max")
    p.add_matrix_equality({blk: 1.0 for blk in blocks}, np.eye(d))
    return p


def _repair_povm(effects: np.ndarray) -> np.ndarray:
    """Symmetric renormalization making the effects sum exactly to I: a
    (..., outcomes, d, d) stack is repaired POVM by POVM."""
    total = herm(effects.sum(axis=-3), tol=1e-6)
    w, v = herm_eig(total)
    inv_sqrt = (v * (1.0 / np.sqrt(np.maximum(w, 1e-12)))[..., None, :]) @ dagger(v)
    return np.einsum("...ij,...ajk,...kl->...ail", inv_sqrt, effects, inv_sqrt)


def _best_povms(g: np.ndarray, tol: float) -> tuple[float, np.ndarray, float]:
    """Best POVM of each setting x against a (settings, outcomes, d, d) stack:
    max sum_a tr(E_a G[x, a]).

    With two outcomes each setting takes `_optimal_povm_exact2` and the gap
    is 0.  Otherwise the settings' programs, which share their rows
    sum_a E_a = I, are solved in one `solve_many` batch, and each optimum's
    effects are repaired to sum to I.  Returns the optima summed in setting
    order, the (settings, outcomes, d, d) effects, and the duality gaps
    summed likewise.
    """
    if g.shape[1] == 2:
        best = [(*_optimal_povm_exact2(gx), 0.0) for gx in g]
    else:
        sols = solve_many([_povm_program(gx) for gx in g], tol=tol)
        for sol in sols:
            if sol.status != "optimal":
                raise RuntimeError(f"POVM optimization ended {sol.status}")
        effects = _repair_povm(np.stack([sol.x for sol in sols]))
        best = [(float(sol.primal_objective), eff, float(sol.gap)) for sol, eff in zip(sols, effects)]
    value = gap = 0.0
    for v, _, g_gap in best:
        value += v
        gap += g_gap
    return value, np.stack([eff for _, eff, _ in best]), gap


@dataclass(frozen=True)
class LvsResult:
    """Largest steering violation of a state against one functional.

    `value` is the certified optimum (sum of per-setting optima over the
    steering bound), `gap` its duality gap on that scale (0 at two outcomes);
    `family` is the optimal family, achieving `achieved` on re-evaluation.
    """

    value: float
    family: MeasurementFamily
    gap: float
    achieved: float


def lv_s(rho: DensityMatrix, func: SteeringFunctional, tol: float = 1e-9) -> LvsResult:
    """Largest violation of a steering inequality by a fixed state.

    The objective decouples across settings: for each x the optimal POVM
    maximizes a linear function over the POVM set (`_best_povms`).  With
    two outcomes that optimum is the closed form, the projector onto the
    positive eigenspace of G0 - G1, and the gap is 0.  With more, each
    setting is a conic program with a certified duality gap; the programs
    of all settings share their rows and are solved in one
    `sdp.solve_many` batch, each solution the one a solo solve gives, bit
    for bit.
    """
    if func.dim != rho.dB:
        raise ValueError("functional dimension does not match Bob's side")
    bound = steering_bound(func).value
    if bound <= 0.0:
        raise ValueError("steering bound is not positive")
    raw, effects, gap = _best_povms(_steered_operators(rho, func.operators), tol)
    family = MeasurementFamily(rho.dA, effects)
    achieved = steering_fraction(steer(rho, family), func).value
    return LvsResult(raw / bound, family, gap / bound, achieved)


# --- see-saw lower bound on the largest Bell violation ---


@dataclass(frozen=True)
class SeesawResult:
    """Heuristic lower bound on the largest Bell violation.

    `value` is the nonlocality fraction of the certificate correlation;
    always a valid lower bound, never claimed optimal.
    """

    value: float
    alice: MeasurementFamily
    bob: MeasurementFamily
    correlation: Correlation
    rounds: int
    converged: bool
    lower_bound_only: bool = True


def _fourier_basis(d: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def lv_bell_seesaw(
    rho: DensityMatrix,
    bell: BellFunctional,
    restarts: int = 8,
    seed=0,
    max_rounds: int = 200,
    tol: float = 1e-9,
) -> SeesawResult:
    """Alternating optimization of both parties' POVMs (the see-saw of
    Pal & Vertesi, PRA 82, 022116, 2010).

    Each half-step is the exact per-setting POVM optimum against the
    other party's current effects (`_best_povms`, as in `lv_s`), so the
    functional value is monotone along the iteration.  With two outcomes
    it is the closed form; with more, the half-step's settings are solved
    in one `sdp.solve_many` batch.  Restarts: one structured start
    (computational and Fourier bases cycled over settings) plus
    Haar-random projective starts, both built by
    `MeasurementFamily.from_bases`, or, when Bob's outcomes differ from
    his dimension, random Wishart POVMs renormalized by `_repair_povm`.
    The result is a certified achievable value, reported as a lower bound
    on the largest violation.  `restarts` or `max_rounds` below 1 raises
    ValueError.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, not {restarts}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, not {max_rounds}")
    c = bell.coefficients
    _, mb, _, ob = c.shape
    d = rho.dB
    gen = np.random.default_rng(seed)
    rho4 = rho.matrix.reshape(rho.dA, rho.dB, rho.dA, rho.dB)

    if ob == d:
        bases = [np.stack([np.eye(d, dtype=complex), _fourier_basis(d)])[np.arange(mb) % 2]]
        bases += [[haar_unitary(d, gen) for _ in range(mb)] for _ in range(restarts - 1)]
        starts = [MeasurementFamily.from_bases(b).effects for b in bases]
    else:
        shape = (mb, ob, d, d)
        raw = np.stack([gen.standard_normal(shape) + 1j * gen.standard_normal(shape) for _ in range(restarts)])
        starts = _repair_povm(np.einsum("...ij,...kj->...ik", raw, raw.conj()))

    best_val = -np.inf
    best = None
    for bob_eff in starts:
        val = -np.inf
        converged = False
        for rounds in range(1, max_rounds + 1):
            sig_b = _steered_operators(rho, bob_eff)  # tr_B[rho(I x E_b|y)]
            _, alice_eff, _ = _best_povms(np.einsum("xyab,ybik->xaik", c, sig_b), tol)
            sig_a = np.einsum("ijkl,xaki->xajl", rho4, alice_eff)  # tr_A[rho(E_a|x x I)]
            new_val, bob_eff, _ = _best_povms(np.einsum("xyab,xajl->ybjl", c, sig_a), tol)
            if val > -np.inf and abs(new_val - val) <= 1e-12 * max(1.0, abs(new_val)):
                val = new_val
                converged = True
                break
            val = new_val
        if val > best_val:
            best_val = val
            best = (alice_eff, bob_eff, rounds, converged)

    alice_eff, bob_eff, rounds, converged = best
    alice_fam = MeasurementFamily(rho.dA, alice_eff)
    bob_fam = MeasurementFamily(rho.dB, bob_eff)
    corr = correlation_from(rho, alice_fam, bob_fam)
    frac = nonlocality_fraction(corr, bell)
    return SeesawResult(frac.value, alice_fam, bob_fam, corr, rounds, converged)


def _rotation_gradient(rho4: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gradient of f(U) = sum p[k, i] q[l, j] rho[i, j, k, l] over (x, a, i, j, k, l),
    from the (u, x, a, d, d) stacks p = U^dag E U and q = U^T F conj(U): for
    each U the Hermitian G with d/dt f(U exp(itH)) = tr(H G) at t = 0.  With
    A[k, i] = sum rho[i, j, k, l] q[l, j] and B[l, j] = sum rho[i, j, k, l] p[k, i],
    G = i sum_{x,a} (A^T p - p A^T + B q^T - q^T B)."""
    a_t = np.einsum("ijkl,uxalj->uxaik", rho4, q)
    b = np.einsum("ijkl,uxaki->uxalj", rho4, p)
    q_t = np.swapaxes(q, -1, -2)
    return herm(1j * (a_t @ p - p @ a_t + b @ q_t - q_t @ b).sum(axis=(1, 2)))


@dataclass(frozen=True)
class RotatedFraction:
    """Best steering fraction found over joint unitary rotations."""

    value: float
    numerator: float
    bound: float
    unitary: np.ndarray


def best_rotated_fraction(
    rho: DensityMatrix,
    alice: MeasurementFamily,
    func: SteeringFunctional,
    samples: int = 64,
    seed=0,
    steps: int = 40,
) -> RotatedFraction:
    """Stochastic maximum of the fraction over rotated measurement pairs.

    Rotating Alice's effects by U while rotating the functional by the
    complex conjugate of U leaves the steering bound unchanged, so every
    rotation gives an achievable fraction for `rho`.  The average of the
    rotated fractions over the unitary group equals the fraction of the
    twirled state, so the maximum here can never fall below it; this
    routine hill-climbs from Haar samples (plus the identity) along
    geodesics U exp(i alpha H), H the normalized exact gradient
    (`_rotation_gradient`), and reports the best rotation found.
    """
    d = rho.dA
    if rho.dB != d or alice.dim != d or func.dim != d:
        raise ValueError("rotation argument needs equal dimensions on all parts")
    effects = alice.effects
    ops = func.operators
    rho4 = rho.matrix.reshape(d, d, d, d)
    bound = steering_bound(func).value
    if bound <= 0.0:
        raise ValueError("steering bound is not positive")

    gen = np.random.default_rng(seed)
    us = np.stack([np.eye(d, dtype=complex)]
                  + [haar_unitary(d, gen) for _ in range(max(0, samples - 1))])

    def pairs(batch):  # p = U^dag E U and q = U^T F conj(U), per (u, x, a)
        p = np.einsum("uqp,xaqr,urs->uxaps", batch.conj(), effects, batch)
        q = np.einsum("uqp,xaqr,urs->uxaps", batch, ops, batch.conj())
        return p, q

    def numerators(batch):
        return np.einsum("uxaki,uxalj,ijkl->u", *pairs(batch), rho4).real

    base = numerators(us)
    for _ in range(steps):
        grad = _rotation_gradient(rho4, *pairs(us))
        gnorm = np.linalg.norm(grad, axis=(1, 2))
        if gnorm.max() <= 1e-10:
            break
        dirs = grad / np.maximum(gnorm, 1e-30)[:, None, None]
        w, v = np.linalg.eigh(dirs)
        best_vals, best_us = base.copy(), us.copy()
        for alpha in (0.8, 0.4, 0.2, 0.1, 0.05, 0.02):
            rot = np.einsum("uij,uj,ukj->uik", v, np.exp(1j * alpha * w), v.conj())
            cand = us @ rot
            cv = numerators(cand)
            improved = cv > best_vals + 1e-15
            best_us[improved] = cand[improved]
            best_vals[improved] = cv[improved]
        if np.max(best_vals - base) <= 1e-12:
            break
        us, base = best_us, best_vals

    k = int(np.argmax(base))
    numerator = float(base[k])
    return RotatedFraction(numerator / bound, numerator, bound, us[k])
