"""Named game and measurement-family generators.

Three constructions with known quantum advantages: the Khot-Vishnoi
coset-guessing game on n-bit strings, the two-setting d-outcome
Collins-Gisin-Linden-Massar-Popescu inequality in its non-negative
form, and mutually unbiased bases in prime dimensions.  Each generator
ships with the measurements realizing its standard violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assemblages import MeasurementFamily
from .functionals import (
    LOCAL_BOUND_CAP,
    BellFunctional,
    SteeringFunctional,
    correlation_from,
    local_bound,
)
from .linalg import dagger
from .states import max_entangled
from .strategies import strategy_count

__all__ = [
    "KvGame",
    "KvFraction",
    "MubFamily",
    "kv_game",
    "kv_measurements",
    "kv_fraction",
    "cglmp",
    "cglmp_lv_lower",
    "mub",
    "mub_functional",
]


# The coset game's table has 4^n entries, filled by one gather: n = 8
# (65,536 entries) builds in about 1 ms, n = 16 would need 34 GB.
KV_MAX_OUTCOMES = 8
# cglmp(d) builds its (2, 2, d, d) table from d x d arrays, so its memory
# grows as d^2: at the cap the table is 32 MB, and the build peaks at about
# 90 MB and takes 0.05-0.08 s on a 2-vCPU host.
# cglmp_lv_lower(d) sums arrays of d/2 floats: d = 10^7 takes 0.3 s and
# about 40 MB per temporary.
CGLMP_MAX_OUTCOMES = 1000
CGLMP_LV_MAX_OUTCOMES = 10**7
# mub(d, d + 1) builds d + 1 bases of d x d and checks every pair of them
# at once: at d = 73 that takes 0.8 s (one BLAS thread, 2-vCPU host) and
# peaks at about 0.7 GB; d = 79 takes 1.3-1.7 s.
MUB_MAX_DIM = 73
# `game mub` builds, validates and encodes mub_functional's (n, d, d, d)
# table: d = 17, n = 18 (88,434 entries) takes about 1 s and writes 8 MB,
# d = 31 took 7.7 s and 656 MB (2-vCPU host).
MUB_FUNCTIONAL_MAX_ENTRIES = 2**17


def _check_outcomes(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError("outcome count must be a power of 2, at least 2")
    if n > KV_MAX_OUTCOMES:
        raise ValueError(f"the coset game is capped at n <= {KV_MAX_OUTCOMES} outcomes (4^n table entries)")


def _coset_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosets of the length-n Hadamard code in {0,1}^n, as a (2^n/n, n)
    array with sorted rows ordered by smallest element, and the (2^n, n)
    bits of every n-bit string, bits[v, j] being bit j of v.

    Codeword i has bit j equal to the parity of i AND j, so the map
    i -> c_i is linear over GF(2) and the image is a subgroup of
    {0,1}^n with exactly n elements; every nonzero codeword has
    Hamming weight n/2.
    """
    strings = np.arange(1 << n)
    bits = (strings[:, np.newaxis] >> np.arange(n)) & 1
    subgroup = ((bits[:n] @ bits[:n].T) & 1) @ (1 << np.arange(n))
    if np.unique(subgroup).size != n:
        raise AssertionError("subgroup codewords are not distinct")
    if not np.isin(subgroup[:, np.newaxis] ^ subgroup, subgroup).all():
        raise AssertionError("subgroup is not closed under xor")
    shifted = np.sort(strings[:, np.newaxis] ^ subgroup, axis=1)
    # a coset is listed once, at the string that is its smallest element
    return shifted[shifted[:, 0] == strings], bits


@dataclass(frozen=True)
class KvGame:
    """Coset-guessing game: both parties receive cosets of the Hadamard
    subgroup differing by a noise string g, drawn with bias eta per bit,
    and win by answering elements differing by exactly g.

    Settings index cosets (2^n/n of them), outcomes index elements
    within a coset (n of them, sorted ascending).
    """

    n: int
    eta: float
    cosets: tuple
    coefficients: BellFunctional


def kv_game(n: int, eta: float | None = None) -> KvGame:
    """Build the game's coefficient table: cell [x, y, a, b] holds the
    probability weight of its one noise string g, times n/2^n.

    Leaving eta unset picks 1/2 - 1/ln(n), which is a valid bias only
    for n >= 8; smaller games must pass eta explicitly.
    """
    _check_outcomes(n)
    if eta is None:
        if n < 8:
            raise ValueError("the default bias 1/2 - 1/ln(n) needs n >= 8; pass eta")
        eta = 0.5 - 1.0 / np.log(n)
    if not 0.0 <= eta <= 0.5:
        raise ValueError("eta must lie in [0, 1/2]")
    cosets, bits = _coset_table(n)
    # weight of a noise string depends only on its popcount
    by_weight = [eta**w * (1.0 - eta) ** (n - w) for w in range(n + 1)]
    scale = n / float(1 << n)
    # cell [x, y, a, b] has one noise string, g = (coset x)[a] ^ (coset y)[b];
    # one-byte popcounts make the table's index array 64 KB, not 512 KB, at n = 8
    popcount = bits.sum(axis=1, dtype=np.uint8)
    noise_weight = popcount[cosets[:, np.newaxis, :, np.newaxis] ^ cosets[np.newaxis, :, np.newaxis, :]]
    coeffs = (scale * np.array(by_weight))[noise_weight]
    cosets = tuple(map(tuple, cosets.tolist()))
    return KvGame(n=n, eta=float(eta), cosets=cosets, coefficients=BellFunctional(coeffs))


def kv_measurements(n: int) -> MeasurementFamily:
    """Rank-1 projective family indexed like the game: setting x measures
    the orthonormal basis of sign vectors (-1)^(bits of a)/sqrt(n) for a
    running over coset x.

    Orthogonality within a coset comes from nonzero Hadamard codewords
    having weight n/2.  The receiving side uses the entrywise complex
    conjugate family, which for these real vectors is the same object.
    """
    _check_outcomes(n)
    cosets, bits = _coset_table(n)
    # bases[x, i, a] is entry i of the sign vector of element a of coset x
    bases = ((1.0 - 2.0 * bits[cosets]) / np.sqrt(n)).transpose(0, 2, 1)
    return MeasurementFamily.from_bases(bases)


@dataclass(frozen=True)
class KvFraction:
    """Quantum-versus-classical performance summary for one game.

    `local_value` is the exact classical optimum when the strategy space
    fits the enumeration cap and None otherwise; `local_bound_analytic`
    always holds, so `fraction_lower` (value over that bound) is a valid
    lower bound on the true fraction in either case.
    """

    n: int
    eta: float
    value: float
    local_value: float | None
    local_bound_analytic: float
    fraction: float | None
    fraction_lower: float
    estimate: float


def kv_fraction(n: int, eta: float | None = None) -> KvFraction:
    """Play the game on a maximally entangled pair with the sign-vector
    measurements on both sides and compare against classical play.

    The reported `estimate` is the asymptotic guarantee 4e^-4 * n/(ln n)^2;
    it undershoots 1 for every enumerable n and is informational only.
    """
    return _kv_fraction(kv_game(n, eta), kv_measurements(n))


def _kv_fraction(game: KvGame, fam: MeasurementFamily) -> KvFraction:
    """`kv_fraction` of a game and its measurements, already built."""
    n = game.n
    corr = correlation_from(max_entangled(n), fam, fam)
    value = float(np.sum(game.coefficients.coefficients * corr.table))
    settings = (1 << n) // n
    analytic = float(n ** (-game.eta / (1.0 - game.eta)))
    local_value = None
    fraction = None
    if strategy_count(settings, n) ** 2 <= LOCAL_BOUND_CAP:
        local_value = local_bound(game.coefficients).value
        fraction = value / local_value
    estimate = 4.0 * np.exp(-4.0) * n / np.log(n) ** 2
    return KvFraction(
        n=n,
        eta=game.eta,
        value=value,
        local_value=local_value,
        local_bound_analytic=analytic,
        fraction=fraction,
        fraction_lower=value / analytic,
        estimate=float(estimate),
    )


def cglmp(d: int) -> BellFunctional:
    """Two-setting, d-outcome inequality with non-negative coefficients
    and classical bound 6.

    Six coefficient branches, selected by the setting sum x+y and the
    outcome ordering; every (a, b, x, y) cell matches exactly one.
    """
    if d < 2:
        raise ValueError("outcome count must be at least 2")
    if d > CGLMP_MAX_OUTCOMES:
        raise ValueError(f"the two-setting inequality is capped at d <= {CGLMP_MAX_OUTCOMES} outcomes")
    a, b, step = np.arange(d)[:, np.newaxis], np.arange(d), d - 1
    by_sum = (  # the (a, b) table of each setting sum x + y
        np.where(b >= a, 2.0 + 2.0 * (a - b) / step, 2.0 * (a - b - 1) / step),
        np.where(b > a, 2.0 * (b - a - 1) / step, 2.0 + 2.0 * (b - a) / step),
        np.where(b > a, 2.0 - 2.0 * (b - a - 1) / step, 2.0 * (a - b) / step),
    )
    coeffs = np.array([[by_sum[x + y] for y in range(2)] for x in range(2)])
    return BellFunctional(coeffs)


def cglmp_lv_lower(d: int) -> float:
    """Closed-form violation of the two-setting d-outcome inequality by
    the maximally entangled state, normalized by the classical bound."""
    if d < 2:
        raise ValueError("outcome count must be at least 2")
    if d > CGLMP_LV_MAX_OUTCOMES:
        raise ValueError(f"the closed-form violation is capped at d <= {CGLMP_LV_MAX_OUTCOMES:,} outcomes")
    k = np.arange(d // 2, dtype=float)
    angle = np.pi / d
    q_pos = 1.0 / (2.0 * d**3 * np.sin(angle * (k + 0.25)) ** 2)
    q_neg = 1.0 / (2.0 * d**3 * np.sin(angle * (-(k + 1) + 0.25)) ** 2)
    total = float(np.sum((1.0 - 2.0 * k / (d - 1)) * (q_pos - q_neg)))
    return (2.0 / 3.0) * (1.0 + d * total)


def _is_prime(d: int) -> bool:
    if d < 2:
        return False
    i = 2
    while i * i <= d:
        if d % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class MubFamily:
    """n mutually unbiased orthonormal bases in prime dimension d.

    vectors[x, :, a] is the a-th vector of basis x; any two vectors from
    different bases overlap with squared magnitude 1/d.
    """

    d: int
    vectors: np.ndarray  # (n, d, d)

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 3 or v.shape[1:] != (self.d, self.d):
            raise ValueError(f"vectors must have shape (n, {self.d}, {self.d})")
        gram = np.einsum("xia,xib->xab", v.conj(), v)
        if float(np.max(np.abs(gram - np.eye(self.d)))) > 1e-10:
            raise ValueError("each basis must be orthonormal to 1e-10")
        xs, ys = np.triu_indices(v.shape[0], 1)
        cross = np.abs(dagger(v[xs]) @ v[ys]) ** 2
        bad = np.flatnonzero(np.abs(cross - 1.0 / self.d).max(axis=(1, 2)) > 1e-9)
        if bad.size:
            x, y = xs[bad[0]], ys[bad[0]]
            raise ValueError(f"bases {x} and {y} are not mutually unbiased to 1e-9")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def to_measurements(self) -> MeasurementFamily:
        return MeasurementFamily.from_bases(list(self.vectors))


def mub(d: int, n: int) -> MubFamily:
    """Mutually unbiased bases: the three Pauli eigenbases for d = 2, and
    the computational basis plus quadratic Fourier bases for odd primes.

    Basis x in {1..d} has vector a with components w^(a j + x j^2)/sqrt(d)
    where w = exp(2 pi i/d); prime-power dimensions are out of scope.
    """
    if d > MUB_MAX_DIM:
        raise ValueError(f"mutually unbiased bases are capped at d <= {MUB_MAX_DIM}")
    if not _is_prime(d):
        raise ValueError("prime dimensions only")
    if not 1 <= n <= d + 1:
        raise ValueError(f"basis count must lie in [1, {d + 1}]")
    if d == 2:
        z = np.eye(2, dtype=complex)
        x = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        y = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
        return MubFamily(2, np.stack([z, x, y][:n]))
    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    # basis x in 1..n-1 has entry [j, a] = w^(a j + x j^2)/sqrt(d), so column a is vector a
    x = np.arange(1, n)[:, None, None]
    bases = omega ** (np.outer(j, j) + x * (j**2)[:, None]) / np.sqrt(d)
    return MubFamily(d, np.concatenate([np.eye(d, dtype=complex)[None], bases]))


def mub_functional(fam: MubFamily) -> SteeringFunctional:
    """Steering functional whose operators are the basis projectors, at most
    MUB_FUNCTIONAL_MAX_ENTRIES numbers (ValueError past that)."""
    entries = len(fam.vectors) * fam.d**3
    if entries > MUB_FUNCTIONAL_MAX_ENTRIES:
        raise ValueError(f"the functional has {entries} entries, above the cap of {MUB_FUNCTIONAL_MAX_ENTRIES}")
    ops = np.einsum("xia,xja->xaij", fam.vectors, fam.vectors.conj())
    return SteeringFunctional(fam.d, ops)
