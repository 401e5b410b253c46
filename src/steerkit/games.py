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


# The coset game's table has 4^n entries, filled by 4^n Python steps: n = 8
# (65,536 entries) builds in 0.03 s, n = 16 would need 34 GB.
KV_MAX_OUTCOMES = 8
# cglmp(d) builds its (2, 2, d, d) table from d x d arrays, so its memory
# grows as d^2: at the cap the table is 32 MB, and the build peaks at about
# 90 MB and takes 0.05-0.08 s on a 2-vCPU host.
# cglmp_lv_lower(d) sums arrays of d/2 floats: d = 10^7 takes 0.3 s and
# about 40 MB per temporary.
CGLMP_MAX_OUTCOMES = 1000
CGLMP_LV_MAX_OUTCOMES = 10**7


def _check_outcomes(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError("outcome count must be a power of 2, at least 2")
    if n > KV_MAX_OUTCOMES:
        raise ValueError(f"the coset game is capped at n <= {KV_MAX_OUTCOMES} outcomes (4^n table entries)")


def _popcount(v: int) -> int:
    return bin(v).count("1")


def _hadamard_subgroup(n: int) -> tuple[int, ...]:
    """The n codewords of the length-n Hadamard code.

    Codeword i has bit j equal to the parity of i AND j, so the map
    i -> c_i is linear over GF(2) and the image is a subgroup of
    {0,1}^n with exactly n elements; every nonzero codeword has
    Hamming weight n/2.
    """
    words = []
    for i in range(n):
        w = 0
        for j in range(n):
            if _popcount(i & j) & 1:
                w |= 1 << j
        words.append(w)
    return tuple(words)


def _cosets(n: int, subgroup: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cosets of the subgroup in {0,1}^n, each sorted ascending and the
    list ordered by smallest representative."""
    size = 1 << n
    seen = [False] * size
    out = []
    for v in range(size):
        if seen[v]:
            continue
        coset = tuple(sorted(v ^ h for h in subgroup))
        for u in coset:
            seen[u] = True
        out.append(coset)
    return tuple(out)


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


def _resolve_eta(n: int, eta: float | None) -> float:
    """The bias a game on n outcomes is built with: eta, or 1/2 - 1/ln(n)."""
    if eta is None:
        if n < 8:
            raise ValueError("the default bias 1/2 - 1/ln(n) needs n >= 8; pass eta")
        eta = 0.5 - 1.0 / np.log(n)
    return eta


def kv_game(n: int, eta: float | None = None) -> KvGame:
    """Build the game's coefficient table by summing over noise strings.

    Leaving eta unset picks 1/2 - 1/ln(n), which is a valid bias only
    for n >= 8; smaller games must pass eta explicitly.
    """
    _check_outcomes(n)
    eta = _resolve_eta(n, eta)
    if not 0.0 <= eta <= 0.5:
        raise ValueError("eta must lie in [0, 1/2]")
    subgroup = _hadamard_subgroup(n)
    if len(set(subgroup)) != n:
        raise AssertionError("subgroup codewords are not distinct")
    for u in subgroup:
        for v in subgroup:
            if u ^ v not in subgroup:
                raise AssertionError("subgroup is not closed under xor")
    cosets = _cosets(n, subgroup)
    settings = (1 << n) // n
    position = {}
    for x, coset in enumerate(cosets):
        for idx, u in enumerate(coset):
            position[u] = (x, idx)
    # weight of a noise string depends only on its popcount
    by_weight = [eta**w * (1.0 - eta) ** (n - w) for w in range(n + 1)]
    scale = n / float(1 << n)
    coeffs = np.zeros((settings, settings, n, n))
    for x, coset in enumerate(cosets):
        for ai, a in enumerate(coset):
            for g in range(1 << n):
                y, bi = position[a ^ g]
                coeffs[x, y, ai, bi] += scale * by_weight[_popcount(g)]
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
    cosets = _cosets(n, _hadamard_subgroup(n))
    bases = []
    for coset in cosets:
        basis = np.empty((n, n), dtype=complex)
        for idx, a in enumerate(coset):
            signs = [1.0 if (a >> i) & 1 == 0 else -1.0 for i in range(n)]
            basis[:, idx] = np.array(signs) / np.sqrt(n)
        bases.append(basis)
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


def kv_fraction(n: int, eta: float | None = None, *, game: KvGame | None = None) -> KvFraction:
    """Play the game on a maximally entangled pair with the sign-vector
    measurements on both sides and compare against classical play.

    `game` reuses a table already built by kv_game(n, eta) instead of
    building it again; a game built for another n or eta is rejected. The reported `estimate` is the asymptotic guarantee
    4e^-4 * n/(ln n)^2; it undershoots 1 for every enumerable n and is
    informational only.
    """
    _check_outcomes(n)
    if game is None:
        game = kv_game(n, eta)
    elif game.n != n or game.eta != float(_resolve_eta(n, eta)):
        raise ValueError("the game was built for another outcome count or bias")
    fam = kv_measurements(n)
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
        eye = np.eye(self.d)
        if max(float(np.max(np.abs(g - eye))) for g in gram) > 1e-10:
            raise ValueError("each basis must be orthonormal to 1e-10")
        n = v.shape[0]
        for x in range(n):
            for y in range(x + 1, n):
                cross = np.abs(np.einsum("ia,ib->ab", v[x].conj(), v[y])) ** 2
                if float(np.max(np.abs(cross - 1.0 / self.d))) > 1e-9:
                    raise ValueError(
                        f"bases {x} and {y} are not mutually unbiased to 1e-9"
                    )
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
    bases = [np.eye(d, dtype=complex)]
    for x in range(1, d + 1):
        # entry [j, a] is w^(a j + x j^2)/sqrt(d), so column a is vector a
        basis = omega ** (np.outer(j, j) + x * (j**2)[:, None]) / np.sqrt(d)
        bases.append(basis)
    return MubFamily(d, np.stack(bases[:n]))


def mub_functional(fam: MubFamily) -> SteeringFunctional:
    """Steering functional whose operators are the basis projectors."""
    ops = np.einsum("xia,xja->xaij", fam.vectors, fam.vectors.conj())
    return SteeringFunctional(fam.d, ops)
