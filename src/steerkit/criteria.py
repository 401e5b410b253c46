"""Closed-form steerability and nonlocality criteria.

Thresholds on the fully entangled fraction, upper bounds on the largest
violation reachable by maximally entangled states, sufficient conditions
built from named games, a copy-count search for superactivating an
isotropic state, and a planner that picks the dimension realizing an
arbitrarily large multi-copy violation while the single-copy state stays
below a prescribed violation level.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .functionals import SteeringFunctional

__all__ = [
    "IsotropicThresholds",
    "BellUpperBounds",
    "BellSufficiency",
    "SuperactivationReport",
    "AmplificationPlan",
    "harmonic",
    "kappa",
    "isotropic_thresholds",
    "fef_threshold",
    "mub_threshold",
    "lvs_upper_projective",
    "lvs_upper_povm",
    "bell_upper_bounds",
    "bell_sufficient",
    "superactivation_min_copies",
    "amplification_plan",
]

# The functions that need numpy-backed modules import them when they run,
# so the closed forms load no numpy.  `lv_s` still resolves here on first
# lookup (PEP 562), because bench/spans.py wraps `criteria.lv_s`.
_LAZY = {"lv_s": "functionals"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


EULER_GAMMA = 0.5772156649015329
# growth constant of the coset-game fraction estimate
KV_CONSTANT = 4.0 * math.exp(-4.0)
# interval for Grothendieck's constant of order 3 (Vertesi / Krivine)
KG3_LOW = 1.4172
KG3_HIGH = 1.5163
# the closed forms below evaluate d * d in double precision
_FLOAT_DIM_CAP = math.isqrt(int(sys.float_info.max))


def _check_float_dim(d: int) -> None:
    if d > _FLOAT_DIM_CAP:
        raise ValueError(f"these closed forms take d <= {_FLOAT_DIM_CAP:.3e}, so that d * d is a float")


def harmonic(d: int) -> float:
    """Harmonic number H_d, within 2 ulp of the exact rational sum.

    Below d = 64 it is the correctly rounded sum of the floats 1/i; from
    there on the asymptotic expansion through d^-6, whose truncation error
    (under 1/(240 d^8)) is far below double precision. 1/d is taken as
    exp(-ln d) so that integers beyond the float range still work."""
    if d < 1:
        raise ValueError("harmonic numbers need d >= 1")
    if d < 64:
        return math.fsum(1.0 / i for i in range(1, d + 1))
    log_d = math.log(d)
    inv = math.exp(-log_d)
    inv2 = inv * inv
    return log_d + EULER_GAMMA + (inv / 2.0 - inv2 / 12.0 + inv2 * inv2 / 120.0 - inv2**3 / 252.0)


def kappa(d: int) -> float:
    """Largest single-copy violation level epsilon for which the planner's
    isotropic state stays unsteerable under projective measurements."""
    if d < 2:
        raise ValueError("kappa needs d >= 2")
    h = harmonic(d)
    if d <= 10**15:
        df = float(d)
        return (df - h) * (df + 1.0) * (h - 1.0) / ((h + df * h - df) * (df - 1.0))
    # all 1/d corrections vanish at this scale
    return 1.0


@dataclass(frozen=True)
class IsotropicThresholds:
    """Critical mixing parameters of the d-dimensional isotropic family.

    `p_ent` separates separable from entangled, `p_steer` unsteerable
    from steerable under projective measurements, and below `p_povm` the
    state stays unsteerable even under general measurements.  `fef_steer`
    is the same projective-steerability threshold expressed as a fully
    entangled fraction.
    """

    d: int
    h_d: float
    p_ent: float
    p_steer: float
    p_povm: float
    fef_steer: float


def _p_povm(d: int) -> float:
    """Isotropic mixing level below which general measurements cannot steer."""
    return (3.0 * d - 1.0) / (d * d - 1.0) * (1.0 - 1.0 / d) ** d


def isotropic_thresholds(d: int) -> IsotropicThresholds:
    if d < 2:
        raise ValueError("thresholds need d >= 2")
    _check_float_dim(d)
    h = harmonic(d)
    return IsotropicThresholds(
        d=d,
        h_d=h,
        p_ent=1.0 / (d + 1.0),
        p_steer=(h - 1.0) / (d - 1.0),
        p_povm=_p_povm(d),
        fef_steer=(h + h * d - d) / float(d * d),
    )


def fef_threshold(func: SteeringFunctional, copies: int = 1) -> float:
    """Fully-entangled-fraction level above which a state is certified
    steerable by the given functional.

    The single-copy threshold is the reciprocal of the largest violation
    the maximally entangled state reaches; with `copies` > 1 the k-th
    root applies, certifying steerability of the k-copy state.
    """
    from .functionals import lv_s
    from .states import max_entangled

    if copies < 1:
        raise ValueError("copies must be at least 1")
    lv = lv_s(max_entangled(func.dim), func).value
    if lv <= 1e-12:
        raise ValueError("functional has no violation on the maximally entangled state")
    return (1.0 / lv) ** (1.0 / copies)


def mub_threshold(d: int, n: int) -> float:
    """Fully-entangled-fraction level that certifies steerability of any
    state in dimension d via n mutually unbiased bases."""
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    sd, sn = math.sqrt(d), math.sqrt(n)
    return min((n + 1.0 + sd) / (n * sd), (sn + d - 1.0) / (d * sn))


def lvs_upper_projective(d: int) -> float:
    """Largest violation reachable by the maximally entangled state under
    projective measurements, for any positive functional."""
    if d < 2:
        raise ValueError("bound needs d >= 2")
    _check_float_dim(d)
    h = harmonic(d)
    return d * d / (h + h * d - d)


def lvs_upper_povm(d: int) -> float:
    """Largest violation reachable by the maximally entangled state under
    arbitrary measurements; scales as e*d/3 for large d."""
    if d < 2:
        raise ValueError("bound needs d >= 2")
    _check_float_dim(d)
    return d * d / ((d * d - 1.0) * _p_povm(d) + 1.0)


@dataclass(frozen=True)
class BellUpperBounds:
    """Upper bounds on Bell-inequality violations by the maximally
    entangled state, for non-negative coefficient tables.

    The two qubit-specific fields reproduce different readings of the
    Grothendieck-constant interval [1.4172, 1.5163]: `qubit_grothendieck`
    is the commonly quoted 1.2552, whose arithmetic mixes the interval
    endpoints (lower in the numerator, upper in the denominator), and
    `qubit_grothendieck_worst_case` evaluates the same expression at the
    upper endpoint throughout, which is the safe bound.  Both are None
    away from d = 2.
    """

    d: int
    projective: float
    povm: float
    qubit_grothendieck: float | None
    qubit_grothendieck_worst_case: float | None


def bell_upper_bounds(d: int) -> BellUpperBounds:
    mixed = 4.0 * KG3_LOW / (3.0 + KG3_HIGH)
    worst = 4.0 * KG3_HIGH / (3.0 + KG3_HIGH)
    return BellUpperBounds(
        d=d,
        projective=lvs_upper_projective(d),
        povm=lvs_upper_povm(d),
        qubit_grothendieck=mixed if d == 2 else None,
        qubit_grothendieck_worst_case=worst if d == 2 else None,
    )


@dataclass(frozen=True)
class BellSufficiency:
    """Fully-entangled-fraction level certifying Bell nonlocality.

    `vacuous` flags thresholds at or above 1, which no state can meet.
    """

    kind: str
    d: int
    threshold: float
    vacuous: bool


def bell_sufficient(d: int, kind: str) -> BellSufficiency:
    """Closed-form nonlocality certificates: the two-setting d-outcome
    inequality works at every d up to its 10^7 cap, the coset game needs a
    power-of-2 dimension and beats it from d = 2^10 on."""
    kind = kind.lower()
    if kind == "cglmp":
        from .games import cglmp_lv_lower

        if d < 2:
            raise ValueError("need d >= 2")
        threshold = 1.0 / cglmp_lv_lower(d)
    elif kind == "kv":
        if d < 2 or d & (d - 1):
            raise ValueError("the coset-game criterion needs d a power of 2")
        threshold = math.exp(4.0) / 4.0 * math.log(d) ** 2 / d
    else:
        raise ValueError(f"unknown criterion kind {kind!r}")
    return BellSufficiency(kind=kind, d=d, threshold=threshold, vacuous=threshold >= 1.0)


@dataclass(frozen=True)
class SuperactivationReport:
    """Copy-count search result for an isotropic state.

    `copies` is the smallest k at which the fraction estimate
    C * (fidelity * d)^k / (k ln d)^2 exceeds 1; the estimate is only
    sufficient, so the true minimal copy number may be smaller.  When the
    mixing parameter does not exceed the entanglement threshold the
    growth factor is at most 1 and no k can ever work: `status` says
    "impossible-by-criterion" and `copies` is None.
    """

    d: int
    p: float
    fidelity: float
    status: str
    copies: int | None = None
    bound: float | None = None


_SUPERACTIVATION_CAP = 10**6


def superactivation_min_copies(d: int, p: float) -> SuperactivationReport:
    if d < 2:
        raise ValueError("need d >= 2")
    _check_float_dim(d)
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    fidelity = p + (1.0 - p) / (d * d)
    growth = fidelity * d
    p_ent = 1.0 / (d + 1.0)
    if p <= p_ent + 1e-12 or growth <= 1.0:
        return SuperactivationReport(d=d, p=p, fidelity=fidelity, status="impossible-by-criterion")
    log_growth = math.log(growth)
    log_ln_d = math.log(math.log(d))
    log_c = math.log(KV_CONSTANT)
    for k in range(1, _SUPERACTIVATION_CAP + 1):
        log_bound = log_c + k * log_growth - 2.0 * (math.log(k) + log_ln_d)
        if log_bound > 0.0:
            return SuperactivationReport(
                d=d,
                p=p,
                fidelity=fidelity,
                status="superactivated",
                copies=k,
                bound=math.exp(log_bound),
            )
    raise RuntimeError(
        f"no copy count up to {_SUPERACTIVATION_CAP} certifies activation; "
        "the criterion is inconclusive for these parameters"
    )


@dataclass(frozen=True)
class AmplificationPlan:
    """Dimension choice realizing a small single-copy violation level
    next to an arbitrarily large k-copy violation.

    `d` is exact (it can run to thousands of digits), so the mixing
    parameter and the k-copy bound are carried in log space; `p` and
    `bound` are their float images, 0.0 respectively inf when the exact
    value leaves the representable range.
    """

    epsilon: float
    delta: float
    k: int
    d: int
    p: float
    log_p: float
    kappa_d: float
    single_copy_bound: float
    log_bound: float
    bound: float
    unsteerable_projective: bool


# ln d at which the planner gives up. The search costs about (ln d)^2 on
# ever longer integers: on a 2-vCPU host the slowest plan under this cap
# (eps = 0.345, delta = 10, ln d = 2.99e4) takes 1.4 s and a refused
# target 0.4 s, while eps = 0.2, delta = 10 (ln d = 1.5e5) took 22 s.
_PLAN_LOG_CAP = 3e4


def _plan_metrics(d: int, epsilon: float, k: int) -> tuple[bool, float, float]:
    """(feasible, log_bound, log_p) for one candidate dimension.

    Feasible means the mixing parameter p = eps/(U - 1), with
    U = d^2/(H_d(1 + d) - d), lands strictly between the entanglement
    threshold and 1.  The multi-copy bracket eps*(H_d - 1)/(d - H_d)
    + (1 + eps)/d^2 is an exact rewrite of the mixture fidelity.  All of
    it is carried in log space, for every d and however small eps is.
    """
    log_d = math.log(d)
    h = harmonic(d)
    inv_d = math.exp(-log_d)
    log_u = log_d - math.log(h - 1.0 + h * inv_d)
    if log_u <= 0.0:
        return False, -math.inf, math.inf
    log_p = math.log(epsilon) - log_u - math.log1p(-math.exp(-log_u))
    feasible = log_p <= 0.0 and log_p > -(log_d + math.log1p(inv_d))
    term1 = math.log(epsilon) + math.log(h - 1.0) - (log_d + math.log1p(-h * inv_d))
    term2 = math.log1p(epsilon) - 2.0 * log_d
    high, low = max(term1, term2), min(term1, term2)
    log_bracket = high + math.log1p(math.exp(low - high))
    log_bound = (
        math.log(KV_CONSTANT) + k * log_d - 2.0 * math.log(k * log_d) + k * log_bracket
    )
    return feasible, log_bound, log_p


def amplification_plan(epsilon: float, delta: float, k: int = 3) -> AmplificationPlan:
    """Smallest dimension whose isotropic state meets both targets.

    Searches d by geometric doubling followed by integer bisection,
    relying on the bound's monotone growth in d past its first crossing;
    the minimal dimension is astronomically large for typical targets
    (the bound only grows like log d at fixed epsilon), hence the exact
    integer representation. Targets that need ln d beyond 3e4 (a tiny
    epsilon among them) raise RuntimeError.
    """
    if not (0.0 < epsilon < math.inf and 0.0 < delta < math.inf):
        raise ValueError("targets must be positive and finite")
    if k < 3:
        raise ValueError("the bound shrinks with dimension below three copies")
    log_delta = math.log(delta)

    def good(d: int) -> bool:
        feasible, log_bound, _ = _plan_metrics(d, epsilon, k)
        return feasible and log_bound > log_delta

    low, high = None, None
    d = 2
    while True:
        if good(d):
            high = d
            break
        low = d
        d *= 2
        if math.log(d) > _PLAN_LOG_CAP:
            raise RuntimeError("no dimension within the search cap meets the targets")
    if low is not None:
        while high - low > 1:
            mid = (low + high) // 2
            if good(mid):
                high = mid
            else:
                low = mid
    d = high
    feasible, log_bound, log_p = _plan_metrics(d, epsilon, k)
    assert feasible
    kappa_d = kappa(d)
    p = math.exp(log_p) if log_p > -745.0 else 0.0
    bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
    return AmplificationPlan(
        epsilon=epsilon,
        delta=delta,
        k=k,
        d=d,
        p=p,
        log_p=log_p,
        kappa_d=kappa_d,
        single_copy_bound=1.0 + epsilon,
        log_bound=log_bound,
        bound=bound,
        unsteerable_projective=epsilon <= kappa_d,
    )
