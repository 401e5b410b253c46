"""Measurement families, steering assemblages, and one-way LOCC instruments.

An assemblage is the family of subnormalized states sigma_{a|x} left on
Bob's side when Alice measures setting x and reports outcome a.  This
module builds assemblages from states and measurement families, tests
membership in the local-hidden-state (LHS) set with certificates on both
sides, and applies the classical wiring + quantum subchannel maps under
which steerability is a monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, herm, project_psd
from .states import DensityMatrix

__all__ = [
    "MeasurementFamily",
    "Assemblage",
    "WiringMap",
    "InstrumentBranch",
    "Instrument1W",
    "MembershipResult",
    "steer",
    "apply_instrument",
    "lhs_membership",
    "MEMBERSHIP_CAP_BITS",
]

NS_TOL = 1e-9
MEMBERSHIP_CAP_BITS = 12.0  # settings * log2(outcomes) must stay below this
MEMBER_TOL = 1e-7  # the largest robustness that lhs_membership reads as membership


def _clean_operator_table(table: np.ndarray, what: str) -> np.ndarray:
    """Validate a (..., d, d) table: finite, Hermitian to 1e-12, PSD up to -1e-10."""
    if not np.isfinite(table).all():
        raise ValueError(f"{what}: entries must be finite")
    try:
        out = project_psd(herm(table))
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MeasurementFamily:
    """A POVM per setting: effects[x, a] is the operator for outcome a."""

    dim: int
    effects: np.ndarray  # (settings, outcomes, dim, dim)

    def __post_init__(self) -> None:
        eff = np.asarray(self.effects, dtype=np.complex128)
        if eff.ndim != 4 or eff.shape[2:] != (self.dim, self.dim):
            raise ValueError(f"effects must have shape (m, o, {self.dim}, {self.dim})")
        eff = _clean_operator_table(eff, "measurement effect")
        res = np.abs(eff.sum(axis=1) - np.eye(self.dim)).max(axis=(1, 2))
        bad = np.flatnonzero(res > NS_TOL)
        if bad.size:  # the first failing setting names the error
            raise ValueError(f"effects of setting {bad[0]} sum to identity only within {res[bad[0]]:.2e}")
        object.__setattr__(self, "effects", eff)

    @property
    def settings(self) -> int:
        return self.effects.shape[0]

    @property
    def outcomes(self) -> int:
        return self.effects.shape[1]

    @classmethod
    def from_bases(cls, bases) -> "MeasurementFamily":
        """Projective family from orthonormal bases: bases[x][:, a] is the
        vector whose projector is the effect for outcome a of setting x."""
        arr = np.asarray(bases, dtype=np.complex128)
        m, d, o = arr.shape
        if o != d:
            raise ValueError("each basis must be square (columns = outcomes)")
        eff = np.einsum("xia,xja->xaij", arr, arr.conj())
        return cls(d, eff)


@dataclass(frozen=True)
class Assemblage:
    """Subnormalized conditional states sigma_{a|x} on Bob's side."""

    dim: int
    members: np.ndarray  # (settings, outcomes, dim, dim)

    def __post_init__(self) -> None:
        mem = np.asarray(self.members, dtype=np.complex128)
        if mem.ndim != 4 or mem.shape[2:] != (self.dim, self.dim):
            raise ValueError(f"members must have shape (m, o, {self.dim}, {self.dim})")
        mem = _clean_operator_table(mem, "assemblage member")
        reduced = mem.sum(axis=1)
        drift = np.max(np.abs(reduced - reduced[0]))
        if drift > NS_TOL:
            raise ValueError(f"reduced states differ across settings by {drift:.2e}")
        tr = float(np.trace(reduced[0]).real)
        if abs(tr - 1.0) > NS_TOL:
            raise ValueError(f"total trace {tr} differs from 1 beyond {NS_TOL}")
        object.__setattr__(self, "members", mem)

    @property
    def settings(self) -> int:
        return self.members.shape[0]

    @property
    def outcomes(self) -> int:
        return self.members.shape[1]

    @property
    def reduced_state(self) -> np.ndarray:
        """Bob's marginal, averaged over settings to wash out roundoff."""
        return self.members.sum(axis=1).mean(axis=0)


def steer(rho: DensityMatrix, alice: MeasurementFamily) -> Assemblage:
    """Assemblage prepared on Bob's side by measuring Alice's family."""
    if alice.dim != rho.dA:
        raise ValueError(f"family dimension {alice.dim} does not match dA={rho.dA}")
    rho4 = rho.matrix.reshape(rho.dA, rho.dB, rho.dA, rho.dB)
    members = np.einsum("ijkl,xaki->xajl", rho4, alice.effects)
    return Assemblage(rho.dB, members)


@dataclass(frozen=True)
class WiringMap:
    """Classical pre/post-processing of an assemblage.

    p_setting[x', x] is the probability of asking x when x' was requested;
    p_outcome[x', x, a, a'] relabels the observed a to the reported a'.
    """

    p_setting: np.ndarray  # (out_settings, in_settings)
    p_outcome: np.ndarray  # (out_settings, in_settings, in_outcomes, out_outcomes)

    def __post_init__(self) -> None:
        ps = np.asarray(self.p_setting, dtype=float)
        po = np.asarray(self.p_outcome, dtype=float)
        if ps.ndim != 2 or po.ndim != 4 or po.shape[:2] != ps.shape:
            raise ValueError("wiring shapes inconsistent")
        if not (np.isfinite(ps).all() and np.isfinite(po).all()) or min(ps.min(), po.min()) < -1e-12:
            raise ValueError("wiring probabilities must be finite and non-negative")
        if np.max(np.abs(ps.sum(axis=1) - 1.0)) > NS_TOL:
            raise ValueError("setting kernel rows must sum to 1")
        if np.max(np.abs(po.sum(axis=3) - 1.0)) > NS_TOL:
            raise ValueError("outcome kernel must sum to 1 over reported outcomes")
        ps = np.clip(ps, 0.0, None)
        po = np.clip(po, 0.0, None)
        ps.setflags(write=False)
        po.setflags(write=False)
        object.__setattr__(self, "p_setting", ps)
        object.__setattr__(self, "p_outcome", po)

    @property
    def in_settings(self) -> int:
        return self.p_setting.shape[1]

    @property
    def out_settings(self) -> int:
        return self.p_setting.shape[0]

    @property
    def in_outcomes(self) -> int:
        return self.p_outcome.shape[2]

    @property
    def out_outcomes(self) -> int:
        return self.p_outcome.shape[3]

    @classmethod
    def identity(cls, settings: int, outcomes: int) -> "WiringMap":
        ps = np.eye(settings)
        po = np.zeros((settings, settings, outcomes, outcomes))
        po[:, :] = np.eye(outcomes)
        return cls(ps, po)

    def apply(self, members: np.ndarray) -> np.ndarray:
        """Wired members sigma'_{a'|x'} = sum_{x,a} P(x|x') P(a'|x',a,x) sigma_{a|x}."""
        if members.shape[0] != self.in_settings or members.shape[1] != self.in_outcomes:
            raise ValueError("wiring input shape does not match the assemblage")
        return np.einsum("ux,uxav,xaij->uvij", self.p_setting, self.p_outcome, members)


@dataclass(frozen=True)
class InstrumentBranch:
    kraus: np.ndarray  # (dim_out, dim_in)
    wiring: WiringMap


@dataclass(frozen=True)
class Instrument1W:
    """One-way LOCC instrument: classical wiring on Alice's interfaces
    followed by a quantum subchannel K_w (.) K_w^dag on Bob, per branch w."""

    branches: tuple

    def __post_init__(self) -> None:
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("instrument needs at least one branch")
        din = branches[0].kraus.shape[1]
        acc = np.zeros((din, din), dtype=complex)
        for br in branches:
            k = np.asarray(br.kraus, dtype=np.complex128)
            if k.ndim != 2 or k.shape[1] != din:
                raise ValueError("all Kraus operators must share the input dimension")
            if not np.isfinite(k).all():
                raise ValueError("Kraus operators must be finite")
            acc = acc + dagger(k) @ k
        top = float(np.linalg.eigvalsh(0.5 * (acc + dagger(acc)))[-1])
        if top > 1.0 + NS_TOL:
            raise ValueError(f"sum of K^dag K exceeds identity (top eigenvalue {top})")
        object.__setattr__(self, "branches", branches)

    @property
    def dim_in(self) -> int:
        return self.branches[0].kraus.shape[1]


def apply_instrument(sigma: Assemblage, ins: Instrument1W) -> list[tuple[float, Assemblage]]:
    """Branch outputs (P(w), D_w(sigma)), dropping branches below 1e-12 weight."""
    if ins.dim_in != sigma.dim:
        raise ValueError("instrument input dimension does not match the assemblage")
    out = []
    for br in ins.branches:
        wired = br.wiring.apply(sigma.members)
        k = br.kraus
        mapped = np.einsum("pi,xaij,qj->xapq", k, wired, k.conj())
        weight = float(np.einsum("app->", mapped[0]).real)
        if weight < 1e-12:
            continue
        out.append((weight, Assemblage(k.shape[0], mapped / weight)))
    return out


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of an LHS membership test.

    For members, `model` holds the hidden states sigma_lambda (indexed in
    the shared lexicographic strategy order) whose deterministic mixture
    reproduces the assemblage within `residual`.  For nonmembers,
    `witness` is a steering functional whose value on the assemblage
    exceeds its LHS bound (both recomputed exactly by enumeration).
    """

    status: str  # member | nonmember | indeterminate
    robustness: float | None
    gap: float | None
    model: np.ndarray | None = None
    residual: float | None = None
    witness: object | None = None
    witness_value: float | None = None
    witness_bound: float | None = None

    @property
    def member(self) -> bool:
        return self.status == "member"


def lhs_membership(sigma: Assemblage) -> MembershipResult:
    """Decide LHS membership with a certificate on either side.

    The underlying convex program is the robustness solve; membership is
    declared when the optimal mixing weight is at most MEMBER_TOL.  Nonmember
    witnesses are verified against the exact enumeration bound before
    being returned.
    """
    from .monotones import robustness_program

    report = robustness_program(sigma)
    if report.status != "optimal":
        return MembershipResult(status="indeterminate", robustness=None, gap=report.gap)

    if report.value <= MEMBER_TOL:
        proj = np.einsum("kxa,kij->xaij", report.strategy_indicator, report.model)
        residual = float(np.max(np.abs(proj - sigma.members)))
        return MembershipResult(
            status="member",
            robustness=report.value,
            gap=report.gap,
            model=report.model,
            residual=residual,
        )

    from .functionals import SteeringFunctional, steering_bound

    witness = SteeringFunctional(sigma.dim, report.witness)
    bound = steering_bound(witness).value
    value = float(np.einsum("xaij,xaji->", witness.operators, sigma.members).real)
    if value <= bound:
        # the reconstructed dual lost too much precision to certify anything
        return MembershipResult(status="indeterminate", robustness=report.value, gap=report.gap)
    return MembershipResult(
        status="nonmember",
        robustness=report.value,
        gap=report.gap,
        witness=witness,
        witness_value=value,
        witness_bound=bound,
    )
