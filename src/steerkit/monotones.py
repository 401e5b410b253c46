"""Convex steering monotones with two-sided certificates.

Three quantities measure the steerability of an assemblage: the optimal
steering fraction (best normalized functional value minus one), the
steerable weight (minimal weight on a steerable part in a convex split),
and the steering robustness (minimal mixing with noise that destroys
steerability).  Each is a semidefinite program over the deterministic
response strategies of the measured side.

The steerable weight and the steering robustness are one program over
PSD hidden states, one per strategy: a PSD slack holds their mixture below
sigma when the weight maximizes their total trace, above it when the
robustness minimizes it.  `_hidden_state_report` reads either sense into
a `MonotoneReport`, the one record of a hidden-state solve; hidden state k
answers as row k of its certificate's (o^m, m) answer table `strategies`.

The optimal steering fraction is the Lagrange dual of the robustness
program, so both are read off one robustness solve: its dual slack is the
optimal functional, its hidden states are the fraction's dual cover, and
1 + robustness is the supremum.  S_O's two values are S_R's two values
swapped; the monotonicity audit reads it so too.  A separate fraction
program, with one matrix equality per strategy, remains as the fallback
when the robustness solve stalls and for the fraction of the derived
tables the proposition chains check.

The robustness program doubles as the membership engine for the LHS set:
its optimal hidden-state table is the model for members, and its dual
slack yields a violated functional for nonmembers.

Each side of a program has one reader.  `_functional_value` re-evaluates
every functional by enumerating its strategy sums (S_R's and S_W's dual
values, S_O's certificate value), `_cover_bound` shifts a covering
hidden-state table to exact feasibility (S_R's certificate value, S_O's
dual value), and membership is checked on both sides.  Only S_W's
1 - tr(pi) is read off the solver's states unchecked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assemblages import MEMBERSHIP_CAP_BITS, Assemblage, Instrument1W, apply_instrument
from .linalg import herm
from .sdp import SdpProblem, solve, solve_many
from .strategies import all_strategies, mixture, strategy_sums

__all__ = [
    "MonotoneReport",
    "PropositionReport",
    "AuditRow",
    "AuditReport",
    "optimal_steering_fraction",
    "steerable_weight",
    "steering_robustness",
    "robustness_program",
    "check_proposition_weight",
    "check_proposition_robustness",
    "monotonicity_audit",
    "VALUE_CLAMP",
]

# Interior-point outputs are never exactly zero; values below this are
# reported as exactly 0.
VALUE_CLAMP = 1e-9


def _clamped(v: float) -> float:
    return 0.0 if v < VALUE_CLAMP else float(v)


def _strategies(settings: int, outcomes: int) -> np.ndarray:
    """The (o^m, m) answer table of every strategy, in enumeration order."""
    if settings * np.log2(outcomes) > MEMBERSHIP_CAP_BITS:
        raise ValueError(
            f"the monotone and LHS-membership programs enumerate {outcomes}^{settings} "
            f"strategies; cap is settings*log2(outcomes) <= {MEMBERSHIP_CAP_BITS}"
        )
    return all_strategies(settings, outcomes)


def _functional_value(members: np.ndarray, strategies: np.ndarray, functional: np.ndarray,
                      sense: str) -> float | None:
    """The bound a PSD functional certifies, its strategy sums enumerated:
    payoff / max lambda_max - 1 for "min" (S_R, S_O), 1 - payoff / min
    lambda_min for "max" (S_W); None when that lambda is not positive."""
    eig = np.linalg.eigvalsh(strategy_sums(functional, strategies))
    lam = float(eig[:, -1].max()) if sense == "min" else float(eig[:, 0].min())
    if lam <= 0:
        return None
    paid = float(np.einsum("xaij,xaji->", functional, members).real)
    return _clamped((1.0 if sense == "min" else -1.0) * (paid / lam - 1.0))


@dataclass(frozen=True)
class MonotoneReport:
    """One monotone value with certificates on both sides.

    `certificate` holds the primal optimizer (decomposition or
    functional); `certificate_value` and `dual_value` re-derive the value
    from the two sides, each checked apart from the solver except S_W's
    1 - tr(pi) (the module docstring says how).  Both should match `value`
    within solver accuracy.  S_R's certificate also carries `raw`, the
    unclamped robustness.  A solve that did not end optimal gives NaN
    value and gap and an empty certificate.
    """

    monotone: str
    value: float
    gap: float
    status: str
    certificate: dict
    certificate_value: float | None = None
    dual_value: float | None = None


@dataclass(frozen=True)
class PropositionReport:
    """Checked inequality chain relating two monotones on one assemblage.

    When a solve of the chain does not end optimal, `status` is that
    solve's status, `steerable` is None, the chain does not hold, and every
    term and slack that solve would have fixed is NaN.
    """

    proposition: str
    steerable: bool | None
    terms: dict
    lower_slack: float
    upper_slack: float
    holds: bool
    window: tuple[float, float] | None = None
    status: str = "optimal"


@dataclass(frozen=True)
class AuditRow:
    index: int
    branch_weights: tuple
    branch_values: tuple
    branch_suprema: tuple
    average: float
    holds_average: bool
    holds_branches: bool


@dataclass(frozen=True)
class AuditReport:
    base_value: float
    base_supremum: float
    rows: tuple
    tol: float

    @property
    def holds(self) -> bool:
        return all(r.holds_average and r.holds_branches for r in self.rows)


def _fraction_report(members: np.ndarray, tol: float) -> MonotoneReport:
    """S_O report of max sum tr(F sigma) over F >= 0 with every strategy sum
    of F below 1; the certificate's `supremum` is that maximum, unclamped.

    The robustness program gives the same value with o^m / (m o) times
    fewer rows; this one is kept for two uses: the fallback when a
    robustness solve does not end optimal, and the fraction of the
    steerable part and the noise in the proposition chains, boundary tables
    on which the robustness program can stall.
    """
    m, o, dim = members.shape[0], members.shape[1], members.shape[-1]
    strategies = _strategies(m, o)
    # blocks: F_{a|x} at x * o + a, then the slack T_k of strategy k
    p = SdpProblem()
    for _ in range(m * o + len(strategies)):
        p.add_block(dim)
    p.set_objective(dict(enumerate(herm(members.reshape(m * o, dim, dim), tol=1e-8))), sense="max")
    # the blocks F_{a|x} of strategy k's answers, one per setting
    answers = (strategies + o * np.arange(m)).tolist()
    terms = [{**dict.fromkeys(row, 1.0), m * o + k: 1.0} for k, row in enumerate(answers)]
    p.add_matrix_equalities(terms, np.broadcast_to(np.eye(dim), (len(strategies), dim, dim)))
    sol = solve(p, tol=tol)
    if sol.status != "optimal":
        return MonotoneReport("S_O", float("nan"), float("nan"), sol.status, {})
    # copies, as in `_hidden_state_report`
    functional = sol.x[:m * o].reshape(members.shape).copy()
    # the per-strategy dual matrices, PSD by construction
    duals = sol.s[m * o:].copy()
    supremum = float(sol.primal_objective)
    return MonotoneReport(
        monotone="S_O",
        value=_clamped(supremum - 1.0),
        gap=float(sol.gap),
        status=sol.status,
        certificate={"functional": functional, "dual_cover": duals, "supremum": supremum},
        certificate_value=_functional_value(members, strategies, functional, "min"),
        dual_value=_cover_bound(members, mixture(strategies, o, duals), duals),
    )


def _hidden_state_program(members: np.ndarray, sense: str) -> tuple[SdpProblem, np.ndarray]:
    """Optimize sum tr(pi_k) over PSD hidden states, one per strategy, with
    the strategy mixture below sigma (sense "max", the weight program) or
    above it (sense "min", the robustness program).  Blocks 0..K-1 are the
    pi_k, then one slack per (x, a).  The rows depend only on the table's
    shape, so tables of one shape give programs that `solve_many` batches.
    """
    m, o, dim = members.shape[0], members.shape[1], members.shape[-1]
    strategies = _strategies(m, o)
    slack = 1.0 if sense == "max" else -1.0
    k_count = len(strategies)
    p = SdpProblem()
    for _ in range(k_count + m * o):
        p.add_block(dim)
    p.set_objective(dict.fromkeys(range(k_count), np.eye(dim)), sense=sense)
    # the strategies that answer a on x, for every (x, a): o^(m-1) each
    answering = [np.flatnonzero(strategies[:, x] == a).tolist() for x in range(m) for a in range(o)]
    terms = [{**dict.fromkeys(row, 1.0), k_count + xa: slack} for xa, row in enumerate(answering)]
    p.add_matrix_equalities(terms, herm(members.reshape(m * o, dim, dim), tol=1e-8))
    return p, strategies


def _hidden_state_report(members: np.ndarray, strategies: np.ndarray, sol, sense: str) -> MonotoneReport:
    """The report of a solved hidden-state program: S_W for sense "max",
    S_R for "min" (NaN unless the solve ended optimal).  The hidden states
    and the functional (the (x, a) slacks) are copies, since views would
    keep every block alive in a report; the part (steerable part for
    "max", noise for "min") is None when the raw value is at most 1e-6."""
    name = "S_W" if sense == "max" else "S_R"
    if sol.status != "optimal":
        return MonotoneReport(name, float("nan"), float("nan"), sol.status, {})
    states = sol.x[:len(strategies)].copy()
    functional = sol.s[len(strategies):].reshape(members.shape).copy()
    mixed = mixture(strategies, members.shape[1], states)
    raw = (1.0 if sense == "min" else -1.0) * (float(sol.primal_objective) - 1.0)
    part = None
    if raw > 1e-6:  # each part keeps its own subtraction order, zeros' signs too
        part = (mixed - members) / raw if sense == "min" else (members - mixed) / raw
    if sense == "max":
        certificate = {"weights": states, "unsteerable": mixed, "steerable": part}
        cert_value = _clamped(1.0 - float(np.einsum("kii->", states).real))
    else:
        certificate = {"model": states, "noise": part, "raw": raw}
        cert_value = _cover_bound(members, mixed, states)
    return MonotoneReport(
        monotone=name,
        value=_clamped(raw),
        gap=float(sol.gap),
        status=sol.status,
        certificate={**certificate, "witness": functional, "strategies": strategies},
        certificate_value=cert_value,
        dual_value=_functional_value(members, strategies, functional, sense),
    )


def _cover_bound(members: np.ndarray, cover: np.ndarray, cover_states: np.ndarray) -> float:
    """Upper bound on S_O from PSD states, one per strategy, whose strategy
    mixture `cover` covers sigma: sum tr(Y_k) - 1, after adding to every Y_k
    the multiple of the identity that makes the cover exact."""
    dim = members.shape[-1]
    feas = float(np.linalg.eigvalsh(herm(cover - members, tol=1e-6))[..., 0].min())
    total = float(np.einsum("kii->", cover_states).real)
    return _clamped(total + max(0.0, -feas) * dim * len(cover_states) - 1.0)


def _fraction_from_robustness(members: np.ndarray, sr: MonotoneReport, tol: float) -> MonotoneReport:
    """S_O report read off an S_R report.

    The robustness dual slack is an optimal functional and the hidden
    states are an optimal dual cover, so S_O's two values are S_R's two
    values swapped.  Only when that solve did not end optimal is the
    fraction program solved instead.
    """
    if sr.status != "optimal":
        return _fraction_report(members, tol)
    return MonotoneReport(
        monotone="S_O",
        value=sr.value,
        gap=sr.gap,
        status=sr.status,
        certificate={"functional": sr.certificate["witness"], "dual_cover": sr.certificate["model"],
                     "supremum": 1.0 + sr.certificate["raw"]},
        certificate_value=sr.dual_value,
        dual_value=sr.certificate_value,
    )


def optimal_steering_fraction(sigma: Assemblage, tol: float = 1e-9) -> MonotoneReport:
    """Best steering-fraction excess over 1, maximized over functionals.

    The value is read off the robustness program, whose dual slack is the
    optimal functional normalized to enumeration bound 1; it is clamped at
    0, which every unsteerable assemblage attains.  When the robustness
    solve does not end optimal, the fraction program is solved instead.
    """
    return _fraction_from_robustness(sigma.members, robustness_program(sigma, tol=tol), tol)


def steerable_weight(sigma: Assemblage, tol: float = 1e-9) -> MonotoneReport:
    """Minimal weight of the steerable part over convex decompositions.

    The certificate carries the hidden-state table of the unsteerable
    part and, when the weight is positive, the steerable remainder
    (sigma - mixture) / weight.
    """
    problem, strategies = _hidden_state_program(sigma.members, "max")
    return _hidden_state_report(sigma.members, strategies, solve(problem, tol=tol), "max")


def robustness_program(sigma: Assemblage, tol: float = 1e-9) -> MonotoneReport:
    """The S_R report, with the detail the membership test consumes.

    The model rows are the subnormalized hidden states, one per row of
    `strategies`, whose mixture reproduces sigma exactly at robustness 0.
    The witness is the dual functional, already positive semidefinite,
    whose value on sigma approaches 1 + robustness while its enumeration
    bound stays near 1.  `raw` is the unclamped robustness.
    """
    problem, strategies = _hidden_state_program(sigma.members, "min")
    return _hidden_state_report(sigma.members, strategies, solve(problem, tol=tol), "min")


def steering_robustness(sigma: Assemblage, tol: float = 1e-9) -> MonotoneReport:
    """Minimal noise admixture that lands inside the LHS set."""
    return robustness_program(sigma, tol=tol)


def _derived_fraction(table: np.ndarray | None, source: MonotoneReport):
    """S_O report (None without a table) and value of a chain's derived table,
    the steerable part or the noise; without one the value is 0 when the
    solve that derives it ended optimal, NaN when it did not."""
    if table is None:
        return None, 0.0 if source.status == "optimal" else float("nan")
    report = _fraction_report(table, tol=1e-9)
    return report, report.value


def _chain_report(proposition: str, terms: dict, solves, steerable: bool,
                  slacks: tuple[float, float], window, slack_tol: float) -> PropositionReport:
    """The report of a chain whose solves' reports are `solves` (None for a
    solve the chain did not need).  A solve that did not end optimal gives
    its status and NaN slacks; an unsteerable assemblage holds when its
    fraction is at most slack_tol, a steerable one when both slacks are at
    least -slack_tol."""
    status = next((r.status for r in solves if r is not None and r.status != "optimal"), None)
    if status is not None:
        nan = float("nan")
        return PropositionReport(proposition, None, terms, nan, nan, False, status=status)
    lower, upper = slacks
    holds = lower >= -slack_tol and upper >= -slack_tol if steerable else terms["fraction"] <= slack_tol
    return PropositionReport(proposition, steerable, terms, lower, upper, holds, window)


def check_proposition_weight(sigma: Assemblage, slack_tol: float = 1e-5) -> PropositionReport:
    """Chain linking the fraction monotone across a weight decomposition.

    With weight w and steerable part sigma^S, the fraction monotone obeys
    value(sigma) <= w * value(sigma^S) <= value(sigma) + 2(1 - w).  When
    value(sigma^S) > 0 the chain also pins w into a closed window.
    """
    so_report = optimal_steering_fraction(sigma)
    sw_report = steerable_weight(sigma)
    so, sw = so_report.value, sw_report.value
    part = sw_report.certificate.get("steerable")
    part_report, so_part = _derived_fraction(part, sw_report)
    if part is None:
        slacks, window = (-so, so + 2.0 * (1.0 - sw)), None
    else:
        slacks = (sw * so_part - so, so + 2.0 * (1.0 - sw) - sw * so_part)
        window = (so / so_part, (2.0 + so) / (2.0 + so_part)) if so_part > 0 else None
    terms = {"fraction": so, "weight": sw, "fraction_of_part": so_part}
    return _chain_report("weight", terms, (so_report, sw_report, part_report), part is not None,
                         slacks, window, slack_tol)


def check_proposition_robustness(sigma: Assemblage, slack_tol: float = 1e-5) -> PropositionReport:
    """Chain linking the fraction monotone across a robustness mixture.

    With robustness r and noise part tau, the chain reads
    r * value(tau) - 2 <= value(sigma) <= r * (value(tau) + 2).  One
    robustness solve gives both r and value(sigma).
    """
    sr_report = robustness_program(sigma)
    so_report = _fraction_from_robustness(sigma.members, sr_report, tol=1e-9)
    so, sr = so_report.value, sr_report.value
    noise = sr_report.certificate.get("noise")
    noise_report, so_noise = _derived_fraction(noise, sr_report)
    # without noise (so_noise = 0) these are so + 2 and 2 r - so, exactly
    slacks = (so - (sr * so_noise - 2.0), sr * (so_noise + 2.0) - so)
    window = (so / (so_noise + 2.0), (so + 2.0) / so_noise) if so_noise > 0 else None
    terms = {"fraction": so, "robustness": sr, "fraction_of_noise": so_noise}
    return _chain_report("robustness", terms, (sr_report, so_report, noise_report),
                         noise is not None, slacks, window, slack_tol)


def monotonicity_audit(
    sigma: Assemblage,
    instruments: list[Instrument1W],
    tol: float = 1e-5,
    threads: int | None = None,
) -> AuditReport:
    """Check that no instrument raises the fraction monotone on average.

    Each instrument contributes one row comparing the weighted average of
    the branch values against the input's value, plus a per-branch check
    that no single branch exceeds the input's unclamped supremum.  The
    robustness programs of the input and its branches are solved in one
    batch per table shape (`sdp.solve_many`), and each value and supremum
    is read off them exactly as `optimal_steering_fraction` reads it, with
    the same fallback.  A table that still has no optimal solve gives a NaN
    value and supremum, and its row fails.

    `threads` does nothing; it is kept, with a DeprecationWarning when
    given, only until the benchmark harness stops passing it.
    """
    if threads is not None:
        warnings.warn("monotonicity_audit ignores `threads`: its solves run as one batch",
                      DeprecationWarning, stacklevel=2)
    branches = [apply_instrument(sigma, ins) for ins in instruments]
    tables = [sigma.members] + [br.members for row in branches for _, br in row]
    by_shape: dict[tuple, list[int]] = {}
    for i, t in enumerate(tables):
        by_shape.setdefault(t.shape, []).append(i)
    outcomes: list = [None] * len(tables)
    for idx in by_shape.values():
        progs = [_hidden_state_program(tables[i], "min") for i in idx]
        sols = solve_many([problem for problem, _ in progs], tol=1e-9)
        for i, (_, strategies), sol in zip(idx, progs, sols):
            sr = _hidden_state_report(tables[i], strategies, sol, "min")
            outcomes[i] = _fraction_from_robustness(tables[i], sr, tol=1e-9)
    base_report, *outcomes = outcomes
    base_sup = base_report.certificate.get("supremum", float("nan"))
    rows = []
    for index, row in enumerate(branches):
        weights = [weight for weight, _ in row]
        mine, outcomes = outcomes[:len(row)], outcomes[len(row):]
        values = [rep.value for rep in mine]
        suprema = [rep.certificate.get("supremum", float("nan")) for rep in mine]
        average = float(np.dot(weights, values))
        rows.append(AuditRow(
            index=index,
            branch_weights=tuple(weights),
            branch_values=tuple(values),
            branch_suprema=tuple(suprema),
            average=average,
            # NaN (a solve that did not end optimal) fails both comparisons
            holds_average=(average <= base_report.value + tol),
            holds_branches=all(s <= base_sup + tol for s in suprema),
        ))
    return AuditReport(
        base_value=base_report.value,
        base_supremum=base_sup,
        rows=tuple(rows),
        tol=tol,
    )
