"""Closed-form criteria: thresholds, bounds, copy-count search, planner."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from steerkit.criteria import (
    EULER_GAMMA,
    KV_CONSTANT,
    amplification_plan,
    bell_sufficient,
    bell_upper_bounds,
    fef_threshold,
    harmonic,
    isotropic_thresholds,
    kappa,
    lvs_upper_povm,
    lvs_upper_projective,
    mub_threshold,
    superactivation_min_copies,
    _FLOAT_DIM_CAP,
    _plan_metrics,
)
from steerkit.functionals import BellFunctional, SteeringFunctional, lv_bell_seesaw, lv_s
from steerkit.games import cglmp_lv_lower, mub, mub_functional
from steerkit.states import fef, isotropic, max_entangled


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_functional(dim: int, settings: int, outcomes: int, seed: int) -> SteeringFunctional:
    g = rng(seed)
    raw = g.normal(size=(settings, outcomes, dim, dim)) + 1j * g.normal(
        size=(settings, outcomes, dim, dim)
    )
    ops = np.einsum("xaij,xakj->xaik", raw, raw.conj()) / dim
    return SteeringFunctional(dim, ops)


class TestHarmonic:
    def test_small_values_exact(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert abs(harmonic(3) - 11 / 6) < 1e-15
        assert abs(harmonic(6) - 2.45) < 1e-15

    def test_cache_matches_direct_sum(self):
        direct = sum(1.0 / i for i in range(1, 1001))
        assert abs(harmonic(1000) - direct) < 1e-12

    def test_asymptotic_continues_the_exact_values(self):
        # one step past the exact range must still satisfy the recurrence
        exact_end = harmonic(1_000_000)
        stepped = exact_end + 1.0 / 1_000_001
        assert abs(harmonic(1_000_001) - stepped) < 1e-12

    def test_asymptotic_leading_term(self):
        d = 10**12
        assert abs(harmonic(d) - (math.log(d) + EULER_GAMMA)) < 1e-12

    def test_within_two_ulp_of_exact_sum(self):
        # both branches: the float sum below d = 64, the series from there
        exact = Fraction(0)
        for d in range(1, 1001):
            exact += Fraction(1, d)
            if d <= 200 or d == 1000:
                err = abs(Fraction(harmonic(d)) - exact)
                assert err <= 2 * Fraction(math.ulp(float(exact))), d

    def test_integers_beyond_float_range(self):
        d = 10**400
        assert abs(harmonic(d) - (math.log(d) + EULER_GAMMA)) < 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            harmonic(0)


class TestIsotropicThresholds:
    def test_qubit_values(self):
        t = isotropic_thresholds(2)
        assert t.h_d == 1.5
        assert abs(t.p_ent - 1 / 3) < 1e-15
        assert t.p_steer == 0.5
        assert abs(t.p_povm - 5 / 12) < 1e-15
        assert t.fef_steer == 0.625

    def test_qutrit_values(self):
        t = isotropic_thresholds(3)
        assert abs(t.p_ent - 0.25) < 1e-15
        assert abs(t.p_steer - 5 / 12) < 1e-15
        assert abs(t.p_povm - 8 / 27) < 1e-15
        assert abs(t.fef_steer - 13 / 27) < 1e-15

    def test_threshold_ordering(self):
        # entanglement comes first, then steerability under general
        # measurements, then under projective ones
        for d in range(2, 200):
            t = isotropic_thresholds(d)
            assert 0.0 < t.p_ent < t.p_povm < t.p_steer < 1.0

    def test_fef_threshold_is_reciprocal_of_projective_bound(self):
        for d in range(2, 1001):
            t = isotropic_thresholds(d)
            assert abs(t.fef_steer * lvs_upper_projective(d) - 1.0) < 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            isotropic_thresholds(1)


class TestLvsUpperBounds:
    def test_projective_small_d(self):
        assert abs(lvs_upper_projective(2) - 1.6) < 1e-15
        assert abs(lvs_upper_projective(3) - 27 / 13) < 1e-15

    def test_povm_small_d(self):
        assert abs(lvs_upper_povm(2) - 16 / 9) < 1e-15

    def test_povm_asymptote(self):
        d = 10**4
        assert abs(lvs_upper_povm(d) / (math.e * d / 3.0) - 1.0) < 1e-2

    def test_projective_envelope(self):
        # the projective bound stays below 1.09 * d / ln d everywhere;
        # the ratio peaks at d = 48
        best, arg = 0.0, None
        for d in range(2, 10_001):
            ratio = lvs_upper_projective(d) * math.log(d) / d
            if ratio > best:
                best, arg = ratio, d
        assert arg == 48
        assert abs(best - 1.0899606490214588) < 1e-12

    def test_povm_dominates_projective(self):
        for d in range(2, 201):
            assert lvs_upper_povm(d) >= lvs_upper_projective(d)

    def test_both_monotone_in_dimension(self):
        proj = [lvs_upper_projective(d) for d in range(2, 101)]
        povm = [lvs_upper_povm(d) for d in range(2, 101)]
        assert all(b > a for a, b in zip(proj, proj[1:]))
        assert all(b > a for a, b in zip(povm, povm[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            lvs_upper_projective(1)
        with pytest.raises(ValueError):
            lvs_upper_povm(0)


class TestFloatRange:
    CLOSED_FORMS = (
        isotropic_thresholds,
        lvs_upper_projective,
        lvs_upper_povm,
        lambda d: superactivation_min_copies(d, 0.9),
    )

    def test_largest_d_is_finite(self):
        for closed_form in self.CLOSED_FORMS:
            assert closed_form(_FLOAT_DIM_CAP) is not None
        t = isotropic_thresholds(_FLOAT_DIM_CAP)
        assert all(math.isfinite(v) and v > 0.0 for v in (t.p_ent, t.p_steer, t.p_povm, t.fef_steer))

    @pytest.mark.parametrize("d", [_FLOAT_DIM_CAP + 1, 10**400])
    def test_larger_d_raises_value_error(self, d):
        for closed_form in self.CLOSED_FORMS:
            with pytest.raises(ValueError, match="d \\* d is a float"):
                closed_form(d)


class TestMubThreshold:
    def test_qubit_three_bases(self):
        expected = (1 + math.sqrt(3)) / (2 * math.sqrt(3))
        assert abs(mub_threshold(2, 3) - expected) < 1e-15

    def test_qutrit_four_bases(self):
        assert abs(mub_threshold(3, 4) - 2 / 3) < 1e-15

    def test_full_family_scales_as_inverse_sqrt_d(self):
        for d in (101, 1009, 10007):
            ratio = mub_threshold(d, d + 1) * math.sqrt(d)
            assert abs(ratio - 1.0) < 0.2

    def test_full_family_closed_form(self):
        # with n = d + 1 bases the second branch is the smaller one
        for d in (2, 3, 5, 7, 11):
            n = d + 1
            second = (math.sqrt(n) + d - 1) / (d * math.sqrt(n))
            assert abs(mub_threshold(d, n) - second) < 1e-15

    def test_matches_functional_threshold(self):
        # the closed form and the variational route agree for the qubit
        # family of all three bases
        func = mub_functional(mub(2, 3))
        assert abs(mub_threshold(2, 3) - fef_threshold(func)) < 1e-6

    def test_invalid(self):
        with pytest.raises(ValueError):
            mub_threshold(1, 2)
        with pytest.raises(ValueError):
            mub_threshold(3, 1)


class TestFefThreshold:
    def test_two_basis_qubit_value(self):
        func = mub_functional(mub(2, 2))
        expected = 1.0 / (4 - 2 * math.sqrt(2))
        assert abs(fef_threshold(func) - expected) < 1e-6

    def test_copy_exponent(self):
        func = mub_functional(mub(2, 3))
        one = fef_threshold(func, copies=1)
        assert abs(fef_threshold(func, copies=2) - one**0.5) < 1e-9
        assert abs(fef_threshold(func, copies=4) - one**0.25) < 1e-9

    def test_more_copies_weaken_the_requirement(self):
        func = mub_functional(mub(2, 2))
        values = [fef_threshold(func, copies=k) for k in (1, 2, 3, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)

    def test_zero_functional_rejected(self):
        zero = SteeringFunctional(2, np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            fef_threshold(zero)

    def test_invalid_copies(self):
        func = mub_functional(mub(2, 2))
        with pytest.raises(ValueError):
            fef_threshold(func, copies=0)


class TestBellSufficient:
    def test_cglmp_qubit_value(self):
        got = bell_sufficient(2, "cglmp")
        assert abs(got.threshold - 3 / (2 + math.sqrt(2))) < 1e-12
        assert not got.vacuous

    def test_cglmp_matches_reciprocal(self):
        for d in (2, 3, 5, 10):
            got = bell_sufficient(d, "cglmp")
            assert abs(got.threshold - 1.0 / cglmp_lv_lower(d)) < 1e-15

    def test_cglmp_never_vacuous_and_decreasing(self):
        values = [bell_sufficient(d, "cglmp").threshold for d in range(2, 30)]
        assert all(v < 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_kv_crossover_dimension(self):
        # the coset-game threshold drops below 1 exactly at d = 2^10
        for m in range(1, 13):
            got = bell_sufficient(2**m, "kv")
            expected = math.exp(4.0) / 4.0 * (m * math.log(2.0)) ** 2 / 2**m
            assert abs(got.threshold - expected) < 1e-12
            assert got.vacuous == (m < 10)
        assert abs(bell_sufficient(2**10, "kv").threshold - 0.6404) < 5e-4

    def test_kv_beats_cglmp_at_large_power_of_two(self):
        d = 2**10
        assert bell_sufficient(d, "kv").threshold < bell_sufficient(d, "cglmp").threshold

    def test_invalid(self):
        with pytest.raises(ValueError):
            bell_sufficient(12, "kv")
        with pytest.raises(ValueError):
            bell_sufficient(2, "chsh")
        with pytest.raises(ValueError):
            bell_sufficient(1, "cglmp")

    def test_cglmp_past_its_cap_is_refused(self):
        with pytest.raises(ValueError, match="d <= 10,000,000"):
            bell_sufficient(10**15, "cglmp")


class TestBellUpperBounds:
    def test_qubit_values(self):
        got = bell_upper_bounds(2)
        assert abs(got.projective - 1.6) < 1e-15
        assert abs(got.povm - 16 / 9) < 1e-15
        assert abs(got.qubit_grothendieck - 4 * 1.4172 / (3 + 1.5163)) < 1e-15
        assert abs(got.qubit_grothendieck_worst_case - 4 * 1.5163 / (3 + 1.5163)) < 1e-15

    def test_grothendieck_refines_the_projective_bound(self):
        got = bell_upper_bounds(2)
        assert got.qubit_grothendieck < got.qubit_grothendieck_worst_case
        assert got.qubit_grothendieck_worst_case < got.projective

    def test_absent_away_from_qubits(self):
        got = bell_upper_bounds(3)
        assert got.qubit_grothendieck is None
        assert got.qubit_grothendieck_worst_case is None
        assert abs(got.projective - 27 / 13) < 1e-15


class TestKappa:
    def test_qubit_value(self):
        assert abs(kappa(2) - 0.3) < 1e-15

    def test_increasing_and_below_one(self):
        values = [kappa(d) for d in range(2, 1001)]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_limit(self):
        assert kappa(10**8) > 0.9999
        assert kappa(10**18) == 1.0

    def test_marks_the_projective_steering_threshold(self):
        # epsilon = kappa(d) is exactly the violation level whose planner
        # mixing parameter sits on the projective steering threshold
        for d in (2, 3, 5, 17):
            t = isotropic_thresholds(d)
            p_at_kappa = kappa(d) / (lvs_upper_projective(d) - 1.0)
            assert abs(p_at_kappa - t.p_steer) < 1e-12
            above = 1.01 * kappa(d) / (lvs_upper_projective(d) - 1.0)
            assert above > t.p_steer

    def test_invalid(self):
        with pytest.raises(ValueError):
            kappa(1)


class TestSuperactivation:
    def test_known_case(self):
        got = superactivation_min_copies(5, 0.25)
        assert got.status == "superactivated"
        assert got.copies == 32
        assert got.bound is not None and got.bound > 1.0

    def test_bound_matches_direct_evaluation_and_is_minimal(self):
        got = superactivation_min_copies(5, 0.25)
        growth = got.fidelity * 5

        def direct(k: int) -> float:
            return KV_CONSTANT * growth**k / (k * math.log(5)) ** 2

        assert abs(got.bound - direct(got.copies)) < 1e-9
        assert direct(got.copies - 1) <= 1.0

    def test_pure_state_qubit(self):
        got = superactivation_min_copies(2, 1.0)
        assert got.copies == 10
        assert abs(got.fidelity - 1.0) < 1e-15

    def test_fidelity_matches_the_state_module(self):
        got = superactivation_min_copies(5, 0.25)
        assert abs(got.fidelity - fef(isotropic(5, 0.25)).value) < 1e-12

    def test_copies_decrease_with_mixing_parameter(self):
        counts = [
            superactivation_min_copies(5, p).copies for p in (0.18, 0.2, 0.25, 0.4, 0.7, 1.0)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_impossible_below_entanglement_threshold(self):
        for p in (0.0, 0.1, 1 / 6):
            got = superactivation_min_copies(5, p)
            assert got.status == "impossible-by-criterion"
            assert got.copies is None
            assert got.bound is None

    def test_inconclusive_near_threshold(self):
        # just above the entanglement threshold the estimate grows too
        # slowly to cross 1 within the copy cap
        with pytest.raises(RuntimeError, match="inconclusive"):
            superactivation_min_copies(2, 1 / 3 + 1e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            superactivation_min_copies(1, 0.5)
        with pytest.raises(ValueError):
            superactivation_min_copies(2, 1.2)
        with pytest.raises(ValueError):
            superactivation_min_copies(2, -0.1)


def _float_metrics(d: int, epsilon: float, k: int) -> tuple[float, float]:
    """The planner quantities evaluated directly in floats, where d^2 still fits."""
    df = float(d)
    h = harmonic(d)
    p = epsilon / (df * df / (h + h * df - df) - 1.0)
    bracket = epsilon * (h - 1.0) / (df - h) + (1.0 + epsilon) / (df * df)
    log_bound = math.log(KV_CONSTANT) + k * math.log(df) - 2.0 * math.log(k * math.log(df)) + k * math.log(bracket)
    return log_bound, math.log(p)


def _decimal_metrics(epsilons, k: int, d_max: int):
    """(d, epsilon, feasible, ln bound, ln p) for d = 2..d_max at 60 digits,
    from the exact harmonic sum."""
    with localcontext() as ctx:
        ctx.prec = 60
        eps_ln = [(eps, Decimal(eps), Decimal(eps).ln()) for eps in epsilons]
        log_c = Decimal(4).ln() - 4
        h = Fraction(1)
        for d in range(2, d_max + 1):
            h += Fraction(1, d)
            hd = Decimal(h.numerator) / Decimal(h.denominator)
            dd = Decimal(d)
            u1 = dd * dd / (hd * (1 + dd) - dd) - 1  # p = eps/u1
            log_u1 = u1.ln()
            log_d = dd.ln()
            log_fixed = log_c + k * log_d - 2 * (k * log_d).ln()
            slope, inv_d2 = (hd - 1) / (dd - hd), 1 / (dd * dd)
            for eps, e, log_e in eps_ln:
                log_bound = log_fixed + k * (e * slope + (1 + e) * inv_d2).ln()
                # feasible: 1/(d + 1) < p <= 1
                yield d, eps, u1 < e * (dd + 1) and e <= u1, log_bound, log_e - log_u1


class TestAmplificationPlan:
    def test_easy_target_small_dimension(self):
        plan = amplification_plan(0.5, 1e-8, 3)
        assert plan.d == 2
        assert abs(plan.p - 5 / 6) < 1e-12
        assert plan.single_copy_bound == 1.5
        assert plan.bound > 1e-8
        # 0.5 exceeds kappa(2) = 0.3, so the single-copy state is
        # projectively steerable here
        assert not plan.unsteerable_projective

    def test_large_target_returns_exact_huge_dimension(self):
        plan = amplification_plan(0.5, 10.0, 3)
        assert isinstance(plan.d, int)
        log_d = math.log(plan.d)
        assert abs(log_d - 9828.935304390448) < 1e-6
        assert plan.log_bound > math.log(10.0)
        assert abs(plan.bound - 10.0) < 1e-6
        # the mixing parameter underflows floats but its log is carried
        assert plan.p == 0.0
        assert abs(plan.log_p - (-9820.43540868976)) < 1e-6
        assert plan.kappa_d == 1.0
        assert plan.unsteerable_projective

    def test_minimality(self):
        plan = amplification_plan(0.5, 10.0, 3)
        log_delta = math.log(10.0)
        ok, log_bound, _ = _plan_metrics(plan.d, 0.5, 3)
        assert ok and log_bound > log_delta
        ok_below, log_bound_below, _ = _plan_metrics(plan.d - 1, 0.5, 3)
        assert not (ok_below and log_bound_below > log_delta)

    def test_bound_keeps_growing_past_the_crossing(self):
        plan = amplification_plan(0.5, 10.0, 3)
        _, here, _ = _plan_metrics(plan.d, 0.5, 3)
        _, doubled, _ = _plan_metrics(2 * plan.d, 0.5, 3)
        _, quadrupled, _ = _plan_metrics(4 * plan.d, 0.5, 3)
        assert here < doubled < quadrupled

    def test_float_and_log_space_routes_agree(self):
        # the metrics are evaluated in log space for every d; where floats
        # still work, the direct float formulas must give the same values
        for d in (10**6, 2**100, 2**430):
            _, log_bound, log_p = _plan_metrics(d, 0.5, 3)
            oracle_bound, oracle_p = _float_metrics(d, 0.5, 3)
            assert abs(log_bound - oracle_bound) < 1e-9 * max(1.0, abs(oracle_bound))
            assert abs(log_p - oracle_p) < 1e-9 * max(1.0, abs(oracle_p))

    def test_metrics_match_sixty_digit_arithmetic(self):
        # small d included: the same log-space formulas serve every d
        for d, eps, feasible, log_bound, log_p in _decimal_metrics(
            (1e-30, 0.05, 0.5, 0.6, 5.0, 100.0), 3, 5000
        ):
            ok, got_bound, got_p = _plan_metrics(d, eps, 3)
            assert abs(got_p - float(log_p)) <= 1e-13 * max(1.0, abs(float(log_p))), (d, eps)
            assert abs(got_bound - float(log_bound)) <= 1e-13 * max(1.0, abs(float(log_bound))), (d, eps)
            assert ok == feasible, (d, eps)

    def test_tiny_epsilon_runs_to_the_search_cap(self):
        # p = eps/(U - 1) stays below the entanglement threshold until
        # H_d reaches about 1/eps, far past ln d = 3e4
        with pytest.raises(RuntimeError, match="search cap"):
            amplification_plan(1e-300, 3.0, 3)

    def test_bracket_equals_the_mixture_fidelity(self):
        # the stable bracket rewrite must equal p + (1 - p)/d^2 at the
        # planner's mixing parameter
        for d in (2, 5, 50, 1000):
            for epsilon in (0.1, 0.3, 0.5):
                h = harmonic(d)
                p = epsilon / (lvs_upper_projective(d) - 1.0)
                if p > 1.0:
                    continue
                bracket = epsilon * (h - 1.0) / (d - h) + (1.0 + epsilon) / d**2
                fidelity = p + (1.0 - p) / d**2
                assert abs(bracket - fidelity) < 1e-12

    def test_feasibility_invariants(self):
        for epsilon, delta in ((0.3, 2.0), (0.5, 1e-8), (1.0, 5.0)):
            plan = amplification_plan(epsilon, delta, 3)
            ok, log_bound, log_p = _plan_metrics(plan.d, epsilon, 3)
            assert ok
            assert log_bound > math.log(delta)
            assert log_p <= 0.0
            t = isotropic_thresholds(plan.d) if plan.d <= 10**6 else None
            if t is not None:
                assert math.exp(log_p) > t.p_ent

    def test_kappa_consistency(self):
        # a plan whose epsilon stays below kappa keeps the single-copy
        # state projectively unsteerable
        plan = amplification_plan(0.25, 2.0, 3)
        assert plan.unsteerable_projective == (plan.epsilon <= plan.kappa_d)

    def test_more_copies_shrink_the_dimension(self):
        d3 = amplification_plan(0.5, 10.0, 3).d
        d4 = amplification_plan(0.5, 10.0, 4).d
        d5 = amplification_plan(0.5, 10.0, 5).d
        assert d3 > d4 > d5

    def test_invalid(self):
        with pytest.raises(ValueError):
            amplification_plan(0.0, 10.0, 3)
        with pytest.raises(ValueError):
            amplification_plan(0.5, -1.0, 3)
        with pytest.raises(ValueError):
            amplification_plan(0.5, 10.0, 2)

    @pytest.mark.parametrize("epsilon, delta", [
        (math.nan, 3.0), (0.5, math.nan), (math.inf, 3.0), (0.5, math.inf),
    ])
    def test_non_finite_targets_refused_before_the_search(self, epsilon, delta):
        with pytest.raises(ValueError, match="finite"):
            amplification_plan(epsilon, delta, 3)


class TestBoundsAreRespected:
    def test_random_functionals_respect_projective_bound(self):
        # adversarial check of the closed-form ceiling: no functional may
        # push the maximally entangled qubit state past it
        rho = max_entangled(2)
        ceiling = lvs_upper_projective(2)
        for seed in range(5):
            func = random_functional(2, 2, 2, seed)
            assert lv_s(rho, func).value <= ceiling + 1e-6

    def test_random_bell_tables_respect_povm_bound(self):
        rho = max_entangled(2)
        ceiling = lvs_upper_povm(2)
        for seed in range(3):
            table = rng(seed).random((2, 2, 2, 2))
            got = lv_bell_seesaw(rho, BellFunctional(table), restarts=2, seed=seed)
            assert got.value <= ceiling + 1e-9
