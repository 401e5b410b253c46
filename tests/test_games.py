"""Game generators: coset game, d-outcome inequality, unbiased bases."""

import itertools

import numpy as np
import pytest

from steerkit.functionals import (
    correlation_from,
    induced_functional,
    local_bound,
    lv_bell_seesaw,
    lv_s,
    nonlocality_fraction,
    steering_bound,
    steering_fraction,
)
from steerkit.assemblages import MeasurementFamily, steer
from steerkit.games import (
    KV_MAX_OUTCOMES,
    MUB_MAX_DIM,
    KvGame,
    MubFamily,
    cglmp,
    cglmp_lv_lower,
    kv_fraction,
    kv_game,
    kv_measurements,
    mub,
    mub_functional,
)
from steerkit.states import max_entangled

SQRT2 = np.sqrt(2.0)


def popcount(v):
    return bin(v).count("1")


def subgroup_of(game: KvGame):
    # the coset containing 0 is the subgroup itself
    for coset in game.cosets:
        if 0 in coset:
            return coset
    raise AssertionError("no coset contains the identity")


def kv_loop_reference(n, eta):
    """The coset game built string by string, as steerkit once did: the
    cosets, the coefficient table summed over noise strings, and the
    sign-vector bases."""
    subgroup = []
    for i in range(n):
        subgroup.append(sum(1 << j for j in range(n) if popcount(i & j) & 1))
    cosets, seen = [], set()
    for v in range(2**n):
        if v not in seen:
            coset = tuple(sorted(v ^ h for h in subgroup))
            seen.update(coset)
            cosets.append(coset)
    position = {u: (x, i) for x, coset in enumerate(cosets) for i, u in enumerate(coset)}
    if eta is None:
        eta = 0.5 - 1.0 / np.log(n)
    by_weight = [eta**w * (1.0 - eta) ** (n - w) for w in range(n + 1)]
    scale = n / float(2**n)
    coeffs = np.zeros((len(cosets), len(cosets), n, n))
    for x, coset in enumerate(cosets):
        for ai, a in enumerate(coset):
            for g in range(2**n):
                y, bi = position[a ^ g]
                coeffs[x, y, ai, bi] += scale * by_weight[popcount(g)]
    bases = []
    for coset in cosets:
        basis = np.empty((n, n), dtype=complex)
        for idx, a in enumerate(coset):
            signs = [1.0 if (a >> i) & 1 == 0 else -1.0 for i in range(n)]
            basis[:, idx] = np.array(signs) / np.sqrt(n)
        bases.append(basis)
    return tuple(cosets), coeffs, MeasurementFamily.from_bases(bases)


KV_CASES = [(2, 0.25), (2, 0.1), (4, 0.25), (4, 0.1), (8, 0.25), (8, 0.1), (8, None)]


class TestKvLoopReference:
    @pytest.mark.parametrize("n,eta", KV_CASES)
    def test_game_and_bases_match_bit_for_bit(self, n, eta):
        cosets, coeffs, fam = kv_loop_reference(n, eta)
        game = kv_game(n, eta)
        assert game.cosets == cosets
        assert all(type(u) is int for coset in game.cosets for u in coset)
        assert game.coefficients.coefficients.tobytes() == coeffs.tobytes()
        assert kv_measurements(n).effects.tobytes() == fam.effects.tobytes()

    def test_fraction_value_matches_exactly(self):
        # the sum runs in the table's memory order, so a table laid out
        # in another order changes the last digits of the value
        _, coeffs, fam = kv_loop_reference(8, None)
        corr = correlation_from(max_entangled(8), fam, fam)
        assert kv_fraction(8).value == float(np.sum(coeffs * corr.table))


class TestKvGroupStructure:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_subgroup_axioms(self, n):
        h = subgroup_of(kv_game(n, 0.25))
        assert len(set(h)) == n
        assert 0 in h
        for u in h:
            for v in h:
                assert u ^ v in h
        # nonzero members are balanced bit strings
        for u in h:
            if u:
                assert popcount(u) == n // 2

    def test_two_outcome_subgroup_is_spec_pair(self):
        # with bit j of codeword i equal to parity(i & j), the two
        # codewords are 00 and 01 (position 0 first), i.e. 0 and 2
        assert subgroup_of(kv_game(2, 0.25)) == (0, 2)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_cosets_partition_the_group(self, n):
        game = kv_game(n, 0.1)
        assert len(game.cosets) == 2**n // n
        everything = [u for coset in game.cosets for u in coset]
        assert sorted(everything) == list(range(2**n))
        for coset in game.cosets:
            assert list(coset) == sorted(coset)
        reps = [coset[0] for coset in game.cosets]
        assert reps == sorted(reps)


class TestKvCoefficients:
    @pytest.mark.parametrize("n,eta", [(2, 0.25), (4, 0.25), (8, 0.0191)])
    def test_matches_collapsed_formula(self, n, eta):
        # for fixed outcomes a, b only the noise string g = a xor b
        # survives the deltas, and the coset condition is then automatic
        game = kv_game(n, eta)
        m = 2**n // n
        expected = np.zeros((m, m, n, n))
        for x, cx in enumerate(game.cosets):
            for y, cy in enumerate(game.cosets):
                for ai, a in enumerate(cx):
                    for bi, b in enumerate(cy):
                        w = popcount(a ^ b)
                        expected[x, y, ai, bi] = (
                            n / 2**n * eta**w * (1 - eta) ** (n - w)
                        )
        assert np.max(np.abs(game.coefficients.coefficients - expected)) <= 1e-15

    def test_diagonal_entry_by_direct_summation(self):
        n, eta = 4, 0.25
        game = kv_game(n, eta)
        x, a = 1, 2
        total = 0.0
        cx = game.cosets[x]
        elem_a = cx[a]
        for g in range(2**n):
            if elem_a ^ g == elem_a:  # same outcome forces g = 0
                total += n / 2**n * eta ** popcount(g) * (1 - eta) ** (n - popcount(g))
        assert abs(game.coefficients.coefficients[x, x, a, a] - total) <= 1e-15

    @pytest.mark.parametrize("n", [2, 4])
    def test_row_mass_is_constant(self, n):
        game = kv_game(n, 0.3)
        sums = game.coefficients.coefficients.sum(axis=(1, 3))
        assert np.max(np.abs(sums - n / 2**n)) <= 1e-12
        assert abs(game.coefficients.coefficients.sum() - n) <= 1e-10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="power of 2"):
            kv_game(6, 0.25)
        with pytest.raises(ValueError, match="power of 2"):
            kv_game(1, 0.25)
        with pytest.raises(ValueError, match="eta"):
            kv_game(2, 0.75)
        with pytest.raises(ValueError, match="eta"):
            kv_game(2, -0.1)
        for build in (lambda: kv_game(4), lambda: kv_fraction(4)):
            with pytest.raises(ValueError, match="n >= 8; pass eta"):
                build()

    @pytest.mark.parametrize("n", [16, 64])
    def test_outcome_cap_is_checked_first(self, n):
        for build in (lambda: kv_game(n, 0.25), lambda: kv_measurements(n), lambda: kv_fraction(n, 0.25)):
            with pytest.raises(ValueError, match=f"capped at n <= {KV_MAX_OUTCOMES}"):
                build()

    def test_default_bias_for_large_games(self):
        game = kv_game(8)
        assert abs(game.eta - (0.5 - 1.0 / np.log(8))) <= 1e-15


class TestKvMeasurements:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_bases_orthonormal(self, n):
        fam = kv_measurements(n)
        assert fam.settings == 2**n // n
        assert fam.outcomes == n and fam.dim == n
        game = kv_game(n, 0.25)
        for x, coset in enumerate(game.cosets):
            vecs = np.array(
                [[1.0 if (a >> i) & 1 == 0 else -1.0 for i in range(n)] for a in coset]
            ) / np.sqrt(n)
            gram = vecs @ vecs.T
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
            # the family's projectors are exactly these vectors' outer products
            for ai, v in enumerate(vecs):
                assert np.allclose(fam.effects[x, ai], np.outer(v, v), atol=1e-12)

    def test_sign_vectors_cover_group_exactly_twice(self):
        # complementary bit strings give opposite vectors, so the 2^n
        # projectors pair up; the all-ones string is never a codeword, so
        # the two copies always sit in different cosets
        from collections import Counter

        n = 8
        fam = kv_measurements(n)
        counts = Counter()
        for x in range(fam.settings):
            for a in range(n):
                diag = np.diagonal(fam.effects[x, a]).real * n
                assert np.allclose(diag, 1.0, atol=1e-12)
                # the first projector row recovers the sign pattern,
                # normalized to a + sign on entry 0
                signs = tuple(
                    int(round(s)) for s in np.sign(fam.effects[x, a, 0, :].real * n)
                )
                counts[signs] += 1
        assert len(counts) == 2 ** (n - 1)
        assert all(c == 2 for c in counts.values())

    def test_two_outcome_bases_explicit(self):
        fam = kv_measurements(2)
        plus = np.array([1.0, 1.0]) / SQRT2
        minus = np.array([1.0, -1.0]) / SQRT2
        assert np.allclose(fam.effects[0, 0], np.outer(plus, plus), atol=1e-12)
        assert np.allclose(fam.effects[0, 1], np.outer(minus, minus), atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of 2"):
            kv_measurements(3)


class TestKvFraction:
    @pytest.mark.parametrize(
        "n,eta", [(2, 0.0), (2, 0.2), (2, 0.5), (4, 0.1), (4, 0.25)]
    )
    def test_value_matches_binomial_moment(self, n, eta):
        # the game value on the maximally entangled state reduces to the
        # second moment of the per-bit noise: (1-2 eta)^2 + 4 eta(1-eta)/n
        fr = kv_fraction(n, eta)
        closed = (1 - 2 * eta) ** 2 + 4 * eta * (1 - eta) / n
        assert abs(fr.value - closed) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_exact_local_value_respects_analytic_bound(self, n):
        for eta in (0.0, 0.15, 0.3, 0.45):
            fr = kv_fraction(n, eta)
            assert fr.local_value is not None
            assert fr.local_value <= fr.local_bound_analytic + 1e-12
            assert fr.fraction == pytest.approx(fr.value / fr.local_value)
            assert fr.fraction_lower <= fr.fraction + 1e-12

    def test_large_game_reports_bound_only(self):
        fr = kv_fraction(8)
        assert fr.local_value is None and fr.fraction is None
        assert fr.fraction_lower > 0.0
        assert abs(fr.eta - (0.5 - 1.0 / np.log(8))) <= 1e-15
        closed = (1 - 2 * fr.eta) ** 2 + 4 * fr.eta * (1 - fr.eta) / 8
        assert abs(fr.value - closed) <= 1e-12

    def test_fraction_bounded_by_steering_fraction(self):
        n, eta = 2, 0.2
        game = kv_game(n, eta)
        fam = kv_measurements(n)
        rho = max_entangled(n)
        func = induced_functional(game.coefficients, fam)
        sig = steer(rho, fam)
        frac_steer = steering_fraction(sig, func)
        fr = kv_fraction(n, eta)
        assert abs(frac_steer.numerator - fr.value) <= 1e-10
        assert fr.fraction <= frac_steer.value + 1e-9


class TestCglmp:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_local_bound_is_six(self, d):
        assert abs(local_bound(cglmp(d)).value - 6.0) <= 1e-12

    def test_frozen_entries(self):
        c = cglmp(3).coefficients
        assert c[0, 0, 0, 0] == pytest.approx(2.0)  # b >= a, x+y=0
        assert c[0, 0, 2, 0] == pytest.approx(1.0)  # b < a, x+y=0
        assert c[0, 1, 0, 2] == pytest.approx(1.0)  # b > a, x+y=1
        assert c[1, 0, 1, 1] == pytest.approx(2.0)  # b <= a, x+y=1
        assert c[1, 1, 0, 1] == pytest.approx(2.0)  # b > a, x+y=2
        assert c[1, 1, 2, 0] == pytest.approx(2.0)  # b <= a, x+y=2

    def test_first_branch_formula(self):
        d = 4
        c = cglmp(d).coefficients
        for a in range(d):
            for b in range(a, d):
                assert c[0, 0, a, b] == pytest.approx(2.0 + 2.0 * (a - b) / (d - 1))

    @pytest.mark.parametrize("d", [2, 3, 7, 64])
    def test_table_matches_cell_by_cell_reference(self, d):
        ref = np.zeros((2, 2, d, d))
        for x, y, a, b in itertools.product(range(2), range(2), range(d), range(d)):
            s = x + y
            if s == 0:
                val = 2.0 + 2.0 * (a - b) / (d - 1) if b >= a else 2.0 * (a - b - 1) / (d - 1)
            elif s == 1:
                val = 2.0 * (b - a - 1) / (d - 1) if b > a else 2.0 + 2.0 * (b - a) / (d - 1)
            else:
                val = 2.0 - 2.0 * (b - a - 1) / (d - 1) if b > a else 2.0 * (a - b) / (d - 1)
            ref[x, y, a, b] = val
        assert cglmp(d).coefficients.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_coefficients_nonnegative(self, d):
        assert cglmp(d).coefficients.min() >= 0.0

    def test_rejects_single_outcome(self):
        with pytest.raises(ValueError):
            cglmp(1)

    @pytest.mark.parametrize("d", [1001, 10**15])
    def test_refuses_d_past_the_cap(self, d):
        with pytest.raises(ValueError, match="d <= 1000"):
            cglmp(d)


class TestCglmpLvLower:
    def test_two_outcome_closed_form(self):
        assert abs(cglmp_lv_lower(2) - (2.0 + SQRT2) / 3.0) <= 1e-12

    def test_grows_with_dimension(self):
        values = [cglmp_lv_lower(d) for d in (2, 3, 10, 100, 1000)]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))

    def test_asymptotic_threshold(self):
        assert abs(1.0 / cglmp_lv_lower(10**6) - 0.8611) <= 5e-4

    @pytest.mark.parametrize("d", [10**7 + 1, 10**15])
    def test_refuses_d_past_the_cap(self, d):
        with pytest.raises(ValueError, match="d <= 10,000,000"):
            cglmp_lv_lower(d)

    def test_seesaw_reaches_two_outcome_value(self):
        res = lv_bell_seesaw(max_entangled(2), cglmp(2), restarts=3, seed=0)
        assert res.value >= cglmp_lv_lower(2) - 1e-4


class TestMub:
    @pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (5, 6), (7, 8)])
    def test_families_are_unbiased(self, d, n):
        fam = mub(d, n)
        assert fam.vectors.shape == (n, d, d)
        for x in range(n):
            for y in range(x + 1, n):
                cross = np.abs(fam.vectors[x].conj().T @ fam.vectors[y]) ** 2
                assert np.max(np.abs(cross - 1.0 / d)) <= 1e-9

    def test_qubit_family_are_pauli_eigenbases(self):
        fam = mub(2, 3)
        assert np.allclose(fam.vectors[0], np.eye(2), atol=1e-12)
        x_basis = np.array([[1, 1], [1, -1]]) / SQRT2
        assert np.allclose(fam.vectors[1], x_basis, atol=1e-12)
        y_basis = np.array([[1, 1], [1j, -1j]]) / SQRT2
        assert np.allclose(fam.vectors[2], y_basis, atol=1e-12)

    def test_rejects_composite_dimension(self):
        with pytest.raises(ValueError, match="prime dimensions only"):
            mub(4, 2)

    def test_rejects_dimension_past_the_cap(self):
        # checked before primality, which would trial-divide up to sqrt(d)
        with pytest.raises(ValueError, match=f"d <= {MUB_MAX_DIM}"):
            mub(10**30 + 57, 2)

    @pytest.mark.parametrize("order, pair", [((0, 1, 0), "0 and 2"), ((0, 1, 1), "1 and 2")])
    def test_first_biased_pair_is_named(self, order, pair):
        vectors = mub(3, 2).vectors[list(order)]
        with pytest.raises(ValueError, match=f"bases {pair} are not mutually unbiased"):
            MubFamily(3, vectors)

    def test_rejects_too_many_bases(self):
        with pytest.raises(ValueError, match="basis count"):
            mub(3, 5)

    def test_measurement_family_round_trip(self):
        fam = mub(3, 2)
        meas = fam.to_measurements()
        assert meas.settings == 2 and meas.outcomes == 3 and meas.dim == 3


class TestMubFunctional:
    def test_operators_are_idempotent_projectors(self):
        func = mub_functional(mub(2, 3))
        for op in func.operators.reshape(-1, 2, 2):
            assert np.max(np.abs(op @ op - op)) <= 1e-12

    def test_two_basis_steering_bound(self):
        func = mub_functional(mub(2, 2))
        assert abs(steering_bound(func).value - (1.0 + 1.0 / SQRT2)) <= 1e-9

    def test_three_basis_violation(self):
        func = mub_functional(mub(2, 3))
        res = lv_s(max_entangled(2), func)
        target = 2.0 * np.sqrt(3.0) / (np.sqrt(3.0) + 1.0)
        assert res.value >= target - 1e-6
