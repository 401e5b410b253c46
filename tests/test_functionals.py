"""Bell and steering functionals, bounds, fractions, and optimizers."""

import itertools
import re

import numpy as np
import pytest

from steerkit.assemblages import MeasurementFamily, steer
from steerkit.functionals import (
    BellFunctional,
    Correlation,
    SteeringFunctional,
    best_rotated_fraction,
    correlation_from,
    induced_functional,
    local_bound,
    lv_bell_seesaw,
    lv_s,
    nonlocality_fraction,
    shift_nonnegative,
    steering_bound,
    steering_bound_sdp,
    steering_fraction,
)
from steerkit.games import cglmp, cglmp_lv_lower, mub, mub_functional
from steerkit.states import (
    DensityMatrix,
    isotropic,
    max_entangled,
    random_density_matrix,
    twirl,
)

SQRT2 = np.sqrt(2.0)


def rng(seed=0):
    return np.random.default_rng(seed)


def zx_family():
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
    return MeasurementFamily.from_bases([z, x])


def zxy_family():
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
    y = np.array([[1, 1], [1j, -1j]], dtype=complex) / SQRT2
    return MeasurementFamily.from_bases([z, x, y])


def mub2_functional():
    return SteeringFunctional(2, zx_family().effects)


def chsh_winning_form():
    """Game coefficients awarding 1 when a xor b equals x and y."""
    c = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if a ^ b == x * y:
            c[x, y, a, b] = 1.0
    return BellFunctional(c)


def random_functional(d, m, o, gen):
    raw = gen.standard_normal((m, o, d, d)) + 1j * gen.standard_normal((m, o, d, d))
    ops = np.einsum("xaij,xakj->xaik", raw, raw.conj()) / d
    return SteeringFunctional(d, ops)


def brute_local_bound(c):
    ma, mb, oa, ob = c.shape
    best = -np.inf
    for sa in itertools.product(range(oa), repeat=ma):
        for sb in itertools.product(range(ob), repeat=mb):
            val = sum(c[x, y, sa[x], sb[y]] for x in range(ma) for y in range(mb))
            best = max(best, val)
    return best


class TestShiftNonnegative:
    def test_negative_coefficients_rejected_directly(self):
        c = np.zeros((1, 1, 2, 2))
        c[0, 0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            BellFunctional(c)

    def test_shift_preserves_fraction_ordering(self):
        gen = rng(0)
        c = gen.standard_normal((2, 2, 2, 2))
        bell, offset = shift_nonnegative(c)
        assert bell.coefficients.min() >= 0.0
        assert offset >= 0.0
        # shifted value on any normalized correlation gains exactly offset
        t = gen.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        # make it a product of marginals so it is non-signalling
        pa = gen.dirichlet(np.ones(2), size=2)
        pb = gen.dirichlet(np.ones(2), size=2)
        t = np.einsum("xa,yb->xyab", pa, pb)
        corr = Correlation(t)
        raw_value = float(np.sum(c * corr.table))
        new_value = float(np.sum(bell.coefficients * corr.table))
        assert abs(new_value - raw_value - offset) <= 1e-12


class TestLocalBound:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        c = np.array(chsh_winning_form().coefficients)
        c[1, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            BellFunctional(c)

    def test_constant_coefficients(self):
        bell = BellFunctional(np.full((3, 2, 2, 4), 0.7))
        assert abs(local_bound(bell).value - 0.7 * 3 * 2) <= 1e-12

    def test_chsh_winning_form_is_three(self):
        lb = local_bound(chsh_winning_form())
        assert abs(lb.value - 3.0) <= 1e-12

    def test_matches_exhaustive_enumeration(self):
        gen = rng(1)
        for _ in range(10):
            ma, mb = int(gen.integers(1, 4)), int(gen.integers(1, 4))
            oa, ob = int(gen.integers(2, 4)), int(gen.integers(2, 4))
            c = gen.random((ma, mb, oa, ob))
            bell = BellFunctional(c)
            lb = local_bound(bell)
            assert abs(lb.value - brute_local_bound(c)) <= 1e-12
            # the reported strategies achieve the reported value
            achieved = sum(
                c[x, y, lb.alice_strategy[x], lb.bob_strategy[y]]
                for x in range(ma)
                for y in range(mb)
            )
            assert abs(achieved - lb.value) <= 1e-12

    def test_enumeration_cap(self):
        bell = BellFunctional(np.zeros((13, 13, 2, 2)))
        with pytest.raises(ValueError, match="cap"):
            local_bound(bell)


class TestSteeringBound:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        ops = mub2_functional().operators.copy()
        ops[0, 1, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            SteeringFunctional(2, ops)

    def test_two_mub_value(self):
        sb = steering_bound(mub2_functional())
        assert abs(sb.value - (1.0 + 1.0 / SQRT2)) <= 1e-12

    def test_single_setting_projectors(self):
        gen = rng(2)
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3)))
        fam = MeasurementFamily.from_bases([q])
        sb = steering_bound(SteeringFunctional(3, fam.effects))
        assert abs(sb.value - 1.0) <= 1e-12

    def test_positive_homogeneity(self):
        gen = rng(3)
        func = random_functional(2, 2, 2, gen)
        scaled = SteeringFunctional(2, 2.5 * func.operators)
        assert abs(steering_bound(scaled).value - 2.5 * steering_bound(func).value) <= 1e-10

    def test_strategy_achieves_value(self):
        gen = rng(4)
        func = random_functional(3, 2, 3, gen)
        sb = steering_bound(func)
        summed = sum(func.operators[x, sb.strategy[x]] for x in range(2))
        top = float(np.linalg.eigvalsh(summed)[-1])
        assert abs(top - sb.value) <= 1e-12
        quad = float((sb.eigenvector.conj() @ summed @ sb.eigenvector).real)
        assert abs(quad - sb.value) <= 1e-10

    def test_agrees_with_conic_formulation(self):
        gen = rng(5)
        for _ in range(10):
            d = int(gen.integers(2, 4))
            m = int(gen.integers(1, 4))
            o = int(gen.integers(2, 4))
            func = random_functional(d, m, o, gen)
            enum = steering_bound(func).value
            sdp = steering_bound_sdp(func)
            assert abs(enum - sdp) <= 1e-6

    def test_enumeration_cap(self):
        func = SteeringFunctional(1, np.zeros((21, 2, 1, 1)))
        with pytest.raises(ValueError, match="cap"):
            steering_bound(func)


class TestCorrelation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_rejected(self, bad):
        fam = MeasurementFamily.from_bases([np.eye(2, dtype=complex)])
        table = np.array(correlation_from(max_entangled(2), fam, fam).table)
        table[0, 0, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Correlation(table)

    def test_max_entangled_z_measurements_correlate(self):
        fam = MeasurementFamily.from_bases([np.eye(2, dtype=complex)])
        corr = correlation_from(max_entangled(2), fam, fam)
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = expected[0, 0, 1, 1] = 0.5
        assert np.allclose(corr.table, expected, atol=1e-12)

    def test_product_state_factorizes(self):
        gen = rng(6)
        rho_a = random_density_matrix(1, 2, rng=gen).matrix
        rho_b = random_density_matrix(1, 2, rng=gen).matrix
        rho = DensityMatrix(2, 2, np.kron(rho_a, rho_b))
        corr = correlation_from(rho, zx_family(), zx_family())
        pa = np.einsum("ij,xaji->xa", rho_a, zx_family().effects).real
        pb = np.einsum("ij,ybji->yb", rho_b, zx_family().effects).real
        assert np.allclose(corr.table, np.einsum("xa,yb->xyab", pa, pb), atol=1e-10)

    def test_random_states_produce_valid_tables(self):
        gen = rng(7)
        for _ in range(20):
            rho = random_density_matrix(2, 3, rng=gen)
            fam_a = zx_family()
            q, _ = np.linalg.qr(
                gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
            )
            fam_b = MeasurementFamily.from_bases([q, np.eye(3, dtype=complex)])
            corr = correlation_from(rho, fam_a, fam_b)
            marg_a = corr.table.sum(axis=3)
            marg_b = corr.table.sum(axis=2)
            assert np.max(np.abs(marg_a - marg_a[:, :1])) <= 1e-10
            assert np.max(np.abs(marg_b - marg_b[:1])) <= 1e-10

    def test_signalling_table_rejected(self):
        # Alice's outcome tracks Bob's setting choice
        t = np.zeros((1, 2, 2, 1))
        t[0, 0, 0, 0] = 1.0
        t[0, 1, 1, 0] = 1.0
        with pytest.raises(ValueError, match="signals"):
            Correlation(t)


class TestFractions:
    def test_deterministic_optimum_reaches_one(self):
        gen = rng(8)
        c = gen.random((2, 2, 2, 2))
        bell = BellFunctional(c)
        lb = local_bound(bell)
        t = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                t[x, y, lb.alice_strategy[x], lb.bob_strategy[y]] = 1.0
        frac = nonlocality_fraction(Correlation(t), bell)
        assert abs(frac.value - 1.0) <= 1e-12
        assert not frac.violated

    def test_zero_bound_rejected(self):
        bell = BellFunctional(np.zeros((1, 1, 2, 2)))
        t = np.full((1, 1, 2, 2), 0.25)
        with pytest.raises(ValueError, match="not positive"):
            nonlocality_fraction(Correlation(t), bell)

    def test_max_entangled_two_mub_fraction(self):
        sig = steer(max_entangled(2), zx_family())
        frac = steering_fraction(sig, mub2_functional())
        assert abs(frac.value - (4.0 - 2.0 * SQRT2)) <= 1e-12
        assert frac.violated

    def test_fraction_invariant_under_functional_scaling(self):
        gen = rng(9)
        sig = steer(random_density_matrix(2, 2, rng=gen), zx_family())
        func = random_functional(2, 2, 2, gen)
        scaled = SteeringFunctional(2, 3.0 * func.operators)
        f1 = steering_fraction(sig, func)
        f2 = steering_fraction(sig, scaled)
        assert abs(f1.value - f2.value) <= 1e-10


class TestShapeChecks:
    """A functional whose table would broadcast against the data's is
    refused, before its bound is enumerated."""

    @pytest.fixture(autouse=True)
    def no_bound(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the bound was enumerated before the shape check")

        monkeypatch.setattr("steerkit.functionals.local_bound", refuse)
        monkeypatch.setattr("steerkit.functionals.steering_bound", refuse)

    def test_bell_table_of_other_shape(self):
        fam = mub(2, 2).to_measurements()
        corr = correlation_from(max_entangled(2), fam, fam)
        bell = BellFunctional(np.ones((1, 1, 2, 2)))
        with pytest.raises(ValueError, match=r"\(2, 2, 2, 2\) does not match .*\(1, 1, 2, 2\)"):
            nonlocality_fraction(corr, bell)

    @pytest.mark.parametrize("func", [
        mub_functional(mub(2, 1)),
        SteeringFunctional(3, np.broadcast_to(np.eye(3), (2, 2, 3, 3))),
    ], ids=["settings", "dim"])
    def test_steering_functional_of_other_shape(self, func):
        sig = steer(max_entangled(2), mub(2, 2).to_measurements())
        expected = re.escape(str(func.operators.shape))
        with pytest.raises(ValueError, match=rf"\(2, 2, 2, 2\) does not match .*{expected}"):
            steering_fraction(sig, func)

    def test_rotated_family_of_other_settings(self):
        fam = mub(2, 1).to_measurements()
        with pytest.raises(ValueError, match=r"\(1, 2, 2, 2\) does not match .*\(2, 2, 2, 2\)"):
            best_rotated_fraction(max_entangled(2), fam, mub2_functional(), samples=2, steps=1)


class TestInducedFunctional:
    def test_zero_coefficients_induce_zero(self):
        bell = BellFunctional(np.zeros((2, 2, 2, 2)))
        func = induced_functional(bell, zx_family())
        assert np.allclose(func.operators, 0.0, atol=1e-15)

    def test_bound_chain_and_numerator_identity(self):
        gen = rng(10)
        for _ in range(10):
            ma, mb = int(gen.integers(1, 3)), int(gen.integers(1, 3))
            bell = BellFunctional(gen.random((ma, mb, 2, 2)))
            bases = []
            for _ in range(mb):
                q, _ = np.linalg.qr(
                    gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
                )
                bases.append(q)
            fam_b = MeasurementFamily.from_bases(bases)
            func = induced_functional(bell, fam_b)
            # the steering bound never exceeds the classical bound
            assert steering_bound(func).value <= local_bound(bell).value + 1e-9
            # evaluated on any shared state, both numerators coincide
            rho = random_density_matrix(2, 2, rng=gen)
            fam_a = zx_family() if ma == 2 else MeasurementFamily.from_bases(
                [np.eye(2, dtype=complex)]
            )
            corr = correlation_from(rho, fam_a, fam_b)
            sig = steer(rho, fam_a)
            frac_bell = nonlocality_fraction(corr, bell)
            frac_steer = steering_fraction(sig, func)
            assert abs(frac_bell.numerator - frac_steer.numerator) <= 1e-10
            assert frac_bell.value <= frac_steer.value + 1e-9


class TestLvS:
    def test_max_entangled_two_mub(self):
        res = lv_s(max_entangled(2), mub2_functional())
        assert abs(res.value - (4.0 - 2.0 * SQRT2)) <= 1e-6
        assert res.gap <= 1e-6
        assert res.achieved <= res.value + 1e-9

    def test_three_mub_value(self):
        func = SteeringFunctional(2, zxy_family().effects)
        res = lv_s(max_entangled(2), func)
        assert abs(res.value - (3.0 - np.sqrt(3.0))) <= 1e-6

    def test_optimal_family_achieves_reported_value(self):
        gen = rng(11)
        func = random_functional(2, 2, 2, gen)
        rho = random_density_matrix(2, 2, rank=1, rng=gen)
        res = lv_s(rho, func)
        frac = steering_fraction(steer(rho, res.family), func)
        assert abs(frac.value - res.achieved) <= 1e-9
        assert res.achieved <= res.value + 1e-9

    def test_product_state_never_violates(self):
        gen = rng(12)
        rho_a = random_density_matrix(1, 2, rng=gen).matrix
        rho_b = random_density_matrix(1, 2, rng=gen).matrix
        rho = DensityMatrix(2, 2, np.kron(rho_a, rho_b))
        res = lv_s(rho, mub2_functional())
        assert res.value <= 1.0 + 1e-6

    def test_convex_in_the_state(self):
        gen = rng(13)
        func = random_functional(2, 2, 2, gen)
        r1 = random_density_matrix(2, 2, rng=gen)
        r2 = random_density_matrix(2, 2, rng=gen)
        t = 0.3
        mix = DensityMatrix(2, 2, t * r1.matrix + (1 - t) * r2.matrix)
        lhs = lv_s(mix, func).value
        rhs = t * lv_s(r1, func).value + (1 - t) * lv_s(r2, func).value
        assert lhs <= rhs + 1e-8

    def test_two_outcome_closed_form_matches_conic_route(self):
        from steerkit.functionals import _optimal_povm_exact2, _povm_program
        from steerkit.sdp import solve

        gen = rng(14)
        for _ in range(10):
            raw = gen.standard_normal((2, 3, 3)) + 1j * gen.standard_normal((2, 3, 3))
            g = raw + raw.conj().transpose(0, 2, 1)
            v_exact, eff_exact = _optimal_povm_exact2(g)
            v_sdp = solve(_povm_program(g), tol=1e-9).primal_objective
            assert abs(v_exact - v_sdp) <= 1e-7
            total = eff_exact.sum(axis=0)
            assert np.allclose(total, np.eye(3), atol=1e-10)
            achieved = float(np.einsum("aij,aji->", g, eff_exact).real)
            assert abs(achieved - v_exact) <= 1e-10

    def test_two_outcomes_take_the_closed_form(self):
        # lv_s at two outcomes is the sum of the per-setting closed forms,
        # with no gap, and agrees with each setting's conic program
        from steerkit.functionals import _optimal_povm_exact2, _povm_program
        from steerkit.sdp import solve

        gen = rng(18)
        func = random_functional(3, 3, 2, gen)
        rho = random_density_matrix(3, 3, rng=gen)
        rho4 = rho.matrix.reshape(3, 3, 3, 3)
        raw = raw_sdp = 0.0
        for ops in func.operators:
            g = np.einsum("ijkl,alj->aik", rho4, ops)  # tr_B[rho (I x F_a)]
            raw += _optimal_povm_exact2(g)[0]
            raw_sdp += solve(_povm_program(g), tol=1e-9).primal_objective
        bound = steering_bound(func).value
        res = lv_s(rho, func)
        assert res.value == raw / bound
        assert res.gap == 0.0
        assert abs(res.value - raw_sdp / bound) <= 1e-7
        assert abs(res.achieved - res.value) <= 1e-9

    def test_batched_settings_match_solo_solves(self):
        """lv_s solves its settings' POVM programs in one batch; solving each
        alone and summing in setting order gives the same floats, bit for bit."""
        from steerkit.functionals import _repair_povm
        from steerkit.sdp import SdpProblem, solve

        gen = rng(16)
        func = random_functional(3, 3, 3, gen)
        rho = random_density_matrix(3, 3, rng=gen)
        rho4 = rho.matrix.reshape(3, 3, 3, 3)
        raw = gap = 0.0
        effects = []
        for ops in func.operators:
            g = np.einsum("ijkl,alj->aik", rho4, ops)  # tr_B[rho (I x F_a)]
            p = SdpProblem()
            blocks = [p.add_block(3) for _ in range(3)]
            p.set_objective({blk: g[a] for a, blk in enumerate(blocks)}, sense="max")
            p.add_matrix_equality({blk: 1.0 for blk in blocks}, np.eye(3))
            sol = solve(p, tol=1e-9)
            assert sol.status == "optimal"
            raw += float(sol.primal_objective)
            gap += float(sol.gap)
            effects.append(_repair_povm(sol.x))
        bound = steering_bound(func).value
        family = MeasurementFamily(3, np.stack(effects))
        achieved = steering_fraction(steer(rho, family), func).value

        res = lv_s(rho, func)
        assert res.value == raw / bound
        assert res.gap == gap / bound
        assert res.achieved == achieved
        assert res.family.effects.tobytes() == family.effects.tobytes()

    def test_zero_functional_is_refused_before_any_solve(self, monkeypatch):
        from steerkit import functionals

        calls = []
        real = functionals.solve_many

        def counted(problems, **kwargs):
            calls.append(len(problems))
            return real(problems, **kwargs)

        monkeypatch.setattr(functionals, "solve_many", counted)
        with pytest.raises(ValueError, match="steering bound is not positive"):
            lv_s(isotropic(3, 0.9), SteeringFunctional(3, np.zeros((4, 3, 3, 3))))
        assert calls == []


class TestSeesaw:
    def test_max_entangled_game_violation(self):
        res = lv_bell_seesaw(max_entangled(2), chsh_winning_form(), restarts=3, seed=0)
        assert res.value >= (2.0 + SQRT2) / 3.0 - 1e-4

    def test_product_state_stays_local(self):
        gen = rng(15)
        rho_a = random_density_matrix(1, 2, rng=gen).matrix
        rho_b = random_density_matrix(1, 2, rng=gen).matrix
        rho = DensityMatrix(2, 2, np.kron(rho_a, rho_b))
        res = lv_bell_seesaw(rho, chsh_winning_form(), restarts=2, seed=1)
        assert res.value <= 1.0 + 1e-9

    def test_certificate_reproduces_value(self):
        bell = chsh_winning_form()
        res = lv_bell_seesaw(max_entangled(2), bell, restarts=2, seed=2)
        frac = nonlocality_fraction(res.correlation, bell)
        assert abs(frac.value - res.value) <= 1e-10
        recomputed = correlation_from(max_entangled(2), res.alice, res.bob)
        assert np.allclose(recomputed.table, res.correlation.table, atol=1e-9)

    def test_bell_violation_bounded_by_steering_violation(self):
        bell = chsh_winning_form()
        rho = max_entangled(2)
        res = lv_bell_seesaw(rho, bell, restarts=2, seed=3)
        func = induced_functional(bell, res.bob)
        frac = steering_fraction(steer(rho, res.alice), func)
        assert res.value <= frac.value + 1e-9

    def test_three_outcomes_reach_the_cglmp_bound(self):
        # more than two outcomes: each half-step solves its settings in one batch
        res = lv_bell_seesaw(max_entangled(3), cglmp(3), restarts=1, seed=0)
        assert res.value >= cglmp_lv_lower(3) - 1e-8

    def test_random_povm_starts_when_outcomes_differ_from_the_dimension(self):
        # three outcomes on a qubit: the starts are repaired Wishart POVMs
        bell = BellFunctional(rng(19).uniform(size=(2, 2, 3, 3)))
        rho = max_entangled(2)
        res = lv_bell_seesaw(rho, bell, restarts=2, seed=4)
        assert res.bob.outcomes == 3
        frac = nonlocality_fraction(correlation_from(rho, res.alice, res.bob), bell)
        assert abs(frac.value - res.value) <= 1e-10
        assert res.value <= steering_fraction(steer(rho, res.alice), induced_functional(bell, res.bob)).value + 1e-9

    @pytest.mark.parametrize("bell", [chsh_winning_form(), BellFunctional(np.ones((2, 2, 3, 3)))],
                             ids=["chsh", "three_outcomes"])
    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -3}, {"max_rounds": 0}],
                             ids=["no_restarts", "negative_restarts", "no_rounds"])
    def test_needs_a_start_and_a_round(self, bell, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            lv_bell_seesaw(max_entangled(2), bell, **kwargs)


class TestRotatedFraction:
    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_gradient_matches_central_differences(self, d):
        from steerkit.functionals import _rotation_gradient
        from steerkit.linalg import haar_unitary
        from steerkit.sdp import _herm_basis

        gen = rng(20 + d)
        rho = random_density_matrix(d, d, rng=gen)
        rho4 = rho.matrix.reshape(d, d, d, d)
        effects = MeasurementFamily.from_bases([haar_unitary(d, gen) for _ in range(2)]).effects
        ops = random_functional(d, 2, d, gen).operators
        us = np.stack([haar_unitary(d, gen) for _ in range(3)])

        def pairs(batch):
            p = np.einsum("uqp,xaqr,urs->uxaps", batch.conj(), effects, batch)
            q = np.einsum("uqp,xaqr,urs->uxaps", batch, ops, batch.conj())
            return p, q

        def numerators(batch):
            return np.einsum("uxaki,uxalj,ijkl->u", *pairs(batch), rho4).real

        grad = _rotation_gradient(rho4, *pairs(us))
        eps = 1e-4
        for h in _herm_basis(d):
            w, v = np.linalg.eigh(h)
            plus = (v * np.exp(1j * eps * w)) @ v.conj().T
            minus = (v * np.exp(-1j * eps * w)) @ v.conj().T
            central = (numerators(us @ plus) - numerators(us @ minus)) / (2.0 * eps)
            exact = np.einsum("ij,uji->u", h, grad).real
            assert np.max(np.abs(central - exact)) <= 1e-7

    def test_beats_twirled_baseline(self):
        gen = rng(16)
        fam = zx_family()
        func = mub2_functional()
        for _ in range(3):
            rho = random_density_matrix(2, 2, rank=1, rng=gen)
            iso = twirl(rho).to_density()
            baseline = steering_fraction(steer(iso, fam), func).value
            best = best_rotated_fraction(rho, fam, func, samples=16, seed=0, steps=10)
            assert best.value >= baseline - 1e-4

    def test_reported_unitary_reproduces_value(self):
        gen = rng(17)
        rho = random_density_matrix(2, 2, rank=1, rng=gen)
        fam = zx_family()
        func = mub2_functional()
        best = best_rotated_fraction(rho, fam, func, samples=8, seed=1, steps=5)
        u = best.unitary
        eff_u = np.einsum("qp,xaqr,rs->xaps", u.conj(), fam.effects, u)
        ops_u = np.einsum("qp,xaqr,rs->xaps", u, func.operators, u.conj())
        frac = steering_fraction(
            steer(rho, MeasurementFamily(2, eff_u)), SteeringFunctional(2, ops_u)
        )
        assert abs(frac.value - best.value) <= 1e-9
        # the rotated bound matches the unrotated one
        assert abs(best.bound - steering_bound(func).value) <= 1e-9
