"""Tests for the interior-point conic solver.

Two independent oracles back the random-problem checks: problems
constructed around a known optimal pair (complementary primal/dual
solutions fixed first, data derived from them), and a long-run ADMM
first-order method implemented at the bottom of this module.
"""

import itertools
import warnings

import numpy as np
import pytest

from steerkit import sdp
from steerkit.assemblages import MeasurementFamily, steer
from steerkit.linalg import dagger
from steerkit.monotones import steering_robustness
from steerkit.sdp import (
    _TRI_BLOCK,
    SdpProblem,
    _cholesky,
    _eigh,
    _eigvalsh_min,
    _herm_basis,
    _Layout,
    _matmul,
    _nt_scaling,
    _schur_complement,
    _tri_solve,
    smat,
    solve,
    solve_many,
    svec,
)
from steerkit.states import isotropic, random_density_matrix


def rng(seed=0):
    return np.random.default_rng(seed)


def random_hermitian(n, gen):
    m = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


class TestSvec:
    def test_roundtrip(self):
        gen = rng(0)
        for n in (1, 2, 5, 8):
            m = gen.standard_normal((n, n))
            m = 0.5 * (m + m.T)
            assert np.max(np.abs(smat(svec(m), n) - m)) <= 1e-14

    def test_inner_product_preserved(self):
        gen = rng(1)
        a = gen.standard_normal((4, 4))
        a = 0.5 * (a + a.T)
        b = gen.standard_normal((4, 4))
        b = 0.5 * (b + b.T)
        assert abs(svec(a) @ svec(b) - np.trace(a @ b)) <= 1e-12
        a, b = random_hermitian(4, gen), random_hermitian(4, gen)
        assert abs(svec(a) @ svec(b) - np.trace(a @ b).real) <= 1e-12


class TestHermitianSvec:
    def test_real_input_has_no_imaginary_coordinates(self):
        m = np.array([[2.0, 1.0], [1.0, 0.0]])
        assert np.allclose(svec(m), [2.0, 0.0, np.sqrt(2.0), 0.0])

    def test_pauli_y_coordinates(self):
        y = np.array([[0.0, -1j], [1j, 0.0]])
        assert np.allclose(svec(y), [0.0, 0.0, 0.0, -np.sqrt(2.0)])
        assert np.allclose(np.linalg.eigvalsh(smat(svec(y), 2)), [-1.0, 1.0])

    def test_hermitian_roundtrip(self):
        gen = rng(3)
        h = random_hermitian(3, gen)
        assert np.max(np.abs(smat(svec(h), 3) - h)) <= 1e-14

    def test_basis_is_orthonormal_in_svec_order(self):
        basis = _herm_basis(3)
        assert np.allclose(svec(basis), np.eye(9))
        assert np.allclose(basis, basis.conj().transpose(0, 2, 1))


class TestSmallProblems:
    def test_max_trace_below_identity(self):
        p = SdpProblem()
        x = p.add_block(2)
        s = p.add_block(2)
        p.set_objective({x: np.eye(2)}, sense="max")
        p.add_matrix_equality({x: 1.0, s: 1.0}, np.eye(2))
        sol = solve(p)
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - 2.0) <= 1e-7
        # the blocks come back as one stack
        assert sol.x.shape == sol.s.shape == (2, 2, 2)

    def test_scalar_lp(self):
        # min x subject to x >= 3, with x and its slack nonnegative 1x1 blocks
        p = SdpProblem()
        x = p.add_block(1)
        s = p.add_block(1)
        p.set_objective({x: [[1.0]]}, sense="min")
        p.add_scalar_constraint({x: [[1.0]], s: [[-1.0]]}, 3.0)
        sol = solve(p)
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - 3.0) <= 1e-7
        assert abs(sol.x[0][0, 0] - 3.0) <= 1e-6

    def test_extremal_eigenvalues(self):
        gen = rng(4)
        c = random_hermitian(4, gen)
        w = np.linalg.eigvalsh(c)
        for sense, target in (("max", w[-1]), ("min", w[0])):
            p = SdpProblem()
            x = p.add_block(4)
            p.set_objective({x: c}, sense=sense)
            p.add_scalar_constraint({x: np.eye(4)}, 1.0)
            sol = solve(p)
            assert sol.status == "optimal"
            assert abs(sol.primal_objective - target) <= 1e-7

    def test_primal_infeasible_problem_ends_indeterminate_early(self):
        # tr X = -1 cannot hold for X >= 0; tau collapses long before the cap
        p = SdpProblem()
        x = p.add_block(2)
        p.set_objective({x: np.eye(2)}, sense="min")
        p.add_scalar_constraint({x: np.eye(2)}, -1.0)
        sol = solve(p, max_iters=100)
        assert sol.status == "indeterminate" and sol.x is None
        assert sol.iterations <= 10

    def test_unbounded_problem_ends_indeterminate_early(self):
        # max x11 with only x22 pinned is unbounded above
        p = SdpProblem()
        x = p.add_block(2)
        p.set_objective({x: np.array([[1.0, 0.0], [0.0, 0.0]])}, sense="max")
        p.add_scalar_constraint({x: np.array([[0.0, 0.0], [0.0, 1.0]])}, 1.0)
        sol = solve(p, max_iters=100)
        assert sol.status == "indeterminate" and sol.x is None
        assert sol.iterations <= 10


def _blocks(*dims):
    p = SdpProblem()
    for n in dims:
        p.add_block(n)
    return p


def _trace_row():
    p = _blocks(2)
    p.add_scalar_constraint({0: np.eye(2)}, 1.0)
    return p


def _qubit_assemblage():
    return steer(isotropic(2, 0.9), MeasurementFamily.from_bases([np.eye(2), np.eye(2)[::-1]]))


# caller input that SdpProblem or solve_many refuses, with its message
INVALID = {
    "block_dim": ("block dimension 0 is below 1", lambda: SdpProblem().add_block(0)),
    "coefficient_shape": (r"block 0 is 2 x 2, its matrix has shape \(3, 3\)",
                          lambda: _blocks(2).add_scalar_constraint({0: np.eye(3)}, 1.0)),
    "equality_rhs_shape": (r"block 0 is 2 x 2, its matrix has shape \(3, 3\)",
                           lambda: _blocks(2, 2).add_matrix_equality({0: 1.0, 1: 1.0}, np.eye(3))),
    "scalar_rhs_shape": (r"a scalar row needs a scalar rhs, not shape \(2,\)",
                         lambda: _blocks(2).add_scalar_constraint({0: np.eye(2)}, np.ones(2))),
    "second_dimension": ("block dimension 3 differs from the problem's 2", lambda: _blocks(2, 3)),
    "unknown_block": ("a matrix equality needs blocks among the problem's 2",
                      lambda: _blocks(2, 2).add_matrix_equality({0: 1.0, 2: 1.0}, np.eye(2))),
    "unknown_objective_block": ("no block -1 among the problem's 2",
                                lambda: _blocks(2, 2).set_objective({-1: np.eye(2)})),
    "unknown_row_block": ("no block 2 among the problem's 2",
                          lambda: _blocks(2, 2).add_scalar_constraint({0: np.eye(2), 2: np.eye(2)}, 1.0)),
    "empty_terms": ("a matrix equality needs blocks among the problem's 1",
                    lambda: _blocks(2).add_matrix_equality({}, np.eye(2))),
    "sense": ("sense must be 'min' or 'max', not 'maximize'",
              lambda: _blocks(2).set_objective({0: np.eye(2)}, sense="maximize")),
    "empty_scalar_row": ("a scalar row needs blocks among the problem's 1",
                         lambda: _blocks(2).add_scalar_constraint({}, 1.0)),
    "nan_coefficient_matrix": ("the matrix of block 0 must be finite",
                               lambda: _blocks(2).add_scalar_constraint({0: np.diag([1.0, np.nan])}, 1.0)),
    "inf_equality_coefficient": ("a matrix equality needs finite real coefficients",
                                 lambda: _blocks(2, 2).add_matrix_equality({0: 1.0, 1: np.inf}, np.eye(2))),
    "complex_equality_coefficient": ("a matrix equality needs finite real coefficients",
                                     lambda: _blocks(2, 2).add_matrix_equality({0: 1.0, 1: 1j}, np.eye(2))),
    "nan_equality_rhs": ("the matrix of block 0 must be finite",
                         lambda: _blocks(2, 2).add_matrix_equality({0: 1.0, 1: 1.0}, np.diag([np.nan, 1.0]))),
    "inf_scalar_rhs": ("a scalar row needs a finite real rhs, not inf",
                       lambda: _blocks(2).add_scalar_constraint({0: np.eye(2)}, np.inf)),
    "inf_objective": ("the matrix of block 0 must be finite",
                      lambda: _blocks(2).set_objective({0: np.diag([1.0, -np.inf])})),
    "nan_tol": ("not tol=nan, max_iters=100", lambda: solve(_trace_row(), tol=np.nan)),
    "zero_tol": ("not tol=0.0, max_iters=100", lambda: solve(_trace_row(), tol=0.0)),
    "negative_tol": ("not tol=-1.0, max_iters=100", lambda: solve(_trace_row(), tol=-1.0)),
    "zero_max_iters": ("not tol=1e-08, max_iters=0", lambda: solve_many([_trace_row()], max_iters=0)),
    "monotone_nan_tol": ("need a finite tol > 0 and max_iters >= 1, not tol=nan",
                         lambda: steering_robustness(_qubit_assemblage(), tol=np.nan)),
    "no_problems": ("no problems to solve", lambda: solve_many([])),
    "no_blocks": ("problem has no blocks", lambda: solve(SdpProblem())),
    "no_rows": ("problem has no constraints", lambda: solve(_blocks(2))),
}


class TestInvalidInput:
    @pytest.mark.parametrize("case", list(INVALID))
    def test_raises_value_error(self, case):
        message, call = INVALID[case]
        with pytest.raises(ValueError, match=message):
            call()


def _equality_rows(gen):
    """Three matrix equalities over four 2 x 2 blocks: their terms and a
    seeded stack of Hermitian right-hand sides."""
    terms = [{0: 1.0, 2: -1.0}, {1: 0.5, 3: 1.0, 0: 2.0}, {3: 1.0}]
    return terms, np.array([random_hermitian(2, gen) for _ in terms])


class TestStackedBuilder:
    def test_equalities_match_row_by_row(self):
        terms, rhs = _equality_rows(rng(80))
        stacked, rowwise = _blocks(2, 2, 2, 2), _blocks(2, 2, 2, 2)
        objective = {i: random_hermitian(2, rng(81 + i)) for i in (3, 0)}
        for p in (stacked, rowwise):
            p.set_objective(objective, sense="max")
            p.add_scalar_constraint({1: np.eye(2), 2: np.diag([1.0, 2.0])}, 1.5)
        stacked.add_matrix_equalities(terms, rhs)
        for row, r in zip(terms, rhs):
            rowwise.add_matrix_equality(row, r)
        stacked.add_scalar_constraint({0: np.eye(2)}, 2.0)
        rowwise.add_scalar_constraint({0: np.eye(2)}, 2.0)
        assert stacked.blocks == rowwise.blocks
        assert stacked.n_constraints == rowwise.n_constraints == 1 + 3 * 4 + 1
        assert all(map(np.array_equal, stacked._rows(), rowwise._rows()))
        lay = _Layout(stacked)
        assert all(map(np.array_equal, lay.data(stacked), lay.data(rowwise)))

    @pytest.mark.parametrize("bad, message", [
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "the matrix of block 1: matrix is not Hermitian"),
        (np.diag([1.0, np.nan]), "the matrix of block 1 must be finite"),
    ], ids=["not_hermitian", "nan"])
    def test_bad_matrix_in_the_stack_names_its_block(self, bad, message):
        # the second row's right-hand side is read as a matrix of its first block, 1
        terms, rhs = _equality_rows(rng(82))
        rhs[1] = bad
        p = _blocks(2, 2, 2, 2)
        with pytest.raises(ValueError, match=message):
            p.add_matrix_equalities(terms, rhs)
        assert p.n_constraints == 0 and not p._equalities

    def test_one_right_hand_side_per_row(self):
        terms, rhs = _equality_rows(rng(83))
        with pytest.raises(ValueError, match="3 matrix equalities need as many right-hand sides, not 2"):
            _blocks(2, 2, 2, 2).add_matrix_equalities(terms, rhs[:2])


def _qubit_stacks():
    """Seeded 2 x 2 Hermitian stacks, by kind: random, diagonal, exactly
    degenerate (a = d, b = 0), nearly degenerate (|b| = 1e-14) and graded
    (lambda_min / lambda_max from 1 down to 1e-12, entries scaled by 1e-8,
    1 and 1e8)."""
    gen = rng(84)
    random = np.array([random_hermitian(2, gen) for _ in range(40)])
    diagonal = np.array([np.diag(v) for v in [(2.0, -1.0), (-1.0, 2.0), (0.0, 3.0), (1e-9, 0.0)]],
                        dtype=complex)
    degenerate = np.array([a * np.eye(2) for a in (0.0, 1.0, -2.5, 1e-30)], dtype=complex)
    offdiag = 1e-14 * np.exp(1j * gen.uniform(0, 2 * np.pi, 4))
    nearly = np.array([[[a, z], [z.conjugate(), a]] for a, z in zip((0.0, 1.0, 1.0, -3.0), offdiag)])
    graded = []
    for scale in (1e-8, 1.0, 1e8):
        for k in range(13):
            u = np.linalg.qr(random_hermitian(2, gen) + 1j * np.eye(2))[0]
            graded.append(scale * (u * [1.0, 10.0 ** -k]) @ dagger(u))
    return {"random": random, "diagonal": diagonal, "degenerate": degenerate,
            "nearly_degenerate": nearly, "graded": np.array(graded)}


class TestQubitClosedForms:
    @pytest.mark.parametrize("kind", list(_qubit_stacks()))
    def test_eigendecomposition_matches_lapack(self, kind):
        h = _qubit_stacks()[kind]
        lam, v = _eigh(h)
        ref = np.linalg.eigvalsh(h)
        norm = np.abs(ref).max(axis=-1)
        assert np.all(np.abs(lam - ref).max(axis=-1) <= 1e-13 * norm)
        assert np.all(np.abs(_eigvalsh_min(h) - ref[:, 0]) <= 1e-13 * norm)
        assert np.abs(dagger(v) @ v - np.eye(2)).max() <= 1e-14
        rebuilt = (v * lam[:, np.newaxis, :]) @ dagger(v)
        assert np.all(np.abs(rebuilt - h).max(axis=(-2, -1)) <= 1e-13 * norm)
        if kind == "degenerate":
            assert np.array_equal(v, np.broadcast_to(np.eye(2), v.shape))

    def test_other_dimensions_are_lapack(self):
        h = np.array([random_hermitian(3, rng(85)) for _ in range(5)])
        lam, v = _eigh(h)
        ref_lam, ref_v = np.linalg.eigh(h)
        assert np.array_equal(lam, ref_lam) and np.array_equal(v, ref_v)
        assert np.array_equal(_eigvalsh_min(h), np.linalg.eigvalsh(h)[:, 0])
        assert np.array_equal(_matmul(h, h[::-1]), h @ h[::-1])

    @pytest.mark.parametrize("shapes", [((3, 5, 2, 2), (3, 5, 2, 2)), ((7, 2, 2), (2, 8)),
                                        ((7, 8, 2), (7, 2, 2)), ((4, 2, 2), (1, 2, 3))])
    def test_products_over_an_inner_dimension_of_two(self, shapes):
        gen = rng(87)
        a, b = (gen.standard_normal(s) + 1j * gen.standard_normal(s) for s in shapes)
        ref = a @ b
        assert _matmul(a, b).shape == ref.shape
        assert np.abs(_matmul(a, b) - ref).max() <= 1e-14 * np.abs(a).max() * np.abs(b).max()

    def test_nt_scaling_of_qubit_blocks(self):
        # R^H S R = R^-1 X R^-H = diag(lam) and W = R R^H, from the factors
        gen = rng(86)
        x, s = ([_positive(2, gen) for _ in range(6)] for _ in range(2))
        x, s = np.array(x), np.array(s)
        nt = _nt_scaling(np.linalg.cholesky(np.concatenate([x, s])))
        diag = nt.lam[..., np.newaxis] * np.eye(2)
        assert np.abs(dagger(nt.r) @ s @ nt.r - diag).max() <= 1e-12
        assert np.abs(nt.rinv @ x @ dagger(nt.rinv) - diag).max() <= 1e-12
        assert np.abs(nt.w - nt.r @ dagger(nt.r)).max() <= 1e-12
        assert np.abs(nt.w @ s @ nt.w - x).max() <= 1e-12


def constructed_problem(n, m, gen, complex_blocks):
    """Random SDP with a known optimal pair, built from complementary
    primal and dual solutions of complementary rank."""
    if complex_blocks:
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    else:
        g = gen.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    r = n // 2 or 1
    x_star = q[:, :r] @ np.diag(gen.uniform(0.5, 2.0, r)) @ dagger(q[:, :r])
    s_star = q[:, r:] @ np.diag(gen.uniform(0.5, 2.0, n - r)) @ dagger(q[:, r:])
    a_mats = []
    for _ in range(m):
        if complex_blocks:
            a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            a = 0.5 * (a + a.conj().T)
        else:
            a = gen.standard_normal((n, n))
            a = 0.5 * (a + a.T)
        a_mats.append(a)
    y_star = gen.standard_normal(m)
    c = s_star + sum(yk * ak for yk, ak in zip(y_star, a_mats))
    opt = float(np.trace(c @ x_star).real)

    p = SdpProblem()
    x = p.add_block(n)
    p.set_objective({x: c}, sense="min")
    for ak in a_mats:
        p.add_scalar_constraint({x: ak}, float(np.trace(ak @ x_star).real))
    return p, opt, x_star


class TestConstructedOptima:
    @pytest.mark.parametrize("complex_blocks", [False, True])
    def test_known_optimum_recovered(self, complex_blocks):
        gen = rng(11 if complex_blocks else 12)
        for _ in range(5):
            n = int(gen.integers(3, 7))
            # enough constraints to pin the solution on the optimal face,
            # otherwise only the objective value is determined
            r = n // 2 or 1
            face = r * r if complex_blocks else r * (r + 1) // 2
            m = face + 2
            p, opt, x_star = constructed_problem(n, m, gen, complex_blocks)
            sol = solve(p, tol=1e-9)
            assert sol.status == "optimal"
            scale = 1.0 + abs(opt)
            assert abs(sol.primal_objective - opt) <= 1e-6 * scale
            assert np.max(np.abs(sol.x[0] - x_star)) <= 1e-4 * max(1.0, np.abs(x_star).max())

    def test_objectives_bracket_known_optimum(self):
        # max convention: primal <= opt + margin, dual >= opt - margin, where
        # the certified accuracy is rel_gap <= tol, i.e. a margin of order
        # tol * (1 + |pobj| + |dobj|)
        gen = rng(13)
        tol = 1e-8
        for _ in range(5):
            p, opt, _ = constructed_problem(5, 4, gen, True)
            p.sense = "max"
            p._objective = {k: -v for k, v in p._objective.items()}
            sol = solve(p, tol=tol)
            assert sol.status == "optimal"
            margin = 10 * tol * (1.0 + abs(opt))
            assert sol.primal_objective <= -opt + margin
            assert sol.dual_objective >= -opt - margin


class TestDualSlackConvention:
    def test_slack_satisfies_dual_identity_at_caller_scale(self):
        # min tr X s.t. X - T = G with both blocks PSD: the optimum is the
        # positive part of G, the dual matrix Y groups the equality
        # multipliers, and the returned slacks must satisfy s_X = I - Y and
        # s_T = Y in the caller's (complex) convention.
        gen = rng(21)
        n = 4
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        g = 0.5 * (g + g.conj().T)
        p = SdpProblem()
        xb = p.add_block(n)
        tb = p.add_block(n)
        p.set_objective({xb: np.eye(n)}, sense="min")
        p.add_matrix_equality({xb: 1.0, tb: -1.0}, g)
        sol = solve(p, tol=1e-9)
        assert sol.status == "optimal"
        opt = float(np.clip(np.linalg.eigvalsh(g), 0.0, None).sum())
        assert abs(sol.primal_objective - opt) <= 1e-6 * (1.0 + abs(opt))

        basis = _herm_basis(n)
        y_mat = sum(yk * bk for yk, bk in zip(sol.y, basis))
        assert np.max(np.abs(sol.s[1] - y_mat)) <= 1e-6
        assert np.max(np.abs(sol.s[0] - (np.eye(n) - y_mat))) <= 1e-6
        # complementary slackness ties the pieces together
        assert abs(np.vdot(sol.s[0], sol.x[0]).real) <= 1e-6
        assert abs(np.vdot(sol.s[1], sol.x[1]).real) <= 1e-6


class TestIterateProperties:
    def test_cone_inner_product_nonnegative_every_iterate(self):
        gen = rng(14)
        p, _, _ = constructed_problem(5, 4, gen, True)
        sol = solve(p)
        assert sol.status == "optimal"
        assert len(sol.trace) >= 2
        assert all(rec["xs_inner"] >= 0.0 for rec in sol.trace)

    def test_certified_relative_gap(self):
        gen = rng(15)
        p, _, _ = constructed_problem(4, 3, gen, False)
        sol = solve(p, tol=1e-8)
        assert sol.status == "optimal"
        assert sol.rel_gap <= 1e-8

    def test_deterministic_resolve(self):
        gen = rng(16)
        p, _, _ = constructed_problem(4, 3, gen, True)
        a = solve(p)
        b = solve(p)
        assert a.status == b.status == "optimal"
        assert a.primal_objective == b.primal_objective
        assert all(np.array_equal(xa, xb) for xa, xb in zip(a.x, b.x))


def _random_coefficient(n, real, gen):
    if not real:
        return random_hermitian(n, gen)
    m = gen.standard_normal((n, n))
    return 0.5 * (m + m.T)


def schur_oracle_problem(gen, n=3):
    """Scalar rows over six n x n blocks, three of them with real data, and
    the dense constraint matrix of those rows; the blocks touch 4, 4, 3, 4,
    6 and 2 rows."""
    real = [False, True, False, True, False, True]
    touched = [{0, 1, 2, 4}, {0, 1, 3, 4}, {0, 2, 4}, {1, 3, 4}, {0, 1, 2, 3, 4, 5}, {3, 4, 5}]
    t = n * n
    a = np.zeros((len(touched), len(real) * t))
    p = _blocks(*[n] * len(real))
    for r, row in enumerate(touched):
        terms = {i: _random_coefficient(n, real[i], gen) for i in sorted(row)}
        for i, m in terms.items():
            a[r, i * t:(i + 1) * t] = svec(m)
        p.add_scalar_constraint(terms, float(gen.standard_normal()))
    return p, a


def _positive(n, gen):
    g = random_hermitian(n, gen)
    return g @ g + np.eye(n)


def rows_problem(gen, kinds, n=2, nb=5):
    """A problem over nb n x n blocks with a row per letter of `kinds`: "E" a
    matrix equality, "S" a scalar row, each on three random blocks, and the
    dense constraint matrix of its rows in the caller's order. A positive
    definite point satisfies the rows and the objective is positive
    definite, so both sides are strictly feasible."""
    t = n * n
    x0 = [_positive(n, gen) for _ in range(nb)]
    p = _blocks(*[n] * nb)
    p.set_objective({i: _positive(n, gen) for i in range(nb)}, sense="min")
    rows = []
    for kind in kinds:
        blocks = sorted(gen.choice(nb, size=3, replace=False).tolist())
        if kind == "E":
            terms = {i: float(gen.choice([-1.0, 1.0]) * gen.uniform(0.5, 2.0)) for i in blocks}
            p.add_matrix_equality(terms, sum(c * x0[i] for i, c in terms.items()))
            a = np.zeros((t, nb, t))
            for i, c in terms.items():
                a[:, i] = c * np.eye(t)
        else:
            terms = {i: random_hermitian(n, gen) for i in blocks}
            p.add_scalar_constraint(terms, sum(float(np.trace(m @ x0[i]).real) for i, m in terms.items()))
            a = np.zeros((1, nb, t))
            for i, m in terms.items():
                a[0, i] = svec(m)
        rows.append(a.reshape(len(a), -1))
    return p, np.concatenate(rows)


def layout_rows(layout, a):
    """The rows of a dense constraint matrix in the caller's order, put in
    the layout's order."""
    out = np.empty_like(a)
    out[layout.order] = a
    return out


# matrix equalities only, and equalities between scalar rows
ROW_KINDS = ["EEE", "SESEES"]


class TestSchurComplement:
    def check(self, p, a, gen):
        layout = _Layout(p)
        a = layout_rows(layout, a)
        n, t = layout.dim, layout.dim ** 2

        f = gen.standard_normal((len(p.blocks), n, n)) + 1j * gen.standard_normal((len(p.blocks), n, n))
        w = f @ f.conj().transpose(0, 2, 1) + 0.1 * np.eye(n)
        got, got_k = (part[0] for part in _schur_complement(layout, w[np.newaxis]))

        k = np.zeros((layout.total, layout.total))
        for i, wb in enumerate(w):
            # row p of K_b is svec(W_b E_p W_b)
            kb = np.array([svec(wb @ smat(e, n) @ wb) for e in np.eye(t)])
            assert np.max(np.abs(got_k[i] - kb)) <= 1e-12 * np.max(np.abs(kb))
            k[i * t:(i + 1) * t, i * t:(i + 1) * t] = kb.T
        ref = a @ k @ a.T
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        # two stacked scaling points give the two matrices alone, bit for bit
        both = _schur_complement(layout, np.stack([w, w[::-1]]))[0]
        assert np.array_equal(both[0], got)
        assert np.array_equal(both[1], _schur_complement(layout, w[np.newaxis, ::-1])[0][0])

    def test_matches_dense_symmetric_kronecker(self):
        gen = rng(31)
        self.check(*schur_oracle_problem(gen), gen)

    @pytest.mark.parametrize("kinds", ROW_KINDS)
    def test_matrix_equalities_match_dense_symmetric_kronecker(self, kinds):
        gen = rng(32)
        self.check(*rows_problem(gen, kinds), gen)


class TestConstraintProducts:
    def check(self, p, a, gen):
        layout = _Layout(p)
        a = layout_rows(layout, a)
        xs = gen.standard_normal((3, a.shape[1]))
        ys = gen.standard_normal((3, a.shape[0]))
        ax, aty = layout.a_dot(xs), layout.at_dot(ys)
        assert np.max(np.abs(ax - xs @ a.T)) <= 1e-13 * np.max(np.abs(xs @ a.T))
        assert np.max(np.abs(aty - ys @ a)) <= 1e-13 * np.max(np.abs(ys @ a))
        # a problem's product does not depend on the stack it is in
        for j in range(3):
            assert np.array_equal(ax[j], layout.a_dot(xs[j]))
            assert np.array_equal(aty[j], layout.at_dot(ys[j]))

    def test_match_dense_products_alone_and_stacked(self):
        gen = rng(33)
        self.check(*schur_oracle_problem(gen), gen)

    @pytest.mark.parametrize("kinds", ROW_KINDS)
    def test_matrix_equality_products_alone_and_stacked(self, kinds):
        gen = rng(34)
        self.check(*rows_problem(gen, kinds), gen)

    def test_multipliers_come_back_in_the_callers_row_order(self):
        p, a = rows_problem(rng(35), "SESEES")
        assert not np.array_equal(_Layout(p).order, np.arange(p.n_constraints))
        sol = solve(p, tol=1e-9)
        assert sol.status == "optimal"
        c = np.concatenate([svec(p._objective[i]) for i in range(len(p.blocks))])
        s = svec(sol.s).ravel()
        assert np.max(np.abs(c - a.T @ sol.y - s)) <= 1e-7 * (1.0 + np.abs(c).max())


class TestStackedVectorProducts:
    @pytest.mark.parametrize("n", [7, 70])
    @pytest.mark.parametrize("pair", ["selected", "matmul"])
    def test_rows_match_solo_and_numpy(self, pair, n):
        # the matmul pair is what numpy before 2.2 runs
        mv, dot = (sdp._mv, sdp._dot) if pair == "selected" else (sdp._matvec, sdp._vecdot)
        gen = rng(70 + n)
        a = gen.standard_normal((5, n, n))
        u, v = gen.standard_normal((2, 5, n))
        got_mv, got_dot = mv(a, v), dot(u, v)
        for j in range(5):
            assert np.array_equal(got_mv[j], mv(a[j], v[j]))
            assert np.array_equal(got_dot[j], dot(u[j], v[j]))
        if hasattr(np, "matvec"):
            ref_mv, ref_dot = np.matvec(a, v), np.vecdot(u, v)
        else:
            ref_mv, ref_dot = np.einsum("pij,pj->pi", a, v), np.einsum("pi,pi->p", u, v)
        assert np.max(np.abs(got_mv - ref_mv)) <= 1e-14 * np.max(np.abs(ref_mv))
        assert np.max(np.abs(got_dot - ref_dot)) <= 1e-14 * np.max(np.abs(ref_dot))


def _spd(n, cond, gen):
    """Symmetric positive definite n x n matrix with condition number cond."""
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    m = (q * np.logspace(0, np.log10(cond), n)) @ q.T
    return 0.5 * (m + m.T)


class TestTriangularSolve:
    SIZES = (1, 16, 63, 64, 65, 130, 256)

    @pytest.mark.parametrize("cond", [1e1, 1e12])
    @pytest.mark.parametrize("n", SIZES)
    def test_lower_and_upper_factor_solves(self, n, cond):
        gen = rng(40 + n)
        chol, inv = _cholesky(_spd(n, cond, gen))
        factors = ((chol, inv, True), (np.ascontiguousarray(chol.T), [tile.T for tile in inv], False))
        # one column, and two as in the solves of g1 and of the predictor
        for v in (gen.standard_normal((n, 1)), gen.standard_normal((n, 2))):
            for t, tile_inv, lower in factors:
                x = _tri_solve(t, tile_inv, v, lower)
                ref = np.linalg.solve(t, v)
                # the refined tile inverses leave a residual of LAPACK's size
                assert np.linalg.norm(t @ x - v) <= 2.0 * np.linalg.norm(t @ ref - v)
                if cond < 1e3:
                    assert np.linalg.norm(t @ x - v) <= 1e-12 * np.linalg.norm(v)
                    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
                else:
                    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_refinement_keeps_a_converging_solve(self):
        # S_R of a (3, 2) assemblage: without the refinement step of
        # _tri_solve, the tau-elimination denominator of this converging
        # solve rounds to exactly 0.0 at iteration 9 and the solve ends
        # indeterminate
        gen = np.random.default_rng([32, 3, 2])
        p = gen.uniform(0.75, 0.95)
        bases = [np.linalg.qr(gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)))[0] for _ in range(2)]
        rob = steering_robustness(steer(isotropic(3, p), MeasurementFamily.from_bases(bases)))
        assert rob.status == "optimal"
        assert abs(rob.certificate_value - rob.value) <= 1e-6
        assert abs(rob.dual_value - rob.value) <= 1e-6


class TestTiledCholesky:
    SIZES = (1, 63, 64, 65, 128, 243, 256)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_lapack(self, n):
        gen = rng(50 + n)
        single = _spd(n, 1e1, gen)
        stack = np.stack([_spd(n, 1e1, gen) for _ in range(3)])
        for m in (single, stack):
            (got, inv), ref = _cholesky(m), np.linalg.cholesky(m)
            if n <= _TRI_BLOCK:
                # one tile: the very same LAPACK call
                assert np.array_equal(got, ref)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.array_equal(np.triu(got, 1), np.zeros_like(got))
            # one inverse per diagonal tile
            assert len(inv) == -(-n // _TRI_BLOCK)
            for k, tile_inv in enumerate(inv):
                i0 = k * _TRI_BLOCK
                tile = got[..., i0:i0 + _TRI_BLOCK, i0:i0 + _TRI_BLOCK]
                assert np.array_equal(tile_inv, np.linalg.inv(tile))
        # a matrix's factor and tile inverses do not depend on the stack it is in
        batched, batched_inv = _cholesky(stack)
        for j in range(3):
            alone, alone_inv = _cholesky(stack[j])
            assert np.array_equal(batched[j], alone)
            assert all(np.array_equal(tile[j], tile_alone) for tile, tile_alone in zip(batched_inv, alone_inv))

    @pytest.mark.parametrize("n", (3, 64, 65, 130))
    def test_complex_hermitian(self, n):
        gen = rng(54 + n)
        q, _ = np.linalg.qr(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
        m = (q * np.logspace(0, 1, n)) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        (got, _), ref = _cholesky(m), np.linalg.cholesky(m)
        if n <= _TRI_BLOCK:
            assert np.array_equal(got, ref)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_line_search_test_of_complex_blocks(self):
        # the line search's interior test: the batched Cholesky of the
        # iterates' blocks fails, so each problem's blocks are tried alone
        # with the same LAPACK call
        stack = np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, failed = sdp._guarded(np.linalg.cholesky, stack[:, np.newaxis])
        assert (~failed).tolist() == [True, False]

    @pytest.mark.parametrize("n", (64, 65, 243))
    def test_indefinite_last_tile_raises(self, n):
        gen = rng(57 + n)
        m = _spd(n, 1e1, gen)
        m[-1, -1] = -1.0   # every leading minor but the last is positive
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky(m)
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky(np.stack([_spd(n, 1e1, gen), m]))


def qutrit_fraction_program(settings, gen):
    """The steering-fraction program of a qutrit assemblage: one block per
    member and one per deterministic strategy, 9 rows per strategy."""
    bases = [np.linalg.qr(random_hermitian(3, gen) + 1j * np.eye(3))[0] for _ in range(settings)]
    sigma = steer(isotropic(3, 0.85), MeasurementFamily.from_bases(bases))
    members = sigma.members
    p = SdpProblem()
    f = [[p.add_block(3) for _ in range(3)] for _ in range(settings)]
    p.set_objective({f[x][a]: members[x, a] for x in range(settings) for a in range(3)}, sense="max")
    for strategy in itertools.product(range(3), repeat=settings):
        p.add_matrix_equality({**{f[x][a]: 1.0 for x, a in enumerate(strategy)}, p.add_block(3): 1.0},
                              np.eye(3))
    return p, sigma


class TestSeveralSchurBlocks:
    def test_fraction_program_with_81_rows(self):
        # two settings: 3^2 strategies of 9 rows each, so the Schur factor is
        # solved in two row blocks
        p, sigma = qutrit_fraction_program(2, rng(48))
        assert p.n_constraints == 81 > _TRI_BLOCK

        a, b = solve(p, tol=1e-9), solve(p, tol=1e-9)
        assert a.status == b.status == "optimal"
        assert a.iterations == b.iterations
        assert a.primal_objective == b.primal_objective
        assert np.array_equal(a.y, b.y)
        assert all(np.array_equal(xa, xb) for xa, xb in zip(a.x, b.x))
        assert abs((a.primal_objective - 1.0) - steering_robustness(sigma).value) <= 1e-8

    def test_no_lapack_call_past_one_tile(self, monkeypatch):
        # larger factorizations and solves start OpenBLAS's thread pool
        p, _ = qutrit_fraction_program(3, rng(49))
        assert p.n_constraints == 243
        rows = []
        for name in ("cholesky", "solve", "inv", "eigh"):
            def spy(a, *args, _call=getattr(np.linalg, name), **kwargs):
                rows.append(np.shape(a)[-2])
                return _call(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        assert solve(p, tol=1e-9).status == "optimal"
        assert rows and max(rows) <= _TRI_BLOCK

    def test_repeated_row_gives_a_singular_schur_matrix(self):
        p, _ = qutrit_fraction_program(3, rng(49))
        repeated, _ = qutrit_fraction_program(3, rng(49))
        # row 100: coordinate 1 of strategy 11's equality, rebuilt on the basis
        strategy, coord = divmod(100, 9)
        choice = list(itertools.product(range(3), repeat=3))[strategy]
        basis = _herm_basis(3)[coord]
        terms = {3 * x + a: basis for x, a in enumerate(choice)}
        terms[9 + strategy] = basis   # the slack blocks follow the 9 member blocks
        repeated.add_scalar_constraint(terms, float(svec(np.eye(3))[coord]))
        assert repeated.n_constraints == 244
        a, b = solve(p, tol=1e-9), solve(repeated, tol=1e-9)
        assert a.status == b.status == "optimal"
        assert abs(a.primal_objective - b.primal_objective) <= 1e-9


def fraction_program(members, rhs=None, scale=None, count=4):
    """The steering-fraction program of a qubit assemblage in two settings
    with two outcomes: the rows of every such program are the same. Only
    the first `count` strategy equalities are added; `scale` maps
    (equality, block) to a coefficient other than 1."""
    p = SdpProblem()
    f = [[p.add_block(2) for _ in range(2)] for _ in range(2)]
    t = [p.add_block(2) for _ in range(4)]
    p.set_objective({f[x][a]: members[x, a] for x in range(2) for a in range(2)}, sense="max")
    for k in range(count):
        blocks = [f[0][k // 2], f[1][k % 2], t[k]]
        p.add_matrix_equality({i: (scale or {}).get((k, i), 1.0) for i in blocks},
                              np.eye(2) if rhs is None else rhs)
    return p


def fraction_rows(members):
    """`fraction_program(members)` with its rows written one by one as
    scalar rows on the Hermitian basis."""
    p = SdpProblem()
    f = [[p.add_block(2) for _ in range(2)] for _ in range(2)]
    t = [p.add_block(2) for _ in range(4)]
    p.set_objective({f[x][a]: members[x, a] for x in range(2) for a in range(2)}, sense="max")
    for row in range(16):
        k, coord = divmod(row, 4)
        blocks = [f[0][k // 2], f[1][k % 2], t[k]]
        basis = _herm_basis(2)[coord]
        p.add_scalar_constraint({i: basis for i in blocks}, float(svec(np.eye(2))[coord]))
    return p


def random_members(gen):
    bases = [np.linalg.qr(random_hermitian(2, gen) + 1j * np.eye(2))[0] for _ in range(2)]
    return steer(random_density_matrix(2, 2, rng=gen), MeasurementFamily.from_bases(bases)).members


def assert_same_solution(a, b, tol=1e-12):
    assert a.status == b.status
    assert a.iterations == b.iterations
    if a.status == "optimal":
        assert abs(a.primal_objective - b.primal_objective) <= tol
        assert abs(a.dual_objective - b.dual_objective) <= tol
        assert np.max(np.abs(a.y - b.y)) <= tol
        for xa, xb in zip(a.x, b.x):
            assert np.max(np.abs(xa - xb)) <= tol


class TestSolveMany:
    def programs(self, seed, count):
        gen = rng(seed)
        return [fraction_program(random_members(gen)) for _ in range(count)]

    def test_each_problem_matches_its_solo_solve(self):
        problems = self.programs(64, 6)
        batch = solve_many(problems, tol=1e-9)
        assert len({s.iterations for s in batch}) > 1   # some leave the batch early
        for p, sol in zip(problems, batch):
            assert sol.status == "optimal"
            assert_same_solution(sol, solve(p, tol=1e-9))
            assert [r["iter"] for r in sol.trace] == list(range(sol.iterations + 1))

    def test_batch_that_ends_both_ways(self):
        # with the cap at the largest solo iteration count, the problems
        # that need fewer iterations converge and the others hit the cap,
        # each as it does alone
        problems = self.programs(64, 6)
        counts = [solve(p, tol=1e-9).iterations for p in problems]
        cap = max(counts)
        assert min(counts) < cap
        batch = solve_many(problems, tol=1e-9, max_iters=cap)
        assert {s.status for s in batch} == {"optimal", "indeterminate"}
        for p, sol in zip(problems, batch):
            alone = solve(p, tol=1e-9, max_iters=cap)
            assert_same_solution(sol, alone, tol=0.0)
            assert sol.trace == alone.trace
            if sol.status == "indeterminate":
                assert sol.iterations == cap and len(sol.trace) == cap
                assert sol.primal_objective is None and sol.x is None

    def test_result_does_not_depend_on_the_partners(self):
        target = self.programs(61, 1)[0]
        alone = solve(target, tol=1e-9)
        for partners in (self.programs(62, 2), self.programs(63, 4)):
            for where in (0, len(partners)):
                batch = partners[:where] + [target] + partners[where:]
                assert_same_solution(solve_many(batch, tol=1e-9)[where], alone)

    def test_infeasible_problem_gets_its_own_status(self):
        # the same rows with b = svec(-I): F, T >= 0 cannot sum to -I
        gen = rng(64)
        tables = [random_members(gen) for _ in range(3)]
        problems = [fraction_program(tables[0]), fraction_program(tables[1], rhs=-np.eye(2)),
                    fraction_program(tables[2])]
        batch = solve_many(problems)
        assert [s.status for s in batch] == ["optimal", "indeterminate", "optimal"]
        for i in (0, 1, 2):
            assert_same_solution(batch[i], solve(problems[i]))

    def test_failed_schur_factor_solves_by_least_squares(self, monkeypatch):
        # in the first iteration problem 0's Schur matrix does not factor, so
        # its Newton systems are solved by least squares
        problems = self.programs(66, 3)
        solo = [solve(p, tol=1e-9) for p in problems]
        nrows = problems[0].n_constraints
        real = sdp._cholesky
        refused = []

        def cholesky(m):
            # refuse the first batched Schur factorization, then problem 0's own
            if m.shape[-1] == nrows and len(refused) < 2:
                refused.append(m.ndim)
                raise np.linalg.LinAlgError("refused")
            return real(m)

        monkeypatch.setattr(sdp, "_cholesky", cholesky)
        batch = solve_many(problems, tol=1e-9)
        assert refused == [3, 2]
        # least squares on a well-conditioned matrix gives the same step to
        # rounding, so problem 0 follows its solo path
        assert batch[0].status == solo[0].status == "optimal"
        assert batch[0].iterations == solo[0].iterations
        assert abs(batch[0].primal_objective - solo[0].primal_objective) <= 1e-10
        for i in (1, 2):
            assert_same_solution(batch[i], solo[i], tol=0.0)

    def test_failed_nt_scaling_stops_its_problem_alone(self, monkeypatch):
        # at iteration 2 problem 1's blocks cannot be scaled, so it ends
        # indeterminate there while its partners follow their solo paths
        problems = self.programs(67, 3)
        solo = [solve(p, tol=1e-9) for p in problems]
        real = sdp._nt_scaling
        calls = {"batch": 0, "slice": 0}

        def nt_scaling(xs):
            kind = "batch" if xs.ndim == 4 else "slice"
            calls[kind] += 1
            # refuse the third batched scaling, then problem 1's own
            if (kind, calls[kind]) in (("batch", 3), ("slice", 2)):
                raise np.linalg.LinAlgError("refused")
            return real(xs)

        monkeypatch.setattr(sdp, "_nt_scaling", nt_scaling)
        # the line search's interior tests, and whether each fell back to
        # one call per problem
        interior = []

        def guarded(fn, stack, fill=None, _call=sdp._guarded):
            result, failed = _call(fn, stack, fill)
            if fn is np.linalg.cholesky:
                interior.append(bool(failed.any()))
            return result, failed

        monkeypatch.setattr(sdp, "_guarded", guarded)
        batch = solve_many(problems, tol=1e-9)
        assert calls["slice"] == 3
        # problem 1 leaves before its Newton step, so no line search falls back
        assert interior and not any(interior)
        assert batch[1].status == "indeterminate" and batch[1].iterations == 2
        assert batch[1].trace == solo[1].trace[:3]
        for i in (0, 2):
            assert batch[i].status == "optimal"
            assert_same_solution(batch[i], solo[i], tol=0.0)

    def test_no_nt_scaling_for_a_problem_that_ends(self, monkeypatch):
        # a solve that ends optimal at iteration k scales its iterates at
        # iterations 0 .. k - 1 only
        problem = self.programs(68, 1)[0]
        real, calls = sdp._nt_scaling, []

        def nt_scaling(factors):
            calls.append(factors.shape[0])
            return real(factors)

        monkeypatch.setattr(sdp, "_nt_scaling", nt_scaling)
        sol = solve(problem, tol=1e-9)
        assert sol.status == "optimal" and sol.iterations > 0
        assert len(calls) == sol.iterations

    def test_problems_with_other_rows_or_blocks_raise(self):
        gen = rng(65)
        members = random_members(gen)
        base = fraction_program(members)
        assert solve_many([base, fraction_program(members)])[1].status == "optimal"
        scaled = fraction_program(members, scale={(1, 3): 2.0})   # one coefficient of one equality
        with pytest.raises(ValueError, match="rows"):
            solve_many([base, scaled])
        fewer = fraction_program(members, count=3)
        with pytest.raises(ValueError, match="rows"):
            solve_many([base, fewer])
        wider = fraction_program(members)
        wider.add_block(2)   # a ninth block, in no row
        with pytest.raises(ValueError, match="block"):
            solve_many([base, wider])
        # the same rows written as scalar rows are other constraint data
        with pytest.raises(ValueError, match="rows"):
            solve_many([base, fraction_rows(members)])


def mixed_problem(gen, n, shapes):
    """Known-optimum problem over several n x n blocks of different data.

    shapes lists, per block, whether its data are real. Each block gets
    complementary primal and dual solutions of complementary rank; every
    row touches all blocks except the last two rows, which touch one block
    each, so blocks differ in row count."""
    x_stars, s_stars = [], []
    for real in shapes:
        g = gen.standard_normal((n, n))
        if not real:
            g = g + 1j * gen.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        r = n // 2 or 1
        x_stars.append(q[:, :r] @ np.diag(gen.uniform(0.5, 2.0, r)) @ dagger(q[:, :r]))
        s_stars.append(q[:, r:] @ np.diag(gen.uniform(0.5, 2.0, n - r)) @ dagger(q[:, r:]))
    faces = sum((n // 2) * (n // 2 + 1) // 2 if real else (n // 2) ** 2 for real in shapes)
    rows = [list(range(len(shapes)))] * (faces + 2) + [[0], [len(shapes) - 1]]
    a_rows = [{i: _random_coefficient(n, shapes[i], gen) for i in row} for row in rows]
    y_star = gen.standard_normal(len(rows))
    c = [s_stars[i] + sum(yk * ak[i] for yk, ak in zip(y_star, a_rows) if i in ak)
         for i in range(len(shapes))]
    opt = sum(float(np.trace(ci @ xi).real) for ci, xi in zip(c, x_stars))

    p = _blocks(*[n] * len(shapes))
    p.set_objective(dict(enumerate(c)), sense="min")
    for ak in a_rows:
        p.add_scalar_constraint(ak, sum(float(np.trace(m @ x_stars[i]).real) for i, m in ak.items()))
    return p, opt, x_stars


class TestMixedShapes:
    def test_known_optimum_across_groups(self):
        gen = rng(32)
        p, opt, x_stars = mixed_problem(gen, 3, [False, True, False])
        sol = solve(p, tol=1e-9)
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - opt) <= 1e-6 * (1.0 + abs(opt))
        for xb, x_star in zip(sol.x, x_stars):
            assert np.max(np.abs(xb - x_star)) <= 1e-4 * max(1.0, np.abs(x_star).max())
        again = solve(p, tol=1e-9)
        assert again.status == "optimal"
        assert again.primal_objective == sol.primal_objective
        assert all(np.array_equal(xa, xb) for xa, xb in zip(sol.x, again.x))


class TestMaxIterations:
    def test_exit_reports_completed_iterations(self):
        gen = rng(16)
        p, _, _ = constructed_problem(4, 3, gen, True)
        assert solve(p).iterations > 3
        sol = solve(p, max_iters=3)
        assert sol.status == "indeterminate"
        assert sol.iterations == 3


# --- ADMM first-order oracle ---


def hvec(m):
    """Real coordinates of a Hermitian matrix with <A,B> = hvec(A).hvec(B)."""
    n = m.shape[0]
    iu = np.triu_indices(n, 1)
    return np.concatenate(
        [np.real(np.diag(m)), np.sqrt(2.0) * np.real(m[iu]), np.sqrt(2.0) * np.imag(m[iu])]
    )


def hmat(v, n):
    iu = np.triu_indices(n, 1)
    k = n * (n - 1) // 2
    m = np.diag(v[:n].astype(complex))
    m[iu] = (v[n : n + k] + 1j * v[n + k :]) / np.sqrt(2.0)
    return m + dagger(np.triu(m, 1))


def admm_sdp(c, a_mats, b, n, iters=20_000, rho=1.0):
    """min <c, X> s.t. tr(a_k X) = b_k, X >= 0, by two-block splitting."""
    a = np.stack([hvec(ak) for ak in a_mats])
    cvec = hvec(c)
    aat_inv = np.linalg.inv(a @ a.T)

    def project_affine(v):
        return v - a.T @ (aat_inv @ (a @ v - b))

    z = np.zeros(len(cvec))
    u = np.zeros(len(cvec))
    for _ in range(iters):
        xv = project_affine(z - u - cvec / rho)
        w, vv = np.linalg.eigh(hmat(xv + u, n))
        z = hvec(vv @ np.diag(np.maximum(w, 0.0)) @ dagger(vv))
        u = u + xv - z
    return float(cvec @ z)


class TestAgainstAdmmOracle:
    def test_strictly_feasible_random_problems(self):
        gen = rng(17)
        for _ in range(4):
            n = int(gen.integers(3, 6))
            m = int(gen.integers(2, 4))
            # strictly feasible on both sides
            x0 = random_hermitian(n, gen)
            x0 = x0 @ dagger(x0) / n + np.eye(n)
            a_mats = [random_hermitian(n, gen) for _ in range(m)]
            b = np.array([float(np.trace(ak @ x0).real) for ak in a_mats])
            s0 = random_hermitian(n, gen)
            s0 = s0 @ dagger(s0) / n + np.eye(n)
            y0 = gen.standard_normal(m)
            c = s0 + sum(yk * ak for yk, ak in zip(y0, a_mats))

            p = SdpProblem()
            x = p.add_block(n)
            p.set_objective({x: c}, sense="min")
            for ak, bk in zip(a_mats, b):
                p.add_scalar_constraint({x: ak}, bk)
            sol = solve(p, tol=1e-9)
            assert sol.status == "optimal"

            ref = admm_sdp(c, a_mats, b, n)
            scale = 1.0 + abs(ref)
            assert abs(sol.primal_objective - ref) <= 1e-5 * scale
