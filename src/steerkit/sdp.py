"""Small dense semidefinite solver over complex Hermitian blocks.

Primal-dual path-following interior-point method on the homogeneous
self-dual embedding, with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step. The cone is a product of Hermitian PSD blocks;
equality constraints are the only affine constraints. That is exactly the
shape of every program in this package (POVM optimization, LHS membership,
the three steering monotones), so no free or second-order cones are
supported.

Standard form handled internally:

    minimize    <c, x>
    subject to  A x = b,   x in K = H_+^n x ... x H_+^n   (B blocks)

Exits. A problem ends `optimal` when its residuals and relative gap are
within tol. Every other exit is `indeterminate`, with no solution: tau
collapsing to 0 (the embedding's sign of infeasibility, which no program of
the package has), a failed NT scaling, a line search that finds no interior
point, or max_iters. A step whose elimination of dtau cancels keeps tau.

Coordinates. A Hermitian n x n block is a real svec vector of length n^2:
the diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper triangle,
so that svec(A) . svec(B) = tr(AB). The unit vectors of these coordinates
are the orthonormal Hermitian basis E_p (`_herm_basis`). Data go in and
solutions come out at the caller's scale.

Stacked blocks. All blocks of a problem have one dimension n: every
variable of the package's programs is an operator on one party's space.
The blocks are one (B, n, n) complex stack from the layout to the
solution. Splitting a vector into that stack is one gather, and joining it
back is one svec. Every per-block step of an iteration (NT scaling, step
length, corrector, the line-search Cholesky test) is one batched numpy
call. For n = 2 the two eigen-steps, the eigendecomposition of the NT
scaling and the smallest eigenvalue of the step length, are exact closed
forms on the whole stack (`_eigh`, `_eigvalsh_min`), and so are the block
products (`_matmul`): on qubit blocks a LAPACK or BLAS call's per-matrix
overhead costs more than the arithmetic.

Constraints. The solver keeps the equalities' coefficient matrix C (B x E)
and the scalar rows' svecs S (B x s x n^2) (see SdpProblem), and orders the
rows equalities first. A x is C^T X on the (B, n^2) view of x followed by
S x, and A^T y is C Y + S^T y_s. With W_b the NT scaling point of block b
and K_b the svec matrix of X -> W_b X W_b, the Schur matrix is M = A K A^T.
Its equality block sum_b (c_b c_b^T) x K_b is one product of the (E^2 x B)
pairs c_be c_bf with the (B x n^4) stack of the K_b, then a transpose; the
rest comes from the S_b K_b. These are the sparse formulas of Fujisawa,
Kojima & Nakata (Math. Prog. 79, 1997) for scalar coefficients, for the NT
direction of Todd, Toh & Tutuncu (SIAM J. Optim. 8, 1998). The Newton step's
products W X W come from the same K_b stack: one real batched matrix-vector
product on svec coordinates, with no complex block products.

NT point. The line search's interior test factors each accepted block,
X = L_x L_x^H and S = L_s L_s^H, and the next iteration scales from those
factors. As in SDPT3 (Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 1999)
the scaling comes from a Hermitian eigendecomposition, not an SVD: with
A = L_s^H L_x and (lam^2, V) = eigh(A^H A), R = L_x V lam^-1/2 satisfies
R^H S R = R^-1 X R^-H = diag(lam), and W = R R^H. Step lengths are read in
the same frame: X + a dX stays PSD while I + a lam^-1/2 (R^-1 dX R^-H)
lam^-1/2 does, and likewise for S with R^H dS R, so no block is factored or
inverted a second time; the predictor's frame directions are the ones the
corrector needs.

Schur solve. Each Newton system M dy = r is solved with the Cholesky factor
M = L L^T by forward and back substitution over row blocks of _TRI_BLOCK
rows (`_tri_solve`): one matrix product for a tile's coupling to the tiles
already solved, O(n^2) per right-hand side once L is known. The factor is
built on the same tiles (`_cholesky`, a left-looking block Cholesky):
products of single tile pairs for the update, then one LAPACK factorization
and one LAPACK inverse per diagonal tile D. Every solve against D, for the
factor's rows below it and in every sweep, applies that inverse with one
refinement step (`_refined`): Z = D^-1 R, then X = Z + D^-1 (R - D Z), with
a residual within twice that of LAPACK's LU solve on the same triangle. The
inverse alone is not accurate enough: below D it failed a solve, and near
the end of a solve, where M is ill-conditioned, it let the tau-elimination
denominator g2.q2 + <c, W c> + kappa/tau, a difference of terms of order
1e9, round to exactly 0.0 on converging (3, 2), (3, 3) and (4, 2) solves. The
g1 system and the predictor's system are one two-column solve, so an
iteration makes four sweeps. At these sizes (up to a few hundred rows)
threads cannot pay, and calls this small run on the calling thread, whereas
one LAPACK call on the whole matrix starts OpenBLAS's thread pool from
about 128 rows: its workers then spin on the other cores, and waking them
adds latency. A problem whose M does not factor solves by least squares on
M (see below).

Batched problems. `solve_many` solves problems that share their blocks and
constraint rows, and differ only in b and in the objective, in one call
(the batched primal-dual interior-point pattern of Amos & Kolter, "OptNet",
ICML 2017). The problems of a batch share one layout. Every iterate and
block stack gets a leading problem axis; tau, kappa, mu, sigma, the step
length, the line search, the exit tests and the trace are kept per problem;
the P Schur matrices come from stacked products and one batched Cholesky
factorization. Each iteration works on the problems still running only: a
problem that finishes leaves the stacks. The three steps that can fail on
one problem's data, NT scaling, the Schur matrix's Cholesky factor and the
line search's interior test, follow one rule (`_guarded`): the call runs on
the whole batch, and only if it raises is each problem's slice tried alone
with the same routine. A problem that cannot be scaled ends indeterminate
before its Newton step, one whose Schur matrix does not factor solves by
least squares, and one whose trial point is not interior halves its step.
Every product with the constraint data and every inner product is one BLAS
call per problem, so no result depends on the batch. `solve` is
`solve_many` of one problem. The callers of `solve_many` are the
monotonicity audit (the robustness programs of an assemblage and its
branches, one batch per table shape), `lv_s` (the POVM programs of all
settings) and each half-step of the see-saw `lv_bell_seesaw` (likewise,
when a party has more than two outcomes).

The solver is deterministic: identical problem data produce bit-identical
iterates and solutions, alone or in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import dagger, herm

_STEP_FRACTION = 0.98
# Tile size of the Schur factorization and of the triangular solves on its
# factor. OpenBLAS runs a matrix product of at most 64^3 multiply-adds and a
# Cholesky factorization of fewer than 128 rows on the calling thread.
_TRI_BLOCK = 64
# Weight of the homogenizing pair (tau, kappa) in the duality measure
# mu = (<x, s> + tau kappa) / (nu + _PAIR): the central path is X S = mu I on
# every block and tau kappa = _PAIR mu, and the start X = I, S = I / _PAIR,
# tau = kappa = 1 lies on it. The weight 1/2 is the path of the real 2n x 2n
# embedding of each block (which doubles every block's degree), the path on
# which the package's tolerances were set.
_PAIR = 0.5


@lru_cache(maxsize=None)
def _svec_index(n: int):
    """Index tables of the n x n svec coordinates.

    `pos`, `w`: flat positions of the coordinates in the (n, n, 2) real view
    of a complex matrix, and their weights. `unpack`, `scale`: for every
    entry of that view, the coordinate it is read from and the factor."""
    rows, cols = np.triu_indices(n, 1)
    k, diag, r = len(rows), np.arange(n), 1.0 / np.sqrt(2.0)
    upper = 2 * (rows * n + cols)
    pos = np.concatenate([2 * diag * (n + 1), upper, upper + 1])
    w = np.concatenate([np.ones(n), np.full(2 * k, np.sqrt(2.0))])
    unpack = np.zeros((n, n, 2), dtype=int)
    scale = np.zeros((n, n, 2))
    unpack[diag, diag, 0], scale[diag, diag, 0] = diag, 1.0
    unpack[rows, cols, 0] = unpack[cols, rows, 0] = n + np.arange(k)
    unpack[rows, cols, 1] = unpack[cols, rows, 1] = n + k + np.arange(k)
    scale[rows, cols] = scale[cols, rows, 0] = r
    scale[cols, rows, 1] = -r
    return pos, w, unpack, scale


def svec(m: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix or a (..., n, n) stack.

    Only the diagonal and the upper triangle are read."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    n = m.shape[-1]
    pos, w, _, _ = _svec_index(n)
    return m.view(np.float64).reshape(m.shape[:-2] + (2 * n * n,))[..., pos] * w


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Hermitian matrix (or stack) with svec coordinates v."""
    _, _, unpack, scale = _svec_index(n)
    return np.ascontiguousarray(v[..., unpack] * scale).view(np.complex128)[..., 0]


@lru_cache(maxsize=None)
def _herm_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the Hermitian n x n matrices, in svec order (read-only)."""
    basis = smat(np.eye(n * n), n)
    basis.flags.writeable = False
    return basis


class SdpProblem:
    """Incremental problem builder; input of the wrong shape or not finite raises ValueError.

    Blocks are Hermitian PSD variables, all of one dimension n per problem.
    A matrix equality sum_b c_b X_b = R is n^2 rows, one per element E_p of
    the orthonormal Hermitian basis, kept as its first row, its scalar
    coefficients c_b and svec(R); a scalar row sum_b <A_b, X_b> = r is kept
    as its row, the svec(A_b) and r. Rows are numbered as they are added.

    Each call checks its matrices (the objective's, a scalar row's, or the
    right-hand sides of `add_matrix_equalities`) as one (k, n, n) stack:
    one isfinite and one Hermiticity test, one symmetrization and one svec.
    Only a stack that fails is checked again matrix by matrix, so that the
    error names the first bad block."""

    def __init__(self):
        self.blocks: list[int] = []   # block dimensions
        self._objective: dict[int, np.ndarray] = {}
        self.sense = "min"
        self.n_constraints = 0
        self._equalities: list[tuple] = []   # (first row, blocks, coefficients, svec(R))
        self._scalars: list[tuple] = []      # (row, blocks, (k, n^2) svecs, r)

    def add_block(self, dim: int) -> int:
        """Add a dim x dim Hermitian PSD variable; returns its index."""
        if dim < 1:
            raise ValueError(f"block dimension {dim} is below 1")
        if self.blocks and dim != self.blocks[0]:
            raise ValueError(f"block dimension {dim} differs from the problem's {self.blocks[0]}")
        self.blocks.append(dim)
        return len(self.blocks) - 1

    def _check_coeff(self, idx: int, m) -> np.ndarray:
        if idx not in range(len(self.blocks)):
            raise ValueError(f"no block {idx!r} among the problem's {len(self.blocks)}")
        a, n = np.asarray(m, dtype=np.complex128), self.blocks[idx]
        if a.shape != (n, n):
            raise ValueError(f"block {idx} is {n} x {n}, its matrix has shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"the matrix of block {idx} must be finite")
        try:
            return herm(a)
        except ValueError as exc:
            raise ValueError(f"the matrix of block {idx}: {exc}") from None

    def _check_coeffs(self, idxs: list, mats) -> np.ndarray:
        """The matrices of the blocks idxs, checked and symmetrized as one
        (k, n, n) stack; a stack that fails goes to `_check_coeff` matrix by
        matrix, whose error names the block."""
        nb = len(self.blocks)
        if not idxs:
            return np.empty((0, 0, 0), dtype=np.complex128)
        try:
            a = np.asarray(mats, dtype=np.complex128)
            if (all(i in range(nb) for i in idxs) and a.shape == (len(idxs),) + (self.blocks[0],) * 2
                    and np.isfinite(a).all()):
                return herm(a)
        except ValueError:   # matrices of unequal shapes, or not Hermitian
            pass
        return np.array([self._check_coeff(i, m) for i, m in zip(idxs, mats)])

    def set_objective(self, terms: dict[int, np.ndarray], sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
        self.sense = sense
        self._objective = dict(zip(terms, self._check_coeffs(list(terms), list(terms.values()))))

    def add_scalar_constraint(self, terms: dict[int, np.ndarray], rhs: float):
        """<A_i, X_i> summed over the given blocks equals rhs."""
        if np.ndim(rhs):
            raise ValueError(f"a scalar row needs a scalar rhs, not shape {np.shape(rhs)}")
        if not terms:
            raise ValueError(f"a scalar row needs blocks among the problem's {len(self.blocks)}")
        if not np.isrealobj(rhs) or not np.isfinite(rhs):
            raise ValueError(f"a scalar row needs a finite real rhs, not {rhs!r}")
        svecs = svec(self._check_coeffs(list(terms), list(terms.values())))
        self._scalars.append((self.n_constraints, list(terms), svecs, float(rhs)))
        self.n_constraints += 1

    def add_matrix_equality(self, terms: dict[int, float], rhs: np.ndarray):
        """sum_i coeff_i * X_i = rhs."""
        self.add_matrix_equalities([terms], [rhs])

    def add_matrix_equalities(self, terms: list[dict[int, float]], rhs):
        """sum_i terms[e][i] * X_i = rhs[e] for every e, the right-hand sides
        an (E, n, n) stack, checked as one stack; each rhs is read as a
        matrix of the first block of its row."""
        nb = len(self.blocks)
        if any(not row or not all(i in range(nb) for i in row) for row in terms):
            raise ValueError(f"a matrix equality needs blocks among the problem's {nb}")
        if len(rhs) != len(terms):
            raise ValueError(f"{len(terms)} matrix equalities need as many right-hand sides, not {len(rhs)}")
        coef = np.array([c for row in terms for c in row.values()])
        if not np.isrealobj(coef) or not np.isfinite(coef).all():
            bad = next(c for c in (np.asarray(list(row.values())) for row in terms)
                       if not np.isrealobj(c) or not np.isfinite(c).all())
            raise ValueError(f"a matrix equality needs finite real coefficients, not {bad}")
        b = svec(self._check_coeffs([next(iter(row)) for row in terms], rhs))
        ends = np.cumsum([len(row) for row in terms])
        for row, c, b_row in zip(terms, np.split(coef, ends[:-1]), b):
            self._equalities.append((self.n_constraints, list(row), c, b_row))
            self.n_constraints += len(b_row)

    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The constraints as arrays: the E equalities' first rows and their
        coefficients C (B, E), the s scalar rows and their svecs S (B, s, n^2)."""
        nb, t = len(self.blocks), self.blocks[0] ** 2
        coef = np.zeros((nb, len(self._equalities)))
        for e, (_, idxs, c, _) in enumerate(self._equalities):
            coef[idxs, e] = c
        scal = np.zeros((nb, len(self._scalars), t))
        for s, (_, idxs, svecs, _) in enumerate(self._scalars):
            scal[idxs, s] = svecs
        return (np.array([eq[0] for eq in self._equalities], dtype=int), coef,
                np.array([row[0] for row in self._scalars], dtype=int), scal)


@dataclass
class SdpSolution:
    status: str                             # optimal, or indeterminate with no solution (None)
    x: np.ndarray | None = None             # (B, n, n) primal blocks
    y: np.ndarray | None = None             # equality multipliers
    s: np.ndarray | None = None             # (B, n, n) dual slack blocks
    primal_objective: float | None = None   # in the caller's sense
    dual_objective: float | None = None
    gap: float | None = None                # absolute duality gap, caller's sense
    rel_gap: float | None = None
    iterations: int = 0
    trace: list[dict] = field(default_factory=list)


class _Layout:
    """Blocks and constraint coefficients in svec coordinates, the blocks as one stack.

    Rows are ordered equalities first; `order` holds the position of each
    caller's row. A layout is built from one problem and serves every problem
    with the same blocks and rows; `data` reads a problem's own b and c."""

    def __init__(self, problem: SdpProblem):
        self.blocks = problem.blocks
        nb, n = len(self.blocks), self.blocks[0]
        self.dim, t = n, n * n
        self.total = nb * t
        self.nu = float(nb * n)
        self.nrows = problem.n_constraints
        self.rows = problem._rows()
        first, self.coef, scalar_rows, self.scal = self.rows   # C (B, E) and S (B, s, t)
        self.neq = len(first) * t
        self.order = np.argsort(np.concatenate([np.add.outer(first, np.arange(t)).ravel(), scalar_rows]))
        # row e E + f: c_be c_bf over the blocks b
        self.pairs = np.einsum("be,bf->efb", self.coef, self.coef).reshape(-1, nb)
        self.scal_rows = self.scal.transpose(1, 0, 2).reshape(len(scalar_rows), self.total)   # (s, total)
        _, _, unpack, self.scale = _svec_index(n)
        self.gather = (t * np.arange(nb))[:, np.newaxis, np.newaxis, np.newaxis] + unpack

    def a_dot(self, x: np.ndarray) -> np.ndarray:
        """A x, for one vector or a (..., total) stack: C^T X, then S x."""
        lead = x.shape[:-1]
        eq = self.coef.T @ x.reshape(lead + (len(self.blocks), -1))
        return np.concatenate([eq.reshape(lead + (-1,)), _mv(self.scal_rows, x)], axis=-1)

    def at_dot(self, y: np.ndarray) -> np.ndarray:
        """A^T y, for one vector or a (..., nrows) stack: C Y + S^T y_s."""
        lead = y.shape[:-1]
        eq = self.coef @ y[..., :self.neq].reshape(lead + (-1, self.dim * self.dim))
        return eq.reshape(lead + (-1,)) + _mv(self.scal_rows.T, y[..., self.neq:])

    def data(self, problem: SdpProblem) -> tuple[np.ndarray, np.ndarray, float]:
        """b (in the layout's row order), c (sign-adjusted to minimization)
        and that sign for a problem with this layout's blocks and rows."""
        sign = 1.0 if problem.sense == "min" else -1.0
        c = np.zeros((len(self.blocks), self.dim * self.dim))
        if problem._objective:
            c[list(problem._objective)] = sign * svec(np.array(list(problem._objective.values())))
        b = [eq[3] for eq in problem._equalities] + [[row[3] for row in problem._scalars]]
        return np.concatenate(b), c.ravel(), sign

    def split(self, vec: np.ndarray) -> np.ndarray:
        """The (..., B, n, n) Hermitian stack of (..., total) svec vectors (smat with one gather)."""
        return (vec.take(self.gather, axis=-1) * self.scale).view(np.complex128)[..., 0]

    def join(self, stack: np.ndarray) -> np.ndarray:
        return svec(stack).reshape(stack.shape[:-3] + (-1,))


# a @ v and <u, v> for every vector of a (P, n) stack, one BLAS call per
# vector, so that a problem's arithmetic is the same whatever it is batched
# with; numpy 2.2 has them as gufuncs, older numpy gets the same BLAS calls
# from stacked matmul.
def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.matmul(a, v[..., np.newaxis])[..., 0]


def _vecdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.matmul(u[..., np.newaxis, :], v[..., np.newaxis])[..., 0, 0]


_mv, _dot = getattr(np, "matvec", _matvec), getattr(np, "vecdot", _vecdot)


def _schur_complement(layout: _Layout, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M = A K A^T for each problem's stack of scaling points W_b in the
    (P, B, n, n) stack w, rows in the layout's order, and the (P, B, n^2, n^2)
    stack of the K_b: row p of K_b is svec(W_b E_p W_b)."""
    count, nb, n = w.shape[:3]
    neq, t = layout.neq, n * n
    e, s = layout.coef.shape[1], layout.scal.shape[1]
    w = w.reshape(-1, n, n)
    # W [E_1 ... E_t], then the W E_p stacked into rows times W: batched
    # complex products cost one BLAS call per matrix, so this makes two
    # calls per block rather than two per block and basis element
    we = _matmul(w, _herm_basis(n).transpose(1, 0, 2).reshape(n, t * n))
    wew = _matmul(we.reshape(-1, n, t, n).transpose(0, 2, 1, 3).reshape(-1, t * n, n), w)
    k = svec(wew.reshape(count, nb, t, n, n))   # (P, B, t, t), symmetric
    sk = layout.scal @ k                        # (P, B, s, t): the S_b K_b
    m = np.empty((count, layout.nrows, layout.nrows))
    # Splitting an axis of a slice is a view, so these write into m.
    # Equality rows (e, p) and (f, q): sum_b c_be c_bf K_b[p, q].
    m[:, :neq, :neq].reshape(count, e, t, e, t)[...] = (
        layout.pairs @ k.reshape(count, nb, t * t)).reshape(count, e, e, t, t).swapaxes(2, 3)
    # Equality row (e, p) and scalar row r: sum_b c_be (S_b K_b)[r, p].
    m[:, :neq, neq:].reshape(count, e, t, s)[...] = (
        layout.coef.T @ sk.reshape(count, nb, s * t)).reshape(count, e, s, t).swapaxes(2, 3)
    m[:, neq:, :neq] = m[:, :neq, neq:].swapaxes(1, 2)
    m[:, neq:, neq:] = sk.swapaxes(1, 2).reshape(count, s, nb * t) @ layout.scal_rows.T
    return m, k


class _Nt(NamedTuple):
    """NT scaling of a stack: R with R^H S R = R^-1 X R^-H = diag(lam), W = R R^H."""
    r: np.ndarray
    rinv: np.ndarray
    w: np.ndarray
    lam: np.ndarray


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks; over an inner dimension of 2, the two products of
    columns and rows summed, which costs two multiplies and an add
    whatever the stack's length, where matmul pays one BLAS call per
    matrix."""
    if a.shape[-1] != 2:
        return a @ b
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a (..., n, n) Hermitian
    stack: np.linalg.eigh, in closed form for n = 2.

    With m = (a + d)/2 and r = hypot((a - d)/2, |b|) the eigenvalues are
    m -+ r. The eigenvector of m - r is read off the row of h - (m - r) I
    whose diagonal pivot, |a - d|/2 + r, is the larger, and the second
    column is its unitary complement; b = 0, a = d gives the identity."""
    if h.shape[-1] != 2:
        return np.linalg.eigh(h)
    a, d, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
    half, mid = 0.5 * (a - d), 0.5 * (a + d)
    size = np.abs(b)
    r = np.hypot(half, size)
    pivot = np.abs(half) + r
    pivot = pivot + (pivot == 0.0)   # 1 where h is a multiple of I
    scale = 1.0 / np.hypot(pivot, size)
    pivot, b = pivot * scale, b * scale
    # the column (x, -conj(y)) is the eigenvector of m - r: (b, -pivot)
    # from the first row when a > d, (pivot, -conj(b)) from the second
    first = half > 0.0
    v = np.empty(h.shape, dtype=np.complex128)
    v[..., 0, 0] = x = np.where(first, b, pivot)
    v[..., 0, 1] = y = np.where(first, pivot, b)
    v[..., 1, 0] = -y.conj()
    v[..., 1, 1] = x.conj()
    lam = np.empty(h.shape[:-1])
    lam[..., 0] = mid - r
    lam[..., 1] = mid + r
    return lam, v


def _eigvalsh_min(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a (..., n, n) Hermitian stack,
    (a + d)/2 - hypot((a - d)/2, |b|) for n = 2."""
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)[..., 0]
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    return 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(h[..., 0, 1]))


def _nt_scaling(factors: np.ndarray) -> _Nt:
    """NT scaling of the blocks X, then S, from their Cholesky factors L_x,
    then L_s, stacked on axis -3.

    With A = L_s^H L_x and (lam^2, V) = eigh(A^H A), R = L_x V lam^-1/2 and
    R^-1 = lam^-3/2 V^H A^H L_s^H."""
    nb = factors.shape[-3] // 2
    lx, ls = factors[..., :nb, :, :], factors[..., nb:, :, :]
    a = _matmul(dagger(ls), lx)
    lam2, v = _eigh(_matmul(dagger(a), a))
    lam = np.sqrt(np.maximum(lam2, 1e-300))
    isq = 1.0 / np.sqrt(lam)
    r = _matmul(lx, v) * isq[..., np.newaxis, :]
    rinv = _matmul((isq / lam)[..., :, np.newaxis] * dagger(_matmul(a, v)), dagger(ls))
    return _Nt(r, rinv, _matmul(r, dagger(r)), lam)


def _guarded(fn, stack: np.ndarray, fill):
    """fn of the (P, ...) stack, and the (P,) mask of the problems whose
    slice makes fn raise LinAlgError.

    Only when fn of the whole stack raises is each slice tried alone with
    the same fn. The failing slices are then replaced by `fill` and fn of
    the stack is the result."""
    failed = np.zeros(len(stack), dtype=bool)
    try:
        return fn(stack), failed
    except np.linalg.LinAlgError:
        pass
    for j, part in enumerate(stack):
        try:
            fn(part)
        except np.linalg.LinAlgError:
            failed[j] = True
    stack = stack.copy()
    stack[failed] = fill
    return fn(stack), failed


def _max_step(wmin: float, tau: float, dtau: float, kappa: float, dkappa: float) -> float:
    """Largest step that keeps the blocks PSD (given the smallest scaled
    eigenvalue wmin of the direction) and tau, kappa positive."""
    a = np.inf if wmin >= 0.0 else -1.0 / wmin
    if dtau < 0:
        a = min(a, -tau / dtau)
    if dkappa < 0:
        a = min(a, -kappa / dkappa)
    return a


def _refined(d: np.ndarray, dinv: np.ndarray, r: np.ndarray) -> np.ndarray:
    """D^-1 R for a triangular tile D (or stack) with inverse dinv, with one
    refinement step against D: Z = D^-1 R, then X = Z + D^-1 (R - D Z)."""
    z = dinv @ r
    return z + dinv @ (r - d @ z)


def _cholesky(m: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Lower Cholesky factor L of a positive definite (real or Hermitian)
    matrix or (..., n, n) stack by left-looking block Cholesky over tiles of
    _TRI_BLOCK rows, and the inverses of L's diagonal tiles D. Per tile
    column: one stacked product of tile pairs for the update, one LAPACK
    factorization and one LAPACK inverse of D, and the rows below D solved
    through that inverse (`_refined`). Up to _TRI_BLOCK rows L is the LAPACK
    call of np.linalg.cholesky(m). Raises LinAlgError when a matrix is not
    positive definite."""
    n = m.shape[-1]
    lead = m.shape[:-2]
    size = min(n, _TRI_BLOCK)
    count = -(-n // size)
    # the factor, padded with zeros to whole tiles, and its tile view
    fac = np.zeros(lead + (count * size, count * size), dtype=m.dtype)
    tiles = fac.reshape(lead + (count, size, count, size)).swapaxes(-3, -2)
    inv = []
    for k in range(count):
        i0, i1 = k * size, min(k * size + size, n)
        col = m[..., i0:, i0:i1]
        if k:
            update = (tiles[..., k:, :k, :, :] @ dagger(tiles[..., k:k + 1, :k, :, :])).sum(axis=-3)
            col = col - update.reshape(lead + (-1, size))[..., :n - i0, :i1 - i0]
        diag = fac[..., i0:i1, i0:i1] = np.linalg.cholesky(col[..., :i1 - i0, :])
        inv.append(np.linalg.inv(diag))
        if i1 < n:
            fac[..., i1:n, i0:i1] = dagger(_refined(diag, inv[k], dagger(col[..., i1 - i0:, :])))
    return fac[..., :n, :n], inv


def _tri_solve(t: np.ndarray, inv: list[np.ndarray], v: np.ndarray, lower: bool) -> np.ndarray:
    """Solve T X = V for a triangular T by block substitution, for one
    system or a stack of them ((..., n, n) and (..., n, k)): per tile D of
    _TRI_BLOCK rows, one matrix product for the coupling to the tiles
    already solved, then D^-1 from inv (`_cholesky`) through `_refined`."""
    n = v.shape[-2]
    starts = list(enumerate(range(0, n, _TRI_BLOCK)))
    x = np.empty(v.shape)
    for k, i0 in (starts if lower else reversed(starts)):
        i1 = min(i0 + _TRI_BLOCK, n)
        r = v[..., i0:i1, :]
        if lower and i0:
            r = r - t[..., i0:i1, :i0] @ x[..., :i0, :]
        elif not lower and i1 < n:
            r = r - t[..., i0:i1, i1:] @ x[..., i1:, :]
        x[..., i0:i1, :] = _refined(t[..., i0:i1, i0:i1], inv[k], r)
    return x


@dataclass
class _Running:
    """Data and iterates of the problems still running, stacked on axis 0."""
    ids: np.ndarray     # positions in the caller's list
    b: np.ndarray
    c: np.ndarray
    sign: np.ndarray
    bnorm: np.ndarray
    cnorm: np.ndarray
    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    tau: np.ndarray
    kappa: np.ndarray
    factors: np.ndarray   # (P, 2B, n, n) Cholesky factors of the X, then the S blocks
    # residuals and mu of the iterate, set at the top of every iteration
    rp: np.ndarray | None = None
    rd: np.ndarray | None = None
    rg: np.ndarray | None = None
    mu: np.ndarray | None = None

    def take(self, keep: np.ndarray) -> _Running:
        return _Running(*(getattr(self, f.name)[keep] for f in fields(self)))


def solve(problem: SdpProblem, tol: float = 1e-8, max_iters: int = 100) -> SdpSolution:
    """Solve the problem to the requested tolerance: `optimal` with a
    certified duality gap, or `indeterminate` (see Exits above). The iterate
    trace (mu, residuals, objectives, <x,s>) is kept for auditing."""
    return solve_many([problem], tol=tol, max_iters=max_iters)[0]


def solve_many(problems: list[SdpProblem], tol: float = 1e-8,
               max_iters: int = 100) -> list[SdpSolution]:
    """Solve problems with the same blocks and constraint rows in one batch.

    b, the objective and its sense may differ between the problems; a
    problem whose blocks or constraint coefficients differ from the first
    one's raises ValueError, as do a tol that is not finite and positive and
    max_iters below 1. Each solution is the one `solve` returns for its
    problem alone, bit for bit.
    """
    problems = list(problems)
    if not (math.isfinite(tol) and tol > 0.0 and max_iters >= 1):
        raise ValueError(f"need a finite tol > 0 and max_iters >= 1, not tol={tol}, max_iters={max_iters}")
    if not problems:
        raise ValueError("no problems to solve")
    if not problems[0].blocks:
        raise ValueError("problem has no blocks")
    if not problems[0].n_constraints:
        raise ValueError("problem has no constraints")

    lay = _Layout(problems[0])
    if any(p.blocks != lay.blocks or not all(map(np.array_equal, p._rows(), lay.rows))
           for p in problems[1:]):
        raise ValueError("batched problems need the same blocks and constraint rows")
    nu, nrows, split, join, a_dot, at_dot = lay.nu, lay.nrows, lay.split, lay.join, lay.a_dot, lay.at_dot
    bs, cs, signs = zip(*(lay.data(p) for p in problems))

    # HSD starting point, the same for every problem.
    eye, eye_rows = np.eye(lay.dim), np.eye(nrows)
    x0 = join(np.broadcast_to(eye, (len(lay.blocks), lay.dim, lay.dim)))
    mu0 = (x0 @ (x0 / _PAIR) + 1.0) / (nu + _PAIR)
    start = np.linalg.cholesky(np.concatenate([split(x0), split(x0 / _PAIR)]))
    count = len(problems)
    b, c = np.array(bs), np.array(cs)
    x = np.tile(x0, (count, 1))
    run = _Running(
        ids=np.arange(count), b=b, c=c, sign=np.array(signs),
        bnorm=1.0 + np.abs(b).max(axis=1, initial=0.0), cnorm=1.0 + np.abs(c).max(axis=1, initial=0.0),
        x=x, s=x / _PAIR, y=np.zeros((count, nrows)), tau=np.ones(count), kappa=np.ones(count),
        factors=np.tile(start, (count, 1, 1, 1)))

    traces: list[list[dict]] = [[] for _ in problems]
    out: list[SdpSolution | None] = [None] * count

    def leave(run: _Running, ended: dict[int, dict], iters: int) -> tuple[_Running, np.ndarray]:
        """Record the solutions that `ended` maps from stack positions (as SdpSolution
        fields), at iteration iters, and drop those problems: the survivors and their mask."""
        keep = np.ones(len(run.ids), dtype=bool)
        for j, fields_j in ended.items():
            i = run.ids[j]
            out[i] = SdpSolution(iterations=iters, trace=traces[i], **fields_j)
            keep[j] = False
        return (run.take(keep) if ended else run), keep

    def indeterminate(mask: np.ndarray) -> dict[int, dict]:
        return {j: dict(status="indeterminate") for j in np.flatnonzero(mask).tolist()}

    for it in range(max_iters):
        b, c, x, s, y, tau, kappa = run.b, run.c, run.x, run.s, run.y, run.tau, run.kappa
        by, cx, xs = _dot(b, y), _dot(c, x), _dot(x, s)
        run.rp = a_dot(x) - b * tau[:, np.newaxis]
        run.rd = -at_dot(y) + c * tau[:, np.newaxis] - s
        run.rg = by - cx - kappa
        run.mu = (xs + tau * kappa) / (nu + _PAIR)
        pres = np.abs(run.rp).max(axis=1, initial=0.0) / (tau * run.bnorm)
        dres = np.abs(run.rd).max(axis=1, initial=0.0) / (tau * run.cnorm)
        # Per problem, in Python floats: the trace row and the exit tests.
        ended = {}
        rows = zip(run.sign.tolist(), run.mu.tolist(), tau.tolist(), kappa.tolist(), pres.tolist(),
                   dres.tolist(), cx.tolist(), by.tolist(), xs.tolist())
        for j, (sign, mu_j, tau_j, kappa_j, pres_j, dres_j, cx_j, by_j, xs_j) in enumerate(rows):
            pobj, dobj = cx_j / tau_j, by_j / tau_j
            relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
            po, do = sign * pobj, sign * dobj
            traces[run.ids[j]].append({"iter": it, "mu": mu_j, "tau": tau_j, "kappa": kappa_j,
                                       "pres": pres_j, "dres": dres_j, "pobj": po, "dobj": do,
                                       "xs_inner": xs_j})
            if pres_j <= tol and dres_j <= tol and relgap <= tol:
                ended[j] = dict(status="optimal", x=split(x[j] / tau_j), y=sign * y[j][lay.order] / tau_j,
                                s=split(s[j] / tau_j), primal_objective=po, dual_objective=do,
                                gap=abs(po - do), rel_gap=relgap)
            # a collapsed tau leaves no optimum to certify
            elif tau_j < 1e-8 * min(1.0, kappa_j) or (mu_j < 1e-10 * mu0 and tau_j < 1e-6):
                ended[j] = dict(status="indeterminate")
        run, _ = leave(run, ended, it)
        if not len(run.ids):
            break
        # NT scaling from the Cholesky factors of the iterate, which the line
        # search computed. A problem whose blocks cannot be scaled ends
        # before its Newton step.
        nt, failed = _guarded(_nt_scaling, run.factors, start)
        if failed.any():
            run, keep = leave(run, indeterminate(failed), it)
            if not len(run.ids):
                break
            nt = _Nt(*(part[keep] for part in nt))
        b, c, x, s, y, tau, kappa = run.b, run.c, run.x, run.s, run.y, run.tau, run.kappa
        rp, rd, rg, mu = run.rp, run.rd, run.rg, run.mu

        m_schur, k = _schur_complement(lay, nt.w)
        m_schur = 0.5 * (m_schur + m_schur.swapaxes(-1, -2))
        shift = 1e-14 * np.trace(m_schur, axis1=-2, axis2=-1) / nrows
        shifted = m_schur + shift[:, np.newaxis, np.newaxis] * eye_rows
        # a problem whose Schur matrix does not factor solves by least squares
        (chol, inv), failed = _guarded(_cholesky, shifted, eye_rows)
        chol_t = np.ascontiguousarray(chol.swapaxes(-1, -2))
        inv_t = [tile.swapaxes(-1, -2) for tile in inv]

        def schur_solve(v):
            """M Q = V for the (P, nrows, k) columns V."""
            sol = _tri_solve(chol_t, inv_t, _tri_solve(chol, inv, v, lower=True), lower=False)
            for j in np.flatnonzero(failed):
                sol[j] = np.linalg.lstsq(m_schur[j], v[j], rcond=None)[0]
            return sol

        def apply_w(vec):
            """svec(W X W) for the svec vectors X, block by block: K_b X_b."""
            return _mv(k, vec.reshape(k.shape[:-1])).reshape(vec.shape)

        def newton_rhs(p1, p2, p4):
            """h = R p4 R^H + W p2 W (p4 a block stack) and the Schur
            right-hand side p1 - A h."""
            h = join(_matmul(_matmul(nt.r, p4), r_h)) + apply_w(p2)
            return h, p1 - a_dot(h)

        def newton(h, q1, p2, p3, p5):
            rhs2 = p3 + _dot(c, h) + p5 / tau
            dtau = np.where(cancels, 0.0, (rhs2 - _dot(g2, q1)) / denom)
            dy = q1 + q2 * dtau[:, np.newaxis]
            aty = at_dot(dy)
            dx = h + apply_w(aty) - wc * dtau[:, np.newaxis]
            ds = -aty + c * dtau[:, np.newaxis] - p2
            dkappa = (p5 - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        # Directions in the NT frame: R^-1 dX R^-H, then R^H dS R. The
        # iterate is diag(lam) in that frame, so scaled by lam^-1/2 on both
        # sides their smallest eigenvalue gives the largest step.
        lam = nt.lam
        r_h = dagger(nt.r)
        frame = np.concatenate([nt.rinv, r_h], axis=-3)
        frame_h = dagger(frame)
        isq = 1.0 / np.sqrt(lam)
        # lam^-1/2 on both sides, for the (X, S) halves of a frame stack
        unit = (isq[..., :, np.newaxis] * isq[..., np.newaxis, :])[:, np.newaxis]

        def in_frame(dx, ds):
            return _matmul(_matmul(frame, np.concatenate([split(dx), split(ds)], axis=-3)), frame_h)

        def max_alpha(d, dtau, dkappa):
            g = d.reshape(unit.shape[:1] + (2,) + unit.shape[2:]) * unit
            wmin = _eigvalsh_min(0.5 * (g + dagger(g))).min(axis=(-2, -1))
            return np.array([_max_step(*v) for v in zip(wmin.tolist(), tau.tolist(), dtau.tolist(),
                                                        kappa.tolist(), dkappa.tolist())])

        wc = apply_w(c)
        awc = a_dot(wc)
        g1 = awc + b
        g2 = b - awc
        alpha_sc = _dot(c, wc) + kappa / tau

        # Predictor (affine scaling direction); its Schur system and the
        # g1 system are one two-column solve.
        p4_a = -lam[..., np.newaxis] * eye
        h_a, v_a = newton_rhs(-rp, -rd, p4_a)
        q2, q1_a = np.moveaxis(schur_solve(np.stack([g1, v_a], axis=-1)), -1, 0)
        denom = _dot(g2, q2) + alpha_sc
        cancels = np.abs(denom) < 1e-300
        denom[cancels] = 1.0
        dx_a, dy_a, ds_a, dtau_a, dkap_a = newton(h_a, q1_a, -rd, -rg, -tau * kappa)
        d_a = in_frame(dx_a, ds_a)
        alpha_aff = np.minimum(1.0, max_alpha(d_a, dtau_a, dkap_a))
        step = alpha_aff[:, np.newaxis]
        mu_aff = (_dot(x + step * dx_a, s + step * ds_a)
                  + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkap_a)) / (nu + _PAIR)
        # np.float_power is libm pow element by element, as for a scalar;
        # the array ** 3 takes a SIMD path that rounds differently
        sigma = np.minimum(1.0, np.maximum(0.0, np.float_power(mu_aff / mu, 3)))

        # Corrector (combined direction).
        nb = len(lay.blocks)
        dxs, dss = d_a[:, :nb], d_a[:, nb:]
        hcorr = 0.5 * (_matmul(dxs, dss) + _matmul(dss, dxs))
        target = ((sigma * mu)[:, np.newaxis, np.newaxis] - lam * lam)[..., np.newaxis] * eye - hcorr
        p4 = target / (0.5 * (lam[..., :, np.newaxis] + lam[..., np.newaxis, :]))
        p5 = _PAIR * sigma * mu - tau * kappa - dtau_a * dkap_a
        eta = 1.0 - sigma
        p2 = -eta[:, np.newaxis] * rd
        h, v = newton_rhs(-eta[:, np.newaxis] * rp, p2, p4)
        dx, dy, ds, dtau, dkappa = newton(h, schur_solve(v[..., np.newaxis])[..., 0], p2, -eta * rg, p5)

        # Line search: each problem halves its step until its iterate is
        # interior. Every try evaluates the whole batch; a problem keeps the
        # candidate of the step it accepted, and the Cholesky factors of its
        # blocks for the next NT scaling.
        alpha = np.minimum(1.0, _STEP_FRACTION * max_alpha(in_frame(dx, ds), dtau, dkappa))
        searching = np.ones(len(run.ids), dtype=bool)
        for _ in range(40):
            tau_new = tau + alpha * dtau
            kappa_new = kappa + alpha * dkappa
            x_new = x + alpha[:, np.newaxis] * dx
            s_new = s + alpha[:, np.newaxis] * ds
            blocks = np.concatenate([split(x_new), split(s_new)], axis=-3)
            factors, singular = _guarded(np.linalg.cholesky, blocks, eye)
            ok = (tau_new > 0) & (kappa_new > 0) & ~singular
            searching &= ~ok
            if not searching.any():
                break
            alpha[searching] *= 0.5
        # a problem still searching leaves the batch with whatever candidate it had
        run.x, run.s, run.tau, run.kappa, run.factors = x_new, s_new, tau_new, kappa_new, factors
        run.y = y + alpha[:, np.newaxis] * dy
        run, _ = leave(run, indeterminate(searching), it)
        if not len(run.ids):
            break
    else:
        leave(run, indeterminate(np.ones(len(run.ids))), max_iters)
    return out
