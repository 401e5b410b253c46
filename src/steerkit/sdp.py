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
    subject to  A x = b,   x in K = H_+^{n_1} x ... x H_+^{n_k}

Coordinates. A Hermitian n x n block is a real svec vector of length n^2:
the diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper triangle,
so that svec(A) . svec(B) = tr(AB). The unit vectors of these coordinates
are the orthonormal Hermitian basis E_p (`_herm_basis`). Data go in and
solutions come out at the caller's scale.

Stacked blocks. At set-up the blocks are grouped by dimension, and each
group keeps the positions of its blocks' coordinates in the svec vector.
Splitting a vector into matrices is one gather per group giving a
(B, n, n) complex stack, and joining is one scatter per group. Every per-block step of an
iteration (NT scaling, step length, corrector, the line-search Cholesky
test) is one batched numpy call per group.

Schur complement. With W_b the NT scaling point of block b, the Schur matrix
is M = sum_b A_b K_b A_b^T, where K_b is the svec matrix of X -> W_b X W_b,
column p being svec(W_b E_p W_b). The constraint data are kept per block in
compact form: A_b holds only the rows that touch block b. Blocks of one
group with equal row counts are multiplied as one stack, and all the
products are scattered into M by a single bincount. These are the block
sparse formulas of Fujisawa, Kojima & Nakata (Math. Prog. 79, 1997) for the
NT direction of Todd, Toh & Tutuncu (SIAM J. Optim. 8, 1998).

Schur solve. Each Newton system M dy = r is solved with the Cholesky factor
M = L L^T by forward and back substitution over row blocks of _TRI_BLOCK
rows (`_tri_solve`): a LAPACK solve on each diagonal block and one
matrix-vector product for its coupling to the blocks already solved, O(n^2)
per right-hand side once L is known. No inverse of M or of L is formed: an
explicit inverse loses accuracy on the ill-conditioned Schur matrices near
the end of a solve. Programs of at most _TRI_BLOCK rows take a single LAPACK
solve per triangle. If the factorization fails, least squares on M is the
fallback.

The solver is deterministic: identical problem data produce bit-identical
iterates and solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import herm

_STEP_FRACTION = 0.98
# Row-block size of the triangular solves on the Schur factor.
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


def _ct(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


class SdpProblem:
    """Incremental problem builder.

    Blocks are Hermitian PSD variables; constraints are scalar rows or
    matrix equalities between scalar-weighted sums of blocks and a fixed
    matrix (the matrix form is expanded into dim^2 scalar rows on an
    orthonormal Hermitian basis, keeping the constraint matrix full row
    rank).
    """

    def __init__(self):
        self.blocks: list[int] = []   # block dimensions
        self._objective: dict[int, np.ndarray] = {}
        self.sense = "min"
        self._rows: list[tuple[dict[int, np.ndarray], float]] = []

    def add_block(self, dim: int) -> int:
        """Add a dim x dim Hermitian PSD variable; returns its index."""
        assert dim >= 1
        self.blocks.append(dim)
        return len(self.blocks) - 1

    def _check_coeff(self, idx: int, m) -> np.ndarray:
        a = herm(np.asarray(m, dtype=np.complex128))
        assert a.shape == (self.blocks[idx],) * 2
        return a

    def set_objective(self, terms: dict[int, np.ndarray], sense: str = "min"):
        assert sense in ("min", "max")
        self.sense = sense
        self._objective = {i: self._check_coeff(i, m) for i, m in terms.items()}

    def add_scalar_constraint(self, terms: dict[int, np.ndarray], rhs: float):
        """<A_i, X_i> summed over the given blocks equals rhs."""
        self._rows.append(({i: self._check_coeff(i, m) for i, m in terms.items()}, float(rhs)))

    def add_matrix_equality(self, terms: dict[int, float], rhs: np.ndarray):
        """sum_i coeff_i * X_i = rhs, all blocks and rhs of one common dimension."""
        idxs = list(terms)
        dim = self.blocks[idxs[0]]
        assert all(self.blocks[i] == dim for i in idxs), "matrix equality mixes block sizes"
        for basis, value in zip(_herm_basis(dim), svec(self._check_coeff(idxs[0], rhs))):
            self._rows.append(({i: float(terms[i]) * basis for i in idxs}, float(value)))

    @property
    def n_constraints(self) -> int:
        return len(self._rows)


@dataclass
class SdpSolution:
    status: str                             # optimal | primal_infeasible | dual_infeasible | indeterminate
    x: list[np.ndarray] | None = None       # primal blocks
    y: np.ndarray | None = None             # equality multipliers
    s: list[np.ndarray] | None = None       # dual slack blocks
    primal_objective: float | None = None   # in the caller's sense
    dual_objective: float | None = None
    gap: float | None = None                # absolute duality gap, caller's sense
    rel_gap: float | None = None
    iterations: int = 0
    certificate: dict | None = None         # Farkas ray for infeasible statuses
    trace: list[dict] = field(default_factory=list)


@dataclass
class _Group:
    """Blocks of one dimension, handled as one stack."""
    dim: int
    members: np.ndarray   # block indices, in problem order
    coords: np.ndarray    # (B, n^2) positions of each block's svec coordinates
    gather: np.ndarray    # (B, n, n, 2) coordinate read for each real and imaginary part
    scale: np.ndarray     # (n, n, 2) factor applied to it
    # Compact constraint rows: for the members sel with k rows each,
    # coef[j] = A_b (k x n^2) for block members[sel[j]].
    batches: list[tuple[np.ndarray, np.ndarray]]


class _Layout:
    """Problem data in svec coordinates, grouped into stacks."""

    def __init__(self, problem: SdpProblem):
        dims = problem.blocks
        self.blocks = dims
        self.sign = 1.0 if problem.sense == "min" else -1.0
        self.offsets = np.concatenate([[0], np.cumsum([n * n for n in dims])]).astype(int)
        self.total = int(self.offsets[-1])
        self.nu = float(sum(dims))
        nrows = self.nrows = problem.n_constraints

        touching: list[list[tuple[int, np.ndarray]]] = [[] for _ in dims]
        for r, (terms, _) in enumerate(problem._rows):
            for i, m in terms.items():
                touching[i].append((r, m))
        self.b = np.array([rhs for _, rhs in problem._rows], dtype=float)
        self.c = np.zeros(self.total)
        self.a_mat = np.zeros((nrows, self.total))
        rows_of, coef_of = [], []
        for i, n in enumerate(dims):
            sl = slice(self.offsets[i], self.offsets[i + 1])
            if i in problem._objective:
                self.c[sl] = self.sign * svec(problem._objective[i])
            rows = np.array([r for r, _ in touching[i]], dtype=int)
            coef = svec(np.stack([m for _, m in touching[i]])) if len(rows) else np.zeros((0, n * n))
            self.a_mat[rows, sl] = coef
            rows_of.append(rows)
            coef_of.append(coef)

        by_dim: dict[int, list[int]] = {}
        for i, n in enumerate(dims):
            by_dim.setdefault(n, []).append(i)
        self.groups: list[_Group] = []
        schur_index = []
        for n, members in by_dim.items():
            members = np.array(members)
            by_count: dict[int, list[int]] = {}
            for j, i in enumerate(members):
                by_count.setdefault(len(rows_of[i]), []).append(j)
            batches = []
            for count, sel in by_count.items():
                if count == 0:
                    continue
                r = np.stack([rows_of[members[j]] for j in sel])
                batches.append((np.array(sel), np.stack([coef_of[members[j]] for j in sel])))
                schur_index.append((r[:, :, np.newaxis] * nrows + r[:, np.newaxis, :]).ravel())
            start = self.offsets[members]
            _, _, unpack, scale = _svec_index(n)
            self.groups.append(_Group(
                dim=n, members=members, batches=batches,
                coords=start[:, np.newaxis] + np.arange(n * n),
                gather=start[:, np.newaxis, np.newaxis, np.newaxis] + unpack, scale=scale))
        self.schur_index = np.concatenate(schur_index or [np.zeros(0, dtype=int)])

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """One (B, n, n) stack of Hermitian matrices per group (smat with one gather)."""
        return [(vec[g.gather] * g.scale).view(np.complex128)[..., 0] for g in self.groups]

    def join(self, stacks: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self.total)
        for g, m in zip(self.groups, stacks):
            out[g.coords] = svec(m)
        return out

    def caller_blocks(self, vec: np.ndarray) -> list[np.ndarray]:
        """Blocks in the caller's order."""
        out: list = [None] * len(self.blocks)
        for g, m in zip(self.groups, self.split(vec)):
            for j, i in enumerate(g.members):
                out[i] = m[j]
        return out


def _schur_complement(layout: _Layout, ws: list[np.ndarray]) -> np.ndarray:
    """M = sum_b A_b K_b A_b^T for the per-group stacks ws of scaling points W_b."""
    parts = []
    for g, w in zip(layout.groups, ws):
        n, t = g.dim, g.dim * g.dim
        # W [E_1 ... E_t], then the W E_p stacked into rows times W: batched
        # complex products cost one BLAS call per matrix, so this makes two
        # calls per block rather than two per block and basis element
        we = w @ _herm_basis(n).transpose(1, 0, 2).reshape(n, t * n)
        wew = we.reshape(-1, n, t, n).transpose(0, 2, 1, 3).reshape(-1, t * n, n) @ w
        k = svec(wew.reshape(-1, t, n, n))   # (B, t, t), symmetric
        for sel, coef in g.batches:
            parts.append((coef @ k[sel] @ coef.swapaxes(-1, -2)).ravel())
    n = layout.nrows
    weights = np.concatenate(parts or [np.zeros(0)])
    return np.bincount(layout.schur_index, weights, minlength=n * n).reshape(n, n)


class _Nt(NamedTuple):
    """NT scaling of a stack: R with R^H S R = R^-1 X R^-H = diag(lam), W = R R^H."""
    lx_inv: np.ndarray   # inverses of the Cholesky factors of X and S
    ls_inv: np.ndarray
    r: np.ndarray
    rinv: np.ndarray
    w: np.ndarray
    lam: np.ndarray


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> _Nt:
    lx = np.linalg.cholesky(x)
    ls = np.linalg.cholesky(s)
    u, lam, vh = np.linalg.svd(_ct(ls) @ lx)
    lam = np.maximum(lam, 1e-300)
    isq = 1.0 / np.sqrt(lam)
    r = lx @ _ct(vh) * isq[:, np.newaxis, :]
    rinv = (isq[:, :, np.newaxis] * _ct(u)) @ _ct(ls)
    return _Nt(np.linalg.inv(lx), np.linalg.inv(ls), r, rinv, r @ _ct(r), lam)


def _min_eig_along(l_inv: np.ndarray, d: np.ndarray) -> float:
    """Smallest eigenvalue of L^-1 D L^-H over a stack; M + alpha D stays PSD
    (M = L L^H) up to alpha = -1 / that value when it is negative."""
    g = l_inv @ d @ _ct(l_inv)
    return float(np.linalg.eigvalsh(0.5 * (g + _ct(g)))[:, 0].min())


def _diag(v: np.ndarray) -> np.ndarray:
    return v[..., np.newaxis] * np.eye(v.shape[-1])


def _tri_solve(t: np.ndarray, v: np.ndarray, lower: bool) -> np.ndarray:
    """Solve T x = v for a triangular T by block substitution.

    Each diagonal block of at most _TRI_BLOCK rows is one LAPACK solve, and
    its coupling to the blocks already solved is one matrix-vector product.
    Up to _TRI_BLOCK rows this is np.linalg.solve(t, v) itself."""
    n = len(v)
    starts = range(0, n, _TRI_BLOCK)
    x = np.empty(n)
    for i0 in (starts if lower else reversed(starts)):
        i1 = min(i0 + _TRI_BLOCK, n)
        r = v[i0:i1]
        if lower and i0:
            r = r - t[i0:i1, :i0] @ x[:i0]
        elif not lower and i1 < n:
            r = r - t[i0:i1, i1:] @ x[i1:]
        x[i0:i1] = np.linalg.solve(t[i0:i1, i0:i1], r)
    return x


def solve(problem: SdpProblem, tol: float = 1e-8, max_iters: int = 100) -> SdpSolution:
    """Solve the problem to the requested tolerance.

    Returns an optimal solution with a certified duality gap, or an
    infeasibility certificate (Farkas ray), or an indeterminate status after
    max_iters. The iterate trace (mu, residuals, objectives, <x,s>) is kept
    on the solution for auditing.
    """
    assert problem.blocks, "problem has no variables"
    assert problem.n_constraints >= 1, "problem has no constraints"

    lay = _Layout(problem)
    sign, nu, nrows = lay.sign, lay.nu, lay.nrows
    a_mat, b, c = lay.a_mat, lay.b, lay.c
    split, join = lay.split, lay.join

    # HSD starting point.
    x = join([np.broadcast_to(np.eye(g.dim), (len(g.members), g.dim, g.dim)) for g in lay.groups])
    s = x / _PAIR
    y = np.zeros(nrows)
    tau, kappa = 1.0, 1.0
    mu0 = (x @ s + tau * kappa) / (nu + _PAIR)

    bnorm = 1.0 + float(np.abs(b).max(initial=0.0))
    cnorm = 1.0 + float(np.abs(c).max(initial=0.0))
    trace_rows: list[dict] = []

    def finish(status, iters, **extra):
        return SdpSolution(status=status, iterations=iters, trace=trace_rows, **extra)

    for it in range(max_iters):
        rp = a_mat @ x - b * tau
        rd = -(a_mat.T @ y) + c * tau - s
        rg = b @ y - c @ x - kappa
        mu = (x @ s + tau * kappa) / (nu + _PAIR)

        pres = float(np.abs(a_mat @ (x / tau) - b).max(initial=0.0)) / bnorm
        dres = float(np.abs(a_mat.T @ (y / tau) + s / tau - c).max(initial=0.0)) / cnorm
        pobj = float(c @ x / tau)
        dobj = float(b @ y / tau)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        trace_rows.append({"iter": it, "mu": mu, "tau": tau, "kappa": kappa,
                           "pres": pres, "dres": dres, "pobj": sign * pobj, "dobj": sign * dobj,
                           "xs_inner": float(x @ s)})

        if pres <= tol and dres <= tol and relgap <= tol:
            po, do = sign * pobj, sign * dobj
            return finish("optimal", it, x=lay.caller_blocks(x / tau), y=sign * y / tau,
                          s=lay.caller_blocks(s / tau), primal_objective=po,
                          dual_objective=do, gap=abs(po - do), rel_gap=relgap)

        # Infeasibility: test Farkas certificates once tau collapses.
        if tau < 1e-8 * min(1.0, kappa) or (mu < 1e-10 * mu0 and tau < 1e-6):
            by = float(b @ y)
            cx = float(c @ x)
            if by > tol:
                yhat = y / by
                wmin = min(float(np.linalg.eigvalsh(m)[:, 0].min())
                           for m in split(-(a_mat.T @ yhat)))
                if wmin > -1e-6:
                    return finish("primal_infeasible", it,
                                  certificate={"y": yhat, "min_eig_slack": wmin})
            if cx < -tol:
                xhat = x / (-cx)
                axn = float(np.abs(a_mat @ xhat).max(initial=0.0))
                if axn < 1e-6:
                    return finish("dual_infeasible", it,
                                  certificate={"x": lay.caller_blocks(xhat), "primal_residual": axn})
            return finish("indeterminate", it)

        # NT scalings, one per group.
        try:
            nts = [_nt_scaling(xb, sb) for xb, sb in zip(split(x), split(s))]
        except np.linalg.LinAlgError:
            return finish("indeterminate", it)

        def apply_w_vec(vec):
            return join([nt.w @ m @ nt.w for nt, m in zip(nts, split(vec))])

        m_schur = _schur_complement(lay, [nt.w for nt in nts])
        m_schur = 0.5 * (m_schur + m_schur.T)
        try:
            chol = np.linalg.cholesky(m_schur + 1e-14 * np.trace(m_schur) / nrows * np.eye(nrows))
            chol_t = np.ascontiguousarray(chol.T)
        except np.linalg.LinAlgError:
            chol = None

        def schur_solve(v):
            if chol is not None:
                return _tri_solve(chol_t, _tri_solve(chol, v, lower=True), lower=False)
            return np.linalg.lstsq(m_schur, v, rcond=None)[0]

        wc = apply_w_vec(c)
        awc = a_mat @ wc
        g1 = awc + b
        g2 = b - awc
        alpha_sc = float(c @ wc) + kappa / tau
        q2 = schur_solve(g1)
        denom = float(g2 @ q2) + alpha_sc
        if abs(denom) < 1e-300:
            return finish("indeterminate", it)

        def newton(p1, p2, p3, p4, p5):
            h = join([nt.r @ (p4b + _ct(nt.r) @ p2b @ nt.r) @ _ct(nt.r)
                      for nt, p4b, p2b in zip(nts, split(p4), split(p2))])
            v1 = p1 - a_mat @ h
            q1 = schur_solve(v1)
            rhs2 = p3 + float(c @ h) + p5 / tau
            dtau = (rhs2 - float(g2 @ q1)) / denom
            dy = q1 + q2 * dtau
            dx = h + apply_w_vec(a_mat.T @ dy) - wc * dtau
            ds = -(a_mat.T @ dy) + c * dtau - p2
            dkappa = (p5 - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        def max_alpha(dx, ds, dtau, dkappa):
            wmin = min(min(_min_eig_along(nt.lx_inv, dxb), _min_eig_along(nt.ls_inv, dsb))
                       for nt, dxb, dsb in zip(nts, split(dx), split(ds)))
            a = np.inf if wmin >= 0.0 else -1.0 / wmin
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return a

        # Predictor (affine scaling direction).
        p4_aff = join([_diag(-nt.lam) for nt in nts])
        dx_a, dy_a, ds_a, dtau_a, dkap_a = newton(-rp, -rd, -rg, p4_aff, -tau * kappa)
        alpha_aff = min(1.0, max_alpha(dx_a, ds_a, dtau_a, dkap_a))
        mu_aff = ((x + alpha_aff * dx_a) @ (s + alpha_aff * ds_a)
                  + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkap_a)) / (nu + _PAIR)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

        # Corrector (combined direction).
        p4_mats = []
        for nt, dxb, dsb in zip(nts, split(dx_a), split(ds_a)):
            dxs = nt.rinv @ dxb @ _ct(nt.rinv)
            dss = _ct(nt.r) @ dsb @ nt.r
            hcorr = 0.5 * (dxs @ dss + dss @ dxs)
            lam = nt.lam
            target = sigma * mu * np.eye(lam.shape[1]) - _diag(lam * lam) - hcorr
            p4_mats.append(target / (0.5 * (lam[:, :, np.newaxis] + lam[:, np.newaxis, :])))
        p4 = join(p4_mats)
        p5 = _PAIR * sigma * mu - tau * kappa - dtau_a * dkap_a
        eta = 1.0 - sigma
        dx, dy, ds, dtau, dkappa = newton(-eta * rp, -eta * rd, -eta * rg, p4, p5)

        alpha = min(1.0, _STEP_FRACTION * max_alpha(dx, ds, dtau, dkappa))
        for _ in range(40):
            tau_new = tau + alpha * dtau
            kappa_new = kappa + alpha * dkappa
            x_new, s_new = x + alpha * dx, s + alpha * ds
            ok = tau_new > 0 and kappa_new > 0
            if ok:
                try:
                    for m in split(x_new) + split(s_new):
                        np.linalg.cholesky(m)
                except np.linalg.LinAlgError:
                    ok = False
            if ok:
                x, s = x_new, s_new
                tau, kappa = tau_new, kappa_new
                y = y + alpha * dy
                break
            alpha *= 0.5
        else:
            return finish("indeterminate", it)

    return finish("indeterminate", max_iters)
