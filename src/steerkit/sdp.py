"""Small dense semidefinite solver.

Primal-dual path-following interior-point method on the homogeneous
self-dual embedding, with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step. The cone is a product of PSD blocks; equality
constraints are the only affine constraints. That is exactly the shape of
every program in this package (POVM optimization, LHS membership, the three
steering monotones), so no free cones or second-order cones are supported.

Standard form handled internally:

    minimize    <c, x>
    subject to  A x = b,   x in K = S_+^{n_1} x ... x S_+^{n_k}

Hermitian blocks are stated by the caller in complex form and handled through
the real symmetric embedding H = A + iB -> [[A, -B], [B, A]]; data matrices
are embedded with a factor 1/2 so inner products match the complex model, and
solutions are mapped back. Eigenvalues of the embedded matrix are those of H,
each twice, which is what makes the cone constraint equivalent.

Stacked blocks. At set-up the blocks are grouped by (kind, embedded
dimension e), and each group keeps the gather indices of its blocks into the
svec vector. Splitting a vector into matrices is one gather per group giving
a (B, e, e) stack, and joining is one scatter. Every per-block step of an
iteration (NT scaling, step length, corrector, commutant projection, the
line-search Cholesky test) is one batched numpy call per group.

Schur complement. With W_b the NT scaling point of block b, the Schur matrix
is M = sum_b A_b K_b A_b^T, where K_b is the svec matrix of X -> W_b X W_b,
the symmetric Kronecker product W_b (*) W_b. The constraint data are kept per
block in compact form: A_b holds only the rows that touch block b. Blocks of
one group with equal row counts are multiplied as one stack, and all the
products are scattered into M by a single bincount. These are the block
sparse formulas of Fujisawa, Kojima & Nakata (Math. Prog. 79, 1997) for the
NT direction of Todd, Toh & Tutuncu (SIAM J. Optim. 8, 1998).

The solver is deterministic: identical problem data produce bit-identical
iterates and solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
from typing import NamedTuple

import numpy as np

from .linalg import herm

_STEP_FRACTION = 0.98
_SVEC_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _svec_index(n: int):
    try:
        return _SVEC_CACHE[n]
    except KeyError:
        rows, cols = np.triu_indices(n)
        w = np.where(rows == cols, 1.0, np.sqrt(2.0))
        _SVEC_CACHE[n] = (rows, cols, w)
        return _SVEC_CACHE[n]


def svec(m: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a real symmetric matrix (scaled upper triangle).

    Accepts a single matrix or a (..., n, n) stack."""
    n = m.shape[-1]
    rows, cols, w = _svec_index(n)
    return m[..., rows, cols] * w


def smat(v: np.ndarray, n: int) -> np.ndarray:
    rows, cols, w = _svec_index(n)
    m = np.zeros((n, n))
    u = v / w
    m[rows, cols] = u
    m[cols, rows] = u
    return m


def _tr(m: np.ndarray) -> np.ndarray:
    return m.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _tr(m))


def hermitian_embed(h: np.ndarray) -> np.ndarray:
    """Real symmetric embedding of a Hermitian matrix or a (..., n, n) stack.

    H = A + iB maps to [[A, -B], [B, A]]; the embedded spectrum is the
    spectrum of H with every eigenvalue doubled.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[-1]
    out = np.empty(h.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = h.real
    out[..., n:, n:] = h.real
    out[..., n:, :n] = h.imag
    out[..., :n, n:] = -h.imag
    return out


def hermitian_unembed(y: np.ndarray) -> np.ndarray:
    """Project a real symmetric 2n x 2n matrix (or stack) back to complex Hermitian form."""
    n = y.shape[-1] // 2
    a = 0.5 * (y[..., :n, :n] + y[..., n:, n:])
    b = 0.5 * (y[..., n:, :n] - y[..., :n, n:])
    return 0.5 * (a + _tr(a)) + 0.5j * (b - _tr(b))


@dataclass
class _Block:
    kind: str  # 'herm', 'sym', or 'free'
    dim: int   # complex dimension for 'herm'; real dim for 'sym'; count for 'free'

    @property
    def edim(self) -> int:
        return 2 * self.dim if self.kind == "herm" else self.dim

    @property
    def svec_len(self) -> int:
        e = self.edim
        return e * (e + 1) // 2


class SdpProblem:
    """Incremental problem builder.

    Blocks are PSD variables; constraints are scalar rows or matrix
    equalities between scalar-weighted sums of blocks and a fixed matrix
    (the matrix form is expanded into dim^2 scalar rows on an orthonormal
    Hermitian basis, keeping the constraint matrix full row rank).
    """

    def __init__(self):
        self.blocks: list[_Block] = []
        self._objective: dict[int, np.ndarray] = {}
        self.sense = "min"
        self._rows: list[tuple[dict[int, np.ndarray], float]] = []

    def add_block(self, dim: int, kind: str = "herm") -> int:
        """Add a variable block: a PSD matrix ('herm' complex, 'sym' real)
        or a vector of unconstrained scalars ('free')."""
        assert kind in ("herm", "sym", "free")
        assert dim >= 1
        self.blocks.append(_Block(kind, dim))
        return len(self.blocks) - 1

    def _check_coeff(self, idx: int, m) -> np.ndarray:
        blk = self.blocks[idx]
        if blk.kind == "free":
            a = np.asarray(m, dtype=float).reshape(-1)
            assert a.shape == (blk.dim,)
            return a
        if blk.kind == "herm":
            a = herm(np.asarray(m, dtype=np.complex128))
        else:
            a = np.asarray(m, dtype=float)
            assert np.allclose(a, a.T, atol=1e-12), "sym block expects a symmetric matrix"
            a = 0.5 * (a + a.T)
        assert a.shape == (blk.dim, blk.dim)
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
        dim = self.blocks[idxs[0]].dim
        kind = self.blocks[idxs[0]].kind
        assert kind != "free", "matrix equality applies to PSD blocks only"
        for i in idxs:
            assert self.blocks[i].dim == dim and self.blocks[i].kind == kind, \
                "matrix equality mixes incompatible blocks"
        r = self._check_coeff(idxs[0], rhs)
        for basis in _herm_basis(dim, complex_blocks=(kind == "herm")):
            row = {i: float(terms[i]) * basis for i in idxs}
            self._rows.append((row, float(np.trace(basis @ r).real)))

    @property
    def n_constraints(self) -> int:
        return len(self._rows)


def _herm_basis(n: int, complex_blocks: bool):
    """Orthonormal basis of Hermitian (or real symmetric) n x n matrices."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[j, j] = 1.0
        yield e
    for j in range(n):
        for k in range(j + 1, n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[j, k] = inv_sqrt2
            e[k, j] = inv_sqrt2
            yield e
    if complex_blocks:
        for j in range(n):
            for k in range(j + 1, n):
                e = np.zeros((n, n), dtype=np.complex128)
                e[j, k] = -1j * inv_sqrt2
                e[k, j] = 1j * inv_sqrt2
                yield e


def _expand_free(problem: SdpProblem) -> tuple[SdpProblem, list]:
    """Rewrite 'free' blocks as differences of nonnegative scalar pairs.

    Each free coordinate x becomes u - v with u, v >= 0, so the interior
    point kernel only ever sees cone blocks. Returns the expanded problem
    and a regrouping map used to fold solutions back to the caller's
    block structure.
    """
    expanded = SdpProblem()
    expanded.sense = problem.sense
    groups: list = []
    for blk in problem.blocks:
        if blk.kind == "free":
            pairs = []
            for _ in range(blk.dim):
                u = expanded.add_block(1, "sym")
                v = expanded.add_block(1, "sym")
                pairs.append((u, v))
            groups.append(("free", pairs))
        else:
            groups.append(("keep", expanded.add_block(blk.dim, blk.kind)))

    def translate(terms: dict) -> dict:
        out = {}
        for i, m in terms.items():
            tag, ref = groups[i]
            if tag == "keep":
                out[ref] = m
            else:
                vec = np.asarray(m, dtype=float).reshape(-1)
                for (u, v), cj in zip(ref, vec):
                    out[u] = np.array([[cj]])
                    out[v] = np.array([[-cj]])
        return out

    expanded._objective = {i: expanded._check_coeff(i, m)
                           for i, m in translate(problem._objective).items()}
    for terms, rhs in problem._rows:
        expanded._rows.append(({i: expanded._check_coeff(i, m)
                                for i, m in translate(terms).items()}, rhs))
    return expanded, groups


@dataclass
class SdpSolution:
    status: str                      # optimal | primal_infeasible | dual_infeasible | indeterminate
    x: list[np.ndarray] | None       # primal blocks in the caller's (complex) form
    y: np.ndarray | None             # equality multipliers
    s: list[np.ndarray] | None       # dual slack blocks
    primal_objective: float | None   # in the caller's sense
    dual_objective: float | None
    gap: float | None                # absolute duality gap, caller's sense
    rel_gap: float | None
    iterations: int = 0
    certificate: dict | None = None  # Farkas ray for infeasible statuses
    trace: list[dict] = field(default_factory=list)


def _svec_data(block: _Block, mats: np.ndarray) -> np.ndarray:
    """svec rows of a (k, n, n) stack of data matrices of one block.

    'herm' data get the 1/2-scaled embedding so <emb(A), emb(X)> = tr(AX)."""
    if block.kind == "herm":
        return svec(0.5 * hermitian_embed(mats))
    return svec(np.asarray(mats, dtype=float))


@dataclass
class _Group:
    """Blocks of one (kind, embedded dimension), handled as one stack."""
    kind: str
    edim: int
    members: np.ndarray   # block indices, in problem order
    gather: np.ndarray    # (B, e, e) positions of each matrix entry in the svec vector
    scale: np.ndarray     # (e, e) svec weights: 1 on the diagonal, sqrt(2) off it
    scatter: np.ndarray   # (B, t) positions of each block's svec coordinates
    # Compact constraint rows: for the members sel with n rows each,
    # coef[j] = A_b (n x t) for block members[sel[j]].
    batches: list[tuple[np.ndarray, np.ndarray]]


class _Layout:
    """Problem data in embedded svec coordinates, grouped into stacks.

    The problem must hold cone blocks only ('free' blocks expanded first).
    """

    def __init__(self, problem: SdpProblem):
        blocks = problem.blocks
        self.blocks = blocks
        self.sign = 1.0 if problem.sense == "min" else -1.0
        lens = [blk.svec_len for blk in blocks]
        self.offsets = np.concatenate([[0], np.cumsum(lens)]).astype(int)
        self.total = int(self.offsets[-1])
        self.nu = float(sum(blk.edim for blk in blocks))
        nrows = self.nrows = problem.n_constraints

        touching: list[list[tuple[int, np.ndarray]]] = [[] for _ in blocks]
        for r, (terms, _) in enumerate(problem._rows):
            for i, m in terms.items():
                touching[i].append((r, m))
        self.b = np.array([rhs for _, rhs in problem._rows], dtype=float)
        self.c = np.zeros(self.total)
        self.a_mat = np.zeros((nrows, self.total))
        rows_of, coef_of = [], []
        for i, blk in enumerate(blocks):
            sl = slice(self.offsets[i], self.offsets[i + 1])
            if i in problem._objective:
                self.c[sl] = self.sign * _svec_data(blk, problem._objective[i][np.newaxis])[0]
            rows = np.array([r for r, _ in touching[i]], dtype=int)
            coef = (_svec_data(blk, np.stack([m for _, m in touching[i]]))
                    if len(rows) else np.zeros((0, lens[i])))
            self.a_mat[rows, sl] = coef
            rows_of.append(rows)
            coef_of.append(coef)

        by_shape: dict[tuple[str, int], list[int]] = {}
        for i, blk in enumerate(blocks):
            by_shape.setdefault((blk.kind, blk.edim), []).append(i)
        self.groups: list[_Group] = []
        schur_index = []
        for (kind, e), members in by_shape.items():
            members = np.array(members)
            rows, cols, w = _svec_index(e)
            pos = np.empty((e, e), dtype=int)
            pos[rows, cols] = pos[cols, rows] = np.arange(len(rows))
            starts = self.offsets[members]
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
            self.groups.append(_Group(
                kind=kind, edim=e, members=members,
                gather=starts[:, np.newaxis, np.newaxis] + pos, scale=w[pos],
                scatter=starts[:, np.newaxis] + np.arange(len(rows)), batches=batches))
        self.schur_index = np.concatenate(schur_index or [np.zeros(0, dtype=int)])

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """One (B, e, e) stack of symmetric matrices per group."""
        return [vec[g.gather] / g.scale for g in self.groups]

    def join(self, stacks: list[np.ndarray]) -> np.ndarray:
        out = np.empty(self.total)
        for g, m in zip(self.groups, stacks):
            out[g.scatter] = svec(m)
        return out

    def project(self, vec: np.ndarray) -> list[np.ndarray]:
        """Split and kill roundoff drift of 'herm' blocks off the embedded subalgebra."""
        return [hermitian_embed(hermitian_unembed(_sym(m))) if g.kind == "herm" else _sym(m)
                for g, m in zip(self.groups, self.split(vec))]

    def caller_blocks(self, vec: np.ndarray, dual: bool = False) -> list[np.ndarray]:
        """Blocks in the caller's form and order.

        Primal iterates are plain embeddings; dual slacks are combinations of
        the 1/2-scaled data embeddings, so they fold back at twice the
        unembedded value."""
        out: list = [None] * len(self.blocks)
        for g, m in zip(self.groups, self.split(vec)):
            h = (2.0 if dual else 1.0) * hermitian_unembed(m) if g.kind == "herm" else _sym(m)
            for j, i in enumerate(g.members):
                out[i] = h[j]
        return out


def _skron(w: np.ndarray) -> np.ndarray:
    """svec matrices of X -> W X W for a (B, e, e) stack: W (*) W, shape (B, t, t).

    Entry (q, p), with q = (k, l) and p = (i, j) upper-triangle pairs, is
    s_q s_p / 2 * (W_ki W_lj + W_kj W_li), s the svec weights."""
    rows, cols, s = _svec_index(w.shape[-1])
    rq, cq = rows[:, np.newaxis], cols[:, np.newaxis]
    return (0.5 * np.outer(s, s)) * (w[:, rq, rows] * w[:, cq, cols] + w[:, rq, cols] * w[:, cq, rows])


def _schur_complement(layout: _Layout, ws: list[np.ndarray]) -> np.ndarray:
    """M = sum_b A_b K_b A_b^T for the per-group stacks ws of scaling points W_b."""
    parts = []
    for g, w in zip(layout.groups, ws):
        k = _skron(w)
        for sel, coef in g.batches:
            parts.append((coef @ k[sel] @ _tr(coef)).ravel())
    n = layout.nrows
    weights = np.concatenate(parts or [np.zeros(0)])
    return np.bincount(layout.schur_index, weights, minlength=n * n).reshape(n, n)


class _Nt(NamedTuple):
    """NT scaling of a stack: R with R^T S R = R^-1 X R^-T = diag(lam), W = R R^T."""
    lx_inv: np.ndarray   # inverses of the Cholesky factors of X and S
    ls_inv: np.ndarray
    r: np.ndarray
    rinv: np.ndarray
    w: np.ndarray
    lam: np.ndarray


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> _Nt:
    lx = np.linalg.cholesky(x)
    ls = np.linalg.cholesky(s)
    u, lam, vt = np.linalg.svd(_tr(ls) @ lx)
    lam = np.maximum(lam, 1e-300)
    isq = 1.0 / np.sqrt(lam)
    r = lx @ _tr(vt) * isq[:, np.newaxis, :]
    rinv = (isq[:, :, np.newaxis] * _tr(u)) @ _tr(ls)
    return _Nt(np.linalg.inv(lx), np.linalg.inv(ls), r, rinv, r @ _tr(r), lam)


def _min_eig_along(l_inv: np.ndarray, d: np.ndarray) -> float:
    """Smallest eigenvalue of L^-1 D L^-T over a stack; M + alpha D stays PSD
    (M = L L^T) up to alpha = -1 / that value when it is negative."""
    g = l_inv @ d @ _tr(l_inv)
    return float(np.linalg.eigvalsh(_sym(g))[:, 0].min())


def _diag(v: np.ndarray) -> np.ndarray:
    return v[..., np.newaxis] * np.eye(v.shape[-1])


def solve(problem: SdpProblem, tol: float = 1e-8, max_iters: int = 100,
          debug_path: str | None = None) -> SdpSolution:
    """Solve the problem to the requested tolerance.

    Returns an optimal solution with a certified duality gap, or an
    infeasibility certificate (Farkas ray), or an indeterminate status after
    max_iters. The iterate trace (mu, residuals, objectives, <x,s>) is kept
    on the solution for auditing and optionally dumped as JSON lines.
    """
    free_map = None
    if any(blk.kind == "free" for blk in problem.blocks):
        problem, free_map = _expand_free(problem)

    assert problem.blocks, "problem has no variables"
    assert problem.n_constraints >= 1, "problem has no constraints"

    def regroup(mats, halve=False):
        if free_map is None:
            return mats
        out = []
        w = 0.5 if halve else 1.0
        for tag, ref in free_map:
            if tag == "keep":
                out.append(mats[ref])
            else:
                out.append(np.array([w * float(np.real(mats[u][0, 0]) - np.real(mats[v][0, 0]))
                                     for u, v in ref]))
        return out

    lay = _Layout(problem)
    sign, nu, nrows = lay.sign, lay.nu, lay.nrows
    a_mat, b, c = lay.a_mat, lay.b, lay.c
    split, join = lay.split, lay.join

    # HSD starting point.
    x = join([np.broadcast_to(np.eye(g.edim), g.gather.shape) for g in lay.groups])
    s = x.copy()
    y = np.zeros(nrows)
    tau, kappa = 1.0, 1.0
    mu0 = (x @ s + tau * kappa) / (nu + 1.0)

    bnorm = 1.0 + float(np.abs(b).max(initial=0.0))
    cnorm = 1.0 + float(np.abs(c).max(initial=0.0))
    trace_rows: list[dict] = []
    debug_file = open(debug_path, "w") if debug_path else None

    def emit(rec):
        trace_rows.append(rec)
        if debug_file:
            debug_file.write(json.dumps(rec) + "\n")

    def finish(status, extra=None, iters=0):
        if debug_file:
            debug_file.close()
        sol = SdpSolution(status=status, x=None, y=None, s=None,
                          primal_objective=None, dual_objective=None,
                          gap=None, rel_gap=None, iterations=iters,
                          trace=trace_rows)
        if extra:
            for k, v in extra.items():
                setattr(sol, k, v)
        return sol

    for it in range(max_iters):
        rp = a_mat @ x - b * tau
        rd = -(a_mat.T @ y) + c * tau - s
        rg = b @ y - c @ x - kappa
        mu = (x @ s + tau * kappa) / (nu + 1.0)

        pres = float(np.abs(a_mat @ (x / tau) - b).max(initial=0.0)) / bnorm
        dres = float(np.abs(a_mat.T @ (y / tau) + s / tau - c).max(initial=0.0)) / cnorm
        pobj = float(c @ x / tau)
        dobj = float(b @ y / tau)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        emit({"iter": it, "mu": mu, "tau": tau, "kappa": kappa,
              "pres": pres, "dres": dres, "pobj": sign * pobj, "dobj": sign * dobj,
              "xs_inner": float(x @ s)})

        if pres <= tol and dres <= tol and relgap <= tol:
            xm = regroup(lay.caller_blocks(x / tau))
            sm = regroup(lay.caller_blocks(s / tau, dual=True), halve=True)
            po, do = sign * pobj, sign * dobj
            return finish("optimal", {
                "x": xm, "y": sign * y / tau, "s": sm,
                "primal_objective": po, "dual_objective": do,
                "gap": abs(po - do), "rel_gap": relgap,
            }, iters=it)

        # Infeasibility: test Farkas certificates once tau collapses.
        if tau < 1e-8 * min(1.0, kappa) or (mu < 1e-10 * mu0 and tau < 1e-6):
            by = float(b @ y)
            cx = float(c @ x)
            if by > tol:
                yhat = y / by
                wmin = min(float(np.linalg.eigvalsh(_sym(m))[:, 0].min())
                           for m in split(-(a_mat.T @ yhat)))
                if wmin > -1e-6:
                    return finish("primal_infeasible",
                                  {"certificate": {"y": yhat, "min_eig_slack": wmin}},
                                  iters=it)
            if cx < -tol:
                xhat = x / (-cx)
                axn = float(np.abs(a_mat @ xhat).max(initial=0.0))
                if axn < 1e-6:
                    return finish("dual_infeasible",
                                  {"certificate": {"x": regroup(lay.caller_blocks(xhat)),
                                                   "primal_residual": axn}},
                                  iters=it)
            return finish("indeterminate", iters=it)

        # NT scalings, one per group.
        try:
            nts = [_nt_scaling(xb, sb) for xb, sb in zip(split(x), split(s))]
        except np.linalg.LinAlgError:
            return finish("indeterminate", iters=it)

        def apply_w_vec(vec):
            return join([nt.w @ m @ nt.w for nt, m in zip(nts, split(vec))])

        m_schur = _schur_complement(lay, [nt.w for nt in nts])
        m_schur = 0.5 * (m_schur + m_schur.T)
        try:
            chol = np.linalg.cholesky(m_schur + 1e-14 * np.trace(m_schur) / nrows * np.eye(nrows))
        except np.linalg.LinAlgError:
            chol = None

        def schur_solve(v):
            if chol is not None:
                z = np.linalg.solve(chol, v)
                return np.linalg.solve(chol.T, z)
            return np.linalg.lstsq(m_schur, v, rcond=None)[0]

        wc = apply_w_vec(c)
        awc = a_mat @ wc
        g1 = awc + b
        g2 = b - awc
        alpha_sc = float(c @ wc) + kappa / tau
        q2 = schur_solve(g1)
        denom = float(g2 @ q2) + alpha_sc
        if abs(denom) < 1e-300:
            return finish("indeterminate", iters=it)

        def newton(p1, p2, p3, p4, p5):
            h = join([nt.r @ (p4b + _tr(nt.r) @ p2b @ nt.r) @ _tr(nt.r)
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
                  + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkap_a)) / (nu + 1.0)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

        # Corrector (combined direction).
        p4_mats = []
        for nt, dxb, dsb in zip(nts, split(dx_a), split(ds_a)):
            dxs = nt.rinv @ dxb @ _tr(nt.rinv)
            dss = _tr(nt.r) @ dsb @ nt.r
            hcorr = 0.5 * (dxs @ dss + dss @ dxs)
            lam = nt.lam
            target = sigma * mu * np.eye(lam.shape[1]) - _diag(lam * lam) - hcorr
            p4_mats.append(target / (0.5 * (lam[:, :, np.newaxis] + lam[:, np.newaxis, :])))
        p4 = join(p4_mats)
        p5 = sigma * mu - tau * kappa - dtau_a * dkap_a
        eta = 1.0 - sigma
        dx, dy, ds, dtau, dkappa = newton(-eta * rp, -eta * rd, -eta * rg, p4, p5)

        alpha = min(1.0, _STEP_FRACTION * max_alpha(dx, ds, dtau, dkappa))
        for _ in range(40):
            tau_new = tau + alpha * dtau
            kappa_new = kappa + alpha * dkappa
            xb_new = lay.project(x + alpha * dx)
            sb_new = lay.project(s + alpha * ds)
            ok = tau_new > 0 and kappa_new > 0
            if ok:
                try:
                    for m in xb_new + sb_new:
                        np.linalg.cholesky(m)
                except np.linalg.LinAlgError:
                    ok = False
            if ok:
                x, s = join(xb_new), join(sb_new)
                tau, kappa = tau_new, kappa_new
                y = y + alpha * dy
                break
            alpha *= 0.5
        else:
            return finish("indeterminate", iters=it)

    return finish("indeterminate", iters=max_iters)
