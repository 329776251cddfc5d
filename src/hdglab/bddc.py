"""BDDC preconditioners for the interface operator.

Primal constraints live on SubdomainEdges (maximal straight interface runs):
  c1(w) = int_E w ds                  (edge average, variant >= 1)
  c2(w) = int_E (beta.n) w ds         (flux-weighted average, variant >= 2)
  c3(w) = int_E (beta.n) w s ds       (flux-weighted first moment, variant 3)
with n the outward normal of the lower-indexed subdomain and s the centered
arclength along the run.  Degenerate or near-dependent rows are dropped (e.g.
c2 and c3 vanish identically when beta.n = 0 on the whole run).

The raw rows of all SubdomainEdges come from one edge-quadrature table
(``fespace.interface_quadrature``) in one array operation.  They are
orthonormalized and completed to an orthogonal change of basis Q_E per
SubdomainEdge, batched over the SubdomainEdges of equal block shape, and
stored once in one padded table (``PrimalConstraintSet.Q``).  In the
transformed variables the primal DOFs are assembled across the interface
while dual DOFs stay subdomain-local; the preconditioner is
M^-1 = Q^T Rt_D^T St^-1 Rt_D Q (Li & Widlund 2006), solved in two levels, a
local correction per subdomain and one coarse problem over the primal DOFs
(Dohrmann 2003).  Setup fuses the change of basis, the weights and the dual
solves into per-subdomain stacks, from one batched solve with the stacked
local Schur complements; each apply is then one batched product, the coarse
solve and one more batched product (``BddcPreconditioner``).  The tests
check that apply against the dense partially assembled system.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

from . import _split
from .fespace import interface_quadrature
from .mesh import InvalidConfigError

VARIANTS = ("bddc1", "bddc2", "bddc3", "all-primal", "none")

_N_FUNCTIONALS = {"bddc1": 1, "bddc2": 2, "bddc3": 3}

# subdomains of equal shape are set up in runs whose (n, n) stacks hold at
# most this many entries, which bounds the setup's temporaries
STACK_ENTRIES = 2 ** 16


class PreconditionerError(RuntimeError):
    """Preconditioner construction failed."""


def _variant_name(variant):
    if variant in VARIANTS:
        return variant
    raise InvalidConfigError("unknown BDDC variant %r" % (variant,))


def _raw_rows(q, bn, tangents, mid_t):
    """Raw functionals (c1, c2, c3) on every edge of the EdgeQuadrature
    ``q``, shape (3, ne, k+1).  ``bn`` is beta.n at the points; ``tangents``
    and ``mid_t`` are the tangent and midpoint parameter of each edge's
    SubdomainEdge (one value for all edges, or one per edge)."""
    t = np.broadcast_to(tangents, (q.edges.size, 2))
    s = q.points[..., 0] * t[:, :1] + q.points[..., 1] * t[:, 1:] - \
        np.reshape(mid_t, (-1, 1))
    w = q.weights
    return np.stack([w, w * bn, w * bn * s]) @ q.P.T


def _orthonormalize(raw):
    """Batched Gram-Schmidt with one reorthogonalization pass.

    ``raw`` is (b, nfun, m): the functionals of b SubdomainEdges, in the
    order c1, c2, c3.  A functional is dropped when its norm is below 1e-12
    times that of c1, or when less than 1e-10 of its norm is left after
    projecting out the functionals kept before it.  Returns the orthonormal
    rows (b, nfun, m), zero where dropped, and the kept mask (b, nfun).
    """
    b, nfun, m = raw.shape
    Q = np.zeros((b, nfun, m))
    kept = np.zeros((b, nfun), dtype=bool)
    scale = np.linalg.norm(raw[:, 0], axis=1)

    def project_out(v, f):
        for p in range(f):          # dropped rows are zero and subtract 0
            v -= np.einsum("bm,bm->b", Q[:, p], v)[:, None] * Q[:, p]

    for f in range(nfun):
        nr = np.linalg.norm(raw[:, f], axis=1)
        v = raw[:, f].copy()
        project_out(v, f)
        ok = ~(nr < 1e-12 * scale) & ~(np.linalg.norm(v, axis=1) < 1e-10 * nr)
        project_out(v, f)           # second pass restores orthogonality
        Q[ok, f] = v[ok] / np.linalg.norm(v[ok], axis=1)[:, None]
        kept[:, f] = ok
    return Q, kept


class PrimalConstraintSet:
    """Retained constraints and the change of basis of every SubdomainEdge.

    ``kept_mask`` (n_se, n_functionals) bool marks the retained functionals
    of each SubdomainEdge, ``kept`` names them on first read and
    ``n_primal_by_se`` counts them; ``primal_offsets`` numbers them in
    SubdomainEdge order.  ``Q`` (n_interface, w) holds Q_E of every
    SubdomainEdge, zero-padded to the widest block w: row j of Q_E at the
    block's j-th interface position, its orthonormal primal rows first.
    Interface position p lies in SubdomainEdge ``se_of[p]`` at offset
    ``block_off[p]`` within its block, the column of Q_E that p is.  The
    integer arrays (``se_of``, ``block_off``, ``n_primal_by_se``,
    ``primal_offsets``) are int32.
    """

    def __init__(self, variant, spec, mesh, k):
        self.variant = _variant_name(variant)
        self.spec = spec
        self.mesh = mesh
        self.k = k
        nds = k + 1
        runs = mesh.interface_runs
        n_se = len(runs)
        start = runs.offsets[:-1] * nds
        size = runs.offsets[1:] * nds - start
        self.se_of = np.repeat(np.arange(n_se, dtype=np.int32), size)
        self.block_off = np.arange(size.sum(), dtype=np.int32) - \
            start[self.se_of]
        self.Q = np.zeros((size.sum(), size.max(initial=0)))
        nfun = _N_FUNCTIONALS.get(self.variant)
        if nfun:
            # every functional of every SubdomainEdge, in interface DOF order
            q, bn = interface_quadrature(mesh, spec, k)
            run = runs.run_of_edge
            raw = _raw_rows(q, bn, runs.tangent[run],
                            runs.midpoint_t[run]).reshape(3, -1)
        width = size.max(initial=0) if self.variant == "all-primal" else 0
        self.kept_mask = np.zeros((n_se, nfun or width), dtype=bool)
        self.n_primal_by_se = np.zeros(n_se, dtype=np.int32)
        for m in np.unique(size):
            idx = np.flatnonzero(size == m)
            pos = start[idx, None] + np.arange(m)
            if nfun:
                R, kept = _orthonormalize(raw[:nfun, pos].swapaxes(0, 1))
            else:
                n = m if self.variant == "all-primal" else 0
                R = np.broadcast_to(np.eye(m)[:n], (idx.size, n, m))
                kept = np.ones((idx.size, n), dtype=bool)
            self.kept_mask[idx, :kept.shape[1]] = kept
            n_pi = kept.sum(axis=1)
            self.n_primal_by_se[idx] = n_pi
            for n in np.unique(n_pi):
                sel = n_pi == n
                rows = R[sel][kept[sel]].reshape(np.count_nonzero(sel), n, m)
                self.Q[pos[sel], :m] = _change_of_basis(rows)
        self.primal_offsets = np.zeros(n_se + 1, dtype=np.int32)
        np.cumsum(self.n_primal_by_se, out=self.primal_offsets[1:])
        self.n_primal = int(self.primal_offsets[-1])

    @cached_property
    def kept(self):
        """The names of the retained functionals of each SubdomainEdge, a
        list per SubdomainEdge: c1, c2, c3, or e0, e1, ... for all-primal."""
        nf = self.kept_mask.shape[1]
        names = ("c1", "c2", "c3") if self.variant in _N_FUNCTIONALS \
            else ["e%d" % i for i in range(nf)]
        return [[nm for nm, keep in zip(names, row) if keep]
                for row in self.kept_mask.tolist()]


def build_constraints(variant, spec, mesh, dofs, k):
    """``PrimalConstraintSet(variant, spec, mesh, k)``; ``dofs`` is not read.
    Kept with this signature only for ``perfbench/pipeline.py``."""
    return PrimalConstraintSet(variant, spec, mesh, k)


def _change_of_basis(rows):
    """Orthogonal changes of basis Q (b, m, m) from orthonormal constraint
    rows (b, n_pi, m): the rows, then an orthonormal basis of their null
    space, each vector signed so that its first entry above 1e-12 in
    magnitude is positive."""
    b, n_pi, m = rows.shape
    if n_pi == 0:
        Q = np.broadcast_to(np.eye(m), (b, m, m)).copy()
    elif n_pi == m:
        Q = rows.copy()
    else:
        dual = np.linalg.svd(rows, full_matrices=True)[2][:, n_pi:]
        big = np.abs(dual) > 1e-12
        first = np.take_along_axis(dual, big.argmax(axis=2)[..., None],
                                   axis=2)[..., 0]
        flip = big.any(axis=2) & (first < 0)
        Q = np.concatenate([rows, np.where(flip[..., None], -dual, dual)],
                           axis=1)
    if not np.allclose(Q @ Q.swapaxes(1, 2), np.eye(m), atol=1e-12):
        raise PreconditionerError("change of basis is not orthogonal")
    return Q


def scatter_blocks(blocks, shape):
    """Sparse sum of stacked dense blocks: ``blocks`` yields (B, rows, cols),
    B (b, r, c) placed at rows[j] x cols[j] for each j; entries in a negative
    row or column are left out.  COO with int32 indices, duplicates unsummed."""
    parts = [(np.zeros(0), np.zeros(0, np.int32), np.zeros(0, np.int32))]
    for B, rows, cols in blocks:
        R, C = np.broadcast_arrays(rows.astype(np.int32)[..., :, None],
                                   cols.astype(np.int32)[..., None, :])
        keep = (R >= 0) & (C >= 0)
        parts.append((B[keep], R[keep], C[keep]))
    v, r, c = map(np.concatenate, zip(*parts))
    return sp.coo_matrix((v, (r, c)), shape=shape)


class BddcPreconditioner:
    """Two-level BDDC in the transformed interface variables (an exact
    coarse solve for all-primal; variant ``none`` has no BDDC object).

    Partially assembled layout: [primal (n_primal); dual copies per subdomain
    in subdomain order].  Every interface DOF is shared by exactly two
    subdomains.  The change of basis and its layout are read from the
    constraint set (``Q``, ``se_of``, ``block_off``): ``is_primal`` marks the
    first ``n_primal_by_se`` positions of each SubdomainEdge block and
    ``primal_index`` numbers them in SubdomainEdge order (-1 elsewhere).
    The weighted restriction Rt_D keeps the primal DOFs with weight 1 and
    weights the dual copies by ``dual_weights`` (1/2).

    The apply is fused per subdomain.  With P_i = D_i Q_i, where D_i is 1/2 on
    the primal DOFs (each one half from each of its two subdomains) and the
    dual weights on the dual copies,

        M^-1 = sum_i R_i^T (L_i + C_i Fc^-1 G_i) R_i,
        L_i = P_d^T S_dd^-1 P_d,   G_i = P_p - S_pd S_dd^-1 P_d,
        C_i = P_p^T - P_d^T K_dp,  K_dp = S_dd^-1 S_dp,

    with S = Q_i S^(i) Q_i^T split into primal (p) and dual (d) parts.  They
    are stored as ``LG`` = [L_i; G_i] (n_sub, w + wp, w) and ``C`` (n_sub, w,
    wp), zero-padded to w = max nG interface and wp = max primal DOFs per
    subdomain, with the coarse matrix ``Fc`` and its LU ``coarse_lu``.

    The oracle of the apply is the dense partially assembled system
    ``dense_partially_assembled`` with the sparse operators built on first
    use: ``Qg`` (the nonzeros of the constraint set's ``Q``, block-diagonal
    over the SubdomainEdges), ``R`` and ``RD`` (restriction Rt and
    weighted restriction Rt_D, n_tilde x n_interface), so that
    M^-1 = Qg^T RD^T St^-1 RD Qg, and ``apply_average`` (E_D).
    """

    def __init__(self, subs, constraints):
        if constraints.variant == "none":
            raise InvalidConfigError("variant 'none' means unpreconditioned "
                                     "GMRES; no BDDC object")
        self.subs = subs
        self.constraints = constraints
        self.variant = constraints.variant

        # the first n_primal_by_se components of each transformed
        # SubdomainEdge block are primal, numbered in SubdomainEdge order
        self.n_primal = constraints.n_primal
        se_of, off = constraints.se_of, constraints.block_off
        self.is_primal = off < constraints.n_primal_by_se[se_of]
        self.primal_index = np.where(
            self.is_primal, constraints.primal_offsets[se_of] + off, -1)

        # dual copies of subdomain s: [dual_start[s], + n_dual_by_sub[s])
        dual = ~np.append(self.is_primal, True)[subs.pos]
        self.n_dual_by_sub = dual.sum(axis=1)
        self.n_dual_total = n_dual = int(self.n_dual_by_sub.sum())
        self.n_tilde = self.n_primal + n_dual
        self.dual_start = self.n_primal + np.cumsum(self.n_dual_by_sub) \
            - self.n_dual_by_sub

        n_sub, w = subs.pos.shape
        wp = int((subs.nG - self.n_dual_by_sub).max(initial=0))
        # intp, as subs.pos: every apply gathers with it
        self.pidx = np.full((n_sub, wp), self.n_primal, dtype=np.intp)
        self.LG = np.zeros((n_sub, w + wp, w))
        self.C = np.zeros((n_sub, w, wp))
        self._cols = np.empty(self.n_tilde, dtype=np.int64)
        self._weights = self.dual_weights()
        coarse = []
        for sids, rows, idx, npr, Qi, St in self._local_stacks():
            n = rows.shape[1]
            self._cols[idx] = rows
            gp = idx[:, :npr]
            self.pidx[sids, :npr] = gp
            L, G, C, Spp = self._fused_blocks(sids, npr, Qi, St)
            self.LG[sids, :n, :n] = L
            self.LG[sids, w:w + npr, :n] = G
            self.C[sids, :n, :npr] = C
            coarse.append((Spp, gp, gp))

        if self.n_primal:
            Fc = scatter_blocks(coarse,
                                (self.n_primal, self.n_primal)).tocsc()
            try:
                self.coarse_lu = spla.splu(Fc)
            except RuntimeError as exc:
                raise PreconditionerError(
                    "singular coarse matrix (variant %s, eps %g)"
                    % (self.variant, constraints.spec.eps)) from exc
            self.Fc = Fc
        else:
            self.coarse_lu = None
            self.Fc = sp.csc_matrix((0, 0))

    def _fused_blocks(self, sids, npr, Qi, St):
        """L_i, G_i, C_i and the coarse block S_pp - S_pd K_dp of the
        subdomains ``sids`` from their Q_i and St_i (primal rows first);
        PreconditionerError if a dual block S_dd is singular.  Each S_dd is
        factored by one LAPACK ``dgetrf`` and solved by one ``dgetrs``:
        SciPy's stacked ``lu_factor`` and ``lu_solve`` loop over the blocks
        in Python as well, at about 30 us of wrapper per block."""
        n, D = Qi.shape[1], self._weights
        Pp, Pd = 0.5 * Qi[:, :npr], Qi[:, npr:]
        Pd = D * Pd if np.ndim(D) == 0 else D[sids, :n - npr, :n - npr] @ Pd
        S_pp, S_pd = St[:, :npr, :npr], St[:, :npr, npr:]
        S_dp, S_dd = St[:, npr:, :npr], St[:, npr:, npr:]
        if n == npr:
            return 0.0, Pp, Pp.swapaxes(1, 2), S_pp
        # X = S_dd^-1 [S_dp | Pd], one LAPACK LU per block, each solution
        # in Fortran order in place (the layout of scipy.linalg.lu_solve)
        X = np.empty((St.shape[0], npr + n, n - npr)).swapaxes(1, 2)
        X[:, :, :npr], X[:, :, npr:] = S_dp, Pd
        diag = np.empty(X.shape[:2])
        for i, (A, b) in enumerate(zip(S_dd, X)):
            lu, ipiv, _ = dgetrf(A)
            diag[i] = lu.diagonal()
            dgetrs(lu, ipiv, b, overwrite_b=1)
        # singular: non-finite, or an LU pivot below 1e-14 max |S_dd|
        piv = np.abs(diag).min(axis=1)
        bad = ~(piv >= 1e-14 * np.maximum(np.abs(S_dd).max(axis=(1, 2)),
                                          1e-300))
        if bad.any():
            raise PreconditionerError(
                "singular dual block in subdomain %d (variant %s, eps %g)"
                % (sids[bad.argmax()], self.variant,
                   self.constraints.spec.eps))
        K_dp, W = X[:, :, :npr], X[:, :, npr:]
        PdT = Pd.swapaxes(1, 2)
        return (PdT @ W, Pp - S_pd @ W, Pp.swapaxes(1, 2) - PdT @ K_dp,
                S_pp - S_pd @ K_dp)

    def dual_weights(self):
        """Weights D_i of the dual copies in Rt_D: the scalar 1/2, or a stack
        (n_sub, wd, wd) whose block i acts on the dual copies of subdomain i
        in their partially assembled order (entries past ``n_dual_by_sub[i]``
        are not read).  Rt_D gives subdomain i the dual values D_i c and
        averages back by sum_i D_i^T x_i; D_i + D_j = I on the dual copies of
        each SubdomainEdge keeps E_D a projection."""
        return 0.5

    def _local_stacks(self):
        """Per run of subdomains with equal nG and primal count, stacked:
        (subdomains, interface positions of the transformed components,
        their partially assembled indices, primal count, Q_i, St_i = Q_i
        S^(i) Q_i^T).  The rows of Q_i (and of St_i) are the transformed
        components, primal first, each part in local order; the columns of
        Q_i are the subdomain's interface positions ``subs.pos`` in order.
        Dual copies are numbered in subdomain order."""
        subs, cons = self.subs, self.constraints
        se_of, off = cons.se_of, cons.block_off
        _, group = np.unique(np.column_stack([subs.nG, self.n_dual_by_sub]),
                             axis=0, return_inverse=True)
        runs = []
        for g in range(group.max(initial=-1) + 1):
            sids = np.flatnonzero(group == g)
            size = max(STACK_ENTRIES // max(subs.nG[sids[0]], 1) ** 2, 1)
            runs += [sids[i:i + size] for i in range(0, sids.size, size)]
        for sids in runs:
            n, nd = subs.nG[sids[0]], self.n_dual_by_sub[sids[0]]
            pos = subs.pos[sids, :n]
            p = np.argsort(~self.is_primal[pos], axis=1, kind="stable")
            rows = pos[np.arange(sids.size)[:, None], p]
            # Q_i, block-diagonal over the SubdomainEdges, rows primal first
            Qi = np.where(se_of[rows][:, :, None] == se_of[pos][:, None, :],
                          cons.Q[rows[:, :, None], off[pos][:, None, :]], 0.0)
            St = Qi @ subs.S[sids, :n, :n] @ Qi.swapaxes(1, 2)
            idx = self.primal_index[rows]
            idx[:, n - nd:] = self.dual_start[sids, None] + np.arange(nd)
            yield sids, rows, idx, n - nd, Qi, St

    def apply(self, r):
        """M^-1 r from the fused stacks: gather, one batched product with
        [L_i; G_i], the coarse solve, one batched product with C_i, scatter.
        The [L_i; G_i] product runs over the ranges of subdomains that
        ``_split.parts`` cuts ``LG`` into (more than one only for a large
        stack), with the same BLAS call per subdomain and so the same
        result."""
        r = np.asarray(r, dtype=float)
        n = self.subs.n
        if r.shape != (n,):
            raise InvalidConfigError("interface residual has wrong length")
        pos = self.subs.pos
        w = pos.shape[1]
        y = _split.matmul(self.LG, np.append(r, 0.0)[pos][..., None])[..., 0]
        g = np.bincount(self.pidx.ravel(), y[:, w:].ravel(),
                        minlength=self.n_primal + 1)[:self.n_primal]
        xp = self.coarse_lu.solve(g) if self.coarse_lu is not None else g
        y = y[:, :w] + np.matmul(self.C, np.append(xp, 0.0)[self.pidx]
                                 [..., None])[..., 0]
        return np.bincount(pos.ravel(), y.ravel(), minlength=n + 1)[:n]

    # -- the operators of the dense oracle ----------------------------------

    @cached_property
    def Qg(self):
        """The change of basis, block-diagonal over the SubdomainEdges."""
        Q, off = self.constraints.Q, self.constraints.block_off
        rows, c = np.nonzero(Q)
        return sp.csr_matrix((Q[rows, c], (rows, rows - off[rows] + c)),
                             shape=(Q.shape[0], Q.shape[0]))

    @cached_property
    def R(self):
        """Rt: row t picks the interface position of tilde component t."""
        t = np.arange(self.n_tilde)
        return sp.csr_matrix((np.ones(t.size), (t, self._cols)),
                             shape=(self.n_tilde, self.subs.n))

    @cached_property
    def RD(self):
        """Rt_D = W Rt: weight 1 on the primal DOFs, the dual weights on
        the dual copies."""
        D, t = self._weights, np.arange(self.n_tilde)
        scalar = np.ndim(D) == 0
        Wt = sp.diags(np.where(t < self.n_primal, 1.0, D if scalar else 0.0))
        if not scalar:
            d = np.arange(D.shape[1])
            gd = np.where(d < self.n_dual_by_sub[:, None],
                          self.dual_start[:, None] + d, -1)
            Wt = Wt + scatter_blocks([(D, gd, gd)], Wt.shape)
        return (Wt @ self.R).tocsr()

    def apply_average(self, t):
        """E_D t = Rt Rt_D^T t on partially assembled vectors."""
        return self.R @ (self.RD.T @ t)

    def dense_partially_assembled(self):
        """Dense St (the oracle of the apply on small problems), summed
        from the local transformed Schur complements."""
        S = np.zeros((self.n_tilde, self.n_tilde))
        for _, _, idx, _, _, St in self._local_stacks():
            np.add.at(S, (idx[:, :, None], idx[:, None, :]), St)
        return S


def build_preconditioner(subs, iface, constraints, dofs):
    """``BddcPreconditioner(subs, constraints)``; ``iface`` and ``dofs`` are
    not read.  Kept with this signature only for ``perfbench/pipeline.py``."""
    return BddcPreconditioner(subs, constraints)
