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
SubdomainEdge, batched over the SubdomainEdges of equal block shape.  In the
transformed variables the primal DOFs are assembled across the interface
while dual DOFs stay subdomain-local; the
preconditioner is M^-1 = Q^T Rt_D^T St^-1 Rt_D Q (Li & Widlund 2006).  Setup
assembles a few global sparse operators from the local Schur complements: the
restriction Rt and its weighted form Rt_D, the block-diagonal inverse of the
dual blocks S_dd, the two primal-dual couplings and the coarse LU; each apply
is then a handful of sparse products and one coarse solve (the two-level
structure of Dohrmann 2003).
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dd import scatter_blocks
from .fespace import EdgeQuadrature, interface_quadrature
from .mesh import InvalidConfigError

VARIANTS = ("bddc1", "bddc2", "bddc3", "all-primal", "none")

_N_FUNCTIONALS = {"bddc1": 1, "bddc2": 2, "bddc3": 3}


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


def constraint_rows(mesh, se, spec, k):
    """Raw functional rows (c1, c2, c3) over one SubdomainEdge's DOF block."""
    q = EdgeQuadrature(mesh, se.edges, k)
    raw = _raw_rows(q, q.beta_n(spec, se.normal), se.tangent, se.midpoint_t)
    return tuple(raw.reshape(3, -1))


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
    """Retained, orthonormalized constraint rows per SubdomainEdge.

    ``blocks`` holds the rows batched: one (se_idx, R) per distinct block
    shape, R (len(se_idx), n_pi, m) being the rows of SubdomainEdges se_idx.
    ``rows`` (per SubdomainEdge, (n_pi, m)) views them, and ``kept`` names
    the retained functionals of each SubdomainEdge.
    """

    def __init__(self, variant, spec, mesh, dofs, k):
        self.variant = _variant_name(variant)
        self.spec = spec
        self.mesh = mesh
        self.k = k
        nds = k + 1
        runs = mesh.interface_runs
        n_se = len(runs.pair)
        start = runs.offsets[:-1] * nds
        size = runs.offsets[1:] * nds - start
        nfun = _N_FUNCTIONALS.get(self.variant)
        if nfun:
            # every functional of every SubdomainEdge, in interface DOF order
            q, bn = interface_quadrature(mesh, spec, k)
            run = runs.run_of_edge
            raw = _raw_rows(q, bn, runs.tangent[run],
                            runs.midpoint_t[run]).reshape(3, -1)
        self.blocks = []
        self.kept = [None] * n_se
        self.n_primal_by_se = np.zeros(n_se, dtype=np.int64)
        for m in np.unique(size):
            idx = np.flatnonzero(size == m)
            if nfun:
                Q, kept = _orthonormalize(
                    raw[:nfun, start[idx, None] + np.arange(m)].swapaxes(0, 1))
                names = ("c1", "c2", "c3")
            else:
                n = m if self.variant == "all-primal" else 0
                Q = np.broadcast_to(np.eye(m)[:n], (idx.size, n, m))
                kept = np.ones((idx.size, n), dtype=bool)
                names = ["e%d" % i for i in range(n)]
            n_pi = kept.sum(axis=1)
            self.n_primal_by_se[idx] = n_pi
            for n in np.unique(n_pi):
                sel = n_pi == n
                self.blocks.append((idx[sel], Q[sel][kept[sel]].reshape(
                    np.count_nonzero(sel), n, m)))
            for i, row in zip(idx.tolist(), kept.tolist()):
                self.kept[i] = [nm for nm, keep in zip(names, row) if keep]
        self.rows = [None] * n_se
        for idx, R in self.blocks:
            for i, r in zip(idx.tolist(), R):
                self.rows[i] = r
        self.primal_offsets = np.concatenate(
            [[0], np.cumsum(self.n_primal_by_se)])
        self.n_primal = int(self.primal_offsets[-1])


def build_constraints(variant, spec, mesh, dofs, k):
    """PrimalConstraintSet for all SubdomainEdges of the mesh."""
    return PrimalConstraintSet(variant, spec, mesh, dofs, k)


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
        dual = sla.null_space(rows).swapaxes(1, 2)
        big = np.abs(dual) > 1e-12
        first = np.take_along_axis(dual, big.argmax(axis=2)[..., None],
                                   axis=2)[..., 0]
        flip = big.any(axis=2) & (first < 0)
        Q = np.concatenate([rows, np.where(flip[..., None], -dual, dual)],
                           axis=1)
    if not np.allclose(Q @ Q.swapaxes(1, 2), np.eye(m), atol=1e-12):
        raise PreconditionerError("change of basis is not orthogonal")
    return Q


class EdgeBasisTransform:
    """Orthogonal change of basis on one SubdomainEdge block.

    ``rows`` are the retained orthonormal constraint rows, shape (n_pi, m).
    """

    def __init__(self, rows):
        self.n_primal = rows.shape[0]
        self.Q = _change_of_basis(rows[None])[0]

    @property
    def inverse(self):
        return self.Q.T


def _block_rows_csr(rows, first_col, width):
    """CSR matrix whose row p holds rows[p, :width[p]] at the columns
    first_col[p], ..., first_col[p] + width[p] - 1; exact zeros dropped."""
    n, w = rows.shape
    in_row = np.arange(w) < width[:, None]
    cols = first_col[:, None] + np.arange(w)
    out = sp.csr_matrix((rows[in_row], cols[in_row],
                         np.r_[0, np.cumsum(width)]), shape=(n, n))
    out.eliminate_zeros()
    return out


class BddcPreconditioner:
    """Two-level BDDC in the transformed interface variables.

    Partially assembled layout: [primal (n_primal); dual copies per subdomain
    in subdomain order].  Dual weights are 1/2 (every interface DOF is shared
    by exactly two subdomains); primal weight is 1.

    Assembled operators: ``Qg`` (change of basis), ``R`` and ``RD``
    (restriction Rt and weighted restriction Rt_D, n_tilde x n_interface),
    ``Sdd_inv`` (block-diagonal inverse of the dual blocks), ``Spd`` and
    ``Kdp`` = S_dd^-1 S_dp (the primal-dual couplings) and the coarse matrix
    ``Fc`` with its LU ``coarse_lu``.
    """

    def __init__(self, subs, constraints, dofs):
        self.subs = subs
        self.constraints = constraints
        self.dofs = dofs
        self.variant = constraints.variant
        n_ifc = dofs.n_interface

        # Q_rows[p]: the row of Q_E at interface position p, within its
        # SubdomainEdge block (padded with zeros to the widest block)
        start = dofs.se_blocks[:, 0] - dofs.n_interior
        size = dofs.se_blocks[:, 1] - dofs.se_blocks[:, 0]
        self.se_of = np.repeat(np.arange(size.size), size)
        self.block_off = np.arange(n_ifc) - start[self.se_of]
        self.Q_rows = np.zeros((n_ifc, size.max(initial=0)))
        for idx, R in constraints.blocks:
            m = R.shape[2]
            self.Q_rows[start[idx, None] + np.arange(m), :m] = \
                _change_of_basis(R)
        self.Qg = _block_rows_csr(self.Q_rows, start[self.se_of],
                                  size[self.se_of])

        # the first n_primal_by_se components of each transformed
        # SubdomainEdge block are primal, numbered in SubdomainEdge order
        self.n_primal = constraints.n_primal
        nP = constraints.n_primal_by_se
        primal_pos = np.repeat(start - constraints.primal_offsets[:-1], nP) \
            + np.arange(self.n_primal)
        self.is_primal = np.zeros(n_ifc, dtype=bool)
        self.is_primal[primal_pos] = True
        self.primal_index = np.full(n_ifc, -1, dtype=np.int64)
        self.primal_index[primal_pos] = np.arange(self.n_primal)

        dual_cols = []
        inv_dd, c_pd, c_dp, coarse = [], [], [], []
        for sub, pos, idx, dual, St in self.local_blocks():
            prim = ~dual
            gp, gd = idx[prim], idx[dual] - self.n_primal
            dual_cols.append(pos[dual])
            Spp = St[np.ix_(prim, prim)]
            if gd.size:
                Sdd = St[np.ix_(dual, dual)]
                Sdp = St[np.ix_(dual, prim)]
                Spd = St[np.ix_(prim, dual)]
                try:
                    lu_dd = sla.lu_factor(Sdd)
                except (ValueError, sla.LinAlgError) as exc:
                    raise PreconditionerError(
                        "singular dual block in subdomain %d (variant %s, "
                        "eps %g)" % (sub.sidx, self.variant,
                                     constraints.spec.eps)) from exc
                if np.min(np.abs(np.diag(lu_dd[0]))) < \
                        1e-14 * max(np.abs(Sdd).max(), 1e-300):
                    raise PreconditionerError(
                        "singular dual block in subdomain %d (variant %s, "
                        "eps %g)" % (sub.sidx, self.variant,
                                     constraints.spec.eps))
                Kdp = sla.lu_solve(lu_dd, Sdp)
                inv_dd.append((sla.lu_solve(lu_dd, np.eye(gd.size)), gd, gd))
                c_pd.append((Spd, gp, gd))
                c_dp.append((Kdp, gd, gp))
                Spp = Spp - Spd @ Kdp
            coarse.append((Spp, gp, gp))
        # row t of Rt picks the interface position of tilde component t
        cols = np.concatenate([primal_pos] + dual_cols)
        self.n_tilde = cols.size
        self.n_dual_total = n_dual = self.n_tilde - self.n_primal
        rows = np.arange(self.n_tilde)
        shape = (self.n_tilde, n_ifc)
        self.R = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape)
        self.RD = sp.csr_matrix(
            (np.where(rows < self.n_primal, 1.0, 0.5), (rows, cols)), shape)
        self.Sdd_inv = scatter_blocks(inv_dd, (n_dual, n_dual)).tocsr()
        self.Spd = scatter_blocks(c_pd, (self.n_primal, n_dual)).tocsr()
        self.Kdp = scatter_blocks(c_dp, (n_dual, self.n_primal)).tocsr()

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

    def local_blocks(self):
        """Per subdomain: (sub, interface positions, their partially
        assembled indices, dual mask, St_i = Q_i S^(i) Q_i^T).

        Dual copies are numbered in subdomain order after the primal DOFs.
        """
        off = self.n_primal
        for sub in self.subs:
            pos = sub.interface_pos
            # Q_i is block-diagonal over the subdomain's SubdomainEdges
            se = self.se_of[pos]
            Qi = np.where(se[:, None] == se,
                          self.Q_rows[pos][:, self.block_off[pos]], 0.0)
            dual = ~self.is_primal[pos]
            nd = np.count_nonzero(dual)
            idx = self.primal_index[pos]
            idx[dual] = off + np.arange(nd)
            off += nd
            yield sub, pos, idx, dual, Qi @ sub.dense_schur() @ Qi.T

    # -- restriction maps on transformed vectors ---------------------------

    def tilde_from_hat(self, c, weighted):
        """Rt (or Rt_D) applied to an assembled transformed vector c."""
        return (self.RD if weighted else self.R) @ c

    def hat_from_tilde(self, t, weighted):
        """Rt^T (or Rt_D^T) applied to a partially assembled vector t."""
        return (self.RD if weighted else self.R).T @ t

    def inner_solve(self, rt):
        """Solve the partially assembled system St x = rt (two-level)."""
        w = self.Sdd_inv @ rt[self.n_primal:]
        g = rt[:self.n_primal] - self.Spd @ w
        xp = self.coarse_lu.solve(g) if self.coarse_lu is not None else g
        return np.concatenate([xp, w - self.Kdp @ xp])

    def apply(self, r):
        """M^-1 r = Q^T Rt_D^T St^-1 Rt_D Q r."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.dofs.n_interface,):
            raise InvalidConfigError("interface residual has wrong length")
        xt = self.inner_solve(self.RD @ (self.Qg @ r))
        return self.Qg.T @ (self.RD.T @ xt)

    def apply_average(self, t):
        """E_D t = Rt Rt_D^T t on partially assembled vectors."""
        return self.R @ (self.RD.T @ t)

    def dense_partially_assembled(self):
        """Dense St (oracle for small problems), summed from the local
        transformed Schur complements."""
        S = np.zeros((self.n_tilde, self.n_tilde))
        for _, _, idx, _, St in self.local_blocks():
            S[np.ix_(idx, idx)] += St
        return S


def build_preconditioner(subs, iface, constraints, dofs):
    """Two-level BDDC preconditioner (or exact coarse for all-primal).

    ``iface`` is not read: the interface operator enters through the local
    Schur complements of ``subs``.
    """
    if constraints.variant == "none":
        raise InvalidConfigError(
            "variant 'none' means unpreconditioned GMRES; no BDDC object")
    return BddcPreconditioner(subs, constraints, dofs)
