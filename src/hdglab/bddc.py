"""BDDC preconditioners for the interface operator.

Primal constraints live on SubdomainEdges (maximal straight interface runs):
  c1(w) = int_E w ds                  (edge average, variant >= 1)
  c2(w) = int_E (beta.n) w ds         (flux-weighted average, variant >= 2)
  c3(w) = int_E (beta.n) w s ds       (flux-weighted first moment, variant 3)
with n the outward normal of the lower-indexed subdomain and s the centered
arclength along the run.  Degenerate or near-dependent rows are dropped (e.g.
c2 and c3 vanish identically when beta.n = 0 on the whole run).

The retained rows are orthonormalized and completed to an orthogonal change of
basis Q_E per SubdomainEdge.  In the transformed variables the primal DOFs are
assembled across the interface while dual DOFs stay subdomain-local; the
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
from .fespace import EdgeBasis, quadrature_rule
from .mesh import InvalidConfigError

VARIANTS = ("bddc1", "bddc2", "bddc3", "all-primal", "none")

_N_FUNCTIONALS = {"bddc1": 1, "bddc2": 2, "bddc3": 3}


class PreconditionerError(RuntimeError):
    """Preconditioner construction failed."""


def _variant_name(variant):
    if variant in (1, 2, 3):
        return "bddc%d" % variant
    if variant in VARIANTS:
        return variant
    raise InvalidConfigError("unknown BDDC variant %r" % (variant,))


def constraint_rows(mesh, se, spec, k):
    """Raw functional rows (c1, c2, c3) over one SubdomainEdge's DOF block."""
    nds = k + 1
    m = se.edges.size * nds
    rule = quadrature_rule("edge", 2 * k + 4)
    P = EdgeBasis(k).eval(rule.points)
    c1 = np.zeros(m)
    c2 = np.zeros(m)
    c3 = np.zeros(m)
    for j, e in enumerate(se.edges):
        va = mesh.vertices[mesh.edges[e, 0]]
        vb = mesh.vertices[mesh.edges[e, 1]]
        elen = float(np.hypot(*(vb - va)))
        X = va[None, :] + 0.5 * np.outer(rule.points + 1.0, vb - va)
        bx, by = spec.beta_at(X[:, 0], X[:, 1])
        bn = bx * se.normal[0] + by * se.normal[1]
        s = X @ se.tangent - se.midpoint_t
        we = rule.weights * (elen / 2.0)
        sl = slice(j * nds, (j + 1) * nds)
        c1[sl] = we @ P.T
        c2[sl] = (we * bn) @ P.T
        c3[sl] = (we * bn * s) @ P.T
    return c1, c2, c3


class PrimalConstraintSet:
    """Retained, orthonormalized constraint rows per SubdomainEdge."""

    def __init__(self, variant, spec, mesh, dofs, k):
        self.variant = _variant_name(variant)
        self.spec = spec
        self.mesh = mesh
        self.k = k
        self.rows = []        # per SE: (n_pi, m) orthonormal rows
        self.kept = []        # per SE: labels of the retained functionals
        nds = k + 1
        for se in mesh.subdomain_edges:
            m = se.edges.size * nds
            if self.variant == "all-primal":
                self.rows.append(np.eye(m))
                self.kept.append(["e%d" % i for i in range(m)])
                continue
            if self.variant == "none":
                self.rows.append(np.zeros((0, m)))
                self.kept.append([])
                continue
            raw = constraint_rows(mesh, se, spec, k)
            nfun = _N_FUNCTIONALS[self.variant]
            scale = np.linalg.norm(raw[0])
            kept_rows, kept_labels = [], []
            for label, r in zip(("c1", "c2", "c3"), raw[:nfun]):
                nr = np.linalg.norm(r)
                if nr < 1e-12 * scale:
                    continue
                v = r.copy()
                for q in kept_rows:
                    v -= (q @ v) * q
                if np.linalg.norm(v) < 1e-10 * nr:
                    continue
                for q in kept_rows:     # second pass restores orthogonality
                    v -= (q @ v) * q
                kept_rows.append(v / np.linalg.norm(v))
                kept_labels.append(label)
            self.rows.append(np.array(kept_rows).reshape(len(kept_rows), m))
            self.kept.append(kept_labels)
        self.n_primal_by_se = np.array([r.shape[0] for r in self.rows])
        self.primal_offsets = np.concatenate(
            [[0], np.cumsum(self.n_primal_by_se)])
        self.n_primal = int(self.primal_offsets[-1])


def build_constraints(variant, spec, mesh, dofs, k):
    """PrimalConstraintSet for all SubdomainEdges of the mesh."""
    return PrimalConstraintSet(variant, spec, mesh, dofs, k)


def _sign_normalize(v):
    for x in v:
        if abs(x) > 1e-12:
            return v if x > 0 else -v
    return v


class EdgeBasisTransform:
    """Orthogonal change of basis on one SubdomainEdge block.

    ``rows`` are the retained orthonormal constraint rows, shape (n_pi, m).
    """

    def __init__(self, rows):
        self.n_primal, m = rows.shape
        if self.n_primal == 0:
            self.Q = np.eye(m)
        elif self.n_primal == m:
            self.Q = rows.copy()
        else:
            null = sla.null_space(rows)
            dual = np.array([_sign_normalize(null[:, j])
                             for j in range(null.shape[1])])
            self.Q = np.vstack([rows, dual])
        if not np.allclose(self.Q @ self.Q.T, np.eye(m), atol=1e-12):
            raise PreconditionerError("change of basis is not orthogonal")

    @property
    def inverse(self):
        return self.Q.T


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

    def __init__(self, subs, iface, constraints, dofs):
        self.subs = subs
        self.iface = iface
        self.constraints = constraints
        self.dofs = dofs
        self.variant = constraints.variant
        n_ifc = dofs.n_interface

        self.Qg = sp.block_diag(
            [EdgeBasisTransform(rows).Q for rows in constraints.rows],
            format="csr") if constraints.rows else sp.eye(0).tocsr()

        # the first n_primal_by_se components of each transformed
        # SubdomainEdge block are primal, numbered in SubdomainEdge order
        self.n_primal = constraints.n_primal
        primal_pos = []
        for (a, _), nP in zip(dofs.se_blocks, constraints.n_primal_by_se):
            a -= dofs.n_interior
            primal_pos.extend(range(a, a + nP))
        primal_pos = np.array(primal_pos, dtype=np.int64)
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
            Qi = self.Qg[pos][:, pos]       # block-diagonal over the sub's SEs
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
    """Two-level BDDC preconditioner (or exact coarse for all-primal)."""
    if constraints.variant == "none":
        raise InvalidConfigError(
            "variant 'none' means unpreconditioned GMRES; no BDDC object")
    return BddcPreconditioner(subs, iface, constraints, dofs)
