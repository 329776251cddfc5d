"""Nonoverlapping domain decomposition of the condensed trace system.

Each subdomain carries the element-scattered trace matrix plus the Robin
modification +1/2<beta.n lam, mu> on its interface edges (n = outward normal
of the subdomain).  The modification cancels pairwise across an interface, so
the subdomain systems sum back to the global operator exactly, while making
each local problem solvable on its own.  The interface operator
S_Gamma = sum_i R_i^T S^(i) R_i is assembled once into one sparse matrix from
the dense local Schur complements S^(i), so each apply is one sparse matvec.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import interface_quadrature
from .mesh import InvalidConfigError


class SubdomainError(RuntimeError):
    """A subdomain-local factorization failed."""


def _robin_edge_matrices(mesh, spec, k):
    """Matrices M_e[m,l] = int_e (beta.n) P_m P_l ds of the interface edges,
    shape (n, k+1, k+1), in SubdomainEdge run order
    (``mesh.interface_runs.edges``).

    n is the outward normal of the lower-indexed subdomain of the edge's
    SubdomainEdge; the two incident subdomains add +M_e/2 and -M_e/2.
    """
    q, bn = interface_quadrature(mesh, spec, k)
    return np.einsum("q,eq,mq,lq,e->eml", q.rule.weights, bn, q.P, q.P,
                     q.half_len)


class SubdomainSystem:
    """Robin-modified local trace system of one subdomain.

    Local DOF order: subdomain-interior DOFs (global order), then the
    subdomain's interface DOFs (concatenated SubdomainEdge blocks).
    The matrix is held sparse (the interior block grows with H/h) and
    A_II is factorized eagerly.
    """

    def __init__(self, sidx, A, nI, interior_gids, interface_gids,
                 interface_pos, b_loc):
        self.sidx = sidx
        self.A_sparse = A.tocsr()
        self.nI = nI
        self.nG = A.shape[0] - nI
        self.interior_gids = interior_gids
        self.interface_gids = interface_gids
        self.interface_pos = interface_pos
        self.b_loc = b_loc
        self.AII = self.A_sparse[:nI, :nI].tocsc()
        self.AIG = self.A_sparse[:nI, nI:].tocsr()
        self.AGI = self.A_sparse[nI:, :nI].tocsr()
        self.AGG = self.A_sparse[nI:, nI:].tocsr()
        self.lu_II = None
        if nI:
            try:
                self.lu_II = spla.splu(self.AII)
            except RuntimeError as exc:
                raise SubdomainError(
                    "interior block of subdomain %d is singular"
                    % sidx) from exc
            udiag = np.abs(self.lu_II.U.diagonal())
            if not np.all(np.isfinite(udiag)) or udiag.min() < 1e-14 * max(
                    np.abs(self.AII).max(), 1e-300):
                raise SubdomainError(
                    "interior block of subdomain %d is singular" % sidx)
        self._A_dense = None
        self._dense_schur = None

    @property
    def A(self):
        """Dense local matrix, materialized on demand (small problems)."""
        if self._A_dense is None:
            self._A_dense = self.A_sparse.toarray()
        return self._A_dense

    def interior_solve(self, rhs):
        if self.nI == 0:
            return np.zeros_like(np.asarray(rhs, dtype=float))
        return self.lu_II.solve(np.asarray(rhs, dtype=float))

    def extend_interior(self, lamG):
        """Full local vector (lam_I, lam_Gamma) with A_II lam_I = -A_IG lam_G."""
        lamI = self.interior_solve(-self.AIG @ lamG)
        return np.concatenate([lamI, lamG])

    def dense_schur(self):
        """Dense S^(i) = A_GG - A_GI A_II^-1 A_IG (cached; assembled into
        S_Gamma and used by BDDC)."""
        if self._dense_schur is None:
            if self.nI:
                self._dense_schur = self.AGG.toarray() - \
                    self.AGI @ self.interior_solve(self.AIG.toarray())
            else:
                self._dense_schur = self.AGG.toarray()
        return self._dense_schur

    def b_gamma(self):
        """Local interface RHS b_G - A_GI A_II^-1 b_I."""
        bI, bG = self.b_loc[:self.nI], self.b_loc[self.nI:]
        return bG - self.AGI @ self.interior_solve(bI)

    def back_substitute(self, lamG):
        """Interior values from interface values and the local load."""
        return self.interior_solve(self.b_loc[:self.nI] - self.AIG @ lamG)


def build_subdomains(mesh, dofs, spec, k, sys=None):
    """All SubdomainSystem objects (element scatter + Robin modification)."""
    if sys is None:
        from .assembly import assemble_trace_system
        sys = assemble_trace_system(mesh, dofs, spec, k)
    blocks = sys.blocks
    nds = k + 1
    m = 3 * nds
    bvals = sys.b_elem - np.einsum("nij,nj->ni", blocks.S_hat, sys.gloc)
    robin = _robin_edge_matrices(mesh, spec, k)
    runs = mesh.interface_runs
    pair0 = runs.pair[runs.run_of_edge, 0]
    # elements of subdomain s: by_sub[starts[s]:starts[s + 1]], ascending
    by_sub = np.argsort(mesh.tri_sub, kind="stable")
    starts = np.searchsorted(mesh.tri_sub[by_sub],
                             np.arange(mesh.n_subdomains + 1))
    # global -> local DOF map, reset after each subdomain; the extra last
    # entry maps the Dirichlet marker -1 to -1
    loc = np.full(dofs.n_dofs + 1, -1, dtype=np.int64)

    subs = []
    for s in range(mesh.n_subdomains):
        int_gids = dofs.interior_by_sub[s]
        ifc_gids = dofs.sub_interface_gids[s]
        nI, nG = int_gids.size, ifc_gids.size
        nloc = nI + nG
        loc[int_gids] = np.arange(nI)
        loc[ifc_gids] = nI + np.arange(nG)

        b = np.zeros(nloc)
        els = by_sub[starts[s]:starts[s + 1]]
        gdof = sys.elem_dofs[els]
        ldof = np.where(gdof >= 0, loc[gdof], -1)
        rows = np.broadcast_to(ldof[:, :, None], (els.size, m, m))
        cols = np.broadcast_to(ldof[:, None, :], (els.size, m, m))
        mask = (rows >= 0) & (cols >= 0)
        ii, jj = [rows[mask]], [cols[mask]]
        vv = [blocks.S_hat[els][mask]]
        vmask = ldof >= 0
        np.add.at(b, ldof[vmask], bvals[els][vmask])

        # Robin terms: interface edge j holds interface positions
        # j*nds ... j*nds+k, and the subdomain's ones come in its own order
        je = dofs.sub_interface_pos[s][::nds] // nds
        sign = np.where(pair0[je] == s, 0.5, -0.5)
        sl = nI + np.arange(nG).reshape(-1, nds)
        ii.append(np.repeat(sl, nds, axis=1).ravel())
        jj.append(np.tile(sl, nds).ravel())
        vv.append((sign[:, None, None] * robin[je]).ravel())
        A = sp.coo_matrix((np.concatenate(vv),
                           (np.concatenate(ii), np.concatenate(jj))),
                          shape=(nloc, nloc))
        loc[int_gids] = -1
        loc[ifc_gids] = -1

        subs.append(SubdomainSystem(s, A, nI, int_gids, ifc_gids,
                                    dofs.sub_interface_pos[s], b))
    return subs


def scatter_blocks(blocks, shape):
    """Sparse sum of dense blocks; ``blocks`` yields (B, rows, cols) with B
    placed at rows x cols.  COO with int32 indices, duplicates unsummed."""
    rr, cc, vv = [], [], []
    for B, rows, cols in blocks:
        rr.append(np.repeat(rows.astype(np.int32), cols.size))
        cc.append(np.tile(cols.astype(np.int32), rows.size))
        vv.append(np.ravel(B))
    if not vv:
        return sp.coo_matrix(shape)
    return sp.coo_matrix((np.concatenate(vv),
                          (np.concatenate(rr), np.concatenate(cc))),
                         shape=shape)


class InterfaceOperator:
    """S_Gamma = sum_i R_i^T S^(i) R_i over the interface DOFs, assembled
    once from the dense local Schur complements into the CSR matrix ``S``."""

    def __init__(self, subs, dofs):
        self.subs = subs
        self.dofs = dofs
        self.n = dofs.n_interface
        self.S = scatter_blocks(
            ((sub.dense_schur(), sub.interface_pos, sub.interface_pos)
             for sub in subs), (self.n, self.n)).tocsr()
        self._b = None

    def apply(self, lamG):
        lamG = np.asarray(lamG, dtype=float)
        if lamG.shape != (self.n,):
            raise InvalidConfigError("interface vector has wrong length")
        return self.S @ lamG

    @property
    def b_gamma(self):
        if self._b is None:
            b = np.zeros(self.n)
            for sub in self.subs:
                b[sub.interface_pos] += sub.b_gamma()
            self._b = b
        return self._b

    def as_dense(self):
        """Dense interface matrix (tests / all-primal coarse problem)."""
        return self.S.toarray()

    def back_substitute(self, lamG):
        """Full free-DOF vector (interiors recovered subdomain by subdomain)."""
        lam = np.zeros(self.dofs.n_dofs)
        lam[self.dofs.n_interior:] = lamG
        for sub in self.subs:
            lam[sub.interior_gids] = sub.back_substitute(
                lamG[sub.interface_pos])
        return lam


def build_interface_operator(subs, dofs):
    return InterfaceOperator(subs, dofs)
