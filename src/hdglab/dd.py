"""Nonoverlapping domain decomposition of the condensed trace system.

Each subdomain carries the element-scattered trace matrix plus the Robin
modification +1/2<beta.n lam, mu> on its interface edges (n = outward normal
of the subdomain).  The modification cancels pairwise across an interface, so
the subdomain systems sum back to the global operator exactly, while making
each local problem solvable on its own.

The subdomain systems are held torn, as one layer.  Interiors never couple
and ``TraceDofMap`` numbers them by subdomain, so A_II^(i) and B_i = A_IG^(i)
are slices of ``sys.A`` and each entry of T = A_GI belongs to the owner of its
interior column.  G_i = A_GG^(i) + Robin is one scatter of all elements into a
stack.  Runs of consecutive subdomains share one sparse LU of their A_II slice
and one solve with a shared right-hand-side block, giving the stack
S_i = G_i - T_i A_II^(i)^-1 B_i.  S_Gamma = sum_i R_i^T S_i R_i is never
assembled: ``InterfaceOperator`` applies it from the stack with one gather,
one batched product and one scatter-add.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import interface_quadrature
from .mesh import InvalidConfigError

# a factor group grows while its interior rows x its largest nG stay within
# this: SuperLU solves a wide block slower than narrow ones of large subdomains
GROUP_ENTRIES = 2 ** 16


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


class Subdomain:
    """One subdomain's view of the torn layer.  ``A_sparse``/``A`` rebuild its
    Robin-modified matrix (test oracles): interior DOFs, then interface DOFs."""

    def __init__(self, layer, sidx):
        self.layer, self.sidx = layer, sidx
        self.nI, self.nG = int(layer.nI[sidx]), int(layer.nG[sidx])
        self.interior_gids = layer.dofs.interior_by_sub[sidx]
        self.interface_gids = layer.dofs.sub_interface_gids[sidx]
        self.interface_pos = layer.dofs.sub_interface_pos[sidx]

    def dense_schur(self):
        """S^(i) = A_GG - A_GI A_II^-1 A_IG, a view into the layer's stack."""
        return self.layer.S[self.sidx, :self.nG, :self.nG]

    @property
    def A_sparse(self):
        L, s, nG = self.layer, self.sidx, self.nG
        a, b, g, w = L.istart[s], L.istart[s + 1], L.gstart[s], L.S.shape[1]
        return sp.bmat([[L.A[a:b, a:b], L.B[a:b, :nG]],
                        [L.T[g:g + nG, a:b], L.G[s * w:s * w + nG, :nG]]],
                       format="csr")

    @property
    def A(self):
        return self.A_sparse.toarray()


class Subdomains:
    """The torn interface layer; iterating yields one ``Subdomain`` each.

    Subdomain s owns the interiors [istart[s], istart[s+1]) and the stacked
    interface rows [gstart[s], gstart[s+1]); ``pos`` (n_sub, w) holds its
    interface positions, padded with -1 to w = max nG.  ``S`` (n_sub, w, w)
    stacks the local Schur complements, ``G`` (csr, n_sub*w x w) the
    A_GG^(i) + Robin, ``T`` (csr, sum nG x n_interior) the torn A_GI and ``B``
    (csr, n_interior x w) A_IG with local columns; ``groups`` is [(a, b, lu)]
    over the factor groups' interior ranges."""

    def __init__(self, sys, robin):
        dofs, mesh, nds = sys.dofs, sys.mesh, sys.k + 1
        self.dofs, self.A, self.b = dofs, sys.A, sys.b
        n_sub, n0, n_ifc = mesh.n_subdomains, dofs.n_interior, dofs.n_interface
        self.nI = np.array([g.size for g in dofs.interior_by_sub])
        self.nG = np.array([p.size for p in dofs.sub_interface_pos])
        self.istart = np.r_[0, np.cumsum(self.nI)]
        self.gstart = np.r_[0, np.cumsum(self.nG)]
        w = int(self.nG.max(initial=0))

        # stacked row of (subdomain s, interface position p): positions
        # ascend within a subdomain, so the keys s * n_ifc + p are sorted
        row_sub = np.repeat(np.arange(n_sub), self.nG)
        row_pos = np.concatenate(dofs.sub_interface_pos)
        row_loc = np.arange(row_sub.size) - self.gstart[row_sub]
        keys = row_sub * n_ifc + row_pos
        local = lambda s, p: row_loc[np.searchsorted(keys, s * n_ifc + p)]
        self.pos = np.full((n_sub, w), -1, dtype=np.int64)
        self.pos[row_sub, row_loc] = row_pos

        # G: the elements with interface slots, then both sides of every
        # interface edge (at most two terms meet in one entry)
        els = np.flatnonzero((sys.elem_dofs >= n0).any(axis=1))
        ed = sys.elem_dofs[els]
        sub = np.broadcast_to(mesh.tri_sub[els, None], ed.shape)
        lr = np.full(ed.shape, -1)
        lr[ed >= n0] = local(sub[ed >= n0], ed[ed >= n0] - n0)
        both = (lr[:, :, None] >= 0) & (lr[:, None, :] >= 0)
        flat = [((sub[..., None] * w + lr[..., None]) * w
                 + lr[:, None, :])[both]]
        vals = [sys.blocks.S_hat[els][both]]
        runs = mesh.interface_runs
        edge_pos = np.arange(n_ifc).reshape(-1, nds)
        sub = runs.pair[runs.run_of_edge].T[:, :, None]   # sides 0, 1
        lp = local(sub, edge_pos)
        flat.append(((sub[..., None] * w + lp[..., None]) * w
                     + lp[..., None, :]).ravel())
        vals.append(np.multiply.outer([0.5, -0.5], robin).ravel())
        self.S = np.bincount(np.concatenate(flat), np.concatenate(vals),
                             minlength=n_sub * w * w).reshape(n_sub, w, w)
        self.S = self.S.astype(float, copy=False)  # an empty bincount is int
        self.G = sp.csr_matrix(self.S.reshape(n_sub * w, w))

        # T and B: each entry goes to the owner of its interior DOF
        T, B = self.A[n0:, :n0].tocoo(), self.A[:n0, n0:].tocoo()
        s = dofs.owner[T.col]
        self.T = sp.csr_matrix((T.data, (self.gstart[s] + local(s, T.row),
                                         T.col)), shape=(row_sub.size, n0))
        self.B = sp.csr_matrix((B.data, (B.row, local(dofs.owner[B.row],
                                                      B.col))), shape=(n0, w))

        # S_i -= T_i X_i, X = A_II^-1 B per group.  All factorizations come
        # first: SuperLU's work arrays then do not land in heap pages that
        # the solves touched and freed (resident memory)
        bounds, rows, width = [0], 0, 0
        for s, (ni, ng) in enumerate(zip(self.nI.tolist(), self.nG.tolist())):
            rows, width = rows + ni, max(width, ng)
            if rows * width > GROUP_ENTRIES and s > bounds[-1]:
                bounds.append(s)
                rows, width = ni, ng
        ranges = list(zip(bounds, bounds[1:] + [n_sub]))
        self.groups = [(self.istart[s0], self.istart[s1], self._factor(s0, s1))
                       for s0, s1 in ranges]
        for (s0, s1), (a, b, lu) in zip(ranges, self.groups):
            wg = int(self.nG[s0:s1].max())
            X = lu.solve(self.B[a:b, :wg].toarray())
            g0, g1 = self.gstart[s0], self.gstart[s1]
            # X's rows of subdomain s are zero past column nG[s]
            self.S[row_sub[g0:g1], row_loc[g0:g1], :wg] -= \
                self.T[g0:g1, a:b] @ X

    def _factor(self, s0, s1):
        """splu of the A_II slice of subdomains [s0, s1), or SubdomainError
        naming a singular one: a failed group is refactored subdomain by
        subdomain, and a pivot below 1e-14 max |A_II| fails its owner."""
        a, b = self.istart[s0], self.istart[s1]
        block = self.A[a:b, a:b].tocsc()
        msg = "interior block of subdomain %d is singular"
        try:
            lu = spla.splu(block)
        except RuntimeError as exc:
            if s1 - s0 == 1:
                raise SubdomainError(msg % s0) from exc
            for s in range(s0, s1):
                self._factor(s, s + 1)
            raise SubdomainError("interior blocks of subdomains %d-%d are "
                                 "singular" % (s0, s1 - 1)) from exc
        piv = np.abs(lu.U.diagonal())[lu.perm_c]   # pivot of each column
        amax = np.maximum.reduceat(np.abs(block.data),
                                   block.indptr[self.istart[s0:s1] - a])
        tol = np.repeat(1e-14 * np.maximum(amax, 1e-300), self.nI[s0:s1])
        bad = np.flatnonzero(~np.isfinite(piv) | (piv < tol))
        if bad.size:
            raise SubdomainError(msg % self.dofs.owner[a + bad[0]])
        return lu

    def __iter__(self):
        return (Subdomain(self, s) for s in range(self.nI.size))

    def __getitem__(self, s):
        return Subdomain(self, range(self.nI.size)[s])

    def extend(self, lamG, bI=0.0):
        """Full free-DOF vector (lam_I, lamG), A_II lam_I = bI - A_IG lamG
        solved group by group (bI = 0: the discrete harmonic extension)."""
        n0 = self.dofs.n_interior
        lam = np.concatenate([bI - self.A[:n0, n0:] @ lamG, lamG])
        for a, b, lu in self.groups:
            lam[a:b] = lu.solve(lam[a:b])
        return lam


def build_subdomains(mesh, dofs, spec, k, sys):
    """The torn interface layer of the assembled ``sys``, with its local
    Schur complements."""
    return Subdomains(sys, _robin_edge_matrices(mesh, spec, k))


class InterfaceOperator:
    """S_Gamma = sum_i R_i^T S^(i) R_i, applied from the stacked local Schur
    complements: a gather of every subdomain's interface values, one batched
    product with ``subs.S`` and one scatter-add.  Padded slots of ``subs.pos``
    gather a zero and scatter into a dummy entry past the end."""

    def __init__(self, subs, dofs):
        self.subs, self.dofs, self.n = subs, dofs, dofs.n_interface
        self.pos = np.where(subs.pos >= 0, subs.pos, self.n)
        self._b = None

    def apply(self, lamG):
        lamG = np.asarray(lamG, dtype=float)
        if lamG.shape != (self.n,):
            raise InvalidConfigError("interface vector has wrong length")
        x = np.append(lamG, 0.0)[self.pos]
        y = np.matmul(self.subs.S, x[..., None])[..., 0]
        return np.bincount(self.pos.ravel(), y.ravel(),
                           minlength=self.n + 1)[:self.n]

    @property
    def b_gamma(self):
        """b_G - A_GI A_II^-1 b_I, the sum of the local interface RHS."""
        if self._b is None:
            n0, A = self.dofs.n_interior, self.subs.A
            lamI = self.subs.extend(np.zeros(self.n), self.subs.b[:n0])[:n0]
            self._b = self.subs.b[n0:] - A[n0:, :n0] @ lamI
        return self._b

    def as_dense(self):
        """Dense interface matrix (the dense-Schur oracle of the tests),
        summed straight from the stack."""
        n1, P = self.n + 1, self.pos
        flat = (P[:, :, None] * n1 + P[:, None, :]).ravel()
        return np.bincount(flat, self.subs.S.ravel(), minlength=n1 * n1) \
            .reshape(n1, n1)[:self.n, :self.n]

    def back_substitute(self, lamG):
        """Full free-DOF vector, interiors recovered from lamG and the load."""
        return self.subs.extend(lamG, self.subs.b[:self.dofs.n_interior])


def build_interface_operator(subs, dofs):
    return InterfaceOperator(subs, dofs)
