"""Global condensed trace system A lam = b and reference solvers.

Boundary edges carry no unknowns: the Dirichlet datum g is projected onto the
trace space of all boundary edges at once (``fespace.project_boundary``) and
enters through lifting (b -= A[:, fixed] g).  The operator acts on the free
coefficients only, ordered as in TraceDofMap (subdomain interiors first, then
the interface).  The element blocks are a build-time intermediate: the
subdomains condense them, and the solver then reads only their operators and
``b``.  ``TraceSystem`` keeps ``b`` and derives the rest on first access: the
blocks from a fresh element pass (bit-identical, as the pass is deterministic
and chunk-independent), and from them the assembled matrix ``A`` for the
direct solve, the diagnostics and the checks.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import project_boundary
from .hdg import ElementBlocks


class TraceSystem:
    """Condensed system with its ingredients.

    Attributes
    ----------
    b : right-hand side (condensed element loads + Dirichlet lifting)
    dofs : TraceDofMap
    blocks : ElementBlocks of the mesh; ``assemble_trace_system`` seeds it
        with the blocks it used, ``del sys.blocks`` drops them, and the next
        access runs the element pass again
    A : csr_matrix over the free trace DOFs
    gcoef : (n_edges, k+1) fixed boundary coefficients (zero off the boundary)
    elem_dofs : (nel, 3*(k+1)) int32 global DOF of each local trace slot, -1
        if fixed

    All but ``b`` and ``dofs`` are derived on first access.
    """

    def __init__(self, mesh, spec, k, dofs, b):
        self.mesh = mesh
        self.spec = spec
        self.k = k
        self.dofs = dofs
        self.b = b

    @property
    def n(self):
        return self.dofs.n_dofs

    @cached_property
    def blocks(self):
        return ElementBlocks(self.mesh, self.spec, self.k)

    @cached_property
    def elem_dofs(self):
        return _elem_dofs(self.mesh, self.dofs)

    @cached_property
    def gcoef(self):
        return project_boundary(self.mesh, self.spec.g, self.k)

    @cached_property
    def A(self):
        return assemble_matrix(self.blocks.S_hat, self.elem_dofs, self.n,
                               self.k + 1)

    @cached_property
    def B(self):
        """Symmetric part (A + A^T)/2, built on demand."""
        return (0.5 * (self.A + self.A.T)).tocsr()

    @cached_property
    def Z(self):
        """Skew part (A - A^T)/2, built on demand."""
        return (0.5 * (self.A - self.A.T)).tocsr()

    def local_traces(self, lam):
        """Per-element local trace coefficients (free values + boundary data)."""
        full = np.where(self.elem_dofs >= 0,
                        lam[np.clip(self.elem_dofs, 0, None)], 0.0)
        return full + self.gloc

    @property
    def gloc(self):
        return self.gcoef[self.mesh.tri_edges].reshape(self.elem_dofs.shape)


def _elem_dofs(mesh, dofs):
    """(nel, 3*(k+1)) free DOF of each local trace slot, -1 if fixed."""
    return dofs.edge_dofs[mesh.tri_edges].reshape(mesh.n_triangles, -1)


def assemble_matrix(S_hat, elem_dofs, n, nds):
    """Sum of the element blocks ``S_hat`` over the free DOFs ``elem_dofs``
    (n of them, nds per edge, -1 where fixed) as CSR with int32 indices.

    The DOFs of a free edge are consecutive, and a free edge is interior, so
    the rows of free edge e are the slot rows of e in its two elements: six
    edge blocks, in column order, fixed edges dropped and the two blocks on
    e itself summed.  They are written straight into the CSR arrays in runs
    of edges (2^16 entries), so only the output and one run are allocated.
    """
    ne = n // nds
    edge = elem_dofs[:, ::nds] // nds       # -1 where fixed
    slots = np.argsort(edge, axis=None, kind="stable")[edge.size - 2 * ne:]
    el, a = np.divmod(slots.astype(np.int32).reshape(ne, 2), 3)
    col = edge[el].reshape(ne, 6)
    col[np.arange(ne), 3 + a[:, 1]] = -1        # e itself, from element 0
    indptr = np.r_[0, np.cumsum(np.repeat((col >= 0).sum(axis=1) * nds,
                                          nds))].astype(np.int32)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    rows = S_hat.reshape(-1, 3, nds, 3, nds)
    j = np.arange(nds)
    step = max(1, 2 ** 16 // (6 * nds * nds))   # edges per run
    for e0 in range(0, ne, step):
        s = slice(e0, e0 + step)
        blk = rows[el[s], a[s]].transpose(0, 2, 1, 3, 4).reshape(
            -1, nds, 6, nds)
        c = np.arange(blk.shape[0])
        blk[c, :, a[s, 0]] += blk[c, :, 3 + a[s, 1]]
        cs = np.where(col[s] < 0, ne, col[s])
        order = np.argsort(cs, axis=1, kind="stable")[:, None, :, None]
        blk = np.take_along_axis(blk, order, axis=2)
        cs = np.take_along_axis(cs[:, None, :, None], order, axis=2)
        sel = np.broadcast_to(cs < ne, blk.shape)
        out = slice(indptr[e0 * nds], indptr[min(e0 + step, ne) * nds])
        data[out] = blk[sel]
        indices[out] = np.broadcast_to(cs * nds + j, blk.shape)[sel]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_trace_system(mesh, dofs, spec, k, blocks=None):
    """The trace system: b with Dirichlet lifting, its ``blocks`` seeded with
    the element blocks used (built here when not given)."""
    if blocks is None:
        blocks = ElementBlocks(mesh, spec, k)
    elem_dofs = _elem_dofs(mesh, dofs)
    gcoef = project_boundary(mesh, spec.g, k)
    bvals = np.einsum("nij,nj->ni", blocks.S_hat,
                      gcoef[mesh.tri_edges].reshape(elem_dofs.shape))
    np.subtract(blocks.b_hat, bvals, out=bvals)
    # fixed slots (-1) land in bin 0, which is dropped
    b = np.bincount(elem_dofs.ravel() + 1, bvals.ravel(),
                    minlength=dofs.n_dofs + 1)[1:]
    sys_ = TraceSystem(mesh, spec, k, dofs, b)
    sys_.blocks = blocks
    return sys_


def eval_forms(sys, lam, mu):
    """(a_h, b_h, z_h) with a_h = mu^T A lam and its symmetric/skew split."""
    a1 = float(mu @ (sys.A @ lam))
    a2 = float(lam @ (sys.A @ mu))
    return a1, 0.5 * (a1 + a2), 0.5 * (a1 - a2)


def direct_solve(sys):
    """Sparse LU reference solve of A lam = b."""
    if sys.n == 0:
        return np.zeros(0)
    lu = spla.splu(sys.A.tocsc())
    lam = lu.solve(sys.b)
    return lam


def recover_all(sys, lam):
    """Batched interior recovery: (q, u) coefficients for every element."""
    return sys.blocks.recover(sys.local_traces(lam), sys.blocks.load_vectors())


def l2_error_u(sys, u, uexact):
    """L2(Omega) error of the recovered scalar field against a callable."""
    blocks = sys.blocks
    wv = blocks.vrule.weights
    err2 = 0.0
    for t, els in enumerate(blocks._type_groups()):
        geo = blocks.type_geo[t]
        x, y = blocks._points(geo, els)
        ue = np.broadcast_to(uexact(x, y), x.shape).astype(float)
        uh = u[els] @ geo["phiv"]
        err2 += geo["detJ"] * float(np.einsum("q,nq->", wv, (uh - ue) ** 2))
    return np.sqrt(err2)


def full_saddle_solve(mesh, dofs, spec, k):
    """Dense solve of the unreduced saddle system (reference oracle).

    Unknowns: per element [q (2d), u (d)] then the free trace coefficients.
    Returns (lam, q, u) with the same layouts as the condensed path.
    """
    blocks = ElementBlocks(mesh, spec, k)
    d = blocks.d
    nds = k + 1
    m = 3 * nds
    nel = mesh.n_triangles
    nloc = 3 * d
    nfree = dofs.n_dofs
    n = nel * nloc + nfree
    M = np.zeros((n, n))
    rhs = np.zeros(n)

    elem_dofs = _elem_dofs(mesh, dofs)
    gloc = project_boundary(mesh, spec.g, k)[mesh.tri_edges].reshape(nel, m)
    F = blocks.load_vectors()
    K = blocks.K_loc()

    for kidx in range(nel):
        C = blocks.type_geo[mesh.tri_type[kidx]]["C"]
        T = blocks.local.T[kidx]
        o = kidx * nloc
        M[o:o + nloc, o:o + nloc] = K[kidx]
        rhs[o + 2 * d:o + nloc] = F[kidx]
        CS2 = np.concatenate([C, blocks.local.S2[kidx]], axis=1)   # (m, 3d)
        MCS = np.concatenate([C.T, blocks.local.S1[kidx]], axis=0)  # (3d, m)
        gdof = elem_dofs[kidx]
        for j in range(m):
            gj = gdof[j]
            col = nel * nloc + gj
            if gj >= 0:
                M[o:o + nloc, col] += MCS[:, j]
            else:
                rhs[o:o + nloc] -= MCS[:, j] * gloc[kidx, j]
        for i in range(m):
            gi = gdof[i]
            if gi < 0:
                continue
            row = nel * nloc + gi
            M[row, o:o + nloc] += CS2[i]
            for j in range(m):
                gj = gdof[j]
                if gj >= 0:
                    M[row, nel * nloc + gj] += T[i, j]
                else:
                    rhs[row] -= T[i, j] * gloc[kidx, j]
    z = np.linalg.solve(M, rhs)
    q = z[:nel * nloc].reshape(nel, nloc)[:, :2 * d].copy()
    u = z[:nel * nloc].reshape(nel, nloc)[:, 2 * d:].copy()
    return z[nel * nloc:], q, u
