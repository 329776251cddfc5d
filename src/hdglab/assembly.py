"""Global condensed trace system A lam = b and reference solvers.

Boundary edges carry no unknowns: the Dirichlet datum g is projected onto the
trace space of all boundary edges at once (``fespace.project_boundary``) and
enters through lifting (b -= A[:, fixed] g).  The assembled operator acts on
the free coefficients only, ordered as in TraceDofMap (subdomain interiors
first, then the interface).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import project_boundary
from .hdg import ElementBlocks
from .mesh import InvalidConfigError


class TraceSystem:
    """Assembled condensed system with its ingredients.

    Attributes
    ----------
    A : csr_matrix over the free trace DOFs
    b : right-hand side (element loads + Dirichlet lifting)
    gcoef : (n_edges, k+1) fixed boundary coefficients (zero off the boundary)
    elem_dofs : (nel, 3*(k+1)) global DOF of each local trace slot, -1 if fixed
    blocks : the ElementBlocks used for assembly
    dofs : TraceDofMap
    """

    def __init__(self, mesh, spec, k, dofs, blocks, A, b, b_elem, elem_dofs,
                 gcoef):
        self.mesh = mesh
        self.spec = spec
        self.k = k
        self.dofs = dofs
        self.blocks = blocks
        self.A = A
        self.b = b
        self.b_elem = b_elem
        self.elem_dofs = elem_dofs
        self.gcoef = gcoef
        self._B = None
        self._Z = None

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def B(self):
        """Symmetric part (A + A^T)/2, built on demand."""
        if self._B is None:
            self._B = (0.5 * (self.A + self.A.T)).tocsr()
        return self._B

    @property
    def Z(self):
        """Skew part (A - A^T)/2, built on demand."""
        if self._Z is None:
            self._Z = (0.5 * (self.A - self.A.T)).tocsr()
        return self._Z

    def local_traces(self, lam):
        """Per-element local trace coefficients (free values + boundary data)."""
        full = np.where(self.elem_dofs >= 0,
                        lam[np.clip(self.elem_dofs, 0, None)], 0.0)
        return full + self.gloc

    @property
    def gloc(self):
        return self.gcoef[self.mesh.tri_edges].reshape(self.elem_dofs.shape)


def assemble_trace_system(mesh, dofs, spec, k, blocks=None, keep_local=False):
    """Assemble A (csr, free DOFs) and b with Dirichlet lifting."""
    if blocks is None:
        blocks = ElementBlocks(mesh, spec, k, keep_local=keep_local)
    nds = k + 1
    nel = mesh.n_triangles
    m = 3 * nds

    elem_dofs = dofs.edge_dofs[mesh.tri_edges].reshape(nel, m)

    gcoef = project_boundary(mesh, spec.g, k)

    F = blocks.load_vectors()
    b_elem = np.einsum("nmd,nd->nm", blocks.N, F)
    gloc = gcoef[mesh.tri_edges].reshape(nel, m)
    bvals = b_elem - np.einsum("nij,nj->ni", blocks.S_hat, gloc)

    n = dofs.n_dofs
    free = elem_dofs >= 0
    b = np.zeros(n)
    np.add.at(b, elem_dofs[free], bvals[free])

    rows = np.broadcast_to(elem_dofs[:, :, None], (nel, m, m))
    cols = np.broadcast_to(elem_dofs[:, None, :], (nel, m, m))
    mask = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((blocks.S_hat[mask], (rows[mask], cols[mask])),
                      shape=(n, n)).tocsr()
    return TraceSystem(mesh, spec, k, dofs, blocks, A, b, b_elem, elem_dofs,
                       gcoef)


def apply_operator(sys, lam):
    """y = A lam."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (sys.n,):
        raise InvalidConfigError("trace vector has wrong length")
    return sys.A @ lam


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
    blocks = sys.blocks
    if not blocks.keep_local:
        raise InvalidConfigError("recovery needs ElementBlocks(keep_local=True)")
    mesh, d = sys.mesh, blocks.d
    lamK = sys.local_traces(lam)
    F = blocks.load_vectors()
    q = np.empty((mesh.n_triangles, 2 * d))
    u = np.empty((mesh.n_triangles, d))
    for t, els in enumerate(blocks._type_groups()):
        if els.size == 0:
            continue
        C = blocks.type_geo[t]["C"]
        rhs = np.concatenate([
            -np.einsum("im,nm->ni", C.T, lamK[els]),
            F[els] - np.einsum("nim,nm->ni", blocks.S1[els], lamK[els]),
        ], axis=1)
        z = np.einsum("nij,nj->ni", blocks.Kinv[els], rhs)
        q[els] = z[:, :2 * d]
        u[els] = z[:, 2 * d:]
    return q, u


def l2_error_u(sys, u, uexact):
    """L2(Omega) error of the recovered scalar field against a callable."""
    blocks = sys.blocks
    wv = blocks.vrule.weights
    err2 = 0.0
    for t, els in enumerate(blocks._type_groups()):
        if els.size == 0:
            continue
        geo = blocks.type_geo[t]
        Xv = blocks._volume_points(geo, els)
        ue = np.broadcast_to(uexact(Xv[..., 0], Xv[..., 1]),
                             Xv.shape[:2]).astype(float)
        uh = u[els] @ geo["phiv"]
        err2 += geo["detJ"] * float(np.einsum("q,nq->", wv, (uh - ue) ** 2))
    return np.sqrt(err2)


def full_saddle_solve(mesh, dofs, spec, k):
    """Dense solve of the unreduced saddle system (reference oracle).

    Unknowns: per element [q (2d), u (d)] then the free trace coefficients.
    Returns (lam, q, u) with the same layouts as the condensed path.
    """
    blocks = ElementBlocks(mesh, spec, k, keep_local=True)
    d = blocks.d
    nds = k + 1
    m = 3 * nds
    nel = mesh.n_triangles
    nloc = 3 * d
    nfree = dofs.n_dofs
    n = nel * nloc + nfree
    M = np.zeros((n, n))
    rhs = np.zeros(n)

    elem_dofs = dofs.edge_dofs[mesh.tri_edges].reshape(nel, m)
    gloc = project_boundary(mesh, spec.g, k)[mesh.tri_edges].reshape(nel, m)
    F = blocks.load_vectors()

    for kidx in range(nel):
        el = blocks.element(kidx)
        o = kidx * nloc
        M[o:o + nloc, o:o + nloc] = el.K_loc
        rhs[o + 2 * d:o + nloc] = F[kidx]
        CS2 = np.concatenate([el.C, el.S2], axis=1)          # (m, 3d)
        MCS = np.concatenate([el.Ct, el.S1], axis=0)         # (3d, m)
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
                    M[row, nel * nloc + gj] += el.T[i, j]
                else:
                    rhs[row] -= el.T[i, j] * gloc[kidx, j]
    z = np.linalg.solve(M, rhs)
    q = z[:nel * nloc].reshape(nel, nloc)[:, :2 * d].copy()
    u = z[:nel * nloc].reshape(nel, nloc)[:, 2 * d:].copy()
    return z[nel * nloc:], q, u


def export_coo(sys, path):
    """Write A in coordinate text format: one 'row col value' line per entry."""
    coo = sys.A.tocoo()
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write("%d %d %.17g\n" % (r, c, v))
