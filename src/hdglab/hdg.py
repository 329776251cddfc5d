"""Per-element HDG operators, stabilization, static condensation and recovery.

Element unknowns per triangle K: flux q in P_k(K)^2 (x-components first), scalar
u in P_k(K), and the trace lambda in P_k(e) per edge (local edges (0,1),(1,2),
(2,0), each in the *global* edge parameterization).  The local system is

    [ A   Bt  Ct ] [q]   [ 0  ]
    [ B   R   S1 ] [u] = [ F_h ]      with F_h(w) = -(f, w)_K,
    [ C   S2  T  ] [l]   [ 0  ]

with A = (eps^-1 .,.), (B r, u) = -(u, div r), (C r, mu) = <r.n, mu>,
R = -<(tau - b.n/2) .,.>_dK + skew advection + (div b/2 .,.),
(S1 l, w) = <tau l, w> - <b.n l, w>, (S2 u, mu) = <tau u, mu>,
(T l, mu) = -<(tau - b.n) l, mu>.  Condensing (q,u) element by element gives the
positive-definite trace block  S_K = [C S2] K_loc^-1 [Ct; S1] - T  and the load
map  b_K = [C S2] K_loc^-1 (0; F_h)  (the raw Schur complement of the system
above is the negative of the trace bilinear form; both are negated so that the
assembled operator has positive-definite symmetric part).

``ElementBlocks`` builds these blocks once, batched over all elements of a
mesh; ``ElementLocal`` is the single-element view that slices its arrays, and
``recover`` is the one single-element solve (the lift (Q mu, U mu) is
``recover`` with zero load).

On an affine element A = a*I with a = detJ/eps, and Bt and C are fixed per
element type (the two triangle orientations of the structured mesh).  The
quadrature sums become products with per-type tables: R from beta and
div(beta) at the volume points, R, S1, S2 and T from beta.n at the edge
points and tau.  The flux block is eliminated by hand, so only the d x d block

    Sigma = R - Bt' Bt / a

is inverted per element, and

    N     = (S2 - C Bt / a) Sigma^-1,
    S_K   = C C' / a + N (S1 - Bt' C' / a) - T,
    K_loc^-1 = [ I/a + Bt Sigma^-1 Bt' / a^2   -Bt Sigma^-1 / a ]
               [ -Sigma^-1 Bt' / a              Sigma^-1        ],

with 1/a computed as eps/detJ.  K_loc^-1 is formed for the condition check
rcond = 1/(|K_loc|_1 |K_loc^-1|_1) and kept only when asked for.  Elements
are processed in chunks sized by ``CHUNK_ENTRIES``, so only the outputs are
mesh-sized.
"""

import numpy as np

from .fespace import EdgeBasis, TriBasis, quadrature_rule
from .mesh import InvalidConfigError

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# elements are condensed in chunks whose (3d x 3d) local inverses hold at
# most this many entries, so only the outputs are mesh-sized
CHUNK_ENTRIES = 2 ** 16


def _rows(vals, table):
    """Row n of ``vals`` times ``table``: one product per element, so an
    element's result does not depend on how many share the call."""
    return (vals[:, None, :] @ table)[:, 0]


class StabilizationError(RuntimeError):
    """Assumption 2.1 violated or local factorization failed."""


class ProblemSpec:
    """Continuous problem -eps*Lap(u) + beta.grad(u) = f, u = g on the boundary.

    Parameters
    ----------
    eps : viscosity > 0
    beta : callable (x, y) -> (bx, by), vectorized over point arrays
    div_beta : callable (x, y) -> array, divergence of beta (must be <= 0)
    f : callable (x, y) -> array, forcing
    g : callable (x, y) -> array, Dirichlet data
    tau_strategy : "upwind" (paper) or "upwind_plus_diffusive"
    sigma : diffusive stabilization factor (tau += sigma*eps/h_K when active)
    """

    def __init__(self, eps, beta, div_beta, f, g, tau_strategy="upwind",
                 sigma=1.0, name=""):
        if eps <= 0:
            raise InvalidConfigError("eps must be positive")
        if tau_strategy not in ("upwind", "upwind_plus_diffusive"):
            raise InvalidConfigError("unknown tau strategy %r" % (tau_strategy,))
        self.eps = float(eps)
        self.beta = beta
        self.div_beta = div_beta
        self.f = f
        self.g = g
        self.tau_strategy = tau_strategy
        self.sigma = float(sigma)
        self.name = name

    def beta_at(self, x, y):
        bx, by = self.beta(x, y)
        return np.broadcast_to(bx, np.shape(x)).astype(float), \
            np.broadcast_to(by, np.shape(x)).astype(float)


class ElementBlocks:
    """Batched HDG blocks for all elements of a mesh.

    Always stores the condensed trace blocks ``S_hat`` (nel,m,m), the load
    condensation maps ``N`` (nel,m,d), the stabilizers ``taus`` (nel,3) and
    ``hK``.  With ``keep_local=True`` also stores R, S1, S2, T and the inverse
    of the local saddle block (needed for lifts and interior recovery).
    ``type_geo[t]`` holds the affine data of element type t, its blocks
    ``Bt`` and ``C``, which do not vary within a type, and its quadrature
    tables.
    """

    def __init__(self, mesh, spec, k, keep_local=False):
        self.mesh = mesh
        self.spec = spec
        self.k = k
        self.keep_local = keep_local
        self.tri = TriBasis(k)
        self.edgeb = EdgeBasis(k)
        self.d = self.tri.dim
        self.m = 3 * (k + 1)
        self.vrule = quadrature_rule("triangle", 2 * k + 4)
        self.erule = quadrature_rule("edge", 2 * k + 4)
        self._build()

    # -- helpers ---------------------------------------------------------

    def _type_groups(self):
        return [np.where(self.mesh.tri_type == t)[0] for t in (0, 1)]

    def _chunks(self, els):
        """``els`` in runs of at most CHUNK_ENTRIES / (3d)^2 elements."""
        step = max(1, CHUNK_ENTRIES // (3 * self.d) ** 2)
        return [els[s:s + step] for s in range(0, els.size, step)]

    def _volume_points(self, geo, els):
        """Volume quadrature points of elements ``els``, (n, nqv, 2)."""
        p0 = self.mesh.vertices[self.mesh.triangles[els, 0]]
        return p0[:, None, :] + self.vrule.points @ geo["J"].T

    def _build_type_geometry(self, els):
        """Fixed affine data of one element type from a representative, with
        the blocks ``Bt`` and ``C`` that all elements of the type share and
        the quadrature tables that turn beta, div(beta), beta.n and tau into
        the element blocks (see the module docstring)."""
        mesh, tri = self.mesh, self.tri
        d, m, nds = self.d, self.m, self.k + 1
        verts = mesh.vertices[mesh.triangles[els[0]]]
        J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        detJ = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        JinvT = np.linalg.inv(J).T
        vq = self.vrule
        phiv = tri.eval(vq.points)                       # (d, nqv)
        Gp = np.einsum("ab,dqb->dqa", JinvT, tri.grad(vq.points))
        edata = []
        for a, b in _LOCAL_EDGES:
            ga = mesh.triangles[els, a]
            gb = mesh.triangles[els, b]
            lo_first = bool(ga[0] < gb[0])
            if not (np.all((ga < gb) == lo_first)):
                raise InvalidConfigError("inconsistent edge orientation in type group")
            lo, hi = (a, b) if lo_first else (b, a)
            pa, pb = verts[a], verts[b]
            dvec = pb - pa
            elen = float(np.hypot(*dvec))
            n = np.array([dvec[1], -dvec[0]]) / elen     # outward for CCW triangle
            tq = self.erule.points
            rlo, rhi = _REF_VERTS[lo], _REF_VERTS[hi]
            ref_pts = rlo[None, :] + 0.5 * np.outer(tq + 1.0, rhi - rlo)
            phie = tri.eval(ref_pts)                     # (d, nqe)
            P = self.edgeb.eval(tq)                      # (k+1, nqe)
            we = self.erule.weights * (elen / 2.0)
            E = (P * we) @ phie.T                        # (k+1, d) = int P phi
            F = (phie * we) @ phie.T                     # (d, d)   = int phi phi
            Mdiag = elen / (2.0 * np.arange(self.k + 1) + 1.0)
            edata.append(dict(lo=lo, hi=hi, n=n, elen=elen, P=P, phie=phie,
                              we=we, E=E, F=F, Mdiag=Mdiag))
        hK = min(ed["elen"] for ed in edata)
        Bt = np.empty((2 * d, d))
        for comp in (0, 1):
            Bt[comp * d:(comp + 1) * d] = -detJ * np.einsum(
                "q,jq,iq->ij", vq.weights, phiv, Gp[:, :, comp])
        C = np.zeros((m, 2 * d))
        for e, ed in enumerate(edata):
            sl = slice(e * nds, (e + 1) * nds)
            for comp in (0, 1):
                C[sl, comp * d:(comp + 1) * d] = ed["n"][comp] * ed["E"]

        # R from [bx | by | div] at the volume points: skew advection and
        # (div b/2 phi_i, phi_j)
        wv = detJ * vq.weights
        adv = np.einsum("q,iqc,jq->cqij", wv, Gp, phiv)
        Tvol = np.concatenate([
            0.5 * (adv - adv.swapaxes(2, 3)),
            0.5 * np.einsum("q,iq,jq->qij", wv, phiv, phiv)[None]])
        # [R | S1 | S2 | T] from [beta.n at the points, tau] of each edge
        nqe = self.erule.points.size
        Tedge = np.zeros((3, nqe + 1, d * d + 2 * d * m + m * m))
        o1, o2, o3 = d * d, d * d + d * m, d * d + 2 * d * m
        R_t = Tedge[:, :, :o1].reshape(3, nqe + 1, d, d)
        S1_t = Tedge[:, :, o1:o2].reshape(3, nqe + 1, d, m)
        S2_t = Tedge[:, :, o2:o3].reshape(3, nqe + 1, m, d)
        T_t = Tedge[:, :, o3:].reshape(3, nqe + 1, m, m)
        for e, ed in enumerate(edata):
            sl = slice(e * nds, (e + 1) * nds)
            we, P, phie = ed["we"], ed["P"], ed["phie"]
            R_t[e, :nqe] = 0.5 * np.einsum("q,iq,jq->qij", we, phie, phie)
            R_t[e, nqe] = -ed["F"]
            S1_t[e, :nqe, :, sl] = -np.einsum("q,iq,lq->qil", we, phie, P)
            S1_t[e, nqe, :, sl] = ed["E"].T
            S2_t[e, nqe, sl, :] = ed["E"]
            T_t[e, :nqe, sl, sl] = np.einsum("q,lq,jq->qlj", we, P, P)
            T_t[e, nqe, sl, sl] = -np.diag(ed["Mdiag"])
        return dict(J=J, detJ=detJ, phiv=phiv, edata=edata, hK=hK, Bt=Bt, C=C,
                    Tvol=Tvol.reshape(3 * vq.weights.size, d * d),
                    Tedge=Tedge.reshape(3 * (nqe + 1), -1),
                    Tload=-(wv * phiv).T)

    # -- assembly --------------------------------------------------------

    def _build(self):
        mesh, spec = self.mesh, self.spec
        d, m = self.d, self.m
        nel = mesh.n_triangles
        nqv, nqe = self.vrule.weights.size, self.erule.points.size
        self.S_hat = np.empty((nel, m, m))
        self.N = np.empty((nel, m, d))
        self.taus = np.empty((nel, 3))
        self.hK = np.empty(nel)
        if self.keep_local:
            self.R = np.empty((nel, d, d))
            self.S1 = np.empty((nel, d, m))
            self.S2 = np.empty((nel, m, d))
            self.T = np.empty((nel, m, m))
            self.Kinv = np.empty((nel, 3 * d, 3 * d))
        self.type_geo = []
        o1, o2, o3 = d * d, d * d + d * m, d * d + 2 * d * m
        flux = np.arange(2 * d)

        for els in self._type_groups():
            geo = self._build_type_geometry(els)
            self.type_geo.append(geo)
            if els.size == 0:
                continue
            self.hK[els] = geo["hK"]
            chunks = self._chunks(els)

            # the checks below scale by the largest |beta| over the volume
            # points of the whole type, so that is found first
            bscale, divmax = 1.0, -np.inf
            for ch in chunks:
                Xv = self._volume_points(geo, ch)
                bx, by = spec.beta_at(Xv[..., 0], Xv[..., 1])
                bscale = max(bscale, np.max(np.hypot(bx, by)))
                divmax = max(divmax, np.max(spec.div_beta(Xv[..., 0],
                                                          Xv[..., 1])))
            if divmax > 1e-12 * bscale:
                raise StabilizationError(
                    "-div(beta) >= 0 violated (max div = %g)" % divmax)

            detJ, Bt, C = geo["detJ"], geo["Bt"], geo["C"]
            a_val = detJ / spec.eps
            ia = spec.eps / detJ
            BtBt, CBt, BtCt, CCt = Bt.T @ Bt, C @ Bt, Bt.T @ C.T, C @ C.T
            # |K_loc|_1 is the larger of a + the largest row sum of |Bt| and
            # the column sums of |Bt| + |R|
            Bt_row1 = np.abs(Bt).sum(axis=1).max()
            Bt_col1 = np.abs(Bt).sum(axis=0)
            lo = np.array([ed["lo"] for ed in geo["edata"]])
            hi = np.array([ed["hi"] for ed in geo["edata"]])
            tq = self.erule.points
            for ch in chunks:
                net = ch.size
                # beta at the volume points, the edge points and the vertices
                p = mesh.vertices[mesh.triangles[ch]]            # (net, 3, 2)
                plo, phi_pt = p[:, lo], p[:, hi]
                Xe = plo[:, :, None, :] + 0.5 * np.multiply.outer(
                    tq + 1.0, phi_pt - plo).transpose(1, 2, 0, 3)
                X = np.concatenate([self._volume_points(geo, ch),
                                    Xe.reshape(net, 3 * nqe, 2), p], axis=1)
                bx, by = spec.beta_at(X[..., 0], X[..., 1])
                div = np.broadcast_to(
                    spec.div_beta(X[:, :nqv, 0], X[:, :nqv, 1]),
                    (net, nqv)).astype(float)

                vals = np.empty((net, 3, nqe + 1))     # [beta.n, tau] per edge
                taus = vals[:, :, nqe]
                margin = np.full(net, -np.inf)
                for e, ed in enumerate(geo["edata"]):
                    n = ed["n"]
                    sl = slice(nqv + e * nqe, nqv + (e + 1) * nqe)
                    bn = bx[:, sl] * n[0] + by[:, sl] * n[1]     # (net, nqe)
                    ends = [nqv + 3 * nqe + ed["lo"], nqv + 3 * nqe + ed["hi"]]
                    bn_end = bx[:, ends] * n[0] + by[:, ends] * n[1]
                    samples = np.concatenate([bn, bn_end], axis=1)
                    tau = np.maximum(samples.max(axis=1), 0.0)
                    if spec.tau_strategy == "upwind_plus_diffusive":
                        tau = tau + spec.sigma * spec.eps / geo["hK"]
                    vals[:, e, :nqe] = bn
                    taus[:, e] = tau
                    slack = tau[:, None] - 0.5 * samples
                    if np.min(slack) < -1e-12 * bscale:
                        raise StabilizationError("tau - beta.n/2 < 0 on an edge")
                    margin = np.maximum(margin, slack.max(axis=1))
                bad = margin <= 1e-14 * bscale
                if np.any(bad):
                    raise StabilizationError(
                        "Assumption 2.1 violated: tau - beta.n/2 vanishes on all "
                        "edges of element(s) %s (e.g. global element %d); enable "
                        "the upwind_plus_diffusive strategy"
                        % (ch[bad][:5], ch[bad][0]))

                # [R | S1 | S2 | T] of every element of the chunk
                blk = _rows(vals.reshape(net, -1), geo["Tedge"])
                blk[:, :o1] += _rows(
                    np.concatenate([bx[:, :nqv], by[:, :nqv], div], axis=1),
                    geo["Tvol"])
                Rm = blk[:, :o1].reshape(net, d, d)
                S1 = blk[:, o1:o2].reshape(net, d, m)
                S2 = blk[:, o2:o3].reshape(net, m, d)
                T = blk[:, o3:].reshape(net, m, m)

                # block elimination of the flux block a*I
                Sinv = np.linalg.inv(Rm - ia * BtBt)
                BS = Bt @ Sinv
                Kinv = np.empty((net, 3 * d, 3 * d))
                Kinv[:, :2 * d, :2 * d] = (ia * ia) * (BS @ Bt.T)
                Kinv[:, flux, flux] += ia
                Kinv[:, :2 * d, 2 * d:] = -ia * BS
                Kinv[:, 2 * d:, :2 * d] = -ia * (Sinv @ Bt.T)
                Kinv[:, 2 * d:, 2 * d:] = Sinv
                n1 = np.maximum(a_val + Bt_row1,
                                (Bt_col1 + np.abs(Rm).sum(axis=1)).max(axis=1))
                # column sums by einsum: about 2x faster than .sum(axis=1)
                n1i = np.einsum("nij->nj", np.abs(Kinv)).max(axis=1)
                rcond = 1.0 / (n1 * n1i)
                if np.min(rcond) <= 1e-14:
                    raise StabilizationError(
                        "local saddle block nearly singular (rcond %g) in "
                        "element %d" % (np.min(rcond), ch[int(np.argmin(rcond))]))

                N = (S2 - ia * CBt) @ Sinv
                self.S_hat[ch] = ia * CCt + N @ (S1 - ia * BtCt) - T
                self.N[ch] = N
                self.taus[ch] = taus
                if self.keep_local:
                    self.R[ch] = Rm
                    self.S1[ch] = S1
                    self.S2[ch] = S2
                    self.T[ch] = T
                    self.Kinv[ch] = Kinv

    # -- loads and recovery ----------------------------------------------

    def load_vectors(self, f=None):
        """Local load vectors F with entries -(f, phi_i)_K, shape (nel, d)."""
        f = self.spec.f if f is None else f
        out = np.zeros((self.mesh.n_triangles, self.d))
        for t, els in enumerate(self._type_groups()):
            geo = self.type_geo[t]
            for ch in self._chunks(els):
                Xv = self._volume_points(geo, ch)
                fv = np.broadcast_to(f(Xv[..., 0], Xv[..., 1]),
                                     Xv.shape[:2]).astype(float)
                out[ch] = _rows(fv, geo["Tload"])
        return out

    def element(self, idx):
        return ElementLocal(self, int(idx))


class ElementLocal:
    """Single-element view into ElementBlocks: the dense HDG blocks of one K,
    sliced from the batched arrays and the per-type ``Bt`` and ``C``."""

    def __init__(self, blocks, idx):
        if not blocks.keep_local:
            raise InvalidConfigError("ElementBlocks built without keep_local=True")
        geo = blocks.type_geo[blocks.mesh.tri_type[idx]]
        self.d = blocks.d
        self.m = blocks.m
        self.taus = blocks.taus[idx]
        self.A = (geo["detJ"] / blocks.spec.eps) * np.eye(2 * blocks.d)
        self.Bt = geo["Bt"]
        self.C = geo["C"]
        self.Ct = self.C.T
        self.R = blocks.R[idx]
        self.S1 = blocks.S1[idx]
        self.S2 = blocks.S2[idx]
        self.T = blocks.T[idx]
        self.Kinv = blocks.Kinv[idx]
        self.S_hat = blocks.S_hat[idx]
        self.N = blocks.N[idx]

    @property
    def K_loc(self):
        d = self.d
        K = np.zeros((3 * d, 3 * d))
        K[:2 * d, :2 * d] = self.A
        K[:2 * d, 2 * d:] = self.Bt
        K[2 * d:, :2 * d] = self.Bt.T
        K[2 * d:, 2 * d:] = self.R
        return K


def eval_tau(mesh, kidx, ledge, spec, k=0):
    """Stabilizer tau of one local edge of element ``kidx``.

    max(sup of beta.n over edge quadrature points and endpoints, 0), plus
    sigma*eps/h_K under the upwind_plus_diffusive strategy.  The sup sampling
    is exact for affine beta.
    """
    tri = mesh.triangles[kidx]
    a, b = _LOCAL_EDGES[ledge]
    pa, pb = mesh.vertices[tri[a]], mesh.vertices[tri[b]]
    dvec = pb - pa
    elen = float(np.hypot(*dvec))
    n = np.array([dvec[1], -dvec[0]]) / elen
    rule = quadrature_rule("edge", 2 * k + 4)
    t = np.concatenate([rule.points, [-1.0, 1.0]])
    X = pa[None, :] + 0.5 * np.outer(t + 1.0, dvec)
    bx, by = spec.beta_at(X[:, 0], X[:, 1])
    tau = max(float(np.max(bx * n[0] + by * n[1])), 0.0)
    if spec.tau_strategy == "upwind_plus_diffusive":
        verts = mesh.vertices[tri]
        hK = min(float(np.hypot(*(verts[(i + 1) % 3] - verts[i]))) for i in range(3))
        tau += spec.sigma * spec.eps / hK
    return tau


def recover(elem, lam, F=None):
    """Interior solution (q_h, u_h) from the element trace and local load F.

    With no load this is the local lift (Q lam, U lam), the solution of
    K_loc (q, u) = (-Ct lam, -S1 lam).
    """
    if F is None:
        F = np.zeros(elem.d)
    rhs = np.concatenate([np.zeros(2 * elem.d), F])
    rhs -= np.concatenate([elem.Ct @ lam, elem.S1 @ lam])
    z = elem.Kinv @ rhs
    return z[:2 * elem.d], z[2 * elem.d:]

