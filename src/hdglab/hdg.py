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
"""

import numpy as np

from .fespace import EdgeBasis, TriBasis, quadrature_rule
from .mesh import InvalidConfigError

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


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
    condensation maps ``N`` (nel,m,d) and the stabilizers ``taus`` (nel,3).
    With ``keep_local=True`` also stores R, S1, S2, T and the inverse of the
    local saddle block (needed for lifts and interior recovery).
    ``type_geo[t]`` holds the affine data of element type t and its blocks
    ``Bt`` and ``C``, which do not vary within a type.
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

    def _build_type_geometry(self, els):
        """Fixed affine data of one element type from a representative,
        with the blocks ``Bt`` and ``C`` that all elements of the type share."""
        mesh, tri = self.mesh, self.tri
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
        d, nds = tri.dim, self.k + 1
        Bt = np.empty((2 * d, d))
        for comp in (0, 1):
            Bt[comp * d:(comp + 1) * d] = -detJ * np.einsum(
                "q,jq,iq->ij", vq.weights, phiv, Gp[:, :, comp])
        C = np.zeros((self.m, 2 * d))
        for e, ed in enumerate(edata):
            sl = slice(e * nds, (e + 1) * nds)
            for comp in (0, 1):
                C[sl, comp * d:(comp + 1) * d] = ed["n"][comp] * ed["E"]
        return dict(J=J, detJ=detJ, phiv=phiv, Gp=Gp, edata=edata, hK=hK,
                    Bt=Bt, C=C)

    # -- assembly --------------------------------------------------------

    def _build(self):
        mesh, spec, k = self.mesh, self.spec, self.k
        d, m, nds = self.d, self.m, self.k + 1
        nel = mesh.n_triangles
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

        for els in self._type_groups():
            geo = self._build_type_geometry(els)
            self.type_geo.append(geo)
            if els.size == 0:
                continue
            net = els.size
            detJ, Gp, phiv = geo["detJ"], geo["Gp"], geo["phiv"]
            wv = self.vrule.weights
            self.hK[els] = geo["hK"]

            # volume quadrature points (net, nqv, 2)
            p0 = mesh.vertices[mesh.triangles[els, 0]]
            Xv = p0[:, None, :] + self.vrule.points @ geo["J"].T
            bx, by = spec.beta_at(Xv[..., 0], Xv[..., 1])
            div = np.broadcast_to(spec.div_beta(Xv[..., 0], Xv[..., 1]),
                                  bx.shape).astype(float)
            bscale = max(np.max(np.hypot(bx, by)), 1.0)
            if np.max(div) > 1e-12 * bscale:
                raise StabilizationError(
                    "-div(beta) >= 0 violated (max div = %g)" % np.max(div))

            a_val = detJ / spec.eps
            Bt, C = geo["Bt"], geo["C"]

            # advective volume parts
            bgrad = np.einsum("nqc,iqc->niq", np.stack([bx, by], axis=-1), Gp)
            Vol1 = detJ * np.einsum("q,niq,jq->nij", wv, bgrad, phiv)
            Rdiv = 0.5 * detJ * np.einsum("q,nq,iq,jq->nij", wv, div, phiv, phiv)
            Rm = 0.5 * (Vol1 - np.transpose(Vol1, (0, 2, 1))) + Rdiv

            S1 = np.zeros((net, d, m))
            S2 = np.zeros((net, m, d))
            T = np.zeros((net, m, m))
            taus = np.empty((net, 3))
            margin = np.full(net, -np.inf)
            for e, ed in enumerate(geo["edata"]):
                lo, hi, n = ed["lo"], ed["hi"], ed["n"]
                plo = mesh.vertices[mesh.triangles[els, lo]]
                phi_pt = mesh.vertices[mesh.triangles[els, hi]]
                tq = self.erule.points
                Xe = plo[:, None, :] + 0.5 * np.multiply.outer(
                    tq + 1.0, phi_pt - plo).transpose(1, 0, 2)
                ex, ey = spec.beta_at(Xe[..., 0], Xe[..., 1])
                bn = ex * n[0] + ey * n[1]                       # (net, nqe)
                vx, vy = spec.beta_at(
                    np.stack([plo[:, 0], phi_pt[:, 0]], axis=1),
                    np.stack([plo[:, 1], phi_pt[:, 1]], axis=1))
                bn_end = vx * n[0] + vy * n[1]                   # (net, 2)
                samples = np.concatenate([bn, bn_end], axis=1)
                tau = np.maximum(samples.max(axis=1), 0.0)
                if spec.tau_strategy == "upwind_plus_diffusive":
                    tau = tau + spec.sigma * spec.eps / geo["hK"]
                taus[:, e] = tau
                margin = np.maximum(margin, (tau[:, None] - 0.5 * samples).max(axis=1))
                if np.min(tau[:, None] - 0.5 * samples) < -1e-12 * bscale:
                    raise StabilizationError("tau - beta.n/2 < 0 on an edge")

                we, P, phie, E, F = ed["we"], ed["P"], ed["phie"], ed["E"], ed["F"]
                W1 = np.einsum("q,nq,mq,iq->nmi", we, bn, P, phie)  # int bn P phi
                W2 = np.einsum("q,nq,mq,lq->nml", we, bn, P, P)
                W3 = np.einsum("q,nq,iq,jq->nij", we, bn, phie, phie)
                sl = slice(e * nds, (e + 1) * nds)
                S1[:, :, sl] = tau[:, None, None] * E.T[None] - np.transpose(W1, (0, 2, 1))
                S2[:, sl, :] = tau[:, None, None] * E[None]
                T[:, sl, sl] = -tau[:, None, None] * np.diag(ed["Mdiag"])[None] + W2
                Rm += -tau[:, None, None] * F[None] + 0.5 * W3

            strict_tol = 1e-14 * bscale
            bad = margin <= strict_tol
            if np.any(bad):
                raise StabilizationError(
                    "Assumption 2.1 violated: tau - beta.n/2 vanishes on all edges "
                    "of element(s) %s (e.g. global element %d); enable the "
                    "upwind_plus_diffusive strategy" % (els[bad][:5], els[bad][0]))

            # local saddle block and condensation
            K = np.zeros((net, 3 * d, 3 * d))
            K[:, :2 * d, :2 * d] = a_val * np.eye(2 * d)
            K[:, :2 * d, 2 * d:] = Bt
            K[:, 2 * d:, :2 * d] = Bt.T
            K[:, 2 * d:, 2 * d:] = Rm
            Kinv = np.linalg.inv(K)
            n1 = np.abs(K).sum(axis=1).max(axis=1)
            n1i = np.abs(Kinv).sum(axis=1).max(axis=1)
            rcond = 1.0 / (n1 * n1i)
            if np.min(rcond) <= 1e-14:
                raise StabilizationError(
                    "local saddle block nearly singular (rcond %g) in element %d"
                    % (np.min(rcond), els[int(np.argmin(rcond))]))

            MCS = np.concatenate([np.broadcast_to(C.T[None], (net, 2 * d, m)),
                                  S1], axis=1)                            # [Ct; S1]
            CS2 = np.concatenate([np.broadcast_to(C[None], (net, m, 2 * d)), S2],
                                 axis=2)                                 # [C  S2]
            X = np.einsum("nij,njk->nik", CS2, Kinv)
            self.S_hat[els] = np.einsum("nij,njk->nik", X, MCS) - T
            self.N[els] = X[:, :, 2 * d:]
            self.taus[els] = taus
            if self.keep_local:
                self.R[els] = Rm
                self.S1[els] = S1
                self.S2[els] = S2
                self.T[els] = T
                self.Kinv[els] = Kinv

    # -- loads and recovery ----------------------------------------------

    def load_vectors(self, f=None):
        """Local load vectors F with entries -(f, phi_i)_K, shape (nel, d)."""
        f = self.spec.f if f is None else f
        mesh = self.mesh
        out = np.zeros((mesh.n_triangles, self.d))
        for t, els in enumerate(self._type_groups()):
            if els.size == 0:
                continue
            geo = self.type_geo[t]
            p0 = mesh.vertices[mesh.triangles[els, 0]]
            Xv = p0[:, None, :] + self.vrule.points @ geo["J"].T
            fv = np.broadcast_to(f(Xv[..., 0], Xv[..., 1]),
                                 Xv.shape[:2]).astype(float)
            out[els] = -geo["detJ"] * np.einsum(
                "q,nq,iq->ni", self.vrule.weights, fv, geo["phiv"])
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

