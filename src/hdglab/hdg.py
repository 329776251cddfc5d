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
mesh, and answers every per-element question as an array over the elements:
``recover`` solves the local systems of all elements at once (with no load it
gives the lift (Q mu, U mu)), and ``K_loc`` stacks their saddle blocks.

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
rcond = 1/(|K_loc|_1 |K_loc^-1|_1), and b_K = N F in the same pass, from f at
the volume points that already give beta.  N, R, S1, S2, T and K_loc^-1 are
kept on first access (``ElementBlocks.local``) from a second run of the pass.
Elements are processed in chunks sized by ``CHUNK_ENTRIES``, so only the
outputs are mesh-sized.

The blocks are a build-time intermediate of the solver: the subdomains
condense ``S_hat`` and the load into their local operators, and the mesh-wide
blocks are then dropped (``bench.build_case``).  The pass is deterministic and
does not depend on the chunk size, so the oracles that read the blocks again
(the assembled matrix, recovery, the diagnostics) rebuild them bit for bit.
"""

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .fespace import EdgeQuadrature, TriBasis, quadrature_rule
from .mesh import InvalidConfigError

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# elements are condensed in chunks whose largest per-element array holds at
# most this many entries, so only the outputs are mesh-sized
CHUNK_ENTRIES = 2 ** 16


def _rows(vals, table):
    """Row n of ``vals`` times ``table``: one product per element, so an
    element's result does not depend on how many share the call."""
    return (vals[:, None, :] @ table)[:, 0]


def upwind_tau(samples):
    """Stabilizer of each edge from its beta.n samples (n, nq) at the edge
    quadrature points and endpoints: sup(beta.n)+, exact for affine beta.
    ``eval_tau`` is the independent single-edge reference of this rule."""
    return np.maximum(samples.max(axis=1), 0.0)


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

    Stores the condensed trace blocks ``S_hat`` (nel,m,m), the condensed
    element loads ``b_hat`` = N F (nel,m), the stabilizers ``taus`` (nel,3)
    and ``hK``.  The local blocks -- the load condensation maps N (nel,m,d),
    R, S1, S2, T and the inverse of the local saddle block Kinv -- are built
    on first access of ``local``, by running the same element pass once
    more; ``recover`` and ``K_loc`` read them.  ``type_geo[t]`` holds the
    affine data of element type t, its blocks ``Bt`` and ``C``, which do not
    vary within a type, and its quadrature tables.
    """

    def __init__(self, mesh, spec, k):
        self.mesh = mesh
        self.spec = spec
        self.k = k
        self.tri = TriBasis(k)
        self.d = self.tri.dim
        self.m = 3 * (k + 1)
        self.vrule = quadrature_rule("triangle", 2 * k + 4)
        self.erule = quadrature_rule("edge", 2 * k + 4)
        self.type_geo = [self._build_type_geometry(els)
                         for els in self._type_groups()]
        self.hK = np.array([g["hK"] for g in self.type_geo])[mesh.tri_type]
        vars(self).update(self._collect("S_hat", "b_hat", "taus"))

    @cached_property
    def local(self):
        """N, R, S1, S2, T and Kinv of every element, each (nel, ...)."""
        return SimpleNamespace(**self._collect("N", "R", "S1", "S2", "T",
                                               "Kinv"))

    # -- helpers ---------------------------------------------------------

    def _type_groups(self):
        return [np.where(self.mesh.tri_type == t)[0] for t in (0, 1)]

    def _chunks(self, els):
        """``els`` in runs of at most CHUNK_ENTRIES / w elements, w the size
        of the largest per-element array of ``_pass``: the (3d)^2 local
        inverse, the [R | S1 | S2 | T] row, or the points X (the volume and
        edge quadrature points and the vertices, two coordinates each)."""
        d, m = self.d, self.m
        w = max((3 * d) ** 2, (d + m) ** 2,
                2 * (self.vrule.weights.size + 3 * self.erule.points.size + 3))
        step = max(1, CHUNK_ENTRIES // w)
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
        q = EdgeQuadrature(mesh, mesh.tri_edges[els[0]], self.k)
        tq = q.rule.points
        edata = []
        for e, (a, b) in enumerate(_LOCAL_EDGES):
            ga = mesh.triangles[els, a]
            gb = mesh.triangles[els, b]
            lo_first = bool(ga[0] < gb[0])
            if not (np.all((ga < gb) == lo_first)):
                raise InvalidConfigError("inconsistent edge orientation in type group")
            lo, hi = (a, b) if lo_first else (b, a)
            dvec = verts[b] - verts[a]
            elen = float(np.hypot(*dvec))
            n = np.array([dvec[1], -dvec[0]]) / elen     # outward for CCW triangle
            rlo, rhi = _REF_VERTS[lo], _REF_VERTS[hi]
            ref_pts = rlo[None, :] + 0.5 * np.outer(tq + 1.0, rhi - rlo)
            phie = tri.eval(ref_pts)                     # (d, nqe)
            P, we = q.P, q.weights[e]                    # (k+1, nqe), (nqe,)
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

    # -- the element pass --------------------------------------------------

    def _collect(self, *names):
        """The named blocks of every element, by name, from ``_pass``; each
        chunk's blocks are dropped once copied, before the next is built."""
        out = {}

        def keep(ch, **blocks):
            for name in names:
                if name not in out:
                    out[name] = np.empty((self.mesh.n_triangles,)
                                         + blocks[name].shape[1:])
                out[name][ch] = blocks[name]
        self._pass(keep)
        return out

    def _pass(self, keep):
        """Call ``keep(ch, **blocks)`` for each chunk ``ch`` of elements with
        its S_hat, b_hat, taus, N, R, S1, S2, T and Kinv, checking them."""
        mesh, spec = self.mesh, self.spec
        d, m = self.d, self.m
        nqv, nqe = self.vrule.weights.size, self.erule.points.size
        o1, o2, o3 = d * d, d * d + d * m, d * d + 2 * d * m
        flux = np.arange(2 * d)

        for els, geo in zip(self._type_groups(), self.type_geo):
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
            # the beta.n samples of each edge (3, nqe+2): its quadrature
            # points, then its two end vertices, of the points X below
            nx, ny = np.array([ed["n"] for ed in geo["edata"]]).T[:, :, None]
            ends = [[ed["lo"], ed["hi"]] for ed in geo["edata"]]
            at = nqv + np.concatenate([np.arange(3 * nqe).reshape(3, nqe),
                                       3 * nqe + np.array(ends)], axis=1)
            for ch in chunks:
                net = ch.size
                # beta at the volume points, the edge points and the vertices
                p = mesh.vertices[mesh.triangles[ch]]            # (net, 3, 2)
                Xe = EdgeQuadrature(mesh, mesh.tri_edges[ch].ravel(),
                                    self.k).points
                X = np.concatenate([self._volume_points(geo, ch),
                                    Xe.reshape(net, 3 * nqe, 2), p], axis=1)
                bx, by = spec.beta_at(X[..., 0], X[..., 1])
                div = np.broadcast_to(
                    spec.div_beta(X[:, :nqv, 0], X[:, :nqv, 1]),
                    (net, nqv)).astype(float)

                samples = bx[:, at] * nx + by[:, at] * ny    # (net, 3, nqe+2)
                taus = upwind_tau(samples.reshape(3 * net, -1)).reshape(net, 3)
                if spec.tau_strategy == "upwind_plus_diffusive":
                    taus = taus + spec.sigma * spec.eps / geo["hK"]
                slack = taus[:, :, None] - 0.5 * samples
                if np.min(slack) < -1e-12 * bscale:
                    raise StabilizationError("tau - beta.n/2 < 0 on an edge")
                bad = slack.max(axis=(1, 2)) <= 1e-14 * bscale
                if np.any(bad):
                    raise StabilizationError(
                        "Assumption 2.1 violated: tau - beta.n/2 vanishes on all "
                        "edges of element(s) %s (e.g. global element %d); enable "
                        "the upwind_plus_diffusive strategy"
                        % (ch[bad][:5], ch[bad][0]))

                # [R | S1 | S2 | T] of every element of the chunk, from
                # [beta.n, tau] per edge
                vals = np.concatenate([samples[:, :, :nqe], taus[:, :, None]],
                                      axis=2)
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
                fv = np.broadcast_to(spec.f(X[:, :nqv, 0], X[:, :nqv, 1]),
                                     (net, nqv)).astype(float)
                keep(ch, S_hat=ia * CCt + N @ (S1 - ia * BtCt) - T,
                     b_hat=np.einsum("nmd,nd->nm", N, _rows(fv, geo["Tload"])),
                     taus=taus, N=N, R=Rm, S1=S1, S2=S2, T=T, Kinv=Kinv)

    # -- loads and recovery ----------------------------------------------

    def load_vectors(self):
        """Local load vectors F with entries -(f, phi_i)_K, shape (nel, d):
        the recovery and oracle path (``b_hat`` holds N F of ``spec.f``)."""
        out = np.zeros((self.mesh.n_triangles, self.d))
        for t, els in enumerate(self._type_groups()):
            geo = self.type_geo[t]
            for ch in self._chunks(els):
                Xv = self._volume_points(geo, ch)
                fv = np.broadcast_to(self.spec.f(Xv[..., 0], Xv[..., 1]),
                                     Xv.shape[:2]).astype(float)
                out[ch] = _rows(fv, geo["Tload"])
        return out

    def recover(self, lamK, F=None):
        """Interior solution (q, u), shapes (nel, 2d) and (nel, d), of every
        element from its trace coefficients ``lamK`` (nel, m) and local loads
        ``F`` (nel, d): K_loc (q, u) = (-Ct lam, F - S1 lam).  With no load
        this is the local lift (Q lam, U lam)."""
        loc = self.local
        d, nel = self.d, self.mesh.n_triangles
        if F is None:
            F = np.zeros((nel, d))
        q = np.empty((nel, 2 * d))
        u = np.empty((nel, d))
        for t, els in enumerate(self._type_groups()):
            C = self.type_geo[t]["C"]
            rhs = np.concatenate([
                -np.einsum("im,nm->ni", C.T, lamK[els]),
                F[els] - np.einsum("nim,nm->ni", loc.S1[els], lamK[els]),
            ], axis=1)
            z = np.einsum("nij,nj->ni", loc.Kinv[els], rhs)
            q[els] = z[:, :2 * d]
            u[els] = z[:, 2 * d:]
        return q, u

    def K_loc(self):
        """Local saddle blocks [[a I, Bt], [Bt', R]] of every element,
        (nel, 3d, 3d), from the per-type ``Bt`` and the per-element R."""
        d = self.d
        K = np.zeros((self.mesh.n_triangles, 3 * d, 3 * d))
        for t, els in enumerate(self._type_groups()):
            geo = self.type_geo[t]
            K[els, :2 * d, :2 * d] = (geo["detJ"] / self.spec.eps) * np.eye(2 * d)
            K[els, :2 * d, 2 * d:] = geo["Bt"]
            K[els, 2 * d:, :2 * d] = geo["Bt"].T
        K[:, 2 * d:, 2 * d:] = self.local.R
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

