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

with 1/a computed as eps/detJ, and b_K = N F in the same pass, from f at the
volume points that already give beta.  The condition check
rcond = 1/(|K_loc|_1 |K_loc^-1|_1) > 1e-14 reads K_loc^-1 through the bound

    |K_loc^-1|_1 <= |Sigma^-1|_1 (|Bt|_1/a + 1) max(|Bt'|_1/a, 1) + 1/a

of the block form above.  K_loc^-1 is formed, and its rcond taken exactly,
only for a chunk of elements that the bound does not clear by a factor of 2,
and on first access of ``ElementBlocks.local``, which keeps N, R, S1, S2, T
and K_loc^-1 from a second run of the pass.  The checks (div(beta) <= 0,
tau - beta.n/2 >= 0, Assumption 2.1, rcond) scale by the largest |beta| over
an element type, so they run once the type's last chunk is built, in chunk
order.  Elements are processed in chunks sized by ``CHUNK_ENTRIES``, so only
the outputs are mesh-sized.

Each element holds only 1 to 18 points, samples or table inputs, so the
pointwise stage of a chunk -- the points, beta, div(beta) and f, the beta.n
samples, tau and the slack tau - beta.n/2 -- keeps the chunk's elements on
the last axis ((2, points, n) and (3, nqe+2, n)): every NumPy pass then
runs along the elements, not once per element over a short row.  The
table products read their inputs as element rows, after one transposed
copy each (``_rows``), and the block algebra stays element-first.  At
k = 0 (d = 1) Sigma^-1 is the reciprocal 1/Sigma, the same bits as
LAPACK's 1 x 1 solve (``_inverse``).

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
    """Column n of ``vals`` (K, n), the elements on the last axis, times
    ``table``, as row n of the result: the columns are copied into
    contiguous rows once, then one product per element, so an element's
    result does not depend on how many share the call."""
    return (np.ascontiguousarray(vals.T)[:, None, :] @ table)[:, 0]


def _row_max(a):
    """Largest entry of each row of ``a`` (n, w), as ``a.max(axis=1)``: one
    array maximum per column, since NumPy reduces a short trailing axis one
    row at a time (about 13x slower at w = 5)."""
    out = a[:, 0].copy()
    for i in range(1, a.shape[1]):
        np.maximum(out, a[:, i], out=out)
    return out


def _inverse(S):
    """``np.linalg.inv`` of the stack S (n, d, d), and 1/S where d = 1:
    LAPACK's 1 x 1 solve gives the same bits, and a zero entry raises the
    same LinAlgError."""
    if S.shape[-1] > 1:
        return np.linalg.inv(S)
    if not np.all(S):
        raise np.linalg.LinAlgError("Singular matrix")
    return 1.0 / S


def upwind_tau(samples):
    """Stabilizer of each edge from its beta.n samples at the edge
    quadrature points and endpoints, the samples on the first axis (nq,
    ...): sup(beta.n)+, exact for affine beta.  ``eval_tau`` is the
    independent single-edge reference of this rule."""
    return np.maximum(samples.max(axis=0), 0.0)


class StabilizationError(RuntimeError):
    """Assumption 2.1 violated or local factorization failed."""


def _check_type(chunks, found):
    """The checks of one element type from what ``ElementBlocks._chunk``
    found in each of its ``chunks``, in the order of the element pass:
    -div(beta) >= 0 over the type, then for each chunk in turn
    tau - beta.n/2 >= 0, Assumption 2.1, the Sigma inverse and rcond(K_loc)
    > 1e-14.  The first two scale by the largest |beta| over the volume
    points of the type."""
    bscale, divmax = 1.0, -np.inf
    for f in found:
        bscale, divmax = max(bscale, f.bmax), max(divmax, f.divmax)
    if divmax > 1e-12 * bscale:
        raise StabilizationError(
            "-div(beta) >= 0 violated (max div = %g)" % divmax)
    for ch, f in zip(chunks, found):
        if f.slack_min < -1e-12 * bscale:
            raise StabilizationError("tau - beta.n/2 < 0 on an edge")
        bad = f.slack_max <= 1e-14 * bscale
        if np.any(bad):
            raise StabilizationError(
                "Assumption 2.1 violated: tau - beta.n/2 vanishes on all "
                "edges of element(s) %s (e.g. global element %d); enable "
                "the upwind_plus_diffusive strategy"
                % (ch[bad][:5], ch[bad][0]))
        if f.error is not None:
            raise f.error
        if f.rcond is not None and f.rcond[0] <= 1e-14:
            raise StabilizationError(
                "local saddle block nearly singular (rcond %g) in "
                "element %d" % f.rcond)


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
    and ``hK``; the constructor's pass forms no K_loc^-1 where the bound of
    the module docstring certifies rcond, and checks each element type after
    its last chunk.  The local blocks -- the load condensation maps N
    (nel,m,d), R, S1, S2, T and the inverse of the local saddle block Kinv --
    are built on first access of ``local``, by running the same element pass
    once more; ``recover`` and ``K_loc`` read them.  ``type_geo[t]`` holds the
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

    def _points(self, geo, els, edges=False):
        """Coordinates (2, npts, n) of the volume quadrature points of the
        elements ``els``, then with ``edges`` their edge quadrature points,
        edge by edge, and their three vertices, the elements on the last
        axis: the points X of ``_chunk``, from one vertex gather.  The edge
        points are ``EdgeQuadrature``'s, lo + (t+1)(hi - lo)/2 from each
        edge's lower-numbered vertex lo, by the same float operations."""
        p = np.ascontiguousarray(np.take(
            self.mesh.vertices, self.mesh.triangles[els],
            axis=0).transpose(2, 1, 0))                       # (2, 3, n)
        if not edges:
            return p[:, :1] + geo["Xv"][:, :, None]
        nqv, nqe = geo["Xv"].shape[1], self.erule.points.size
        X = np.empty((2, nqv + 3 * nqe + 3, els.size))
        np.add(p[:, :1], geo["Xv"][:, :, None], out=X[:, :nqv])
        plo = p[:, geo["lo"], None]
        Xe = X[:, nqv:-3].reshape(2, 3, nqe, els.size)
        np.multiply(p[:, geo["hi"], None] - plo,
                    (self.erule.points + 1.0)[:, None], out=Xe)
        Xe *= 0.5
        Xe += plo
        X[:, -3:] = p
        return X

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
        # the beta.n samples of each edge (3, nqe+2): its quadrature points,
        # then its two end vertices, of the points X of ``_chunk``
        nqv = vq.weights.size
        lo = np.array([ed["lo"] for ed in edata])
        hi = np.array([ed["hi"] for ed in edata])
        at = nqv + np.concatenate([np.arange(3 * nqe).reshape(3, nqe),
                                   3 * nqe + np.column_stack([lo, hi])],
                                  axis=1)
        nx, ny = np.array([ed["n"] for ed in edata]).T[:, :, None, None]
        return dict(detJ=detJ, phiv=phiv, edata=edata, hK=hK, Bt=Bt, C=C,
                    Tvol=Tvol.reshape(3 * nqv, d * d),
                    Tedge=Tedge.reshape(3 * (nqe + 1), -1),
                    Tload=-(wv * phiv).T, Xv=(vq.points @ J.T).T, lo=lo, hi=hi,
                    at=at, nx=nx, ny=ny, BtBt=Bt.T @ Bt, CBt=C @ Bt,
                    BtCt=Bt.T @ C.T, CCt=C @ C.T,
                    Bt_row1=np.abs(Bt).sum(axis=1).max(),
                    Bt_col1=np.abs(Bt).sum(axis=0))

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
        self._pass(keep, inverse="Kinv" in names)
        return out

    def _pass(self, keep, inverse=False):
        """Call ``keep(ch, **blocks)`` for each chunk ``ch`` of elements with
        its S_hat, b_hat, taus, N, R, S1, S2 and T (and Kinv if ``inverse``),
        then check each element type: the checks scale by maxima over the
        whole type, so they run once its last chunk has been built."""
        for els, geo in zip(self._type_groups(), self.type_geo):
            chunks = self._chunks(els)
            _check_type(chunks, [self._chunk(geo, ch, keep, inverse)
                                 for ch in chunks])

    def _chunk(self, geo, ch, keep, inverse):
        """Build the blocks of the elements ``ch`` of one type and hand them
        to ``keep``; return what ``_check_type`` reads of the chunk: the
        largest |beta| and div(beta) at its volume points, the smallest
        tau - beta.n/2 at its edge samples and the largest per element, the
        LinAlgError of its Sigma inverse (``error``), and its smallest exact
        rcond with that element (``rcond``, None where the bound certifies
        the chunk).  The chunk's temporaries are freed on return, before the
        next chunk is built."""
        spec = self.spec
        d, m = self.d, self.m
        nqv, nqe = self.vrule.weights.size, self.erule.points.size
        o1, o2, o3 = d * d, d * d + d * m, d * d + 2 * d * m
        net = ch.size
        ia = spec.eps / geo["detJ"]
        Bt = geo["Bt"]

        # the pointwise stage, with the chunk's elements on the last axis:
        # beta at the volume points, the edge points and the vertices, and
        # div(beta) and f at the volume points
        X = self._points(geo, ch, edges=True)                # (2, npts, net)
        bx, by = spec.beta_at(*X)
        x, y = X[:, :nqv]
        div = np.broadcast_to(spec.div_beta(x, y), (nqv, net)).astype(float)
        found = SimpleNamespace(
            bmax=np.max(np.hypot(bx[:nqv], by[:nqv])),
            divmax=np.max(div), error=None, rcond=None)

        at, nx, ny = geo["at"], geo["nx"], geo["ny"]
        samples = bx[at] * nx + by[at] * ny                  # (3, nqe+2, net)
        taus = upwind_tau(samples.transpose(1, 0, 2))        # (3, net)
        if spec.tau_strategy == "upwind_plus_diffusive":
            taus = taus + spec.sigma * spec.eps / geo["hK"]
        slack = taus[:, None] - 0.5 * samples
        found.slack_min = np.min(slack)
        found.slack_max = slack.reshape(-1, net).max(axis=0)

        # [R | S1 | S2 | T] of every element of the chunk, from
        # [beta.n, tau] per edge, and R also from [bx | by | div]
        vals = np.concatenate([samples[:, :nqe], taus[:, None]], axis=1)
        blk = _rows(vals.reshape(-1, net), geo["Tedge"])
        blk[:, :o1] += _rows(np.concatenate([bx[:nqv], by[:nqv], div]),
                             geo["Tvol"])
        Rm = blk[:, :o1].reshape(net, d, d)
        S1 = blk[:, o1:o2].reshape(net, d, m)
        S2 = blk[:, o2:o3].reshape(net, m, d)
        T = blk[:, o3:].reshape(net, m, m)

        # block elimination of the flux block a*I
        try:
            Sinv = _inverse(Rm - ia * geo["BtBt"])
        except np.linalg.LinAlgError as exc:
            found.error = exc
            return found
        # |K_loc|_1: the larger of a + the largest row sum of |Bt| and the
        # column sums of |Bt| + |R|
        n1 = np.maximum(geo["detJ"] / spec.eps + geo["Bt_row1"],
                        _row_max(geo["Bt_col1"] + np.abs(Rm).sum(axis=1)))
        # the bound on |K_loc^-1|_1 of the module docstring; K_loc^-1 and the
        # exact rcond only where it does not clear 1e-14 by a factor of 2
        bound = _row_max(np.abs(Sinv).sum(axis=1)) \
            * ((ia * geo["Bt_col1"].max() + 1.0)
               * max(ia * geo["Bt_row1"], 1.0)) + ia
        exact = not np.min(1.0 / (n1 * bound)) > 2e-14
        blocks = {}
        if inverse or exact:
            BS = Bt @ Sinv
            Kinv = np.empty((net, 3 * d, 3 * d))
            Kinv[:, :2 * d, :2 * d] = (ia * ia) * (BS @ Bt.T)
            flux = np.arange(2 * d)
            Kinv[:, flux, flux] += ia
            Kinv[:, :2 * d, 2 * d:] = -ia * BS
            Kinv[:, 2 * d:, :2 * d] = -ia * (Sinv @ Bt.T)
            Kinv[:, 2 * d:, 2 * d:] = Sinv
            blocks["Kinv"] = Kinv
        if exact:
            # column sums by einsum: about 2x faster than .sum(axis=1)
            rcond = 1.0 / (n1 * np.einsum("nij->nj", np.abs(Kinv)).max(axis=1))
            found.rcond = (np.min(rcond), ch[int(np.argmin(rcond))])

        N = (S2 - ia * geo["CBt"]) @ Sinv
        fv = np.broadcast_to(spec.f(x, y), (nqv, net)).astype(float)
        keep(ch, S_hat=ia * geo["CCt"] + N @ (S1 - ia * geo["BtCt"]) - T,
             b_hat=np.einsum("nmd,nd->nm", N, _rows(fv, geo["Tload"])),
             taus=taus.T, N=N, R=Rm, S1=S1, S2=S2, T=T, **blocks)
        return found

    # -- loads and recovery ----------------------------------------------

    def load_vectors(self):
        """Local load vectors F with entries -(f, phi_i)_K, shape (nel, d):
        the recovery and oracle path (``b_hat`` holds N F of ``spec.f``)."""
        out = np.zeros((self.mesh.n_triangles, self.d))
        for t, els in enumerate(self._type_groups()):
            geo = self.type_geo[t]
            for ch in self._chunks(els):
                x, y = self._points(geo, ch)
                fv = np.broadcast_to(self.spec.f(x, y), x.shape).astype(float)
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

