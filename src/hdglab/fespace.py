"""Reference bases, quadrature rules, the edge-quadrature table and the global
trace-space DOF map.

Trace basis: Legendre polynomials P_0..P_k per mesh edge, parameterized by the
edge's global arclength coordinate t in [-1,1] (smaller vertex index -> larger),
so both elements sharing an edge see identical basis functions.  Interior
scalar basis: monomials orthonormalized on the reference triangle.

Each quadrature rule is built once per (kind, exactness), and the edge
rule's Legendre table once per k; both are shared read-only.
``EdgeQuadrature`` maps the edge rule onto a whole set of mesh edges at once
(points, scaled weights, Legendre values, beta.n against given normals).  The
element blocks (``hdg``), the Robin terms (``dd``), the primal constraints
(``bddc``) and the boundary projection (``project_boundary``) all read it,
for every edge in one array operation.
``TraceDofMap`` numbers the DOFs with sorts and splits over the edge arrays.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.linalg import cholesky, solve_triangular
from scipy.special import roots_jacobi

from .mesh import BOUNDARY, INTERIOR, InvalidConfigError

_MAX_EXACTNESS = 60


class UnsupportedError(ValueError):
    """Requested quadrature exactness beyond the implemented range."""


class QuadRule:
    """Quadrature rule on the reference triangle or reference edge.

    Attributes
    ----------
    kind : "triangle" or "edge"
    points : (nq, 2) on the unit triangle (0,0),(1,0),(0,1), or (nq,) on [-1,1]
    weights : (nq,) summing to the reference measure (1/2 resp. 2)
    exactness : largest total polynomial degree integrated exactly

    ``quadrature_rule`` shares each rule, so the arrays are made read-only.
    """

    def __init__(self, kind, points, weights, exactness):
        self.kind = kind
        self.points = points
        self.weights = weights
        self.exactness = exactness
        points.flags.writeable = weights.flags.writeable = False


@lru_cache(maxsize=None)
def quadrature_rule(kind, exactness):
    """Gauss rules: tensor Gauss-Legendre/Jacobi (triangle), Gauss-Legendre
    (edge); built once per (kind, exactness) and shared."""
    if exactness < 0:
        raise InvalidConfigError("exactness must be >= 0")
    if exactness > _MAX_EXACTNESS:
        raise UnsupportedError("exactness %d beyond supported %d" % (exactness, _MAX_EXACTNESS))
    n = (exactness + 2) // 2  # ceil((d+1)/2) Gauss points per direction
    if kind == "edge":
        x, w = leggauss(n)
        return QuadRule("edge", x, w, 2 * n - 1)
    if kind == "triangle":
        # conical product: x = u(1-v), y = v with Jacobi weight (1-v) in v
        u, wu = leggauss(n)
        u = 0.5 * (u + 1.0)
        vj, wj = roots_jacobi(n, 1.0, 0.0)
        v = 0.5 * (vj + 1.0)
        U, V = np.meshgrid(u, v, indexing="ij")
        pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
        wts = (np.outer(wu, wj) / 8.0).ravel()
        return QuadRule("triangle", pts, wts, 2 * n - 1)
    raise InvalidConfigError("unknown quadrature kind %r" % (kind,))


class EdgeBasis:
    """Legendre basis P_0..P_k on the reference edge [-1,1]."""

    def __init__(self, k):
        self.k = k

    def eval(self, t):
        """Values, shape (k+1, len(t))."""
        return legvander(np.asarray(t, dtype=float), self.k).T


class TriBasis:
    """Monomial basis of P_k orthonormalized on the reference triangle."""

    def __init__(self, k):
        self.k = k
        self.exps = [(a, b) for tot in range(k + 1) for a in range(tot, -1, -1)
                     for b in [tot - a]]
        self.dim = len(self.exps)
        rule = quadrature_rule("triangle", 2 * k)
        M = self._monomials(rule.points)
        G = (M * rule.weights) @ M.T
        self._L = cholesky(G, lower=True)

    def _monomials(self, pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.array([x ** a * y ** b for a, b in self.exps])

    def eval(self, pts):
        """Orthonormal basis values, shape (dim, npts)."""
        return solve_triangular(self._L, self._monomials(pts), lower=True)

    def grad(self, pts):
        """Reference gradients, shape (dim, npts, 2)."""
        x, y = pts[:, 0], pts[:, 1]
        gx = np.array([a * x ** max(a - 1, 0) * y ** b if a else np.zeros_like(x)
                       for a, b in self.exps])
        gy = np.array([b * x ** a * y ** max(b - 1, 0) if b else np.zeros_like(x)
                       for a, b in self.exps])
        g = np.stack([gx, gy], axis=-1)
        return solve_triangular(self._L, g.reshape(self.dim, -1),
                                lower=True).reshape(self.dim, -1, 2)


class TraceDofMap:
    """Numbering of the trace space Lambda = Lambda_I (+) Lambda_Gamma.

    DOF layout: subdomain-interior DOFs grouped per subdomain (ascending
    subdomain index, edge-index order within), then interface DOFs as one
    contiguous block per SubdomainEdge (run order along the tangent).
    Boundary edges carry no DOFs.

    Attributes
    ----------
    k : trace degree
    n_dofs, n_interior, n_interface : sizes
    edge_dofs : (n_edges, k+1) int32 global DOF ids, -1 on boundary edges
    interior_by_sub : list of int32 arrays, per-subdomain interior DOF ids
    se_blocks : (n_runs, 2) int32 global DOF ranges [start, stop) per
        SubdomainEdge
    sub_interface_pos : list of int32 arrays, per-subdomain positions within
        Lambda_Gamma (0-based; global id = position + n_interior) of its
        interface DOFs: its SubdomainEdge blocks, concatenated in ascending
        run order

    The index arrays are built at int32 width, as the mesh's are.
    """

    def __init__(self, mesh, k):
        if k not in (0, 1, 2):
            raise InvalidConfigError("trace degree k must be in {0,1,2}")
        self.k = k
        nds = k + 1
        nsub = mesh.n_subdomains
        runs = mesh.interface_runs
        i32 = np.int32
        self.edge_dofs = np.full((mesh.n_edges, nds), -1, dtype=i32)

        # interior edges by owning subdomain (stable: edge index within),
        # then the interface edges run by run
        inter = np.flatnonzero(mesh.edge_class == INTERIOR)
        own = mesh.tri_sub[mesh.edge_tris[inter, 0]]
        order = np.argsort(own, kind="stable")
        inter, own = inter[order], own[order]
        self.n_interior = inter.size * nds
        self.n_dofs = self.n_interior + runs.edges.size * nds
        self.n_interface = self.n_dofs - self.n_interior
        self.edge_dofs[inter] = np.arange(self.n_interior,
                                          dtype=i32).reshape(-1, nds)
        self.edge_dofs[runs.edges] = np.arange(
            self.n_interior, self.n_dofs, dtype=i32).reshape(-1, nds)
        subs = np.arange(1, nsub)
        self.interior_by_sub = np.split(
            np.arange(self.n_interior, dtype=i32),
            np.searchsorted(own, subs) * nds)
        self.se_blocks = self.n_interior + nds * np.column_stack(
            [runs.offsets[:-1], runs.offsets[1:]])

        # (subdomain, SubdomainEdge) incidences, by subdomain then edge
        sub_of = runs.pair.T.ravel()
        se = np.tile(np.arange(len(runs)), 2)
        order = np.lexsort((se, sub_of))
        sub_of, se = sub_of[order], se[order]
        # each incidence expands to the interface positions of its block
        start = self.se_blocks[se, 0] - self.n_interior
        size = self.se_blocks[se, 1] - self.se_blocks[se, 0]
        pos = np.repeat(start - np.cumsum(size, dtype=i32) + size, size) + \
            np.arange(size.sum(), dtype=i32)
        cuts = np.searchsorted(np.repeat(sub_of, size), subs)
        self.sub_interface_pos = np.split(pos, cuts)


def build_trace_dof_map(mesh, k):
    """Build the TraceDofMap for degree-k traces on ``mesh``."""
    return TraceDofMap(mesh, k)


@lru_cache(maxsize=None)
def _legendre_table(k):
    """P_0..P_k at the points of the edge rule of exactness 2k+4, read-only."""
    P = EdgeBasis(k).eval(quadrature_rule("edge", 2 * k + 4).points)
    P.flags.writeable = False
    return P


class EdgeQuadrature:
    """The edge Gauss rule of exactness 2k+4 mapped onto a set of mesh edges,
    each in its global parameterization t in [-1,1] (smaller vertex index
    at t = -1).  The one edge-quadrature table of the trace space: element
    blocks, Robin terms, primal constraints and boundary projection all
    read it.

    Attributes
    ----------
    edges : (ne,) mesh edge indices
    rule : the reference QuadRule
    P : (k+1, nq) Legendre values at the rule points
    half_len : (ne,) half edge lengths (ds = half_len dt)
    points : (ne, nq, 2) physical quadrature points
    weights : (ne, nq) rule weights scaled to arclength
    """

    def __init__(self, mesh, edges, k):
        self.edges = np.asarray(edges, dtype=np.int64)
        self.rule = quadrature_rule("edge", 2 * k + 4)
        self.P = _legendre_table(k)
        # np.take: row gathers several times faster than fancy indexing
        va, vb = np.take(mesh.vertices, np.take(mesh.edges, self.edges,
                                                axis=0).T, axis=0)
        self.half_len = np.hypot(*(vb - va).T) / 2.0
        self.points = va[:, None, :] + 0.5 * np.multiply.outer(
            self.rule.points + 1.0, vb - va).transpose(1, 0, 2)
        self.weights = self.rule.weights * self.half_len[:, None]

    def beta_n(self, spec, normals):
        """beta.n at the points, (ne, nq); ``normals`` is (2,) or (ne, 2)."""
        n = np.broadcast_to(normals, (self.edges.size, 2))
        bx, by = spec.beta_at(self.points[..., 0], self.points[..., 1])
        return bx * n[:, :1] + by * n[:, 1:]

    def project(self, g):
        """L2 projection of g onto P_k of every edge in the Legendre basis,
        (ne, k+1); exact where g is a P_k polynomial on the edge."""
        gv = np.broadcast_to(g(self.points[..., 0], self.points[..., 1]),
                             self.points.shape[:2]).astype(float)
        # c_m = (2m+1)/2 * int_{-1}^{1} g(x(t)) P_m(t) dt
        m = np.arange(self.P.shape[0])
        return gv @ (self.P * self.rule.weights).T * (2.0 * m + 1.0) / 2.0


def interface_quadrature(mesh, spec, k):
    """EdgeQuadrature on the interface edges in SubdomainEdge run order (the
    interface DOF order), and beta.n there against the normal of each edge's
    SubdomainEdge."""
    runs = mesh.interface_runs
    q = EdgeQuadrature(mesh, runs.edges, k)
    return q, q.beta_n(spec, runs.normal[runs.run_of_edge])


def project_boundary(mesh, g, k):
    """(n_edges, k+1) Legendre coefficients of the L2 projection of g onto
    P_k of every boundary edge; zero on the other edges."""
    bnd = np.flatnonzero(mesh.edge_class == BOUNDARY)
    gcoef = np.zeros((mesh.n_edges, k + 1))
    gcoef[bnd] = EdgeQuadrature(mesh, bnd, k).project(g)
    return gcoef


def edge_points(mesh, edge, t):
    """Physical points on ``edge`` at reference parameters t in [-1,1]."""
    va, vb = mesh.vertices[mesh.edges[edge]]
    t = np.asarray(t, dtype=float)
    return 0.5 * (va + vb)[None, :] + 0.5 * np.outer(t, vb - va)
