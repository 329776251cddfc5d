"""Structured conforming triangulations of Omega = [-1,1]^2 with subdomain partitions.

The domain is covered by a uniform grid of (nx*ratio) x (ny*ratio) rectangular
cells, each split into two triangles along a configurable diagonal.  Cells are
grouped into an nx x ny grid of rectangular subdomains.  Edges get a global
orientation (lexicographically smaller vertex index first) so that the two
elements sharing an edge agree on its tangent and arclength parameter.  The
interface between subdomains is decomposed into SubdomainEdges, one per side
shared by two subdomains, read off the subdomain grid and held as arrays in
``InterfaceRuns``.
"""

import numpy as np


class InvalidConfigError(ValueError):
    """Invalid mesh or benchmark configuration."""


# edge class tags
BOUNDARY = 0
INTERIOR = 1
INTERFACE = 2


class Mesh2d:
    """Conforming structured triangulation with subdomain partition.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counter-clockwise vertex triples
    tri_sub : (nt,) int array, subdomain index per triangle
    tri_type : (nt,) int array, geometric type (0/1) fixing the affine map
    edges : (ne, 2) int array, smaller vertex index first
    edge_class : (ne,) int array of {BOUNDARY, INTERIOR, INTERFACE}
    edge_tris : (ne, 2) int array of incident triangles (-1 when boundary)
    tri_edges : (nt, 3) int array, local edges (0,1),(1,2),(2,0) -> edge index
    h, H : characteristic element / subdomain sizes
    interface_runs : the SubdomainEdge decomposition (InterfaceRuns)
    """

    def __init__(self, nx, ny, ratio, diag, vertices, triangles, tri_sub,
                 tri_type, edges, edge_class, edge_tris, tri_edges):
        self.nx = nx
        self.ny = ny
        self.ratio = ratio
        self.diag = diag
        self.vertices = vertices
        self.triangles = triangles
        self.tri_sub = tri_sub
        self.tri_type = tri_type
        self.edges = edges
        self.edge_class = edge_class
        self.edge_tris = edge_tris
        self.tri_edges = tri_edges
        self.n_subdomains = nx * ny
        self.h = 2.0 / (nx * ratio)
        self.H = 2.0 / max(nx, ny)
        self.interface_runs = extract_interface(self)

    @property
    def subdomain_edges(self):
        """``interface_runs`` under its old name.  Kept, read-only, only for
        the SubdomainEdge count (``len``) in ``perfbench/pipeline.py``; item 1
        of ROADMAP.md (one instrumented pipeline) deletes it."""
        return self.interface_runs

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def tri_area(self):
        """Signed areas of all triangles."""
        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_lengths(self):
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])


def build_structured_mesh(nx, ny, ratio, diag="ne"):
    """Build the structured triangulation of [-1,1]^2.

    Parameters
    ----------
    nx, ny : subdomain counts in x and y (>= 1)
    ratio : cells per subdomain side, H/h (>= 1)
    diag : "ne" (lower-left to upper-right diagonals, default) or "nw"

    Returns
    -------
    Mesh2d
    """
    if not all(isinstance(v, (int, np.integer)) for v in (nx, ny, ratio)):
        raise InvalidConfigError("nx, ny, ratio must be integers")
    if nx < 1 or ny < 1 or ratio < 1:
        raise InvalidConfigError(
            "nx, ny, ratio must be >= 1 (got %s, %s, %s)" % (nx, ny, ratio))
    diag = str(diag).lower()
    if diag not in ("ne", "nw"):
        raise InvalidConfigError("diag must be 'ne' or 'nw' (got %r)" % (diag,))

    mx, my = nx * ratio, ny * ratio
    xs = -1.0 + 2.0 * np.arange(mx + 1) / mx
    ys = -1.0 + 2.0 * np.arange(my + 1) / my
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])  # index = j*(mx+1)+i

    ci, cj = np.meshgrid(np.arange(mx), np.arange(my), indexing="xy")
    ci, cj = ci.ravel(), cj.ravel()
    v00 = cj * (mx + 1) + ci
    v10 = v00 + 1
    v01 = v00 + (mx + 1)
    v11 = v01 + 1

    nt = 2 * mx * my
    triangles = np.empty((nt, 3), dtype=np.int64)
    tri_type = np.empty(nt, dtype=np.int64)
    if diag == "ne":
        # diagonal v00 -> v11; both triangles counter-clockwise
        triangles[0::2] = np.column_stack([v00, v10, v11])
        triangles[1::2] = np.column_stack([v00, v11, v01])
    else:
        # diagonal v10 -> v01
        triangles[0::2] = np.column_stack([v00, v10, v01])
        triangles[1::2] = np.column_stack([v10, v11, v01])
    tri_type[0::2] = 0
    tri_type[1::2] = 1

    sub = (cj // ratio) * nx + (ci // ratio)
    tri_sub = np.repeat(sub, 2)

    # unique edges; global orientation = smaller vertex index first.  The
    # key lo * nv + hi sorts like the pair (lo, hi)
    le = np.stack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                   triangles[:, [2, 0]]], axis=1).reshape(-1, 2)
    nv = vertices.shape[0]
    keys, inv = np.unique(le.min(axis=1) * nv + le.max(axis=1),
                          return_inverse=True)
    edges = np.column_stack([keys // nv, keys % nv])
    tri_edges = inv.reshape(nt, 3)

    ne = edges.shape[0]
    edge_tris = np.full((ne, 2), -1, dtype=np.int64)
    order = np.argsort(inv, kind="stable")
    eids = inv[order]
    tids = order // 3
    first = np.searchsorted(eids, np.arange(ne), side="left")
    last = np.searchsorted(eids, np.arange(ne), side="right")
    count = last - first
    if count.max() > 2 or count.min() < 1:
        raise InvalidConfigError("non-manifold mesh connectivity")
    edge_tris[:, 0] = tids[first]
    two = count == 2
    edge_tris[two, 1] = tids[last[two] - 1]

    edge_class = np.full(ne, INTERIOR, dtype=np.int64)
    edge_class[~two] = BOUNDARY
    s0 = tri_sub[edge_tris[:, 0]]
    s1 = np.where(two, tri_sub[edge_tris[:, 1]], s0)
    edge_class[two & (s0 != s1)] = INTERFACE

    return Mesh2d(nx, ny, ratio, diag, vertices, triangles, tri_sub, tri_type,
                  edges, edge_class, edge_tris, tri_edges)


def extract_interface(mesh):
    """The SubdomainEdges (InterfaceRuns), read off the subdomain grid.

    Subdomain s = b * nx + a is the block of ratio x ratio cells at (a, b),
    so each SubdomainEdge is one whole side of ``ratio`` mesh edges: the
    vertical side s | s + 1 or the horizontal side s / s + nx.  Runs are
    sorted by pair, edges along the tangent.
    """
    nx, ny, r, nv = mesh.nx, mesh.ny, mesh.ratio, mesh.n_vertices
    row = nx * r + 1                        # vertices per grid line
    s = np.arange(nx * ny)
    b, a = np.divmod(s, nx)
    corner = b * r * row + a * r            # lower-left vertex of s
    # per subdomain: its vertical run with s + 1, then its horizontal one
    # with s + nx
    has = np.column_stack([a < nx - 1, b < ny - 1]).ravel()
    vertical = np.tile([True, False], s.size)[has]
    pair = np.stack([s, s + 1, s, s + nx], axis=1).reshape(-1, 2)[has]
    start = np.column_stack([corner + r, corner + r * row]).ravel()[has]
    step = np.where(vertical, row, 1)[:, None]
    lo = start[:, None] + step * np.arange(r)
    keys = mesh.edges[:, 0] * nv + mesh.edges[:, 1]
    edges = np.searchsorted(keys, (lo * nv + lo + step).ravel())
    ends = np.column_stack([start, start + r * step[:, 0]])
    # the tangent in the global edge orientation and the normal out of the
    # lower subdomain, +-(t_y, -t_x) with its signed zero
    v = vertical[:, None]
    return InterfaceRuns(
        edges, np.arange(len(pair) + 1) * r, pair,
        np.where(v, [0.0, 1.0], [1.0, 0.0]),
        np.where(v, [1.0, -0.0], [-0.0, 1.0]),
        np.where(v, mesh.vertices[ends, 1], mesh.vertices[ends, 0]))


class InterfaceRuns:
    """The SubdomainEdges (maximal straight interface runs shared by one
    subdomain pair) as arrays, one row per run; ``len`` is the number of runs.

    Attributes
    ----------
    edges : interface mesh edges, concatenated run by run in run order, and
        ordered along the tangent within a run
    offsets : (n_runs+1,) run r holds edges[offsets[r]:offsets[r+1]]
    pair : (n_runs, 2) subdomain indices (i, j) of each run, i < j
    tangent : (n_runs, 2) unit tangent (global lexicographic orientation)
    normal : (n_runs, 2) unit normal, outward of subdomain ``pair[r, 0]``
    t_range : (n_runs, 2) arclength parameter range (t0, t1) of each run,
        t(x) = x . tangent
    run_of_edge : (len(edges),) run index of each entry of ``edges``
    """

    def __init__(self, edges, offsets, pair, tangent, normal, t_range):
        self.edges = edges
        self.offsets = offsets
        self.pair = pair
        self.tangent = tangent
        self.normal = normal
        self.t_range = t_range
        self.run_of_edge = np.repeat(np.arange(len(pair)), np.diff(offsets))

    def __len__(self):
        return len(self.pair)

    @property
    def midpoint_t(self):
        """Arclength parameter of each run's midpoint."""
        return 0.5 * (self.t_range[:, 0] + self.t_range[:, 1])
