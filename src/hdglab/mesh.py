"""Structured conforming triangulations of Omega = [-1,1]^2 with subdomain partitions.

The domain is covered by a uniform grid of (nx*ratio) x (ny*ratio) rectangular
cells, each split into two triangles along a configurable diagonal.  Cells are
grouped into an nx x ny grid of rectangular subdomains.  Edges get a global
orientation (lexicographically smaller vertex index first) so that the two
elements sharing an edge agree on its tangent and arclength parameter.  They
are numbered in closed form, with no sort: an edge runs from its low vertex v
to v + 1, v + row - 1, v + row or v + row + 1 (kinds 0..3, row = vertices per
grid line), and a running count over the (vertex, kind) slots in use gives
the lexicographic (low, high) order.  The interface between subdomains is
decomposed into SubdomainEdges, one per side shared by two subdomains, read
off the subdomain grid and the same slot table and held as arrays in
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
    triangles : (nt, 3) int32 array, counter-clockwise vertex triples
    tri_sub : (nt,) int32 array, subdomain index per triangle
    tri_type : (nt,) int8 array, geometric type (0/1) fixing the affine map
    edges : (ne, 2) int32 array, smaller vertex index first
    edge_class : (ne,) int8 array of {BOUNDARY, INTERIOR, INTERFACE}
    edge_tris : (ne, 2) int32 array of incident triangles (-1 when boundary)
    tri_edges : (nt, 3) int32 array, local edges (0,1),(1,2),(2,0) -> edge
        index
    h, H : characteristic element / subdomain sizes
    interface_runs : the SubdomainEdge decomposition (InterfaceRuns)

    Every index array is built at int32 width and every tag at int8, which
    holds any mesh with fewer than 2^31 vertices, edges and triangles; a
    product of indices that may pass 2^31 is taken in int64 where it is
    formed.
    """

    def __init__(self, nx, ny, ratio, diag, vertices, triangles, tri_sub,
                 tri_type, edges, edge_class, edge_tris, tri_edges, slot):
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
        self.interface_runs = extract_interface(self, slot)

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

    def subdomain_elements(self):
        """(n_subdomains, 2 ratio^2) int32: the triangles of every subdomain
        in ascending order.  Cell c = j * mx + i of the mx-wide cell grid
        holds triangles 2c and 2c + 1, and subdomain b * nx + a the ratio x
        ratio cells from (a ratio, b ratio)."""
        r, mx = self.ratio, self.nx * self.ratio
        b, a = np.divmod(np.arange(self.n_subdomains, dtype=np.int32),
                         self.nx)
        j, i = np.divmod(np.arange(r * r, dtype=np.int32), r)
        cell = (b * r * mx + a * r)[:, None] + (j * mx + i)
        return (2 * cell[:, :, None] + np.arange(2, dtype=np.int32)).reshape(
            self.n_subdomains, -1)

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
    """Build the structured triangulation of [-1,1]^2 as a Mesh2d.

    Parameters
    ----------
    nx, ny : subdomain counts in x and y (>= 1)
    ratio : cells per subdomain side, H/h (>= 1)
    diag : "ne" (lower-left to upper-right diagonals, default) or "nw"

    The edges are numbered off the (nv, 4) slot table of (low vertex, kind)
    pairs in use, counted in row-major order; ``extract_interface`` reads
    the SubdomainEdges off the same table, and the mesh keeps no copy.
    """
    if not all(isinstance(v, (int, np.integer)) for v in (nx, ny, ratio)):
        raise InvalidConfigError("nx, ny, ratio must be integers")
    if nx < 1 or ny < 1 or ratio < 1:
        raise InvalidConfigError(
            "nx, ny, ratio must be >= 1 (got %s, %s, %s)" % (nx, ny, ratio))
    diag = str(diag).lower()
    if diag not in ("ne", "nw"):
        raise InvalidConfigError("diag must be 'ne' or 'nw' (got %r)" % (diag,))

    mx, my, row = nx * ratio, ny * ratio, nx * ratio + 1
    xs = -1.0 + 2.0 * np.arange(mx + 1) / mx
    ys = -1.0 + 2.0 * np.arange(my + 1) / my
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])  # index = j*row+i

    i32 = np.int32
    ci, cj = np.meshgrid(np.arange(mx, dtype=i32), np.arange(my, dtype=i32),
                         indexing="xy")
    ci, cj = ci.ravel(), cj.ravel()
    v00 = cj * row + ci
    v10, v01, v11 = v00 + 1, v00 + row, v00 + row + 1

    nt = 2 * mx * my
    triangles = np.empty((nt, 3), dtype=i32)
    if diag == "ne":
        # diagonal v00 -> v11; both triangles counter-clockwise
        triangles[0::2] = np.column_stack([v00, v10, v11])
        triangles[1::2] = np.column_stack([v00, v11, v01])
    else:
        # diagonal v10 -> v01
        triangles[0::2] = np.column_stack([v00, v10, v01])
        triangles[1::2] = np.column_stack([v10, v11, v01])
    tri_type = np.tile(np.arange(2, dtype=np.int8), mx * my)
    tri_sub = np.repeat((cj // ratio) * nx + (ci // ratio), 2)

    # every side runs from its low end v to v + step[kind], kind 0..3.  A
    # cell is a translate of the first, so the sides of cell c are the first
    # cell's six shifted by v00[c].  The kind counts grid rows, not hi - lo
    # alone: with mx = 1 the steps 1 and row - 1 coincide, and a horizontal
    # side must still be kind 0, where extract_interface reads it
    nv = vertices.shape[0]
    step = np.array([1, row - 1, row, row + 1], dtype=i32)
    cell = triangles[:2, [[0, 1], [1, 2], [2, 0]]].reshape(6, 2)
    lo, hi = cell.min(axis=1), cell.max(axis=1)
    up = hi // row - lo // row
    kind = up * (hi - lo - up * row + 2)
    lo = v00[:, None] + lo
    # slot[v, kind] numbers the sides in use in (v, kind) order, which is the
    # lexicographic (low, high) order; only the used slots are read
    used = np.zeros((nv, 4), dtype=bool)
    used[lo, kind] = True
    slot = np.cumsum(used, dtype=i32).reshape(nv, 4) - 1
    tri_edges = slot[lo, kind].reshape(nt, 3)
    del lo
    # the sides in slot order, read through the mask (no index arrays)
    v = np.arange(nv, dtype=i32)[:, None]
    edges = np.empty((int(slot[-1, -1]) + 1, 2), dtype=i32)
    edges[:, 0] = np.broadcast_to(v, used.shape)[used]
    edges[:, 1] = (v + step)[used]

    # incident triangles, lower index first; one when first == last
    te, tids = tri_edges.ravel(), np.arange(nt, dtype=i32).repeat(3)
    first = np.full(len(edges), nt, dtype=i32)
    np.minimum.at(first, te, tids)
    last = np.full(len(edges), -1, dtype=i32)
    np.maximum.at(last, te, tids)
    del tids
    two = first != last
    edge_tris = np.column_stack([first, np.where(two, last, -1)])
    edge_class = np.where(two, np.int8(INTERIOR), np.int8(BOUNDARY))
    edge_class[tri_sub[first] != tri_sub[last]] = INTERFACE

    return Mesh2d(nx, ny, ratio, diag, vertices, triangles, tri_sub, tri_type,
                  edges, edge_class, edge_tris, tri_edges, slot)


def extract_interface(mesh, slot):
    """The SubdomainEdges (InterfaceRuns), read off the subdomain grid.

    Subdomain s = b * nx + a is the block of ratio x ratio cells at (a, b),
    so each SubdomainEdge is one whole side of ``ratio`` mesh edges: the
    vertical side s | s + 1 or the horizontal side s / s + nx.  Runs are
    sorted by pair, edges along the tangent.  ``slot`` is the edge slot table
    of ``build_structured_mesh``: the side from v up is slot[v, 2], the side
    from v to the right slot[v, 0].
    """
    nx, ny, r = mesh.nx, mesh.ny, mesh.ratio
    row = nx * r + 1                        # vertices per grid line
    s = np.arange(nx * ny, dtype=np.int32)
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
    edges = slot[lo, np.where(vertical, 2, 0)[:, None]].ravel()
    ends = np.column_stack([start, start + r * step[:, 0]])
    # the tangent in the global edge orientation and the normal out of the
    # lower subdomain, +-(t_y, -t_x) with its signed zero
    v = vertical[:, None]
    return InterfaceRuns(
        edges, np.arange(len(pair) + 1, dtype=np.int32) * r, pair,
        np.where(v, [0.0, 1.0], [1.0, 0.0]),
        np.where(v, [1.0, -0.0], [-0.0, 1.0]),
        np.where(v, mesh.vertices[ends, 1], mesh.vertices[ends, 0]))


class InterfaceRuns:
    """The SubdomainEdges (maximal straight interface runs shared by one
    subdomain pair) as arrays, one row per run; ``len`` is the number of runs.
    The index arrays (``edges``, ``offsets``, ``pair``, ``run_of_edge``) are
    int32, as the mesh's are.

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
        self.run_of_edge = np.repeat(np.arange(len(pair), dtype=np.int32),
                                     np.diff(offsets))

    def __len__(self):
        return len(self.pair)

    @property
    def midpoint_t(self):
        """Arclength parameter of each run's midpoint."""
        return 0.5 * (self.t_range[:, 0] + self.t_range[:, 1])
