"""Structured conforming triangulations of Omega = [-1,1]^2 with subdomain partitions.

The domain is covered by a uniform grid of (nx*ratio) x (ny*ratio) rectangular
cells, each split into two triangles along a configurable diagonal.  Cells are
grouped into an nx x ny grid of rectangular subdomains.  Edges get a global
orientation (lexicographically smaller vertex index first) so that the two
elements sharing an edge agree on its tangent and arclength parameter.
"""

import numpy as np


class InvalidConfigError(ValueError):
    """Invalid mesh or benchmark configuration."""


# edge class tags
BOUNDARY = 0
INTERIOR = 1
INTERFACE = 2


class SubdomainEdge:
    """Maximal straight run of interface mesh edges shared by one subdomain pair.

    Attributes
    ----------
    pair : tuple (i, j) of subdomain indices, i < j
    edges : int array of mesh edge indices, ordered along the tangent
    tangent : unit tangent along the run (global lexicographic orientation)
    normal : unit normal, fixed as the outward normal of subdomain ``pair[0]``
    t_range : (t0, t1) arclength parameter range of the run, t(x) = x . tangent
    length : total arclength, t1 - t0
    """

    def __init__(self, pair, edges, tangent, normal, t_range):
        self.pair = pair
        self.edges = np.asarray(edges, dtype=np.int64)
        self.tangent = np.asarray(tangent, dtype=float)
        self.normal = np.asarray(normal, dtype=float)
        self.t_range = (float(t_range[0]), float(t_range[1]))
        self.length = self.t_range[1] - self.t_range[0]

    @property
    def midpoint_t(self):
        """Arclength parameter of the run midpoint (origin of the centered s)."""
        return 0.5 * (self.t_range[0] + self.t_range[1])

    def __repr__(self):
        return "SubdomainEdge(pair=%s, nedges=%d)" % (self.pair, len(self.edges))


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
    subdomain_edges : list of SubdomainEdge (interface decomposition)
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
        self.subdomain_edges = extract_interface(self)

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

    def edge_tangents(self):
        """Unit tangents in global orientation (smaller vertex -> larger)."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return d / np.hypot(d[:, 0], d[:, 1])[:, None]

    def dump_text(self, stream):
        """Plain-text mesh dump for debugging (not a stability contract)."""
        for x, y in self.vertices:
            stream.write("v %.17g %.17g\n" % (x, y))
        for (i, j, k), s in zip(self.triangles, self.tri_sub):
            stream.write("t %d %d %d %d\n" % (i, j, k, s))
        for (i, j), c in zip(self.edges, self.edge_class):
            stream.write("e %d %d %d\n" % (i, j, c))


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

    # unique edges; global orientation = smaller vertex index first
    le = np.stack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                   triangles[:, [2, 0]]], axis=1).reshape(-1, 2)
    le_sorted = np.sort(le, axis=1)
    edges, inv = np.unique(le_sorted, axis=0, return_inverse=True)
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
    """Decompose the interface into SubdomainEdge runs.

    One SubdomainEdge per maximal straight contiguous run of interface mesh
    edges shared by one subdomain pair; runs are split at cross points
    (vertices where three or more subdomains meet).
    """
    iface = np.where(mesh.edge_class == INTERFACE)[0]
    if iface.size == 0:
        return []

    # vertices where >= 3 subdomains meet
    vsubs = {}
    for t, s in zip(mesh.triangles, mesh.tri_sub):
        for v in t:
            vsubs.setdefault(int(v), set()).add(int(s))
    cross = {v for v, ss in vsubs.items() if len(ss) >= 3}

    tangents = mesh.edge_tangents()
    lengths = mesh.edge_lengths()
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])

    groups = {}
    for e in iface:
        t0, t1 = mesh.edge_tris[e]
        pair = tuple(sorted((int(mesh.tri_sub[t0]), int(mesh.tri_sub[t1]))))
        groups.setdefault(pair, []).append(int(e))

    out = []
    for pair in sorted(groups):
        es = np.array(groups[pair], dtype=np.int64)
        tau = tangents[es[0]]
        if not np.allclose(np.abs(tangents[es] @ tau), 1.0, atol=1e-12):
            raise InvalidConfigError("interface run for pair %s is not collinear" % (pair,))
        tpos = mids[es] @ tau
        order = np.argsort(tpos)
        es, tpos = es[order], tpos[order]
        # split at gaps and at cross points interior to the run
        runs, cur = [], [0]
        for a in range(1, len(es)):
            gap = tpos[a] - tpos[a - 1] > 0.5 * (lengths[es[a]] + lengths[es[a - 1]]) + 1e-12
            shared = set(mesh.edges[es[a]]) & set(mesh.edges[es[a - 1]])
            split = gap or any(int(v) in cross for v in shared)
            if split:
                runs.append(cur)
                cur = [a]
            else:
                cur.append(a)
        runs.append(cur)
        for run in runs:
            res = es[run]
            n = _outward_normal(mesh, tangents, res[0], pair[0])
            ts = np.concatenate([mesh.vertices[mesh.edges[res, 0]] @ tau,
                                 mesh.vertices[mesh.edges[res, 1]] @ tau])
            out.append(SubdomainEdge(pair, res, tau, n, (ts.min(), ts.max())))
    return out


def _outward_normal(mesh, tangents, edge, sub):
    """Unit normal of ``edge`` pointing out of subdomain ``sub``; ``tangents``
    is ``mesh.edge_tangents()``."""
    tau = tangents[edge]
    n = np.array([tau[1], -tau[0]])
    t0, t1 = mesh.edge_tris[edge]
    tri = t0 if mesh.tri_sub[t0] == sub else t1
    cent = mesh.vertices[mesh.triangles[tri]].mean(axis=0)
    mid = 0.5 * (mesh.vertices[mesh.edges[edge, 0]] + mesh.vertices[mesh.edges[edge, 1]])
    if np.dot(n, mid - cent) < 0.0:
        n = -n
    return n
