"""Structured conforming triangulations of Omega = [-1,1]^2 with subdomain partitions.

The domain is covered by a uniform grid of (nx*ratio) x (ny*ratio) rectangular
cells, each split into two triangles along a configurable diagonal.  Cells are
grouped into an nx x ny grid of rectangular subdomains.  Edges get a global
orientation (lexicographically smaller vertex index first) so that the two
elements sharing an edge agree on its tangent and arclength parameter.  The
interface between subdomains is decomposed into SubdomainEdges, held as
arrays in ``InterfaceRuns``.
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
    """Decompose the interface into SubdomainEdges (InterfaceRuns).

    One SubdomainEdge per maximal straight contiguous run of interface mesh
    edges shared by one subdomain pair; runs are split at cross points
    (vertices where three or more subdomains meet).  Runs are sorted by
    pair, and by position along the tangent within a pair.
    """
    iface = np.flatnonzero(mesh.edge_class == INTERFACE)
    if iface.size == 0:
        none = np.zeros((0, 2))
        return InterfaceRuns(iface, np.zeros(1, dtype=np.int64),
                             none.astype(np.int64), none, none, none)
    V, E, nsub = mesh.vertices, mesh.edges, mesh.n_subdomains

    # vertices where >= 3 subdomains meet, from unique (vertex, subdomain)
    vs = np.unique(mesh.triangles.ravel() * nsub + np.repeat(mesh.tri_sub, 3))
    cross = np.bincount(vs // nsub, minlength=mesh.n_vertices) >= 3

    d = V[E[iface, 1]] - V[E[iface, 0]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    tangents = d / lengths[:, None]
    subs = np.sort(mesh.tri_sub[mesh.edge_tris[iface]], axis=1)

    # group by pair (stable: ascending edge index within a pair); the
    # tangent of a pair is that of its lowest-indexed edge
    key = subs[:, 0] * nsub + subs[:, 1]
    order = np.argsort(key, kind="stable")
    new = np.r_[True, key[order][1:] != key[order][:-1]]
    group = np.empty(iface.size, dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    tau = tangents[order[new]][group]
    collinear = np.isclose(np.abs(np.sum(tangents * tau, axis=1)), 1.0,
                           atol=1e-12)
    if not collinear.all():
        bad = np.flatnonzero(~collinear)[0]
        raise InvalidConfigError("interface run for pair %s is not collinear"
                                 % (tuple(int(s) for s in subs[bad]),))

    # order along the tangent within each pair, then split at gaps and at
    # cross points shared by consecutive edges
    mids = 0.5 * (V[E[iface, 0]] + V[E[iface, 1]])
    tpos = np.sum(mids * tau, axis=1)
    order = np.lexsort((tpos, group))
    es, group, tpos, lengths = iface[order], group[order], tpos[order], \
        lengths[order]
    tangents, tau, subs = tangents[order], tau[order], subs[order]
    a, b = E[es[1:]], E[es[:-1]]
    shared_cross = np.zeros(es.size - 1, dtype=bool)
    for i in (0, 1):
        for j in (0, 1):
            shared_cross |= (a[:, i] == b[:, j]) & cross[a[:, i]]
    gap = tpos[1:] - tpos[:-1] > 0.5 * (lengths[1:] + lengths[:-1]) + 1e-12
    split = (group[1:] != group[:-1]) | gap | shared_cross
    starts = np.r_[0, np.flatnonzero(split) + 1]

    # normal of each run: that of its first edge, pointing out of the
    # lower-indexed subdomain's triangle on that edge
    e0, pair = es[starts], subs[starts]
    t0 = tangents[starts]
    normal = np.column_stack([t0[:, 1], -t0[:, 0]])
    tris = mesh.edge_tris[e0]
    tri = np.where(mesh.tri_sub[tris[:, 0]] == pair[:, 0], tris[:, 0],
                   tris[:, 1])
    cent = V[mesh.triangles[tri]].mean(axis=1)
    mid = 0.5 * (V[E[e0, 0]] + V[E[e0, 1]])
    inward = np.sum(normal * (mid - cent), axis=1) < 0.0
    normal = np.where(inward[:, None], -normal, normal)

    ts = np.stack([np.sum(V[E[es, 0]] * tau, axis=1),
                   np.sum(V[E[es, 1]] * tau, axis=1)], axis=1)
    t_range = np.column_stack([np.minimum.reduceat(ts.min(axis=1), starts),
                               np.maximum.reduceat(ts.max(axis=1), starts)])
    return InterfaceRuns(es, np.r_[starts, es.size], pair, tau[starts],
                         normal, t_range)


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
