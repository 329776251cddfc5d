"""The index contract: every integer array that the mesh, the DOF map, the
trace system, the subdomain layer and the constraint set hold is int32, the
two tag arrays (``tri_type``, ``edge_class``) are int8 and ``subs.pos``,
which every GMRES step gathers with, is intp; and the values equal an int64
recomputation."""

import numpy as np
import pytest

from hdglab.bddc import PrimalConstraintSet
from hdglab.bench import build_case
from hdglab.mesh import BOUNDARY, INTERFACE, INTERIOR

TAGS = {"tri_type", "edge_class"}
INTP = {"pos"}


def int_arrays(obj):
    """(name, array) of every integer array that ``obj`` holds, in its
    attributes and in the lists and tuples there (``steps`` nests them)."""
    out = []
    for name, value in vars(obj).items():
        todo = [value]
        while todo:
            x = todo.pop()
            if isinstance(x, (list, tuple)):
                todo.extend(x)
            elif isinstance(x, np.ndarray) and x.dtype.kind in "iu":
                out.append((name, x))
    return out


def mesh_int64(m):
    """The mesh's index arrays, recomputed in int64: the cells row by row,
    split along their diagonal; subdomains from the centroids; the sides by
    sorting."""
    mx, my, row = m.nx * m.ratio, m.ny * m.ratio, m.nx * m.ratio + 1
    j, i = np.divmod(np.arange(mx * my, dtype=np.int64), mx)
    v = j * row + i
    tri = np.stack([v, v + 1, v + row + 1, v, v + row + 1, v + row], axis=1)
    if m.diag == "nw":
        tri = np.stack([v, v + 1, v + row, v + 1, v + row + 1, v + row],
                       axis=1)
    tri = tri.reshape(-1, 3)
    size = 2.0 / np.array([m.nx, m.ny])             # of a subdomain
    c = np.floor((m.vertices[tri].mean(axis=1) + 1.0) / size).astype(np.int64)
    sides = tri[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    nv = m.n_vertices
    keys, inv = np.unique(sides.min(axis=1) * nv + sides.max(axis=1),
                          return_inverse=True)
    ne, nt = keys.size, len(tri)
    tids = np.arange(3 * nt) // 3
    first = np.full(ne, nt)
    np.minimum.at(first, inv, tids)
    last = np.full(ne, -1)
    np.maximum.at(last, inv, tids)
    sub = c[:, 1] * m.nx + c[:, 0]
    cls = np.where(first == last, BOUNDARY,
                   np.where(sub[first] != sub[last], INTERFACE, INTERIOR))
    return dict(triangles=tri, tri_sub=sub, tri_type=np.arange(nt) % 2,
                edges=np.column_stack([keys // nv, keys % nv]),
                edge_class=cls, tri_edges=inv.reshape(nt, 3),
                edge_tris=np.column_stack([first,
                                           np.where(first == last, -1,
                                                    last)]))


def dofs_int64(m, nds):
    """The DOF map recomputed in int64 from its layout: interior edges by
    (owning subdomain, edge), then the interface edges run by run."""
    runs = m.interface_runs
    inter = np.flatnonzero(m.edge_class == INTERIOR)
    own = m.tri_sub.astype(np.int64)[m.edge_tris[inter, 0]]
    order = np.lexsort((inter, own))
    inter, own = inter[order], own[order]
    edge_dofs = np.full((m.n_edges, nds), -1, dtype=np.int64)
    edges = np.concatenate([inter, runs.edges.astype(np.int64)])
    edge_dofs[edges] = np.arange(edges.size * nds).reshape(-1, nds)
    n0 = inter.size * nds
    run_dofs = [edge_dofs[runs.edges[a:b]].ravel()
                for a, b in zip(runs.offsets[:-1], runs.offsets[1:])]
    subs = range(m.n_subdomains)
    return dict(
        edge_dofs=edge_dofs,
        interior_by_sub=[edge_dofs[inter[own == s]].ravel() for s in subs],
        se_blocks=np.array([[d.min(), d.max() + 1] for d in run_dofs]),
        sub_interface_pos=[np.sort(np.concatenate(
            [np.zeros(0, np.int64)] + [d for d, p in zip(run_dofs, runs.pair)
                                       if s in p])) - n0 for s in subs])


@pytest.mark.parametrize("grid,ratio,k", [((3, 2), 3, 1), ((2, 2), 2, 2)])
def test_index_arrays_are_int32_and_match_int64(grid, ratio, k):
    mesh, dofs, spec, sys_, subs, _ = build_case("rotating", 1e-2, k, grid,
                                                 ratio)
    cons = PrimalConstraintSet("bddc3", spec, mesh, k)
    held = {"mesh": int_arrays(mesh),
            "interface_runs": int_arrays(mesh.interface_runs),
            "dofs": int_arrays(dofs), "subs": int_arrays(subs),
            "constraints": int_arrays(cons),
            "sys": [("elem_dofs", sys_.elem_dofs)]}
    for owner, arrays in held.items():
        assert arrays, owner
        for name, a in arrays:
            want = np.int8 if name in TAGS else \
                np.intp if owner == "subs" and name in INTP else np.int32
            assert a.dtype == want, (owner, name, a.dtype)

    # the values, against int64 recomputations
    for name, want in mesh_int64(mesh).items():
        assert np.array_equal(getattr(mesh, name), want), name
    nds = k + 1
    ref = dofs_int64(mesh, nds)
    assert np.array_equal(dofs.edge_dofs, ref["edge_dofs"])
    assert np.array_equal(dofs.se_blocks, ref["se_blocks"])
    for name in ("interior_by_sub", "sub_interface_pos"):
        got = getattr(dofs, name)
        assert len(got) == mesh.n_subdomains
        for a, b in zip(got, ref[name]):
            assert np.array_equal(a, b), name
    tri_edges = mesh.tri_edges.astype(np.int64)
    assert np.array_equal(sys_.elem_dofs, ref["edge_dofs"][tri_edges]
                          .reshape(mesh.n_triangles, -1))

    # every subdomain's elements ascending; the Robin sides' subdomains and
    # their local interface slots
    assert np.array_equal(subs.elems, np.argsort(
        mesh.tri_sub.astype(np.int64), kind="stable").reshape(
            mesh.n_subdomains, -1))
    runs = mesh.interface_runs
    sub, lp, _ = subs.robin
    pair = runs.pair.astype(np.int64)[runs.run_of_edge]
    assert np.array_equal(sub, pair.T)
    gpos = ref["edge_dofs"][runs.edges] - dofs.n_interior
    for side in (0, 1):
        for e, s in enumerate(pair[:, side]):
            assert np.array_equal(
                lp[side, e], np.searchsorted(ref["sub_interface_pos"][s],
                                             gpos[e]))
    assert np.array_equal(subs.nI, [a.size for a in ref["interior_by_sub"]])
    assert np.array_equal(subs.nG, [a.size for a in ref["sub_interface_pos"]])
    assert np.array_equal(subs.pos[subs.pos < dofs.n_interface],
                          np.concatenate(ref["sub_interface_pos"]))

    # interface position p: its SubdomainEdge and offset in the block
    p = np.arange(dofs.n_interface, dtype=np.int64) + dofs.n_interior
    se = np.searchsorted(ref["se_blocks"][:, 1], p, side="right")
    assert np.array_equal(cons.se_of, se)
    assert np.array_equal(cons.block_off, p - ref["se_blocks"][se, 0])
    assert np.array_equal(cons.primal_offsets, np.r_[0, np.cumsum(
        cons.n_primal_by_se.astype(np.int64))])
