import numpy as np
import pytest

from hdglab.mesh import (BOUNDARY, INTERFACE, InvalidConfigError,
                         build_structured_mesh)


def test_single_cell_counts():
    m = build_structured_mesh(1, 1, 1)
    assert m.n_triangles == 2
    assert m.n_vertices == 4
    assert m.n_edges == 5
    assert np.count_nonzero(m.edge_class == INTERFACE) == 0


def test_2x2_ratio2_counts():
    m = build_structured_mesh(2, 2, 2)
    assert m.n_triangles == 32
    assert m.n_vertices == 25
    assert m.n_edges == 56
    assert np.count_nonzero(m.edge_class == BOUNDARY) == 16


def test_4x4_ratio6_counts():
    m = build_structured_mesh(4, 4, 6)
    assert m.n_triangles == 4 * 4 * 36 * 2


@pytest.mark.parametrize("nx,ny,ratio", [(1, 1, 1), (2, 2, 2), (3, 2, 3), (4, 4, 6)])
def test_euler_and_areas(nx, ny, ratio):
    m = build_structured_mesh(nx, ny, ratio)
    assert m.n_triangles == 2 * nx * ny * ratio * ratio
    assert m.n_vertices == (nx * ratio + 1) * (ny * ratio + 1)
    assert m.n_edges == m.n_vertices + m.n_triangles - 1
    areas = m.tri_area()
    assert np.all(areas > 0)
    assert abs(areas.sum() - 4.0) < 1e-12


@pytest.mark.parametrize("diag", ["ne", "nw"])
def test_edge_incidence_and_classes(diag):
    m = build_structured_mesh(2, 3, 2, diag=diag)
    for e in range(m.n_edges):
        t0, t1 = m.edge_tris[e]
        if m.edge_class[e] == BOUNDARY:
            assert t1 == -1
        else:
            assert t1 >= 0
            s0, s1 = m.tri_sub[t0], m.tri_sub[t1]
            if m.edge_class[e] == INTERFACE:
                assert s0 != s1
            else:
                assert s0 == s1
    # subdomain indices partition the triangle set
    assert sorted(np.unique(m.tri_sub)) == list(range(m.n_subdomains))


def run_edges(runs, r):
    """Mesh edges of SubdomainEdge r, in order along its tangent."""
    return runs.edges[runs.offsets[r]:runs.offsets[r + 1]]


# (nx, ny, H/h, diag) of the layout tests here and in test_fespace/test_bddc
LAYOUT_GRIDS = [(3, 2, 3, "ne"), (3, 2, 3, "nw"), (5, 4, 2, "ne"),
                (5, 4, 2, "nw"), (1, 1, 3, "ne")]
# the interface property tests add strips, whose SubdomainEdges all have one
# orientation, and an odd grid at odd H/h
INTERFACE_GRIDS = LAYOUT_GRIDS + [(1, 3, 2, "ne"), (3, 1, 3, "nw"),
                                  (7, 3, 5, "ne")]


def test_interface_extraction_2x2():
    m = build_structured_mesh(2, 2, 2)
    runs = m.interface_runs
    assert len(runs) == 4
    assert np.diff(runs.offsets).tolist() == [2, 2, 2, 2]
    pairs = sorted(tuple(p) for p in runs.pair.tolist())
    assert pairs == [(0, 1), (0, 2), (1, 3), (2, 3)]
    # the old name is the same object (the benchmark counts through it)
    assert m.subdomain_edges is runs


def test_interface_extraction_trivial_cases():
    runs = build_structured_mesh(1, 1, 3).interface_runs
    assert len(runs) == 0 and runs.edges.size == 0
    assert runs.offsets.tolist() == [0]
    runs = build_structured_mesh(2, 1, 1).interface_runs
    assert len(runs) == 1
    assert runs.offsets.tolist() == [0, 1]
    assert runs.pair.tolist() == [[0, 1]]


def interface_meshes(*grids):
    """Meshes of the (nx, ny, H/h, diag) ``grids`` and of INTERFACE_GRIDS."""
    return [build_structured_mesh(nx, ny, r, diag=d)
            for nx, ny, r, d in list(grids) + INTERFACE_GRIDS]


def test_interface_covers_all_interface_edges():
    for m in interface_meshes((4, 3, 2, "ne")):
        runs = m.interface_runs
        covered = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            run_edges(runs, r) for r in range(len(runs))])
        iface = np.where(m.edge_class == INTERFACE)[0]
        assert sorted(covered.tolist()) == sorted(iface.tolist())
        assert len(covered) == len(set(covered.tolist()))
        total = np.sum(runs.t_range[:, 1] - runs.t_range[:, 0])
        lengths = m.edge_lengths()
        assert abs(total - lengths[iface].sum()) < 1e-12


def test_subdomain_edge_geometry():
    for m in interface_meshes((2, 2, 4, "ne")):
        runs = m.interface_runs
        for r in range(len(runs)):
            edges, tangent, normal = run_edges(runs, r), runs.tangent[r], \
                runs.normal[r]
            # axis aligned, as long as the subdomain side, and the tangent
            # of every mesh edge in its global orientation
            side = 2.0 / (m.nx if abs(tangent[0]) > 0.5 else m.ny)
            assert abs(runs.t_range[r, 1] - runs.t_range[r, 0] - side) < 1e-12
            assert sorted(np.abs(tangent).tolist()) == [0.0, 1.0]
            d = m.vertices[m.edges[edges, 1]] - m.vertices[m.edges[edges, 0]]
            tans = d / np.hypot(d[:, 0], d[:, 1])[:, None]
            assert np.allclose(tans @ tangent, 1.0, atol=1e-12)
            assert abs(np.dot(tangent, normal)) < 1e-14
            # normal points out of the lower-indexed subdomain
            lo = runs.pair[r, 0]
            e0 = edges[0]
            t0, t1 = m.edge_tris[e0]
            tri = t0 if m.tri_sub[t0] == lo else t1
            cent = m.vertices[m.triangles[tri]].mean(axis=0)
            mid = m.vertices[m.edges[e0]].mean(axis=0)
            assert np.dot(normal, mid - cent) > 0


def test_cross_point_splitting():
    # the cross points split each of the nx - 1 vertical interface lines
    # into ny SubdomainEdges, and each of the ny - 1 horizontal ones into nx
    for m in interface_meshes((3, 3, 2, "ne")):
        runs = m.interface_runs
        lines = {}
        for r in range(len(runs)):
            vertical = bool(abs(runs.tangent[r, 1]) > 0.5)
            v0 = m.vertices[m.edges[run_edges(runs, r)[0], 0]]
            lines.setdefault((vertical, round(v0[0 if vertical else 1], 12)),
                             []).append(r)
        for vertical, n_lines, per_line in ((True, m.nx - 1, m.ny),
                                            (False, m.ny - 1, m.nx)):
            counts = [len(v) for (o, _), v in lines.items() if o == vertical]
            assert counts == [per_line] * n_lines


def test_invalid_config():
    with pytest.raises(InvalidConfigError):
        build_structured_mesh(0, 1, 1)
    with pytest.raises(InvalidConfigError):
        build_structured_mesh(2, 2, -1)
    with pytest.raises(InvalidConfigError):
        build_structured_mesh(2, 2, 2, diag="sw")


def cross_points(m):
    """Vertices shared by the triangles of three or more subdomains."""
    subs = {}
    for tri, s in zip(m.triangles.tolist(), m.tri_sub.tolist()):
        for v in tri:
            subs.setdefault(v, set()).add(s)
    return {v for v, ss in subs.items() if len(ss) >= 3}


@pytest.mark.parametrize("nx,ny,ratio,diag", LAYOUT_GRIDS)
def test_edge_numbering_is_lexicographic(nx, ny, ratio, diag):
    m = build_structured_mesh(nx, ny, ratio, diag=diag)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    pairs = [tuple(e) for e in m.edges.tolist()]
    assert pairs == sorted(set(pairs))
    for tri, tes in zip(m.triangles.tolist(), m.tri_edges.tolist()):
        for (a, b), e in zip(((0, 1), (1, 2), (2, 0)), tes):
            assert pairs[e] == tuple(sorted((tri[a], tri[b])))


@pytest.mark.parametrize("nx,ny,ratio,diag", INTERFACE_GRIDS)
def test_subdomain_edge_layout(nx, ny, ratio, diag):
    m = build_structured_mesh(nx, ny, ratio, diag=diag)
    runs = m.interface_runs
    cross = cross_points(m)
    # sorted by pair; the runs of one pair follow each other along the line
    pairs = [tuple(p) for p in runs.pair.tolist()]
    assert pairs == sorted(pairs)
    for r in range(1, len(runs)):
        if pairs[r - 1] == pairs[r]:
            assert runs.t_range[r, 0] >= runs.t_range[r - 1, 1] - 1e-12
    assert runs.run_of_edge.tolist() == \
        np.repeat(np.arange(len(runs)), np.diff(runs.offsets)).tolist()
    for r in range(len(runs)):
        edges = run_edges(runs, r)
        assert edges.size > 0
        v = m.vertices[m.edges[edges]]                 # (n, 2 ends, 2)
        t = v @ runs.tangent[r]
        # ordered along the tangent, contiguous, spanning t_range
        assert np.all(np.diff(t.mean(axis=1)) > 0)
        assert np.allclose(t.min(axis=1)[1:], t.max(axis=1)[:-1], atol=1e-12)
        assert t.min() == runs.t_range[r, 0] and t.max() == runs.t_range[r, 1]
        # no cross point inside a run; each end is a cross point or lies on
        # the domain boundary
        ends = m.edges[edges]
        inner = set(ends[1:].ravel().tolist()) & set(ends[:-1].ravel().tolist())
        assert not inner & cross
        first = set(ends[0].tolist()) - inner
        last = set(ends[-1].tolist()) - inner
        for v_end in first | last:
            on_boundary = np.isclose(np.abs(m.vertices[v_end]), 1.0).any()
            assert v_end in cross or on_boundary
    assert runs.offsets[-1] == np.count_nonzero(m.edge_class == INTERFACE)
