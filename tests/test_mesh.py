import numpy as np
import pytest

from hdglab.mesh import (BOUNDARY, INTERFACE, INTERIOR, InvalidConfigError,
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


def test_interface_extraction_2x2():
    m = build_structured_mesh(2, 2, 2)
    ses = m.subdomain_edges
    assert len(ses) == 4
    assert all(len(se.edges) == 2 for se in ses)
    pairs = sorted(se.pair for se in ses)
    assert pairs == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_interface_extraction_trivial_cases():
    assert build_structured_mesh(1, 1, 3).subdomain_edges == []
    ses = build_structured_mesh(2, 1, 1).subdomain_edges
    assert len(ses) == 1
    assert len(ses[0].edges) == 1
    assert ses[0].pair == (0, 1)


def test_interface_covers_all_interface_edges():
    m = build_structured_mesh(4, 3, 2)
    covered = np.concatenate([se.edges for se in m.subdomain_edges])
    iface = np.where(m.edge_class == INTERFACE)[0]
    assert sorted(covered.tolist()) == sorted(iface.tolist())
    assert len(covered) == len(set(covered.tolist()))
    total = sum(se.length for se in m.subdomain_edges)
    lengths = m.edge_lengths()
    assert abs(total - lengths[iface].sum()) < 1e-12


def test_subdomain_edge_geometry():
    m = build_structured_mesh(2, 2, 4)
    for se in m.subdomain_edges:
        # contiguous, collinear, axis aligned, length H
        assert abs(se.length - m.H) < 1e-12
        tans = m.edge_tangents()[se.edges]
        assert np.allclose(np.abs(tans @ se.tangent), 1.0, atol=1e-12)
        assert abs(np.dot(se.tangent, se.normal)) < 1e-14
        # normal points out of the lower-indexed subdomain
        lo = se.pair[0]
        e0 = se.edges[0]
        t0, t1 = m.edge_tris[e0]
        tri = t0 if m.tri_sub[t0] == lo else t1
        cent = m.vertices[m.triangles[tri]].mean(axis=0)
        mid = 0.5 * (m.vertices[m.edges[e0, 0]] + m.vertices[m.edges[e0, 1]])
        assert np.dot(se.normal, mid - cent) > 0


def test_cross_point_splitting():
    # 3x3 subdomains: vertical line x=-1/3 hosts three SubdomainEdges
    m = build_structured_mesh(3, 3, 2)
    vertical = [se for se in m.subdomain_edges if abs(se.tangent[1]) > 0.5]
    lines = {}
    for se in vertical:
        x = m.vertices[m.edges[se.edges[0], 0], 0]
        lines.setdefault(round(x, 12), []).append(se)
    assert all(len(v) == 3 for v in lines.values())


def test_invalid_config():
    with pytest.raises(InvalidConfigError):
        build_structured_mesh(0, 1, 1)
    with pytest.raises(InvalidConfigError):
        build_structured_mesh(2, 2, -1)
    with pytest.raises(InvalidConfigError):
        build_structured_mesh(2, 2, 2, diag="sw")


def test_dump_text(tmp_path):
    m = build_structured_mesh(1, 1, 1)
    p = tmp_path / "mesh.txt"
    with open(p, "w") as fh:
        m.dump_text(fh)
    lines = p.read_text().strip().splitlines()
    assert len(lines) == m.n_vertices + m.n_triangles + m.n_edges


# (nx, ny, H/h, diag) of the layout tests here and in test_fespace/test_bddc
LAYOUT_GRIDS = [(3, 2, 3, "ne"), (3, 2, 3, "nw"), (5, 4, 2, "ne"),
                (5, 4, 2, "nw"), (1, 1, 3, "ne")]


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


@pytest.mark.parametrize("nx,ny,ratio,diag", LAYOUT_GRIDS)
def test_subdomain_edge_layout(nx, ny, ratio, diag):
    m = build_structured_mesh(nx, ny, ratio, diag=diag)
    ses = m.subdomain_edges
    runs = m.interface_runs
    cross = cross_points(m)
    # sorted by pair; the runs of one pair follow each other along the line
    assert [se.pair for se in ses] == sorted(se.pair for se in ses)
    for prev, se in zip(ses, ses[1:]):
        if prev.pair == se.pair:
            assert se.t_range[0] >= prev.t_range[1] - 1e-12
    for r, se in enumerate(ses):
        # the arrays and the SubdomainEdge views agree
        assert runs.edges[runs.offsets[r]:runs.offsets[r + 1]].tolist() == \
            se.edges.tolist()
        assert tuple(runs.pair[r]) == se.pair
        v = m.vertices[m.edges[se.edges]]              # (n, 2 ends, 2)
        t = v @ se.tangent
        # ordered along the tangent, contiguous, spanning t_range
        assert np.all(np.diff(t.mean(axis=1)) > 0)
        assert np.allclose(t.min(axis=1)[1:], t.max(axis=1)[:-1], atol=1e-12)
        assert t.min() == se.t_range[0] and t.max() == se.t_range[1]
        # no cross point inside a run; each end is a cross point or lies on
        # the domain boundary
        ends = m.edges[se.edges]
        inner = set(ends[1:].ravel().tolist()) & set(ends[:-1].ravel().tolist())
        assert not inner & cross
        first = set(ends[0].tolist()) - inner
        last = set(ends[-1].tolist()) - inner
        for v_end in first | last:
            on_boundary = np.isclose(np.abs(m.vertices[v_end]), 1.0).any()
            assert v_end in cross or on_boundary
    assert runs.offsets[-1] == np.count_nonzero(m.edge_class == INTERFACE)
