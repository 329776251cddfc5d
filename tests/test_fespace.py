from math import factorial

import numpy as np
import pytest

from hdglab.fespace import (EdgeBasis, TriBasis, UnsupportedError,
                            build_trace_dof_map, edge_points,
                            project_boundary, quadrature_rule)
from hdglab.mesh import BOUNDARY, INTERIOR, build_structured_mesh

from test_mesh import LAYOUT_GRIDS, run_edges


def test_edge_rule_exactness5():
    r = quadrature_rule("edge", 5)
    assert len(r.points) == 3
    assert abs(np.sum(r.weights * r.points ** 5) - 0.0) < 1e-14
    assert abs(np.sum(r.weights * r.points ** 4) - 2.0 / 5.0) < 1e-14


def test_triangle_rule_exactness0_is_centroid():
    r = quadrature_rule("triangle", 0)
    assert r.points.shape == (1, 2)
    assert np.allclose(r.points[0], [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
    assert abs(r.weights.sum() - 0.5) < 1e-15


def test_triangle_rule_unit_integral():
    for ex in (0, 2, 5, 8):
        r = quadrature_rule("triangle", ex)
        assert abs(r.weights.sum() - 0.5) < 1e-14


@pytest.mark.parametrize("ex", [1, 3, 6, 9])
def test_triangle_monomial_exactness(ex):
    r = quadrature_rule("triangle", ex)
    x, y = r.points[:, 0], r.points[:, 1]
    for a in range(ex + 1):
        for b in range(ex + 1 - a):
            # exact integral over the reference triangle: a! b! / (a+b+2)!
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = np.sum(r.weights * x ** a * y ** b)
            assert abs(got - exact) < 1e-14 * max(1.0, abs(exact))


def test_quadrature_errors():
    with pytest.raises(UnsupportedError):
        quadrature_rule("edge", 1000)


@pytest.mark.parametrize("kind", ["edge", "triangle"])
def test_rules_are_shared_read_only(kind):
    r = quadrature_rule(kind, 6)
    assert quadrature_rule(kind, 6) is r
    for a in (r.points, r.weights):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_edge_basis_orthogonality():
    eb = EdgeBasis(2)
    r = quadrature_rule("edge", 8)
    P = eb.eval(r.points)
    G = (P * r.weights) @ P.T
    assert np.allclose(G, np.diag(2.0 / (2.0 * np.arange(3) + 1.0)),
                       atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_tri_basis_orthonormal_and_conditioning(k):
    tb = TriBasis(k)
    assert tb.dim == (k + 1) * (k + 2) // 2
    r = quadrature_rule("triangle", 2 * k + 2)
    V = tb.eval(r.points)
    G = (V * r.weights) @ V.T
    assert np.allclose(G, np.eye(tb.dim), atol=1e-13)


def test_tri_basis_gradients():
    tb = TriBasis(2)
    pts = np.array([[0.2, 0.3], [0.1, 0.05]])
    eps = 1e-6
    g = tb.grad(pts)
    for d, dx in ((0, [eps, 0.0]), (1, [0.0, eps])):
        vp = tb.eval(pts + dx)
        vm = tb.eval(pts - dx)
        assert np.allclose((vp - vm) / (2 * eps), g[:, :, d], atol=1e-8)


def test_dof_counts_2x2_ratio2():
    m = build_structured_mesh(2, 2, 2)
    dofs = build_trace_dof_map(m, 0)
    assert dofs.n_dofs == 40
    assert dofs.n_interface == 8
    assert all(len(ids) == 8 for ids in dofs.interior_by_sub)
    dofs2 = build_trace_dof_map(m, 2)
    assert dofs2.n_dofs == 120


def test_dof_single_subdomain_all_interior():
    m = build_structured_mesh(1, 1, 2)
    dofs = build_trace_dof_map(m, 1)
    assert dofs.n_interface == 0
    assert dofs.n_dofs == dofs.n_interior
    free = np.count_nonzero(m.edge_class != BOUNDARY)
    assert dofs.n_dofs == 2 * free


def test_interface_blocks_tile():
    m = build_structured_mesh(3, 2, 2)
    dofs = build_trace_dof_map(m, 1)
    cover = []
    for (a, b), n in zip(dofs.se_blocks, np.diff(m.interface_runs.offsets)):
        assert b - a == n * 2
        cover.extend(range(a, b))
    assert sorted(cover) == list(range(dofs.n_interior, dofs.n_dofs))
    # boundary edges carry no DOFs
    assert np.all(dofs.edge_dofs[m.edge_class == BOUNDARY] == -1)
    assert np.all(dofs.edge_dofs[m.edge_class != BOUNDARY] >= 0)


def test_projection_constant():
    m = build_structured_mesh(2, 2, 2)
    e = np.where(m.edge_class == BOUNDARY)[0][0]
    for k in (0, 1, 2):
        c = project_boundary(m, lambda x, y: np.ones_like(x), k)[e]
        ref = np.zeros(k + 1)
        ref[0] = 1.0
        assert np.allclose(c, ref, atol=1e-14)


def test_projection_linear_on_right_edge():
    # Test I datum (1+y)/2 on x=1 reproduced exactly for k>=1
    m = build_structured_mesh(2, 2, 2)
    right = [e for e in np.where(m.edge_class == BOUNDARY)[0]
             if abs(m.vertices[m.edges[e, 0], 0] - 1) < 1e-14
             and abs(m.vertices[m.edges[e, 1], 0] - 1) < 1e-14]
    g = lambda x, y: 0.5 * (1.0 + y)
    for e in right:
        for k in (1, 2):
            c = project_boundary(m, g, k)[e]
            t = np.linspace(-1, 1, 7)
            X = edge_points(m, e, t)
            vals = EdgeBasis(k).eval(t).T @ c
            assert np.allclose(vals, g(X[:, 0], X[:, 1]), atol=1e-13)


def test_projection_odd_function_k0():
    m = build_structured_mesh(2, 2, 2)
    e = np.where(m.edge_class == BOUNDARY)[0][0]
    va, vb, ln, mid = (m.vertices[m.edges[e, 0]], m.vertices[m.edges[e, 1]],
                       None, 0.5 * (m.vertices[m.edges[e, 0]] + m.vertices[m.edges[e, 1]]))
    tau = (vb - va) / np.hypot(*(vb - va))
    g = lambda x, y: (x - mid[0]) * tau[0] + (y - mid[1]) * tau[1]  # centered arclength
    c = project_boundary(m, g, 0)[e]
    assert abs(c[0]) < 1e-14


def test_projection_idempotent():
    m = build_structured_mesh(2, 2, 2)
    rng = np.random.default_rng(7)
    for k in (0, 1, 2):
        eb = EdgeBasis(k)
        for e in np.where(m.edge_class == BOUNDARY)[0][:3]:
            coef = rng.standard_normal(k + 1)
            va, vb = m.vertices[m.edges[e, 0]], m.vertices[m.edges[e, 1]]
            mid, half = 0.5 * (va + vb), 0.5 * (vb - va)
            ln2 = half @ half

            def gp(x, y):
                t = ((x - mid[0]) * half[0] + (y - mid[1]) * half[1]) / ln2
                return eb.eval(t).T @ coef

            c = project_boundary(m, gp, k)[e]
            assert np.allclose(c, coef, atol=1e-13)


@pytest.mark.parametrize("nx,ny,ratio,diag", LAYOUT_GRIDS)
@pytest.mark.parametrize("k", [0, 2])
def test_edge_dofs_layout(nx, ny, ratio, diag, k):
    m = build_structured_mesh(nx, ny, ratio, diag=diag)
    dofs = build_trace_dof_map(m, k)
    nds = k + 1
    # interior DOFs ascend by (owning subdomain, edge index)
    inter = np.flatnonzero(m.edge_class == INTERIOR)
    own = m.tri_sub[m.edge_tris[inter, 0]]
    ordered = [e for _, e in sorted(zip(own.tolist(), inter.tolist()))]
    assert dofs.edge_dofs[ordered].ravel().tolist() == \
        list(range(dofs.n_interior))
    for s in range(m.n_subdomains):
        assert dofs.interior_by_sub[s].tolist() == \
            dofs.edge_dofs[inter[own == s]].ravel().tolist()
    assert dofs.owner[:dofs.n_interior].tolist() == \
        np.repeat(np.sort(own), nds).tolist()
    # the interface: one contiguous block per SubdomainEdge, in run order
    nxt = dofs.n_interior
    sub_se = [[] for _ in range(m.n_subdomains)]
    runs = m.interface_runs
    for i in range(len(runs)):
        edges = run_edges(runs, i)
        assert tuple(dofs.se_blocks[i]) == (nxt, nxt + edges.size * nds)
        assert dofs.edge_dofs[edges].ravel().tolist() == \
            list(range(nxt, nxt + edges.size * nds))
        nxt += edges.size * nds
        sub_se[runs.pair[i, 0]].append(i)
        sub_se[runs.pair[i, 1]].append(i)
    assert nxt == dofs.n_dofs
    assert np.all(dofs.owner[dofs.n_interior:] == -1)
    for s in range(m.n_subdomains):
        gids = [g for i in sub_se[s] for g in range(*dofs.se_blocks[i])]
        assert dofs.sub_interface_gids[s].tolist() == gids
        assert dofs.sub_interface_pos[s].tolist() == \
            [g - dofs.n_interior for g in gids]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_boundary_projection_matches_edge_loop(k):
    # reference: the projection edge by edge, through edge_points
    m = build_structured_mesh(3, 2, 3, diag="nw")
    g = lambda x, y: np.sin(3.0 * x + 1.0) * np.exp(y)
    gcoef = project_boundary(m, g, k)
    rule = quadrature_rule("edge", 2 * k + 4)
    P = EdgeBasis(k).eval(rule.points)
    bnd = m.edge_class == BOUNDARY
    for e in np.flatnonzero(bnd):
        X = edge_points(m, e, rule.points)
        ref = (P * rule.weights) @ g(X[:, 0], X[:, 1]) * \
            (2.0 * np.arange(k + 1) + 1.0) / 2.0
        assert np.allclose(gcoef[e], ref, rtol=0.0, atol=1e-14)
    assert np.all(gcoef[~bnd] == 0.0)
