import numpy as np

from hdglab.diagnostics import (b_gamma_inner, edge_coefficients,
                                envelope_holds, field_of_values,
                                gamma_from_taus, gamma_stat, jump_seminorm,
                                norm_h, norm_report, residual_envelope)
from hdglab.fespace import EdgeBasis, quadrature_rule
from hdglab.hdg import ProblemSpec
from hdglab.krylov import gmres
from hdglab.mesh import build_structured_mesh

from test_assembly import make_spec, zero
from test_krylov import interface_problem


def const_coef(mesh, k, c=1.0):
    coef = np.zeros((mesh.n_edges, k + 1))
    coef[:, 0] = c
    return coef


def quadrature_norm_h(coef, mesh, k):
    rule = quadrature_rule("edge", 2 * k + 4)
    P = EdgeBasis(k).eval(rule.points)
    lens = mesh.edge_lengths()
    esq = np.array([(rule.weights * (coef[e] @ P) ** 2).sum() * lens[e] / 2.0
                    for e in range(mesh.n_edges)])
    tot = 0.0
    areas = np.abs(mesh.tri_area())
    for kidx in range(mesh.n_triangles):
        es = mesh.tri_edges[kidx]
        tot += esq[es].sum() * areas[kidx] / lens[es].sum()
    return np.sqrt(tot)


def test_norm_h_constant():
    mesh = build_structured_mesh(2, 2, 3)
    assert np.isclose(norm_h(const_coef(mesh, 0), mesh), 2.0, atol=1e-13)
    assert np.isclose(norm_h(const_coef(mesh, 2), mesh), 2.0, atol=1e-13)
    assert norm_h(np.zeros((mesh.n_edges, 1)), mesh) == 0.0


def test_norm_h_matches_quadrature():
    mesh = build_structured_mesh(2, 3, 2)
    rng = np.random.default_rng(0)
    for k in (0, 1, 2):
        coef = rng.standard_normal((mesh.n_edges, k + 1))
        ref = quadrature_norm_h(coef, mesh, k)
        assert np.isclose(norm_h(coef, mesh), ref, rtol=1e-13)


def test_jump_seminorm():
    mesh = build_structured_mesh(2, 2, 2)
    assert jump_seminorm(const_coef(mesh, 1, 3.7), mesh) < 1e-13
    rng = np.random.default_rng(1)
    coef = rng.standard_normal((mesh.n_edges, 2))
    j1 = jump_seminorm(coef, mesh)
    assert j1 > 0
    assert np.isclose(jump_seminorm(-2.5 * coef, mesh), 2.5 * j1, rtol=1e-13)


def test_norm_triangle_inequalities():
    mesh = build_structured_mesh(2, 2, 3)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.standard_normal((mesh.n_edges, 2))
        b = rng.standard_normal((mesh.n_edges, 2))
        assert norm_h(a + b, mesh) <= norm_h(a, mesh) + norm_h(b, mesh) + 1e-12
        assert jump_seminorm(a + b, mesh) <= \
            jump_seminorm(a, mesh) + jump_seminorm(b, mesh) + 1e-12
        c = rng.standard_normal()
        assert np.isclose(norm_h(c * a, mesh), abs(c) * norm_h(a, mesh),
                          rtol=1e-12)


def test_b_gamma_inner():
    mesh, dofs, spec, sys, subs, pre = interface_problem(
        "rotating", 1e-6, "bddc1", ns=2, ratio=3, k=0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        lamG = rng.standard_normal(subs.n)
        bval, zval = b_gamma_inner(lamG, lamG, subs, sys)
        assert bval > 0.0
        assert abs(zval) < 1e-12 * bval
        # Schur quadratic form equals the B_Gamma form (assembled identity)
        squad = lamG @ subs.apply(lamG)
        assert np.isclose(squad, bval, rtol=1e-11, atol=1e-13 * abs(bval))


def test_extension_is_discrete_harmonic():
    mesh, dofs, spec, sys, subs, pre = interface_problem(
        "thermal", 1e-2, "bddc1", ns=2, ratio=2, k=1)
    rng = np.random.default_rng(4)
    lamG = rng.standard_normal(subs.n)
    lamA = subs.extend(lamG)
    resid = sys.A @ lamA
    assert np.abs(resid[:dofs.n_interior]).max() < \
        1e-12 * np.abs(lamA).max() * np.abs(sys.A).max()


def test_gamma_values():
    mesh = build_structured_mesh(2, 2, 4)          # h = 1/4
    assert gamma_from_taus(np.zeros((mesh.n_triangles, 3)),
                           np.full(mesh.n_triangles, 0.25)) == 1.0
    spec = ProblemSpec(1.0, lambda x, y: (np.ones_like(x), np.zeros_like(x)),
                       zero, zero, zero)
    assert np.isclose(gamma_stat(mesh, spec, 0), 1.25, atol=1e-14)


def test_gamma_matches_recomputation():
    from hdglab.hdg import ElementBlocks, eval_tau
    mesh = build_structured_mesh(4, 4, 6)
    spec = make_spec("thermal", 1.0)
    got = gamma_stat(mesh, spec, 0)
    blocks = ElementBlocks(mesh, spec, 0)
    ref = max(1.0 + eval_tau(mesh, kidx, e, spec) * blocks.hK[kidx]
              for kidx in range(mesh.n_triangles) for e in range(3))
    assert np.isclose(got, ref, rtol=1e-14)


def test_field_of_values_all_primal():
    mesh, dofs, spec, sys, subs, pre = interface_problem(
        "thermal", 1.0, "all-primal", ns=2, ratio=2, k=0)
    T = lambda v: pre.apply(subs.apply(v))
    inner = lambda v, w: b_gamma_inner(v, w, subs, sys)[0]
    rng = np.random.default_rng(5)
    samples = list(rng.standard_normal((10, subs.n)))
    c_est, C_est = field_of_values(T, inner, samples)
    assert abs(c_est - 1.0) < 1e-9
    assert abs(C_est - 1.0) < 1e-9


def test_field_of_values_positive_thermal():
    mesh, dofs, spec, sys, subs, pre = interface_problem(
        "thermal", 1.0, "bddc3", ns=2, ratio=4, k=0)
    T = lambda v: pre.apply(subs.apply(v))
    inner = lambda v, w: b_gamma_inner(v, w, subs, sys)[0]
    rng = np.random.default_rng(6)
    samples = list(rng.standard_normal((30, subs.n)))
    c_est, C_est = field_of_values(T, inner, samples)
    assert c_est > 0.0
    assert C_est >= c_est ** 2 / C_est            # sanity: envelope base < 1


def test_residual_envelope():
    env = residual_envelope(0.5, 1.0, 4)
    assert env[0] == 1.0
    assert np.all(np.diff(env) < 0)
    assert np.allclose(env, 0.75 ** (0.5 * np.arange(5)))
    assert np.all(residual_envelope(-0.1, 1.0, 3) == 1.0)
    assert envelope_holds([1.0, 0.9], -0.1, 1.0) is None
    assert envelope_holds([1.0, 0.5, 0.1], 0.99, 1.0) in (True, False)
    assert envelope_holds([1.0, 0.0], 0.5, 1.0) is True


def test_norm_report_integration():
    mesh, dofs, spec, sys, subs, pre = interface_problem(
        "thermal", 1e-2, "bddc2", ns=2, ratio=3, k=0)
    lamG, rep = gmres(subs.apply, pre.apply, subs.b_gamma)
    lam = subs.back_substitute(lamG)
    nr = norm_report(sys, subs, lam, lamG, pre=pre, n_samples=6)
    assert nr.norm_h > 0 and nr.jump >= 0 and nr.norm_b > 0
    assert nr.gamma >= 1.0
    assert nr.fov_max > 0
    assert "NormReport" in repr(nr)
    # the solved trace of the boundary-layer problem stays within the data
    coef = edge_coefficients(sys, lam)
    assert coef.min() > -0.1 and coef.max() < 1.6
