import numpy as np
import pytest

from hdglab.assembly import assemble_trace_system, direct_solve
from hdglab.dd import (InterfaceOperator, SubdomainError,
                       build_interface_operator, build_subdomains)
from hdglab.fespace import build_trace_dof_map
from hdglab.hdg import ProblemSpec
from hdglab.mesh import build_structured_mesh

from test_assembly import g_rotating, g_thermal, make_spec, zero


def setup(problem, eps, nx=2, ny=2, ratio=2, k=0, **kw):
    mesh = build_structured_mesh(nx, ny, ratio)
    dofs = build_trace_dof_map(mesh, k)
    spec = make_spec(problem, eps, **kw)
    sys = assemble_trace_system(mesh, dofs, spec, k)
    subs = build_subdomains(mesh, dofs, spec, k, sys=sys)
    iface = build_interface_operator(subs, dofs)
    return mesh, dofs, spec, sys, subs, iface


def test_beta_zero_symmetric_no_robin():
    _, _, _, _, subs, _ = setup("poisson", 1.0)
    for sub in subs:
        assert np.allclose(sub.A, sub.A.T, atol=1e-13)


def test_subdomain_sum_equals_global():
    # sum_i R^T A^(i) R = A: Robin terms cancel pairwise
    _, dofs, _, sys, subs, _ = setup("rotating", 1e-3, ratio=3, k=1)
    rng = np.random.default_rng(0)
    nrm = abs(sys.A).max()
    for _ in range(5):
        x = rng.standard_normal(dofs.n_dofs)
        y = np.zeros(dofs.n_dofs)
        for sub in subs:
            gids = np.concatenate([sub.interior_gids, sub.interface_gids])
            y[gids] += sub.A @ x[gids]
        ref = sys.A @ x
        assert np.linalg.norm(y - ref) < 1e-12 * nrm * np.linalg.norm(x)


def test_symmetric_part_positive():
    mesh, dofs, _, _, subs, _ = setup("rotating", 1e-6, nx=4, ny=4, ratio=4)
    touches_boundary = np.zeros(mesh.n_subdomains, dtype=bool)
    for e in np.where(mesh.edge_class == 0)[0]:
        touches_boundary[mesh.tri_sub[mesh.edge_tris[e, 0]]] = True
    for sub in subs:
        w = np.linalg.eigvalsh(0.5 * (sub.A + sub.A.T))
        scale = np.abs(sub.A).max()
        # floating subdomains carry the constant with exactly zero symmetric
        # energy (div-free beta); everything else is strictly positive
        assert w[0] > -1e-12 * scale
        assert w[1] > 0
        if touches_boundary[sub.sidx]:
            assert w[0] > 0


def test_extend_interior():
    # A_II^(i) lam_I + A_IG^(i) lam_G = 0 in every local Robin system
    _, dofs, _, _, subs, _ = setup("thermal", 1e-2, k=1)
    assert np.allclose(subs.extend(np.zeros(dofs.n_interface)), 0.0)
    rng = np.random.default_rng(1)
    lamG = rng.standard_normal(dofs.n_interface)
    full = subs.extend(lamG)
    for sub in subs:
        res = sub.A[:sub.nI] @ np.concatenate(
            [full[sub.interior_gids], lamG[sub.interface_pos]])
        assert np.linalg.norm(res) < 1e-11 * max(np.linalg.norm(lamG), 1.0)


def test_extend_constant_floating_pure_diffusion():
    # constants lie in the kernel of the condensed pure-diffusion operator
    _, dofs, _, _, subs, _ = setup("poisson", 1.0, nx=3, ny=3, ratio=2)
    sub = subs[4]  # interior subdomain of the 3x3 grid
    c = 2.25
    full = subs.extend(np.full(dofs.n_interface, c))
    assert np.allclose(full[sub.interior_gids], c, atol=1e-10)
    assert np.linalg.norm(sub.dense_schur() @ np.full(sub.nG, c)) < 1e-10


def test_dense_schur_matches_elimination():
    # S^(i) = A_GG - A_GI A_II^-1 A_IG, eliminated densely from A^(i)
    _, _, _, _, subs, _ = setup("rotating", 1e-2, k=2)
    rng = np.random.default_rng(2)
    for sub in subs:
        A, nI = sub.A, sub.nI
        S_ref = A[nI:, nI:] - A[nI:, :nI] @ np.linalg.solve(A[:nI, :nI],
                                                            A[:nI, nI:])
        assert np.allclose(sub.dense_schur(), S_ref,
                           atol=1e-11 * np.abs(S_ref).max())
        lamG = rng.standard_normal(sub.nG)
        assert np.allclose(sub.dense_schur() @ lamG, S_ref @ lamG,
                           atol=1e-11)


def test_schur_quadratic_form_identity():
    # lam^T S^(i) lam = lam_A^T A^(i) lam_A with lam_A the discrete extension
    _, dofs, _, _, subs, _ = setup("thermal", 1e-3, k=0, ratio=4)
    rng = np.random.default_rng(3)
    for sub in (subs[0], subs[1]):
        for _ in range(5):
            full = subs.extend(rng.standard_normal(dofs.n_interface))
            lamG = full[sub.interface_gids]
            lamA = np.concatenate([full[sub.interior_gids], lamG])
            lhs = lamG @ (sub.dense_schur() @ lamG)
            rhs = lamA @ (sub.A @ lamA)
            assert abs(lhs - rhs) < 1e-11 * max(abs(rhs), 1.0)


def test_interface_equals_global_schur():
    # the 3x2 grid at k=2 has corner subdomains with fewer interface DOFs
    # and unequal interface blocks per subdomain
    for nx, ny, k in ((2, 2, 1), (3, 2, 2)):
        _, dofs, _, sys, _, iface = setup("rotating", 1e-3, nx=nx, ny=ny,
                                          k=k)
        nI = dofs.n_interior
        Ad = sys.A.toarray()
        S_ref = Ad[nI:, nI:] - Ad[nI:, :nI] @ np.linalg.solve(Ad[:nI, :nI],
                                                              Ad[:nI, nI:])
        S = iface.as_dense()
        assert np.allclose(S, S_ref, atol=1e-11 * np.abs(S_ref).max())
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(iface.n)
            assert np.linalg.norm(iface.apply(x) - S_ref @ x) \
                < 1e-11 * np.linalg.norm(S_ref @ x)


def test_stacked_apply_equals_dense_schur():
    # the batched apply and the dense matrix scattered from the same stack
    for nx, ny, k in ((2, 2, 0), (3, 2, 2)):
        *_, iface = setup("rotating", 1e-3, nx=nx, ny=ny, k=k)
        S = iface.as_dense()
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.standard_normal(iface.n)
            assert np.linalg.norm(iface.apply(x) - S @ x) \
                <= 1e-13 * np.linalg.norm(S @ x)


def test_interface_rhs_zero_data():
    _, _, _, _, _, iface = setup("thermal", 1.0, g=zero)
    assert np.allclose(iface.b_gamma, 0.0)


def test_two_subdomain_ratio1_scalar_interface():
    mesh, dofs, _, sys, subs, iface = setup("thermal", 1.0, nx=2, ny=1,
                                            ratio=1)
    assert iface.n == 1
    nI = dofs.n_interior
    Ad = sys.A.toarray()
    S_ref = Ad[nI:, nI:] - Ad[nI:, :nI] @ np.linalg.solve(Ad[:nI, :nI],
                                                          Ad[:nI, nI:])
    assert np.allclose(iface.as_dense(), S_ref, atol=1e-12)
    # and the interface RHS matches the eliminated global RHS
    b_ref = sys.b[nI:] - Ad[nI:, :nI] @ np.linalg.solve(Ad[:nI, :nI],
                                                        sys.b[:nI])
    assert np.allclose(iface.b_gamma, b_ref, atol=1e-12)


@pytest.mark.parametrize("problem,eps,k,ratio", [
    ("thermal", 1.0, 0, 2),
    ("thermal", 1e-4, 1, 3),
    ("rotating", 1e-2, 2, 2),
    ("rotating", 1e-6, 0, 4),
])
def test_interface_solve_and_back_substitute(problem, eps, k, ratio):
    _, dofs, _, sys, _, iface = setup(problem, eps, nx=2, ny=2, ratio=ratio,
                                      k=k)
    lam_ref = direct_solve(sys)
    lamG = np.linalg.solve(iface.as_dense(), iface.b_gamma)
    lam = iface.back_substitute(lamG)
    assert np.linalg.norm(lam - lam_ref) \
        < 1e-9 * max(np.linalg.norm(lam_ref), 1.0)


def test_pure_diffusion_interface_spd():
    _, _, _, _, _, iface = setup("poisson", 1.0, nx=3, ny=3, ratio=2)
    S = iface.as_dense()
    assert np.allclose(S, S.T, atol=1e-12)
    assert np.linalg.eigvalsh(S)[0] > 0


def test_full_solve_robin():
    _, _, _, _, subs, _ = setup("rotating", 1e-3, k=0, ratio=3)
    sub = subs[1]
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(sub.nI + sub.nG)
    x = np.linalg.solve(sub.A, rhs)
    assert np.linalg.norm(sub.A @ x - rhs) < 1e-11 * np.linalg.norm(rhs)


@pytest.mark.parametrize("pivot", [0.0, 1e-20], ids=["zero", "tiny-pivot"])
def test_singular_interior_block_raises(pivot):
    # one interior edge of subdomain 5 is decoupled in both of its elements
    # and keeps only the diagonal ``pivot`` (0: the elimination breaks down,
    # 1e-20: the pivot check)
    mesh = build_structured_mesh(4, 4, 2)
    dofs = build_trace_dof_map(mesh, 0)
    spec = make_spec("rotating", 1e-3)
    sys = assemble_trace_system(mesh, dofs, spec, 0)
    els, slots = np.nonzero(sys.elem_dofs == dofs.interior_by_sub[5][1])
    S_hat = sys.blocks.S_hat
    S_hat[els, slots, :] = 0.0
    S_hat[els, :, slots] = 0.0
    S_hat[els[0], slots[0], slots[0]] = pivot
    with pytest.raises(SubdomainError,
                       match="interior block of subdomain 5 is singular"):
        build_subdomains(mesh, dofs, spec, 0, sys=sys)


def assert_equals_dense_elimination(sys, dofs, subs, iface):
    """The Schur stack, b_gamma and the back-substitution of ``subs`` against
    the dense local Robin matrices, eliminated subdomain by subdomain, to
    1e-10 relative."""
    rel = lambda a, b: np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0)
    n0 = dofs.n_interior
    lamG = np.random.default_rng(0).standard_normal(dofs.n_interface)
    b_ref = sys.b[n0:].copy()
    lam_ref = np.concatenate([np.zeros(n0), lamG])
    for sub in subs:
        A, nI = sub.A, sub.nI
        AII, AIG, AGI = A[:nI, :nI], A[:nI, nI:], A[nI:, :nI]
        bI = sys.b[sub.interior_gids]
        S_ref = A[nI:, nI:] - AGI @ np.linalg.solve(AII, AIG)
        assert rel(sub.dense_schur(), S_ref) < 1e-10
        b_ref[sub.interface_pos] -= AGI @ np.linalg.solve(AII, bI)
        lam_ref[sub.interior_gids] = np.linalg.solve(
            AII, bI - AIG @ lamG[sub.interface_pos])
    assert rel(iface.b_gamma, b_ref) < 1e-10
    assert rel(iface.back_substitute(lamG), lam_ref) < 1e-10


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("diag", ["ne", "nw"])
@pytest.mark.parametrize("ratio", [1, 2, 3, 5, 6])
def test_elimination_plans_equal_dense_elimination(ratio, diag, k):
    # uneven bisections (H/h 3, 5, 6), both diagonals, and on the 3x3 grid
    # corner, edge and inner subdomains, with Dirichlet edges on 0-2 sides
    mesh = build_structured_mesh(3, 3, ratio, diag=diag)
    dofs = build_trace_dof_map(mesh, k)
    spec = make_spec("rotating", 1e-4)
    sys = assemble_trace_system(mesh, dofs, spec, k)
    subs = build_subdomains(mesh, dofs, spec, k, sys=sys)
    assert_equals_dense_elimination(sys, dofs, subs,
                                    InterfaceOperator(subs, dofs))


def test_single_subdomain_has_no_interface():
    # one subdomain: an empty interface, and back-substitution is the solve
    mesh = build_structured_mesh(1, 1, 3)
    dofs = build_trace_dof_map(mesh, 1)
    spec = make_spec("rotating", 1e-3)
    sys = assemble_trace_system(mesh, dofs, spec, 1)
    subs = build_subdomains(mesh, dofs, spec, 1, sys=sys)
    iface = build_interface_operator(subs, dofs)
    assert iface.n == 0 and iface.b_gamma.shape == (0,)
    lam_ref = direct_solve(sys)
    assert np.linalg.norm(iface.back_substitute(np.zeros(0)) - lam_ref) \
        < 1e-12 * np.linalg.norm(lam_ref)
