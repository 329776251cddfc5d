import numpy as np
import pytest
import scipy.sparse as sp

from hdglab.assembly import (assemble_trace_system, direct_solve,
                             eval_forms, full_saddle_solve, l2_error_u,
                             recover_all)
from hdglab.bench import build_case
from hdglab.fespace import build_trace_dof_map
from hdglab.hdg import ProblemSpec
from hdglab.mesh import build_structured_mesh


def zero(x, y):
    return np.zeros_like(x)


def one(x, y):
    return np.ones_like(x)


def beta_zero(x, y):
    return np.zeros_like(x), np.zeros_like(x)


def beta_thermal(x, y):
    return 0.5 * (1.0 + y), np.zeros_like(x)


def beta_rotating(x, y):
    return np.asarray(y, dtype=float), -np.asarray(x, dtype=float)


def g_thermal(x, y):
    out = np.where(np.isclose(x, 1.0), 0.5 * (1.0 + y), 0.0)
    out = np.where(np.isclose(y, -1.0), 0.0, out)
    out = np.where(np.isclose(y, 1.0), 1.0, out)
    out = np.where(np.isclose(x, -1.0), 1.0, out)
    return out


def g_rotating(x, y):
    hot = np.isclose(x, 1.0) | ((np.abs(np.abs(y) - 1.0) < 1e-12) & (x > 0))
    return np.where(hot, 1.0, 0.0)


def make_spec(problem, eps, g=None, f=None):
    if problem == "poisson":
        return ProblemSpec(eps, beta_zero, zero, f or zero, g or zero,
                           tau_strategy="upwind_plus_diffusive")
    if problem == "thermal":
        return ProblemSpec(eps, beta_thermal, zero, f or zero,
                           g or g_thermal)
    if problem == "rotating":
        return ProblemSpec(eps, beta_rotating, zero, f or zero,
                           g or g_rotating)
    raise ValueError(problem)


def build(problem, eps, nx=2, ny=2, ratio=2, k=0, **kw):
    mesh = build_structured_mesh(nx, ny, ratio)
    dofs = build_trace_dof_map(mesh, k)
    spec = make_spec(problem, eps, **kw)
    sys = assemble_trace_system(mesh, dofs, spec, k)
    return mesh, dofs, spec, sys


def test_zero_data_gives_zero():
    _, _, _, sys = build("thermal", 1.0, g=zero)
    assert np.allclose(sys.b, 0.0)
    assert np.allclose(direct_solve(sys), 0.0)


def test_dof_count_2x2_ratio2_k0():
    _, _, _, sys = build("thermal", 1.0)
    assert sys.A.shape == (40, 40)


def eager_coo(sys):
    """The matrix as it was assembled eagerly: every element block entry
    between free DOFs as one COO triplet, duplicates summed by tocsr."""
    nel, m = sys.elem_dofs.shape
    rows = np.broadcast_to(sys.elem_dofs[:, :, None], (nel, m, m))
    cols = np.broadcast_to(sys.elem_dofs[:, None, :], (nel, m, m))
    mask = (rows >= 0) & (cols >= 0)
    A = sp.coo_matrix((sys.blocks.S_hat[mask], (rows[mask], cols[mask])),
                      shape=(sys.n, sys.n)).tocsr()
    A.sort_indices()
    return A


@pytest.mark.parametrize("k", [0, 1, 2])
def test_matrix_built_on_first_access_matches_eager_assembly(k):
    sys = build_case("rotating", 1e-3, k, (3, 2), 3)[3]
    assert "A" not in vars(sys)
    A, ref = sys.A, eager_coo(sys)
    assert sys.A is A and A.indices.dtype == np.int32
    assert A.has_sorted_indices
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)


@pytest.mark.parametrize("k", [0, 2])
def test_load_condensed_in_element_pass(k):
    f = lambda x, y: np.cos(2.0 * x) + x * y
    mesh, dofs, _, sys = build("rotating", 1e-2, nx=2, ny=3, ratio=2, k=k,
                               f=f)
    blocks = sys.blocks
    bvals = np.einsum("nmd,nd->nm", blocks.local.N, blocks.load_vectors()) \
        - np.einsum("nij,nj->ni", blocks.S_hat, sys.gloc)
    free = sys.elem_dofs >= 0
    ref = np.zeros(sys.n)
    np.add.at(ref, sys.elem_dofs[free], bvals[free])
    assert np.linalg.norm(ref) > 0.1
    assert np.linalg.norm(sys.b - ref) <= 1e-13 * np.linalg.norm(ref)


def test_scatter_matches_dense_oracle_two_elements():
    mesh = build_structured_mesh(1, 1, 1)
    dofs = build_trace_dof_map(mesh, 0)
    spec = make_spec("poisson", 1.0)
    sys = assemble_trace_system(mesh, dofs, spec, 0)
    blocks = sys.blocks
    dense = np.zeros((dofs.n_dofs, dofs.n_dofs))
    for kidx in range(mesh.n_triangles):
        gdof = sys.elem_dofs[kidx]
        for i in range(3):
            for j in range(3):
                if gdof[i] >= 0 and gdof[j] >= 0:
                    dense[gdof[i], gdof[j]] += blocks.S_hat[kidx, i, j]
    assert np.allclose(sys.A.toarray(), dense, atol=1e-13)
    assert np.allclose(sys.A.toarray().sum(axis=0), dense.sum(axis=0))


def test_apply_operator():
    _, _, _, sys = build("rotating", 1e-2, k=1)
    assert np.allclose(sys.A @ np.zeros(sys.n), 0.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        lam = rng.standard_normal(sys.n)
        # skew part annihilated in the quadratic form
        assert abs(lam @ (sys.A @ lam) - lam @ (sys.B @ lam)) \
            < 1e-12 * max(abs(lam @ (sys.B @ lam)), 1.0)


def test_eval_forms_split_and_positivity():
    _, _, _, sys = build("rotating", 1e-4, k=0, ratio=3)
    rng = np.random.default_rng(1)
    nrmZ = spnorm = abs(sys.Z).sum()
    for _ in range(100):
        lam = rng.standard_normal(sys.n)
        a, b, z = eval_forms(sys, lam, lam)
        assert a == b + z
        assert abs(z) <= 1e-13 * max(nrmZ * (lam @ lam), 1.0)
        assert b > 0.0
    mu = rng.standard_normal(sys.n)
    lam = rng.standard_normal(sys.n)
    a, b, z = eval_forms(sys, lam, mu)
    assert np.isclose(a, mu @ (sys.A @ lam))
    assert np.isclose(b, mu @ (sys.B @ lam))
    assert np.isclose(z, mu @ (sys.Z @ lam))


def test_a_form_equals_elementwise_flux_sum():
    # a_h(lam, mu) recomputed element by element through the local lifts
    mesh, dofs, spec, sys = build("thermal", 1e-1, k=1, g=zero)
    blocks = sys.blocks
    rng = np.random.default_rng(4)
    lam = rng.standard_normal(sys.n)
    mu = rng.standard_normal(sys.n)
    lamK = sys.local_traces(lam)
    muK = sys.local_traces(mu)
    q, u = blocks.recover(lamK)
    total = 0.0
    for kidx in range(mesh.n_triangles):
        C = blocks.type_geo[mesh.tri_type[kidx]]["C"]
        # mu^T S_K lam = -<Q.n + tau(U-lam) + bn lam, mu>_dK (flux form);
        # S_K lam computed from the lift instead of the stored S_hat
        flux = -(C @ q[kidx]) - blocks.local.S2[kidx] @ u[kidx] \
            - blocks.local.T[kidx] @ lamK[kidx]
        total += muK[kidx] @ flux
    a, _, _ = eval_forms(sys, lam, mu)
    assert abs(a - total) < 1e-10 * max(abs(a), 1.0)


@pytest.mark.parametrize("problem,g", [("poisson", None), ("thermal", None)])
def test_constant_reproduction(problem, g):
    _, _, _, sys = build(problem, 1.0, g=one, ratio=3)
    lam = direct_solve(sys)
    assert np.allclose(lam, 1.0, atol=1e-11)


def test_direct_solve_residual_and_range():
    mesh, dofs, spec, sys = build("thermal", 1.0, ratio=4)
    lam = direct_solve(sys)
    res = np.linalg.norm(sys.A @ lam - sys.b) / np.linalg.norm(sys.b)
    assert res < 1e-12
    assert lam.min() > -1e-8 and lam.max() < 1.0 + 1e-8


@pytest.mark.parametrize("problem", ["thermal", "rotating"])
@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_condensed_equals_full_saddle(problem, eps, k):
    mesh, dofs, spec, sys = build(problem, eps, k=k)
    lam = direct_solve(sys)
    lam_full, q_full, u_full = full_saddle_solve(mesh, dofs, spec, k)
    scale = max(np.linalg.norm(lam_full), 1.0)
    assert np.linalg.norm(lam - lam_full) < 1e-10 * scale
    q, u = recover_all(sys, lam)
    assert np.linalg.norm(q - q_full) < 1e-9 * max(np.linalg.norm(q_full), 1.0)
    assert np.linalg.norm(u - u_full) < 1e-9 * max(np.linalg.norm(u_full), 1.0)


def test_condensed_equals_full_saddle_8x8():
    mesh = build_structured_mesh(2, 2, 4)
    dofs = build_trace_dof_map(mesh, 1)
    spec = make_spec("rotating", 1e-3)
    sys = assemble_trace_system(mesh, dofs, spec, 1)
    lam = direct_solve(sys)
    lam_full, _, _ = full_saddle_solve(mesh, dofs, spec, 1)
    assert np.linalg.norm(lam - lam_full) < 1e-10 * max(np.linalg.norm(lam_full), 1.0)


def u_exact(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def manufactured_spec(eps, advect, h):
    def f(x, y):
        val = 2.0 * eps * np.pi ** 2 * u_exact(x, y)
        if advect:
            bx, by = beta_thermal(x, y)
            val = val + bx * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) \
                + by * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        return val

    if advect:
        return ProblemSpec(eps, beta_thermal, zero, f, zero,
                           tau_strategy="upwind")
    # beta = 0: the upwind stabilizer vanishes identically, so use the
    # diffusive fallback scaled to tau = 1 (tau ~ 1/h is not convergent at k=0)
    return ProblemSpec(eps, beta_zero, zero, f, zero,
                       tau_strategy="upwind_plus_diffusive", sigma=h / eps)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("eps,advect", [(1.0, False), (1e-2, True)])
def test_manufactured_convergence(k, eps, advect):
    errs, hs = [], []
    for r in (4, 8, 16, 32):
        mesh = build_structured_mesh(1, 1, r)
        dofs = build_trace_dof_map(mesh, k)
        spec = manufactured_spec(eps, advect, mesh.h)
        sys = assemble_trace_system(mesh, dofs, spec, k)
        lam = direct_solve(sys)
        _, u = recover_all(sys, lam)
        errs.append(l2_error_u(sys, u, u_exact))
        hs.append(mesh.h)
    errs, hs = np.array(errs), np.array(hs)
    assert np.all(np.diff(errs) < 0)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - (k + 1)) < 0.2
