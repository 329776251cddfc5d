"""Hypothesis property tests on random small configurations.

Grids of 1-3 x 1-3 subdomains, H/h 1-4, degree 0-2, eps from 1 down to
1e-6, rotating and thermal flow.  Properties that need an interface draw
grids of at least two subdomains; the dense saddle oracle caps H/h so that
its matrix stays small.  Examples are derandomized, so every run checks the
same fixed set.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hdglab.assembly import (assemble_trace_system, direct_solve,
                             full_saddle_solve, recover_all)
from hdglab.bddc import BddcPreconditioner, PrimalConstraintSet
from hdglab.bench import make_problem
from hdglab.dd import build_subdomains
from hdglab.fespace import build_trace_dof_map
from hdglab.hdg import ElementBlocks, ProblemSpec, StabilizationError
from hdglab.krylov import gmres
from hdglab.mesh import build_structured_mesh

from test_dd import assert_equals_dense_elimination

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True,
                    database=None)

# element unknowns (2 * nel * 3 * dim P_k) of the dense saddle oracle
SADDLE_CAP = 1200

flows = st.sampled_from(("rotating", "thermal"))
epsilons = st.floats(min_value=-6.0, max_value=0.0).map(lambda p: 10.0 ** p)
degrees = st.integers(0, 2)


@st.composite
def grids(draw, min_subdomains=1):
    """(nx, ny) with 1 <= nx, ny <= 3 and nx * ny >= min_subdomains."""
    nx = draw(st.integers(1, 3))
    ny = draw(st.integers(1 if nx >= min_subdomains else 2, 3))
    return nx, ny


@st.composite
def saddle_cases(draw):
    """(grid, H/h, k) whose saddle system has at most SADDLE_CAP element
    unknowns."""
    nx, ny = draw(grids())
    k = draw(degrees)
    nloc = 2 * 3 * (k + 1) * (k + 2) // 2
    rmax = max(r for r in range(1, 5) if nx * ny * r * r * nloc <= SADDLE_CAP)
    return (nx, ny), draw(st.integers(1, rmax)), k


def _build(problem, eps, grid, ratio, k):
    mesh = build_structured_mesh(grid[0], grid[1], ratio)
    dofs = build_trace_dof_map(mesh, k)
    spec = make_problem(problem, eps, h=mesh.h)
    sys_ = assemble_trace_system(mesh, dofs, spec, k)
    return mesh, dofs, spec, sys_


def _build_dd(problem, eps, grid, ratio, k):
    mesh, dofs, spec, sys_ = _build(problem, eps, grid, ratio, k)
    return mesh, dofs, spec, sys_, build_subdomains(mesh, dofs, spec, k,
                                                    sys=sys_)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0)


@PROPERTY
@given(flows, epsilons, saddle_cases())
def test_condensed_equals_saddle(problem, eps, case):
    grid, ratio, k = case
    mesh, dofs, spec, sys_ = _build(problem, eps, grid, ratio, k)
    lam = direct_solve(sys_)
    q, u = recover_all(sys_, lam)
    lam_ref, q_ref, u_ref = full_saddle_solve(mesh, dofs, spec, k)
    assert _rel(lam, lam_ref) < 1e-10
    assert _rel(u, u_ref) < 1e-10
    assert _rel(q, q_ref) < 1e-10


@PROPERTY
@given(flows, epsilons, grids(min_subdomains=2), st.integers(1, 4), degrees)
def test_robin_sum_equals_global_operator(problem, eps, grid, ratio, k):
    _, dofs, _, sys_, subs = _build_dd(problem, eps, grid, ratio, k)
    total = sp.csr_matrix(sys_.A.shape)
    for sub in subs:
        gids = np.concatenate([sub.interior_gids, sub.interface_gids])
        R = sp.csr_matrix((np.ones(gids.size), (np.arange(gids.size), gids)),
                          shape=(gids.size, dofs.n_dofs))
        total = total + R.T @ sp.csr_matrix(sub.A) @ R
    assert abs(total - sys_.A).max() <= 1e-12 * abs(sys_.A).max()


@PROPERTY
@given(flows, epsilons, grids(min_subdomains=2), st.integers(1, 4), degrees)
def test_torn_layer_equals_dense_elimination(problem, eps, grid, ratio, k):
    # per subdomain, eliminate the interiors of the dense local Robin matrix
    _, dofs, _, sys_, subs = _build_dd(problem, eps, grid, ratio, k)
    assert_equals_dense_elimination(sys_, dofs, subs)


@PROPERTY
@given(flows, epsilons, grids(min_subdomains=2), st.integers(1, 4), degrees,
       st.sampled_from(("bddc1", "bddc2", "bddc3")))
def test_average_operator_is_a_projection(problem, eps, grid, ratio, k,
                                          variant):
    mesh, _, spec, _, subs = _build_dd(problem, eps, grid, ratio, k)
    pre = BddcPreconditioner(subs, PrimalConstraintSet(variant, spec, mesh, k))
    t = np.random.default_rng(0).standard_normal(pre.n_tilde)
    e1 = pre.apply_average(t)
    assert np.abs(pre.apply_average(e1) - e1).max() \
        < 1e-13 * np.abs(t).max()


@PROPERTY
@given(flows, epsilons, grids(min_subdomains=2), st.integers(1, 4), degrees)
def test_all_primal_converges_in_one_step(problem, eps, grid, ratio, k):
    mesh, _, spec, _, subs = _build_dd(problem, eps, grid, ratio, k)
    pre = BddcPreconditioner(
        subs, PrimalConstraintSet("all-primal", spec, mesh, k))
    _, rep = gmres(subs.apply, pre.apply, subs.b_gamma)
    assert rep.converged and rep.iterations == 1


def _zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


@PROPERTY
@given(epsilons, grids(), st.integers(1, 4), degrees)
def test_pure_upwind_without_flow_raises(eps, grid, ratio, k):
    # beta = 0 makes the upwind tau vanish on every edge: Assumption 2.1 fails
    spec = ProblemSpec(eps, lambda x, y: (_zero(x, y), _zero(x, y)), _zero,
                       _zero, _zero, tau_strategy="upwind")
    mesh = build_structured_mesh(grid[0], grid[1], ratio)
    try:
        ElementBlocks(mesh, spec, k)
    except StabilizationError:
        return
    raise AssertionError("no StabilizationError for beta = 0, pure upwind")
