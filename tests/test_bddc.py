import numpy as np
import pytest
import scipy.linalg as sla

from hdglab.assembly import assemble_trace_system
from hdglab.bddc import (BddcPreconditioner, PreconditionerError,
                         PrimalConstraintSet, _change_of_basis, _raw_rows,
                         build_constraints, build_preconditioner)
from hdglab.dd import build_subdomains
from hdglab.fespace import (EdgeBasis, build_trace_dof_map,
                            interface_quadrature, quadrature_rule)
from hdglab.hdg import ProblemSpec
from hdglab.mesh import InvalidConfigError, build_structured_mesh

from test_assembly import make_spec, zero
from test_mesh import LAYOUT_GRIDS, run_edges


def setup(problem, eps, variant, nx=2, ny=2, ratio=2, k=0, spec=None):
    mesh = build_structured_mesh(nx, ny, ratio)
    dofs = build_trace_dof_map(mesh, k)
    if spec is None:
        spec = make_spec(problem, eps)
    sys = assemble_trace_system(mesh, dofs, spec, k)
    subs = build_subdomains(mesh, dofs, spec, k, sys=sys)
    cons = PrimalConstraintSet(variant, spec, mesh, k)
    return mesh, dofs, spec, subs, cons, BddcPreconditioner(subs, cons)


def horizontal_ses(mesh):
    return np.flatnonzero(np.abs(mesh.interface_runs.tangent[:, 1]) < 1e-12)


def vertical_ses(mesh):
    return np.flatnonzero(np.abs(mesh.interface_runs.tangent[:, 1]) > 0.5)


def edge_loop_rows(mesh, spec, k, r, sign=1.0):
    """Reference: (c1, c2, c3) of SubdomainEdge r, mesh edge by mesh edge,
    with its normal times ``sign``."""
    runs = mesh.interface_runs
    edges, tangent = run_edges(runs, r), runs.tangent[r]
    normal, mid_t = sign * runs.normal[r], runs.midpoint_t[r]
    nds = k + 1
    rule = quadrature_rule("edge", 2 * k + 4)
    P = EdgeBasis(k).eval(rule.points)
    out = np.zeros((3, edges.size * nds))
    for j, e in enumerate(edges):
        va, vb = mesh.vertices[mesh.edges[e]]
        X = va[None, :] + 0.5 * np.outer(rule.points + 1.0, vb - va)
        bx, by = spec.beta_at(X[:, 0], X[:, 1])
        bn = bx * normal[0] + by * normal[1]
        s = X @ tangent - mid_t
        we = rule.weights * (np.hypot(*(vb - va)) / 2.0)
        out[:, j * nds:(j + 1) * nds] = [we @ P.T, (we * bn) @ P.T,
                                         (we * bn * s) @ P.T]
    return out


def primal_rows(cons, i):
    """The orthonormal primal rows (n_pi, m) of SubdomainEdge i: the first
    ``n_primal_by_se[i]`` rows of its block of ``cons.Q``."""
    block = np.flatnonzero(cons.se_of == i)
    return cons.Q[block[:cons.n_primal_by_se[i]], :block.size]


def batched_rows(mesh, spec, k, sign=1.0):
    """The raw rows of every SubdomainEdge as ``PrimalConstraintSet`` forms
    them, (3, n_interface), with every normal times ``sign``."""
    runs = mesh.interface_runs
    q, bn = interface_quadrature(mesh, spec, k)
    run = runs.run_of_edge
    return _raw_rows(q, sign * bn, runs.tangent[run],
                     runs.midpoint_t[run]).reshape(3, -1)


def test_c1_row_unnormalized():
    mesh = build_structured_mesh(2, 2, 2)
    spec = make_spec("thermal", 1.0)
    h = mesh.h
    assert np.allclose(edge_loop_rows(mesh, spec, 0, 0)[0], [h, h],
                       atol=1e-14)
    assert np.allclose(batched_rows(mesh, spec, 0)[0, :2], [h, h],
                       atol=1e-14)


def test_thermal_horizontal_edge_degenerates_to_bddc1():
    mesh = build_structured_mesh(2, 2, 2)
    spec = make_spec("thermal", 1.0)
    cons2 = PrimalConstraintSet("bddc2", spec, mesh, 0)
    cons3 = PrimalConstraintSet("bddc3", spec, mesh, 0)
    hor = horizontal_ses(mesh)
    assert hor.size
    for i in hor:
        assert cons2.kept[i] == ["c1"]     # beta.n = 0 kills c2
        assert cons3.kept[i] == ["c1"]
    ver = np.setdiff1d(np.arange(len(mesh.interface_runs)), hor)
    for i in ver:
        assert cons2.kept[i] == ["c1", "c2"]
        # m = 2 at k=0, ratio 2: c3 is rank-deficient and must be dropped
        assert cons3.kept[i] == ["c1", "c2"]
    # with 4 edges per run all three functionals are independent
    mesh4 = build_structured_mesh(2, 2, 4)
    cons4 = PrimalConstraintSet("bddc3", spec, mesh4, 0)
    for i in horizontal_ses(mesh4):
        assert cons4.kept[i] == ["c1"]
    for i in vertical_ses(mesh4):
        assert cons4.kept[i] == ["c1", "c2", "c3"]


def test_constant_flux_drops_c2_keeps_first_moment():
    mesh = build_structured_mesh(2, 2, 2)
    spec = ProblemSpec(1.0, lambda x, y: (np.ones_like(x), np.zeros_like(x)),
                       zero, zero, zero)
    cons = PrimalConstraintSet("bddc3", spec, mesh, 0)
    for i in vertical_ses(mesh):           # beta.n = 1 constant
        assert cons.kept[i] == ["c1", "c3"]
        # the retained c3 row is the pure centered first moment
        c3 = edge_loop_rows(mesh, spec, 0, i)[2]
        row = primal_rows(cons, i)[1]
        assert np.allclose(row, c3 / np.linalg.norm(c3), atol=1e-12) or \
            np.allclose(row, -c3 / np.linalg.norm(c3), atol=1e-12)


def test_change_of_basis_two_edge_block():
    mesh = build_structured_mesh(2, 2, 2)
    spec = make_spec("poisson", 1.0)
    cons = PrimalConstraintSet("bddc1", spec, mesh, 0)
    Q = _change_of_basis(primal_rows(cons, 0)[None])[0]
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(Q[0], [s, s], atol=1e-14)
    assert np.allclose(Q[1], [s, -s], atol=1e-14)
    assert np.allclose(Q @ Q.T, np.eye(2), atol=1e-13)


def test_duals_annihilate_constraints_rotating_k2():
    mesh = build_structured_mesh(2, 2, 6)
    spec = make_spec("rotating", 1e-3)
    cons = PrimalConstraintSet("bddc3", spec, mesh, 2)
    for i in range(len(mesh.interface_runs)):
        Q = _change_of_basis(primal_rows(cons, i)[None])[0]
        raw = edge_loop_rows(mesh, spec, 2, i)
        scale = np.linalg.norm(raw[0])
        nP = cons.n_primal_by_se[i]
        for c in raw:
            assert np.abs(Q[nP:] @ c).max() < 1e-12 * max(scale, 1.0)
        assert np.allclose(Q @ Q.T, np.eye(Q.shape[0]), atol=1e-12)


@pytest.mark.parametrize("variant", ["bddc1", "bddc2", "bddc3"])
def test_change_of_basis_matches_null_space(variant):
    # every Qg block is its rows plus scipy's per-edge null_space completion,
    # each completion vector signed so that its first entry above 1e-12 in
    # magnitude is positive
    *_, cons, pre = setup("rotating", 1e-3, variant, nx=3, ny=2, ratio=3, k=2)
    dofs = pre.subs.dofs
    for i, (a, b) in enumerate(dofs.se_blocks - dofs.n_interior):
        rows = primal_rows(cons, i)
        dual = sla.null_space(rows).T
        for v in dual:
            big = np.flatnonzero(np.abs(v) > 1e-12)
            if big.size and v[big[0]] < 0:
                v *= -1.0
        ref = np.vstack([rows, dual])
        assert np.abs(pre.Qg[a:b, a:b].toarray() - ref).max() <= 1e-15


def test_normal_convention_sign_flip():
    # evaluating c2/c3 with the opposite normal flips the value's sign
    mesh = build_structured_mesh(2, 2, 2)
    spec = make_spec("rotating", 1.0)
    for i in range(len(mesh.interface_runs)):
        _, c2, c3 = edge_loop_rows(mesh, spec, 0, i)
        _, f2, f3 = edge_loop_rows(mesh, spec, 0, i, sign=-1.0)
        assert np.allclose(f2, -c2, atol=1e-14)
        assert np.allclose(f3, -c3, atol=1e-14)
    _, c2, c3 = batched_rows(mesh, spec, 0)
    _, f2, f3 = batched_rows(mesh, spec, 0, sign=-1.0)
    assert np.allclose(f2, -c2, atol=1e-14)
    assert np.allclose(f3, -c3, atol=1e-14)


def test_coarse_dimension_bddc1():
    *_, pre = setup("thermal", 1.0, "bddc1")
    assert pre.n_primal == 4
    assert pre.Fc.shape == (4, 4)
    # plain ints: the benchmark writes these counts as JSON
    assert {type(pre.n_tilde), type(pre.n_dual_total)} == {int}


def test_partition_of_unity():
    for variant in ("bddc1", "bddc3", "all-primal"):
        *_, pre = setup("rotating", 1e-3, variant, ratio=3, k=1)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(pre.subs.dofs.n_interface)
        # Rt^T Rt_D = I and Rt_D^T Rt = I on assembled vectors
        a = pre.R.T @ (pre.RD @ c)
        b = pre.RD.T @ (pre.R @ c)
        assert np.allclose(a, c, atol=1e-13)
        assert np.allclose(b, c, atol=1e-13)


def test_apply_zero_and_all_primal_exact():
    mesh, dofs, spec, subs, cons, pre = setup(
        "thermal", 1e-2, "all-primal", ratio=2, k=0)
    assert np.allclose(pre.apply(np.zeros(subs.n)), 0.0)
    rng = np.random.default_rng(1)
    S = subs.as_dense()
    for _ in range(3):
        r = rng.standard_normal(subs.n)
        y = pre.apply(r)
        ref = np.linalg.solve(S, r)
        assert np.linalg.norm(y - ref) < 1e-10 * np.linalg.norm(ref)
        # S_Gamma residual of the all-primal apply
        assert np.linalg.norm(subs.apply(y) - r) < 1e-10 * np.linalg.norm(r)


def _check_transposed_product(variant, eps):
    # the fused apply equals Qg^T Rt_D^T St^-1 Rt_D Qg r with the dense
    # partially assembled St.  The 3x2 grid at k=2 has corner subdomains
    # with fewer interface DOFs and unequal interface blocks per subdomain
    for nx, ny, k in ((2, 2, 0), (3, 2, 2)):
        *_, subs, cons, pre = setup("rotating", eps, variant, nx=nx, ny=ny,
                                    ratio=2, k=k)
        St = pre.dense_partially_assembled()
        rng = np.random.default_rng(4)
        for _ in range(5):
            r = rng.standard_normal(subs.n)
            ref = pre.Qg.T @ (pre.RD.T @ np.linalg.solve(
                St, pre.RD @ (pre.Qg @ r)))
            assert np.linalg.norm(pre.apply(r) - ref) \
                <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("variant", ["bddc1", "bddc2", "bddc3"])
@pytest.mark.parametrize("eps", [1.0, 1e-3])
def test_apply_matches_dense_tilde_oracle(variant, eps):
    # with the default dual weights 1/2
    _check_transposed_product(variant, eps)


def _full_dual_weights(self):
    # a full block D_i per subdomain (no partition of unity needed here)
    wd = int(self.n_dual_by_sub.max(initial=0))
    return np.random.default_rng(7).uniform(
        0.0, 1.0, (self.subs.nI.size, wd, wd))


@pytest.mark.parametrize("variant", ["bddc1", "bddc2", "bddc3", "all-primal"])
def test_apply_is_the_transposed_product(variant, monkeypatch):
    # with a full dual weight block per subdomain (all-primal has no dual
    # DOFs, so this is its only weighting)
    monkeypatch.setattr(BddcPreconditioner, "dual_weights", _full_dual_weights)
    for eps in (1.0, 1e-3):
        _check_transposed_product(variant, eps)


@pytest.mark.parametrize("variant", ["bddc1", "bddc2", "bddc3", "all-primal"])
def test_partially_assembled_is_the_transformed_schur(variant):
    # the two dense oracles agree: assembling St gives Qg S_Gamma Qg^T
    for nx, ny, k, eps in ((2, 2, 0, 1.0), (3, 2, 2, 1e-3)):
        *_, subs, cons, pre = setup("rotating", eps, variant, nx=nx, ny=ny,
                                    ratio=2, k=k)
        St = pre.dense_partially_assembled()
        R = pre.R.toarray()
        ref = pre.Qg @ subs.as_dense() @ pre.Qg.T
        assert np.abs(R.T @ St @ R - ref).max() <= 1e-13 * np.abs(ref).max()


def test_apply_average():
    *_, pre = setup("rotating", 1e-2, "bddc2", ratio=3, k=1)
    rng = np.random.default_rng(4)
    # continuous input: image of Rt
    c = rng.standard_normal(pre.subs.dofs.n_interface)
    t = pre.R @ c
    assert np.allclose(pre.apply_average(t), t, atol=1e-13)
    # equal and opposite dual parts average to zero
    t2 = np.zeros(pre.n_tilde)
    # the first dual copy (of subdomain 0) and its partner in the other
    # subdomain sharing that interface DOF: the two rows of Rt on column p
    first = pre.n_primal
    p = pre.R[first].indices[0]
    col = pre.R[:, p].tocoo()
    assert col.nnz == 2 and first in col.row
    partner = col.row[col.row != first][0]
    assert partner >= pre.n_primal
    t2[first] = 1.0
    t2[partner] = -1.0
    out = pre.apply_average(t2)
    assert np.allclose(out, 0.0, atol=1e-14)
    # idempotence
    w = rng.standard_normal(pre.n_tilde)
    assert np.allclose(pre.apply_average(pre.apply_average(w)),
                       pre.apply_average(w), atol=1e-13)


def test_primal_reproduction():
    mesh, dofs, spec, subs, cons, pre = setup(
        "rotating", 1e-3, "bddc3", ratio=3, k=1)
    rng = np.random.default_rng(5)
    lam = rng.standard_normal(dofs.n_interface)
    t = pre.R @ (pre.Qg @ lam)
    for i in range(len(mesh.interface_runs)):
        sl = slice(dofs.se_blocks[i][0] - dofs.n_interior,
                   dofs.se_blocks[i][1] - dofs.n_interior)
        vals = primal_rows(cons, i) @ lam[sl]
        off = cons.primal_offsets[i]
        assert np.allclose(t[off:off + vals.size], vals, atol=1e-12)


def test_tilde_skew_annihilation():
    *_, pre = setup("rotating", 1e-3, "bddc2", ratio=2, k=0)
    St = pre.dense_partially_assembled()
    Zt = 0.5 * (St - St.T)
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = rng.standard_normal(pre.n_tilde)
        assert abs(w @ (Zt @ w)) < 1e-13 * max(np.abs(Zt).max() * (w @ w), 1.0)


@pytest.mark.parametrize("variant", ["bddc1", "bddc3"])
def test_singular_dual_block_raises(variant):
    # a zero local Schur complement makes the subdomain's dual block singular
    mesh, dofs, spec, subs, cons, _ = setup("rotating", 1e-3, variant,
                                            nx=3, ny=3, ratio=4)
    subs.S[4] = 0.0
    with pytest.raises(PreconditionerError,
                       match=r"singular dual block in subdomain 4 "
                             r"\(variant %s, eps 0\.001\)" % variant):
        BddcPreconditioner(subs, cons)


def test_variant_none_rejected():
    mesh = build_structured_mesh(2, 2, 2)
    dofs = build_trace_dof_map(mesh, 0)
    spec = make_spec("thermal", 1.0)
    sys = assemble_trace_system(mesh, dofs, spec, 0)
    subs = build_subdomains(mesh, dofs, spec, 0, sys=sys)
    cons = PrimalConstraintSet("none", spec, mesh, 0)
    with pytest.raises(InvalidConfigError):
        BddcPreconditioner(subs, cons)
    with pytest.raises(InvalidConfigError):
        PrimalConstraintSet("bddc7", spec, mesh, 0)
    with pytest.raises(InvalidConfigError):
        PrimalConstraintSet(1, spec, mesh, 0)
    # the builders with the signatures of the benchmark pipeline
    with pytest.raises(InvalidConfigError):
        build_preconditioner(subs, subs, cons, dofs)
    cons = build_constraints("bddc1", spec, mesh, dofs, 0)
    pre = build_preconditioner(subs, subs, cons, dofs)
    assert isinstance(pre, BddcPreconditioner) and pre.n_primal == 4



@pytest.mark.parametrize("nx,ny,ratio,diag", LAYOUT_GRIDS)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_batched_constraint_rows_match_edge_loop(nx, ny, ratio, diag, k):
    mesh = build_structured_mesh(nx, ny, ratio, diag=diag)
    spec = make_spec("rotating", 1.0)
    runs = mesh.interface_runs
    nds = k + 1
    for sign in (1.0, -1.0):
        batched = batched_rows(mesh, spec, k, sign)
        for i in range(len(runs)):
            ref = edge_loop_rows(mesh, spec, k, i, sign)
            blk = slice(runs.offsets[i] * nds, runs.offsets[i + 1] * nds)
            assert np.abs(batched[:, blk] - ref).max() \
                <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("nx,ny,ratio,diag", LAYOUT_GRIDS)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_primal_layout_matches_edge_loop(nx, ny, ratio, diag, k):
    # the first n_primal_by_se[i] positions of SubdomainEdge i's block are
    # primal, numbered 0..n_primal-1 in SubdomainEdge order
    mesh = build_structured_mesh(nx, ny, ratio, diag=diag)
    dofs = build_trace_dof_map(mesh, k)
    spec = make_spec("rotating", 1e-3)
    subs = build_subdomains(mesh, dofs, spec, k,
                            sys=assemble_trace_system(mesh, dofs, spec, k))
    for variant in ("bddc1", "bddc2", "bddc3", "all-primal"):
        cons = PrimalConstraintSet(variant, spec, mesh, k)
        pre = BddcPreconditioner(subs, cons)
        is_primal = np.zeros(dofs.n_interface, dtype=bool)
        index = np.full(dofs.n_interface, -1)
        n = 0
        for i, (a, b) in enumerate(dofs.se_blocks - dofs.n_interior):
            nP = cons.n_primal_by_se[i]
            assert len(cons.kept[i]) == nP
            assert np.all(cons.se_of[a:b] == i)
            assert cons.block_off[a:b].tolist() == list(range(b - a))
            is_primal[a:a + nP] = True
            index[a:a + nP] = np.arange(n, n + nP)
            n += nP
        assert pre.n_primal == n
        assert np.array_equal(pre.is_primal, is_primal)
        assert np.array_equal(pre.primal_index, index)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("problem,eps", [("rotating", 1e-3),
                                         ("thermal", 1.0)])
def test_kept_labels_are_nested_prefixes(problem, eps, k):
    for nx, ny, ratio, diag in LAYOUT_GRIDS:
        mesh = build_structured_mesh(nx, ny, ratio, diag=diag)
        spec = make_spec(problem, eps)
        kept = [PrimalConstraintSet(v, spec, mesh, k).kept
                for v in ("bddc1", "bddc2", "bddc3")]
        for k1, k2, k3 in zip(*kept):
            assert k1 == ["c1"]
            assert k2[:len(k1)] == k1 and k3[:len(k2)] == k2


@pytest.mark.parametrize("variant", ["bddc1", "bddc3", "all-primal"])
def test_batched_change_of_basis_is_the_edge_transform(variant):
    mesh, dofs, spec, subs, cons, pre = setup(
        "rotating", 1e-3, variant, nx=3, ny=2, ratio=3, k=1)
    for i, (a, b) in enumerate(dofs.se_blocks - dofs.n_interior):
        Q = _change_of_basis(primal_rows(cons, i)[None])[0]
        assert np.array_equal(pre.Qg[a:b, a:b].toarray(), Q)
        assert pre.Qg[a:b].nnz == np.count_nonzero(Q)
