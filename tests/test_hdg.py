import tracemalloc

import numpy as np
import pytest

from hdglab import hdg
from hdglab.hdg import (ElementBlocks, ProblemSpec, StabilizationError,
                        eval_tau)
from hdglab.mesh import build_structured_mesh

SQ2 = np.sqrt(2.0)


def zero(x, y):
    return np.zeros_like(x)


def spec_beta0(eps=1.0, strategy="upwind_plus_diffusive", sigma=1.0):
    return ProblemSpec(eps, lambda x, y: (zero(x, y), zero(x, y)), zero,
                       zero, zero, tau_strategy=strategy, sigma=sigma)


def spec_thermal(eps=1.0, **kw):
    return ProblemSpec(eps, lambda x, y: (0.5 * (1.0 + y), zero(x, y)), zero,
                       zero, zero, **kw)


def spec_rotating(eps=1.0, **kw):
    return ProblemSpec(eps, lambda x, y: (y, -x), zero, zero, zero, **kw)


# ---------------------------------------------------------------------------
# hand oracle: single cell, element 0 = triangle (-1,-1),(1,-1),(1,1)
# legs 2, hypotenuse 2*sqrt(2); eps=1, beta=0, tau=1 (sigma=2 -> sigma*eps/h_K=1)
# ---------------------------------------------------------------------------

def hand_oracle_blocks():
    # basis: single orthonormal constant phi = sqrt(2) on the reference triangle
    # A = detJ*I = 4I ; B = 0 ; R = -tau*int_dK phi^2 = -(8+4*sqrt(2))
    # edges (local order): bottom |e|=2 n=(0,-1); right |e|=2 n=(1,0);
    # hyp |e|=2*sqrt(2) n=(-1,1)/sqrt(2)
    Ct = np.array([[0.0, 2 * SQ2, -2 * SQ2],
                   [-2 * SQ2, 0.0, 2 * SQ2]])
    S1 = np.array([[2 * SQ2, 2 * SQ2, 4.0]])
    S2 = S1.T
    T = -np.diag([2.0, 2.0, 2 * SQ2])
    R = -(8.0 + 4 * SQ2)
    S_hat = Ct.T @ Ct / 4.0 + S2 @ S1 / R - T
    N = S2 / R
    return Ct, S1, S2, T, R, S_hat, N


def test_condense_matches_hand_oracle():
    mesh = build_structured_mesh(1, 1, 1)
    spec = spec_beta0(strategy="upwind_plus_diffusive", sigma=2.0)
    blocks = ElementBlocks(mesh, spec, 0)
    K = blocks.K_loc()[0]
    Ct, S1, S2, T, R, S_hat, N = hand_oracle_blocks()
    assert np.allclose(blocks.taus[0], 1.0, atol=1e-14)
    assert np.allclose(K[:2, :2], 4.0 * np.eye(2), atol=1e-13)
    assert np.allclose(K[:2, 2:], 0.0, atol=1e-13)
    assert np.allclose(K[2:, :2], 0.0, atol=1e-13)
    assert np.allclose(blocks.local.R[0], [[R]], atol=1e-12)
    assert np.array_equal(K[2:, 2:], blocks.local.R[0])
    # edge DOF sign convention: global orientation may flip odd Legendre modes,
    # but at k=0 all entries are orientation-free
    assert np.allclose(blocks.type_geo[mesh.tri_type[0]]["C"].T, Ct,
                       atol=1e-12)
    assert np.allclose(blocks.local.S1[0], S1, atol=1e-12)
    assert np.allclose(blocks.local.S2[0], S2, atol=1e-12)
    assert np.allclose(blocks.local.T[0], T, atol=1e-12)
    got_S = blocks.S_hat[0]
    assert np.allclose(got_S, S_hat, atol=1e-12)
    F = np.array([-2 * SQ2 * 3.0])  # load vector of f = const 3
    assert np.allclose(blocks.local.N[0] @ F, (N @ F), atol=1e-12)
    # the local block is PSD with the constant trace as its kernel (beta = 0)
    w = np.linalg.eigvalsh(0.5 * (got_S + got_S.T))
    assert np.allclose(got_S @ np.ones(3), 0.0, atol=1e-12)
    assert w[0] > -1e-12 and w[1] > 0.1


def test_eval_tau_thermal_vertical_edge():
    mesh = build_structured_mesh(2, 2, 2)  # h = 0.5
    spec = spec_thermal()
    # type-0 elements have local edge 1 = right vertical edge, n = (1,0)
    for kidx in np.where(mesh.tri_type == 0)[0][:4]:
        tri = mesh.triangles[kidx]
        ytop = mesh.vertices[tri].max(axis=0)[1]
        tau = eval_tau(mesh, kidx, 1, spec)
        assert abs(tau - 0.5 * (1.0 + ytop)) < 1e-14


def test_eval_tau_inflow_edge_zero():
    mesh = build_structured_mesh(2, 2, 2)
    spec = spec_thermal()
    # type-1 elements have local edge 2 = left vertical edge, n = (-1,0)
    kidx = int(np.where(mesh.tri_type == 1)[0][0])
    assert eval_tau(mesh, kidx, 2, spec) == 0.0


def test_eval_tau_diffusive_fallback():
    mesh = build_structured_mesh(2, 2, 2)  # h_K = 0.5
    spec = spec_beta0(eps=0.01, strategy="upwind_plus_diffusive", sigma=1.0)
    assert abs(eval_tau(mesh, 0, 0, spec) - 0.01 / 0.5) < 1e-16


def test_assumption_violation_raises():
    mesh = build_structured_mesh(2, 2, 2)
    with pytest.raises(StabilizationError):
        ElementBlocks(mesh, spec_beta0(strategy="upwind"), 0)


@pytest.mark.parametrize("spec", [spec_thermal, spec_rotating])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_nearly_singular_saddle_block_raises(spec, k):
    # eps = 1e20 or 1e-300 leaves rcond(K_loc) far below 1e-14; eps = 1 and
    # 1e-6 are well conditioned
    mesh = build_structured_mesh(2, 2, 2)
    for eps in (1e20, 1e-300):
        with pytest.raises(StabilizationError, match="nearly singular"):
            ElementBlocks(mesh, spec(eps=eps), k)
    for eps in (1.0, 1e-6):
        ElementBlocks(mesh, spec(eps=eps), k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_chunk_size_does_not_change_the_blocks(monkeypatch, k):
    # the pointwise stage runs with the chunk's elements on the last axis,
    # and at k = 0 (d = 1) Sigma^-1 is a reciprocal
    mesh = build_structured_mesh(3, 2, 3)
    spec = spec_rotating(eps=1e-3)
    spec.f = lambda x, y: np.sin(3.0 * x) * y
    b = ElementBlocks(mesh, spec, k)
    # the largest per-element array of the pass (``_chunks``): the (3d)^2
    # inverse at k = 2, the points X at k = 0
    npts = b.vrule.weights.size + 3 * b.erule.points.size + 3
    per_element = max((3 * b.d) ** 2, (b.d + b.m) ** 2, 2 * npts)
    els = np.arange(mesh.n_triangles)
    ref = None
    for n in (1, 7, mesh.n_triangles):
        monkeypatch.setattr(hdg, "CHUNK_ENTRIES", n * per_element)
        assert b._chunks(els)[0].size == n
        b = ElementBlocks(mesh, spec, k)
        got = (b.S_hat, b.b_hat, b.local.N, b.taus, b.local.Kinv)
        if ref is None:
            ref = got
        for x, y in zip(got, ref):
            assert np.array_equal(x, y)


def test_sigma_reciprocal_is_the_lapack_inverse():
    # at d = 1 the element pass takes Sigma^-1 as 1/Sigma: the bits of
    # np.linalg.inv, and its LinAlgError where an entry is zero
    rng = np.random.default_rng(3)
    S = (rng.standard_normal(4000)
         * 10.0 ** rng.uniform(-250, 250, 4000)).reshape(-1, 1, 1)
    assert hdg._inverse(S).tobytes() == np.linalg.inv(S).tobytes()
    for z in (0.0, -0.0):
        S[7] = z
        with pytest.raises(np.linalg.LinAlgError) as lapack:
            np.linalg.inv(S)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            hdg._inverse(S)
        assert str(ours.value) == str(lapack.value)


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-6])
@pytest.mark.parametrize("spec", [spec_thermal, spec_rotating])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_rcond_bound_never_exceeds_the_exact_rcond(k, spec, eps):
    # the element pass certifies rcond(K_loc) > 1e-14 from
    # |K_loc^-1|_1 <= |Sigma^-1|_1 (ia |Bt|_1 + 1) max(ia |Bt'|_1, 1) + ia,
    # with Sigma^-1 the lower right block of K_loc^-1: the rcond that bound
    # gives lies below the exact one, element by element
    mesh = build_structured_mesh(3, 2, 3)
    b = ElementBlocks(mesh, spec(eps=eps), k)
    d, K, Kinv = b.d, b.K_loc(), b.local.Kinv

    def norm1(M):
        return np.abs(M).sum(axis=1).max(axis=1)

    exact = 1.0 / (norm1(K) * norm1(Kinv))
    for t, geo in enumerate(b.type_geo):
        els = mesh.tri_type == t
        ia = eps / geo["detJ"]
        absBt = np.abs(geo["Bt"])
        bound = norm1(Kinv[els, 2 * d:, 2 * d:]) \
            * (ia * absBt.sum(axis=0).max() + 1.0) \
            * max(ia * absBt.sum(axis=1).max(), 1.0) + ia
        assert np.all(1.0 / (norm1(K[els]) * bound) <= exact[els])


def _stepped_beta(*levels):
    """beta = (2c, c), c = v from height y0 up for each (y0, v) in turn:
    beta.n vanishes on no edge of the structured mesh."""
    def beta(x, y):
        c = np.zeros_like(y)
        for y0, v in levels:
            c = np.where(y >= y0, v, c)
        return 2.0 * c, c
    return beta


def _late_faults():
    """Specs whose first failing check, or the |beta| that scales it, lies in
    a later chunk than a chunk the check would pass or fail on its own (the
    mesh is numbered upward in y), and what each raises."""
    yield "div", ProblemSpec(
        1.0, _stepped_beta((-2, 1.0)),
        lambda x, y: np.where(y > 0.7, 1.0, 0.0), zero, zero,
        tau_strategy="upwind_plus_diffusive", sigma=-1.0), \
        "-div(beta) >= 0 violated (max div = 1)"
    yield "slack", ProblemSpec(
        1.0, _stepped_beta((-2, 1.0), (0.7, 1e-3)), zero, zero, zero,
        tau_strategy="upwind_plus_diffusive", sigma=-0.05 / 3), \
        "tau - beta.n/2 < 0 on an edge"
    assumption = ("Assumption 2.1 violated: tau - beta.n/2 vanishes on all "
                  "edges of element(s) [36 38 40 42 44] (e.g. global element "
                  "36); enable the upwind_plus_diffusive strategy")
    yield "assumption", ProblemSpec(
        1.0, _stepped_beta((-2, 1.0), (0.0, 1e-12), (0.7, 1e3)), zero, zero,
        zero), assumption
    yield "assumption-before-rcond", ProblemSpec(
        1.0, _stepped_beta((-2, 10.0), (0.0, 1e-12), (0.7, 1e14)), zero,
        zero, zero), assumption
    yield "rcond", ProblemSpec(
        1.0, _stepped_beta((-2, 10.0), (0.7, 1e14)), zero, zero, zero), \
        "local saddle block nearly singular (rcond %s) in element 60"


@pytest.mark.parametrize("k,rcond", [(1, "2.70429e-16"), (2, "1.18082e-16")])
def test_checks_read_the_whole_type_in_chunk_order(monkeypatch, k, rcond):
    # six chunks per element type, one row of cells each.  Each type's
    # checks scale by its largest |beta| and run in this order: div(beta)
    # over the type, then per chunk tau - beta.n/2, Assumption 2.1 and
    # rcond.  "div" fails tau - beta.n/2 in the first chunk, "assumption"
    # fails Assumption 2.1 (slack ~1e-13) only under the scale of a later
    # chunk's |beta|, and "assumption-before-rcond" also has a later chunk
    # with rcond below 1e-14, found on the exact path
    mesh = build_structured_mesh(2, 2, 3)
    monkeypatch.setattr(hdg, "CHUNK_ENTRIES",
                        6 * (3 * hdg.TriBasis(k).dim) ** 2)
    b = ElementBlocks(mesh, spec_rotating(), k)
    for t in (0, 1):
        assert len(b._chunks(np.flatnonzero(mesh.tri_type == t))) == 6
    for name, spec, message in _late_faults():
        with pytest.raises(StabilizationError) as err:
            ElementBlocks(mesh, spec, k)
        assert str(err.value) == message.replace("%s", rcond), name


@pytest.mark.parametrize("k", [0, 1, 2])
def test_condensed_blocks_come_from_the_local_blocks(k):
    # S_hat and b_hat are formed from the same N, S1 and T that ``local``
    # keeps: bit for bit, with a nonzero load
    mesh = build_structured_mesh(2, 3, 2)
    spec = spec_rotating(eps=1e-2)
    spec.f = lambda x, y: np.cos(2.0 * x) + x * y
    b = ElementBlocks(mesh, spec, k)
    loc = b.local
    for t, geo in enumerate(b.type_geo):
        els = mesh.tri_type == t
        ia = spec.eps / geo["detJ"]
        Bt, C = geo["Bt"], geo["C"]
        S = ia * (C @ C.T) + loc.N[els] @ (loc.S1[els] - ia * (Bt.T @ C.T)) \
            - loc.T[els]
        assert np.array_equal(b.S_hat[els], S)
    assert np.linalg.norm(b.b_hat) > 0.1
    assert np.array_equal(b.b_hat, np.einsum("nmd,nd->nm", loc.N,
                                             b.load_vectors()))


@pytest.mark.parametrize("k,grids", [(0, (12, 24)), (2, (4, 8))],
                         ids=["k0", "k2"])
def test_condensation_memory_does_not_grow_with_the_mesh(k, grids):
    # beyond its outputs, ElementBlocks holds one chunk of elements at a
    # time; only index arrays over the elements (a few integers each) grow
    # with the mesh, a whole-mesh float block (d^2 = 36 per element at k=2)
    # would not fit in the bound.  Each element type of both meshes fills
    # more than one chunk (1560 elements at k=0, 202 at k=2).
    extra, nel = [], []
    for n in grids:
        mesh = build_structured_mesh(n, n, 4)
        spec = spec_rotating(eps=1e-5)
        tracemalloc.start()
        try:
            b = ElementBlocks(mesh, spec, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = b.S_hat.nbytes + b.b_hat.nbytes + b.taus.nbytes + b.hK.nbytes
        extra.append(peak - out)
        nel.append(mesh.n_triangles)
    assert extra[1] - extra[0] <= 64 * (nel[1] - nel[0])


def test_beta0_symmetric_system():
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_beta0(), 0)
    tr = lambda X: X.swapaxes(1, 2)
    assert np.allclose(blocks.local.R, tr(blocks.local.R), atol=1e-14)
    assert np.allclose(blocks.local.S1, tr(blocks.local.S2), atol=1e-14)
    assert np.allclose(blocks.S_hat, tr(blocks.S_hat), atol=1e-13)


def test_rotating_divergence_block_vanishes():
    # div(beta)=0: symmetric part of R is the boundary part only
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_rotating(), 1)
    for kidx in (0, 5):
        geo = blocks.type_geo[mesh.tri_type[kidx]]
        bnd = np.zeros_like(blocks.local.R[kidx])
        for e, ed in enumerate(geo["edata"]):
            lo, hi = ed["lo"], ed["hi"]
            tri = mesh.triangles[kidx]
            plo, phi_pt = mesh.vertices[tri[lo]], mesh.vertices[tri[hi]]
            X = plo[None, :] + 0.5 * np.outer(blocks.erule.points + 1.0, phi_pt - plo)
            bx, by = blocks.spec.beta_at(X[:, 0], X[:, 1])
            bn = bx * ed["n"][0] + by * ed["n"][1]
            W3 = np.einsum("q,q,iq,jq->ij", ed["we"], bn, ed["phie"], ed["phie"])
            bnd += -blocks.taus[kidx, e] * ed["F"] + 0.5 * W3
        R = blocks.local.R[kidx]
        assert np.allclose(0.5 * (R + R.T), bnd, atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_local_lift_constant(k):
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_thermal(eps=0.5), k)
    c = 1.7
    mu = np.zeros((mesh.n_triangles, blocks.m))
    mu[:, ::k + 1] = c
    q, u = blocks.recover(mu)
    assert np.allclose(q, 0.0, atol=1e-11)
    for t, geo in enumerate(blocks.type_geo):
        uvals = u[mesh.tri_type == t] @ geo["phiv"]
        assert np.allclose(uvals, c, atol=1e-11)
    q0, u0 = blocks.recover(np.zeros_like(mu))
    assert np.allclose(q0, 0.0) and np.allclose(u0, 0.0)


def test_local_lift_residual():
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_thermal(eps=1e-2), 1)
    rng = np.random.default_rng(3)
    mu = rng.standard_normal((mesh.n_triangles, blocks.m))
    z = np.concatenate(blocks.recover(mu), axis=1)
    C = np.stack([blocks.type_geo[t]["C"] for t in mesh.tri_type])
    rhs = np.concatenate([-np.einsum("nmi,nm->ni", C, mu),
                          -np.einsum("nim,nm->ni", blocks.local.S1, mu)],
                         axis=1)
    res = np.einsum("nij,nj->ni", blocks.K_loc(), z) - rhs
    assert np.all(np.linalg.norm(res, axis=1)
                  < 1e-11 * np.maximum(np.linalg.norm(rhs, axis=1), 1.0))


def _eval_on_edges(blocks, kidx, qc, uc, mu):
    """Quadrature data of (Q.n, U, mu) on the three edges of element kidx."""
    mesh = blocks.mesh
    geo = blocks.type_geo[mesh.tri_type[kidx]]
    d, nds = blocks.d, blocks.k + 1
    out = []
    for e, ed in enumerate(geo["edata"]):
        tri = mesh.triangles[kidx]
        plo = mesh.vertices[tri[ed["lo"]]]
        phi_pt = mesh.vertices[tri[ed["hi"]]]
        X = plo[None, :] + 0.5 * np.outer(blocks.erule.points + 1.0, phi_pt - plo)
        bx, by = blocks.spec.beta_at(X[:, 0], X[:, 1])
        bn = bx * ed["n"][0] + by * ed["n"][1]
        qn = (qc[:d] @ ed["phie"]) * ed["n"][0] + (qc[d:] @ ed["phie"]) * ed["n"][1]
        uv = uc @ ed["phie"]
        muv = mu[e * nds:(e + 1) * nds] @ ed["P"]
        out.append(dict(we=ed["we"], bn=bn, qn=qn, u=uv, mu=muv,
                        tau=blocks.taus[kidx, e]))
    return out


@pytest.mark.parametrize("k,eps", [(0, 1.0), (1, 1e-2), (2, 1e-1)])
def test_condense_equals_flux_form(k, eps):
    # eta' S_K mu = -<Q mu . n + tau(U mu - mu) + beta.n mu, eta>_dK
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_thermal(eps=eps), k)
    rng = np.random.default_rng(11)
    nds = k + 1
    for _ in range(10):
        mu = rng.standard_normal((mesh.n_triangles, blocks.m))
        eta = rng.standard_normal((mesh.n_triangles, blocks.m))
        q, u = blocks.recover(mu)
        for kidx in (1, 12):
            lhs = eta[kidx] @ (blocks.S_hat[kidx] @ mu[kidx])
            rhs = 0.0
            geo = blocks.type_geo[mesh.tri_type[kidx]]
            for e, edd in enumerate(_eval_on_edges(blocks, kidx, q[kidx],
                                                   u[kidx], mu[kidx])):
                etav = eta[kidx, e * nds:(e + 1) * nds] @ geo["edata"][e]["P"]
                flux = edd["qn"] + edd["tau"] * (edd["u"] - edd["mu"]) + edd["bn"] * edd["mu"]
                rhs -= np.sum(edd["we"] * flux * etav)
            assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_condensed_quadratic_form_invariant(k):
    # mu'S_K mu = (eps^-1 Qmu,Qmu) + <(tau-bn/2)(Umu-mu),Umu-mu> - <bn mu,mu>/2
    mesh = build_structured_mesh(2, 2, 2)
    spec = spec_rotating(eps=1e-3)
    blocks = ElementBlocks(mesh, spec, k)
    rng = np.random.default_rng(5)
    d = blocks.d
    for _ in range(5):
        mu = rng.standard_normal((mesh.n_triangles, blocks.m))
        q, u = blocks.recover(mu)
        for kidx in (0, 9, 30):
            geo = blocks.type_geo[mesh.tri_type[kidx]]
            qx = q[kidx, :d] @ geo["phiv"]
            qy = q[kidx, d:] @ geo["phiv"]
            val = geo["detJ"] * np.sum(blocks.vrule.weights * (qx ** 2 + qy ** 2)) / spec.eps
            for edd in _eval_on_edges(blocks, kidx, q[kidx], u[kidx], mu[kidx]):
                jump = edd["u"] - edd["mu"]
                val += np.sum(edd["we"] * (edd["tau"] - 0.5 * edd["bn"]) * jump ** 2)
                val -= 0.5 * np.sum(edd["we"] * edd["bn"] * edd["mu"] ** 2)
            lhs = mu[kidx] @ (blocks.S_hat[kidx] @ mu[kidx])
            assert abs(lhs - val) < 1e-11 * max(abs(lhs), 1.0)


def test_constant_trace_kernel():
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_rotating(eps=1.0), 1)
    mu = np.zeros(blocks.m)
    mu[::2] = 3.0
    assert np.all(np.abs(blocks.S_hat @ mu @ mu) < 1e-11)


def test_recover_constant_and_zero_load():
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_thermal(eps=0.3), 2)
    lam = np.zeros((mesh.n_triangles, blocks.m))
    lam[:, ::3] = -2.5
    q, u = blocks.recover(lam, np.zeros((mesh.n_triangles, blocks.d)))
    assert np.allclose(q, 0.0, atol=1e-10)
    for t, geo in enumerate(blocks.type_geo):
        assert np.allclose(u[mesh.tri_type == t] @ geo["phiv"], -2.5,
                           atol=1e-10)


def test_load_vectors():
    mesh = build_structured_mesh(1, 1, 2)
    spec = ProblemSpec(1.0, lambda x, y: (zero(x, y), zero(x, y)), zero,
                       lambda x, y: np.full_like(x, 3.0), zero,
                       tau_strategy="upwind_plus_diffusive")
    blocks = ElementBlocks(mesh, spec, 0)
    F = blocks.load_vectors()
    # F_i = -int_K 3*phi = -3*|K|*phi ; phi = sqrt(2)/sqrt(detJ) scaled basis:
    # int_K phi = detJ * int_ref phihat = detJ*sqrt(2)/2
    detJ = blocks.type_geo[0]["detJ"]
    assert np.allclose(F, -3.0 * detJ * SQ2 / 2.0, atol=1e-13)
    Z = ElementBlocks(mesh, spec_beta0(), 0).load_vectors()
    assert np.allclose(Z, 0.0)
