import tracemalloc

import numpy as np
import pytest

from hdglab import hdg
from hdglab.hdg import (ElementBlocks, ProblemSpec, StabilizationError,
                        eval_tau, recover)
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
    elem = ElementBlocks(mesh, spec, 0, keep_local=True).element(0)
    Ct, S1, S2, T, R, S_hat, N = hand_oracle_blocks()
    assert np.allclose(elem.taus, 1.0, atol=1e-14)
    assert np.allclose(elem.A, 4.0 * np.eye(2), atol=1e-13)
    assert np.allclose(elem.Bt, 0.0, atol=1e-13)
    assert np.allclose(elem.R, [[R]], atol=1e-12)
    # edge DOF sign convention: global orientation may flip odd Legendre modes,
    # but at k=0 all entries are orientation-free
    assert np.allclose(elem.Ct, Ct, atol=1e-12)
    assert np.allclose(elem.S1, S1, atol=1e-12)
    assert np.allclose(elem.S2, S2, atol=1e-12)
    assert np.allclose(elem.T, T, atol=1e-12)
    got_S = elem.S_hat
    assert np.allclose(got_S, S_hat, atol=1e-12)
    F = np.array([-2 * SQ2 * 3.0])  # load vector of f = const 3
    assert np.allclose(elem.N @ F, (N @ F), atol=1e-12)
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


def test_chunk_size_does_not_change_the_blocks(monkeypatch):
    mesh = build_structured_mesh(3, 2, 3)
    spec = spec_rotating(eps=1e-3)
    spec.f = lambda x, y: np.sin(3.0 * x) * y
    per_element = (3 * hdg.TriBasis(2).dim) ** 2       # one (3d)^2 inverse
    ref = None
    for n in (1, 7, mesh.n_triangles):
        monkeypatch.setattr(hdg, "CHUNK_ENTRIES", n * per_element)
        b = ElementBlocks(mesh, spec, 2, keep_local=True)
        got = (b.S_hat, b.b_hat, b.N, b.taus, b.Kinv)
        if ref is None:
            ref = got
        for x, y in zip(got, ref):
            assert np.array_equal(x, y)


def test_condensation_memory_does_not_grow_with_the_mesh():
    # beyond its outputs, ElementBlocks holds one chunk of elements at a
    # time; only index arrays over the elements (a few integers each) grow
    # with the mesh, a whole-mesh float block (d^2 = 36 per element at k=2)
    # would not fit in the bound
    extra, nel = [], []
    for n in (4, 8):
        mesh = build_structured_mesh(n, n, 4)
        spec = spec_rotating(eps=1e-5)
        tracemalloc.start()
        try:
            b = ElementBlocks(mesh, spec, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = b.S_hat.nbytes + b.b_hat.nbytes + b.taus.nbytes + b.hK.nbytes
        extra.append(peak - out)
        nel.append(mesh.n_triangles)
    assert extra[1] - extra[0] <= 64 * (nel[1] - nel[0])


def test_beta0_symmetric_system():
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_beta0(), 0, keep_local=True)
    el = blocks.element(3)
    assert np.allclose(el.R, el.R.T, atol=1e-14)
    assert np.allclose(el.S1, el.S2.T, atol=1e-14)
    assert np.allclose(el.S_hat, el.S_hat.T, atol=1e-13)


def test_rotating_divergence_block_vanishes():
    # div(beta)=0: symmetric part of R is the boundary part only
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_rotating(), 1, keep_local=True)
    for kidx in (0, 5):
        el = blocks.element(kidx)
        geo = blocks.type_geo[mesh.tri_type[kidx]]
        bnd = np.zeros_like(el.R)
        for e, ed in enumerate(geo["edata"]):
            lo, hi = ed["lo"], ed["hi"]
            tri = mesh.triangles[kidx]
            plo, phi_pt = mesh.vertices[tri[lo]], mesh.vertices[tri[hi]]
            X = plo[None, :] + 0.5 * np.outer(blocks.erule.points + 1.0, phi_pt - plo)
            bx, by = blocks.spec.beta_at(X[:, 0], X[:, 1])
            bn = bx * ed["n"][0] + by * ed["n"][1]
            W3 = np.einsum("q,q,iq,jq->ij", ed["we"], bn, ed["phie"], ed["phie"])
            bnd += -el.taus[e] * ed["F"] + 0.5 * W3
        assert np.allclose(0.5 * (el.R + el.R.T), bnd, atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_local_lift_constant(k):
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_thermal(eps=0.5), k, keep_local=True)
    el = blocks.element(2)
    c = 1.7
    mu = np.zeros(3 * (k + 1))
    mu[::k + 1] = c
    q, u = recover(el, mu)
    assert np.allclose(q, 0.0, atol=1e-11)
    geo = blocks.type_geo[mesh.tri_type[2]]
    uvals = u @ geo["phiv"]
    assert np.allclose(uvals, c, atol=1e-11)
    q0, u0 = recover(el, np.zeros_like(mu))
    assert np.allclose(q0, 0.0) and np.allclose(u0, 0.0)


def test_local_lift_residual():
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_thermal(eps=1e-2), 1, keep_local=True)
    rng = np.random.default_rng(3)
    for kidx in (0, 7, 20):
        el = blocks.element(kidx)
        mu = rng.standard_normal(el.m)
        z = np.concatenate(recover(el, mu))
        rhs = np.concatenate([-el.Ct @ mu, -el.S1 @ mu])
        res = el.K_loc @ z - rhs
        assert np.linalg.norm(res) < 1e-11 * max(np.linalg.norm(rhs), 1.0)


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
    blocks = ElementBlocks(mesh, spec_thermal(eps=eps), k, keep_local=True)
    rng = np.random.default_rng(11)
    for kidx in (1, 12):
        el = blocks.element(kidx)
        for _ in range(10):
            mu = rng.standard_normal(el.m)
            eta = rng.standard_normal(el.m)
            q, u = recover(el, mu)
            lhs = eta @ (el.S_hat @ mu)
            rhs = 0.0
            nds = k + 1
            geo = blocks.type_geo[mesh.tri_type[kidx]]
            for e, edd in enumerate(_eval_on_edges(blocks, kidx, q, u, mu)):
                etav = eta[e * nds:(e + 1) * nds] @ geo["edata"][e]["P"]
                flux = edd["qn"] + edd["tau"] * (edd["u"] - edd["mu"]) + edd["bn"] * edd["mu"]
                rhs -= np.sum(edd["we"] * flux * etav)
            assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_condensed_quadratic_form_invariant(k):
    # mu'S_K mu = (eps^-1 Qmu,Qmu) + <(tau-bn/2)(Umu-mu),Umu-mu> - <bn mu,mu>/2
    mesh = build_structured_mesh(2, 2, 2)
    spec = spec_rotating(eps=1e-3)
    blocks = ElementBlocks(mesh, spec, k, keep_local=True)
    rng = np.random.default_rng(5)
    for kidx in (0, 9, 30):
        el = blocks.element(kidx)
        geo = blocks.type_geo[mesh.tri_type[kidx]]
        for _ in range(5):
            mu = rng.standard_normal(el.m)
            q, u = recover(el, mu)
            qx = q[:el.d] @ geo["phiv"]
            qy = q[el.d:] @ geo["phiv"]
            val = geo["detJ"] * np.sum(blocks.vrule.weights * (qx ** 2 + qy ** 2)) / spec.eps
            for edd in _eval_on_edges(blocks, kidx, q, u, mu):
                jump = edd["u"] - edd["mu"]
                val += np.sum(edd["we"] * (edd["tau"] - 0.5 * edd["bn"]) * jump ** 2)
                val -= 0.5 * np.sum(edd["we"] * edd["bn"] * edd["mu"] ** 2)
            lhs = mu @ (el.S_hat @ mu)
            assert abs(lhs - val) < 1e-11 * max(abs(lhs), 1.0)


def test_constant_trace_kernel():
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_rotating(eps=1.0), 1, keep_local=True)
    el = blocks.element(4)
    mu = np.zeros(el.m)
    mu[::2] = 3.0
    assert abs(mu @ (el.S_hat @ mu)) < 1e-11


def test_recover_constant_and_zero_load():
    mesh = build_structured_mesh(2, 2, 2)
    blocks = ElementBlocks(mesh, spec_thermal(eps=0.3), 2, keep_local=True)
    el = blocks.element(6)
    lam = np.zeros(el.m)
    lam[::3] = -2.5
    q, u = recover(el, lam)
    geo = blocks.type_geo[mesh.tri_type[6]]
    assert np.allclose(q, 0.0, atol=1e-10)
    assert np.allclose(u @ geo["phiv"], -2.5, atol=1e-10)


def test_load_vectors():
    mesh = build_structured_mesh(1, 1, 2)
    spec = ProblemSpec(1.0, lambda x, y: (zero(x, y), zero(x, y)), zero,
                       lambda x, y: np.full_like(x, 3.0), zero,
                       tau_strategy="upwind_plus_diffusive")
    blocks = ElementBlocks(mesh, spec, 0, keep_local=True)
    F = blocks.load_vectors()
    # F_i = -int_K 3*phi = -3*|K|*phi ; phi = sqrt(2)/sqrt(detJ) scaled basis:
    # int_K phi = detJ * int_ref phihat = detJ*sqrt(2)/2
    detJ = blocks.type_geo[0]["detJ"]
    assert np.allclose(F, -3.0 * detJ * SQ2 / 2.0, atol=1e-13)
    Z = blocks.load_vectors(f=zero)
    assert np.allclose(Z, 0.0)
