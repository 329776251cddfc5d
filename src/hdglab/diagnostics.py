"""Trace-space norms and field-of-values diagnostics.

The scaled boundary norm, the jump seminorm, and the B_Gamma inner product
measure the solved traces; gamma = max{1 + tau_K h_K} summarizes the
stabilization; sampled field-of-values quotients of the preconditioned
operator T feed the GMRES residual envelope (1 - c^2/C^2)^(m/2).
"""

import numpy as np

from .hdg import ElementBlocks


class NormReport:
    """Norm and field-of-values summary of one solved interface problem.

    Attributes
    ----------
    norm_h : scaled trace norm ||lam||_h of the full solved trace
    jump : seminorm |||lam||| of the full solved trace
    norm_b : ||lam_Gamma||_B over the interface
    gamma : max{1 + tau_K h_K}
    fov_min : sampled min of <v,Tv>_B / <v,v>_B (sign as observed)
    fov_max : sampled max of <Tv,Tv>_B / <v,v>_B
    """

    def __init__(self, norm_h, jump, norm_b, gamma, fov_min, fov_max):
        self.norm_h = norm_h
        self.jump = jump
        self.norm_b = norm_b
        self.gamma = gamma
        self.fov_min = fov_min
        self.fov_max = fov_max

    def __repr__(self):
        return ("NormReport(norm_h=%.6g, jump=%.6g, norm_b=%.6g, "
                "gamma=%.6g, fov=[%.6g, %.6g])"
                % (self.norm_h, self.jump, self.norm_b, self.gamma,
                   self.fov_min, self.fov_max))


def edge_coefficients(sys, lam):
    """Per-edge trace coefficients (n_edges, k+1); boundary edges carry g."""
    out = sys.gcoef.copy()
    free = sys.dofs.edge_dofs[:, 0] >= 0
    out[free] = lam[sys.dofs.edge_dofs[free]]
    return out


def _edge_sq(coef, mesh):
    """Per-edge L2 norms squared (Legendre: int_e P_n^2 = len/(2n+1))."""
    nds = coef.shape[1]
    return mesh.edge_lengths() * (coef ** 2 @ (1.0 / (2.0 * np.arange(nds) + 1.0)))


def norm_h(coef, mesh):
    """||lam||_h, with ||lam||_h^2 = sum_K ||lam||^2_{L2(dK)} |K|/|dK|."""
    esq = _edge_sq(np.asarray(coef, dtype=float), mesh)
    lens = mesh.edge_lengths()
    bsq = esq[mesh.tri_edges].sum(axis=1)
    perim = lens[mesh.tri_edges].sum(axis=1)
    area = np.abs(mesh.tri_area())
    return float(np.sqrt(np.sum(bsq * area / perim)))


def jump_seminorm(coef, mesh):
    """|||lam|||, with |||lam|||^2 = sum_K ||lam - m_K||^2_{L2(dK)} / |dK|.

    Computed in centered form (m_K subtracted from the edge averages before
    squaring) to avoid cancellation for near-constant traces.
    """
    coef = np.asarray(coef, dtype=float)
    nds = coef.shape[1]
    lens = mesh.edge_lengths()
    te = mesh.tri_edges
    perim = lens[te].sum(axis=1)
    # int_e lam = len * c_0, so m_K = sum_e len c_0 / |dK|
    mK = (lens * coef[:, 0])[te].sum(axis=1) / perim
    c0 = coef[te, 0] - mK[:, None]
    per_el = (lens[te] * c0 ** 2).sum(axis=1)
    if nds > 1:
        hi = coef[:, 1:] ** 2 @ (1.0 / (2.0 * np.arange(1, nds) + 1.0))
        per_el += (lens * hi)[te].sum(axis=1)
    return float(np.sqrt(np.sum(per_el / perim)))


def b_gamma_inner(lamG, muG, subs, sys):
    """(<lam,mu>_{B_Gamma}, <lam,mu>_{Z_Gamma}) via the discrete harmonic
    extensions ``subs.extend`` (``subs`` from ``dd.build_subdomains``)."""
    lamA, muA = subs.extend(lamG), subs.extend(muG)
    return float(muA @ (sys.B @ lamA)), float(muA @ (sys.Z @ lamA))


def gamma_from_taus(taus, hK):
    """max over elements and edges of 1 + tau * h_K."""
    return float(np.max(1.0 + np.asarray(taus) * np.asarray(hK)[:, None]))


def gamma_stat(mesh, spec, k=0, blocks=None):
    """gamma = max{1 + tau_K h_K} for the given stabilization."""
    if blocks is None:
        blocks = ElementBlocks(mesh, spec, k)
    return gamma_from_taus(blocks.taus, blocks.hK)


def field_of_values(apply_T, b_inner, samples):
    """Sampled field-of-values bounds of T in the B_Gamma inner product.

    Returns (c_est, C_est): the smallest <v,Tv>_B/<v,v>_B and the largest
    <Tv,Tv>_B/<v,v>_B over the sample vectors.  Sampling gives an inner
    estimate of the true constants.
    """
    c_est, C_est = np.inf, -np.inf
    for v in samples:
        Tv = apply_T(v)
        vv = b_inner(v, v)
        c_est = min(c_est, b_inner(v, Tv) / vv)
        C_est = max(C_est, b_inner(Tv, Tv) / vv)
    return c_est, C_est


def residual_envelope(c_est, C_est, m):
    """GMRES bound (1 - c^2/C^2)^(j/2) for j = 0..m (ones when c_est <= 0).

    ``C_est`` is the sampled max of <Tv,Tv>_B/<v,v>_B, i.e. an estimate of
    C^2 in <Tu,Tu>_B <= C^2 <u,u>_B.
    """
    if c_est <= 0.0:
        return np.ones(m + 1)
    base = max(1.0 - c_est ** 2 / C_est, 0.0)
    return base ** (0.5 * np.arange(m + 1))


def envelope_holds(resvec, c_est, C_est):
    """Whether the residual history obeys the sampled envelope (None if
    the lower estimate is nonpositive and the bound is vacuous)."""
    if c_est <= 0.0:
        return None
    env = residual_envelope(c_est, C_est, len(resvec) - 1)
    return bool(np.all(np.asarray(resvec) <= env + 1e-12))


def norm_report(sys, subs, lam, lamG, pre=None, n_samples=8, seed=0):
    """Assemble a NormReport for one solved case.

    ``lam`` is the full free-DOF trace vector, ``lamG`` its interface part.
    """
    coef = edge_coefficients(sys, lam)
    inner = lambda v, w: b_gamma_inner(v, w, subs, sys)[0]
    if pre is None:
        apply_T = subs.apply
    else:
        apply_T = lambda v: pre.apply(subs.apply(v))
    rng = np.random.default_rng(seed)
    samples = [v / np.linalg.norm(v)
               for v in rng.standard_normal((n_samples, subs.n))]
    samples.append(lamG / max(np.linalg.norm(lamG), 1e-300))
    c_est, C_est = field_of_values(apply_T, inner, samples)
    return NormReport(
        norm_h=norm_h(coef, sys.mesh),
        jump=jump_seminorm(coef, sys.mesh),
        norm_b=float(np.sqrt(max(b_gamma_inner(lamG, lamG, subs, sys)[0], 0.0))),
        gamma=gamma_stat(sys.mesh, sys.spec, sys.k, blocks=sys.blocks),
        fov_min=c_est, fov_max=C_est)
