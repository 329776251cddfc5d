"""Criterion-06 evidence: the Table-4 BDDC1 row under formulation changes.

Rotating flow, degree 0, H/h = 6 (eps = 1e-6 unless the row says otherwise)
is solved once per formulation change.  Each change swaps one definition of
the installed package for the duration of its row; no package file is
edited.  Every row prints the BDDC1 and BDDC3 iteration counts per subdomain
grid, and the smallest eigenvalue of the symmetric part of any local
subdomain matrix (relative to its largest entry) on the smallest grid.

    PYTHONPATH=src python scripts/criterion06_evidence.py [--grids 4,8,16]
                                                          [--rows deluxe,...]

The tau rows swap ``hdg.upwind_tau``, the stabilizer rule of the element
blocks, for another function of the same beta.n samples.  The dual-weight
rows replace the weights 1/2 of ``BddcPreconditioner`` by a per-subdomain
dual weight block W_i on each SubdomainEdge, W_i + W_j = I: a different
weighted restriction Rt_D.
At degree 0 one primal average per mesh edge makes every interface DOF
primal, which is the ``all-primal`` variant; the last row runs it.

The unchanged H/h = 8 row, the GMRES-tolerance row and the other tables at
H/h = 8 need no swap; they come from ``hdglab-bench`` (see CHANGES.md).
"""

import argparse
from contextlib import contextmanager, nullcontext

import numpy as np

from hdglab import bddc, bench, dd, hdg
from hdglab.bench import build_case, run_case


@contextmanager
def swapped(owner, name, value):
    """Rebind owner.name to value inside the with-block."""
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def robin(c):
    """Robin term +c<beta.n lam, mu> in place of the documented c = 1/2."""
    base = dd._robin_edge_matrices

    def scaled(mesh, spec, k):
        return 2.0 * c * base(mesh, spec, k)
    return swapped(dd, "_robin_edge_matrices", scaled)


def tau(rule):
    """Stabilizer ``rule(samples)`` of each edge's beta.n samples (n, nq) in
    place of the upwind sup(beta.n)+."""
    return swapped(hdg, "upwind_tau", rule)


def _se_dual_blocks(pre):
    """Per SubdomainEdge: [(subdomain index, partially assembled indices of
    the subdomain's dual copies on that SubdomainEdge, their St_i block)]."""
    se_of = pre.constraints.se_of
    blocks = {}
    for sids, pos, idx, npr, _, St in pre._local_stacks():
        for s, p, ix, S in zip(sids.tolist(), pos, idx, St):
            owner = se_of[p[npr:]]
            for i in np.unique(owner):
                sel = npr + np.flatnonzero(owner == i)
                blocks.setdefault(int(i), []).append(
                    (s, ix[sel], S[np.ix_(sel, sel)]))
    # the parts of each SubdomainEdge in subdomain order
    return {i: sorted(parts, key=lambda part: part[0])
            for i, parts in blocks.items()}


def _upwind_blocks(pre, blocks, w_up):
    """Weight w_up on the subdomain the flow leaves at each mesh edge."""
    mesh, spec = pre.constraints.mesh, pre.constraints.spec
    runs = mesh.interface_runs
    nds = pre.constraints.k + 1
    out = {}
    for i, parts in blocks.items():
        edges = runs.edges[runs.offsets[i]:runs.offsets[i + 1]]
        mid = mesh.vertices[mesh.edges[edges]].mean(axis=1)
        bx, by = spec.beta_at(mid[:, 0], mid[:, 1])
        n = runs.normal[i]                   # outward of runs.pair[i, 0]
        bn = bx * n[0] + by * n[1]
        w0 = np.where(bn > 1e-14, w_up, np.where(bn < -1e-14, 1 - w_up, 0.5))
        dofs = pre.subs.dofs
        a, b = np.array(dofs.se_blocks[i]) - dofs.n_interior
        Q = pre.Qg[a:b, a:b].toarray()
        nP = pre.constraints.n_primal_by_se[i]
        W0 = (Q @ np.diag(np.repeat(w0, nds)) @ Q.T)[nP:, nP:]
        for sidx, _, _ in parts:
            out[sidx, i] = W0 if sidx == runs.pair[i, 0] \
                else np.eye(len(W0)) - W0
    return out


def _deluxe_blocks(pre, blocks):
    """W_i = (S_i + S_j)^-1 S_i on the dual block of each SubdomainEdge."""
    out = {}
    for i, ((si, _, S_i), (sj, _, S_j)) in blocks.items():
        W0 = np.linalg.solve(S_i + S_j, S_i)
        out[si, i] = W0
        out[sj, i] = np.eye(len(W0)) - W0
    return out


@contextmanager
def dual_weights(make_blocks, *args):
    """BddcPreconditioner with the dual weights 1/2 replaced by W_i blocks.

    The weighted restriction Rt_D becomes W^T Rt, with W the identity on the
    primal DOFs and W_i on the dual copies of subdomain i on each
    SubdomainEdge: each subdomain gets W_i^T c on its dual DOFs and the
    weighted average is sum_i W_i x_i, so W_i + W_j = I keeps E_D a
    projection; the primal DOFs stay assembled with weight 1.
    """
    def weights(self):
        blocks = _se_dual_blocks(self)
        W = make_blocks(self, blocks, *args)
        wd = int(self.n_dual_by_sub.max(initial=0))
        D = np.zeros((self.n_dual_by_sub.size, wd, wd))
        for i, parts in blocks.items():
            for sidx, idx, _ in parts:
                loc = idx - self.dual_start[sidx]
                D[sidx, loc[:, None], loc] = W[sidx, i].T
        return D

    with swapped(bddc.BddcPreconditioner, "dual_weights", weights):
        yield


def _right_wall(x, y):
    return np.where(np.isclose(np.asarray(x, dtype=float), 1.0), 1.0, 0.0)


def _all_walls(x, y):
    return np.ones(np.shape(x))


ROWS = [
    ("as documented (c=1/2, upwind tau)", 1e-6, nullcontext()),
    ("Robin c=0", 1e-6, robin(0.0)),
    ("Robin c=-1/2", 1e-6, robin(-0.5)),
    ("Robin c=1", 1e-6, robin(1.0)),
    ("tau = sup|beta.n|", 1e-6, tau(lambda s: np.abs(s).max(axis=1))),
    ("tau = 1.5", 1e-6, tau(lambda s: np.full(s.shape[0], 1.5))),
    ("tau = sup(beta.n)+ / 2", 1e-6,
     tau(lambda s: 0.5 * np.maximum(s.max(axis=1), 0.0))),
    ("g = 1 on x = 1 only", 1e-6, swapped(bench, "_g_rotating", _right_wall)),
    ("g = 1 on all walls", 1e-6, swapped(bench, "_g_rotating", _all_walls)),
    ("eps = 1e-4", 1e-4, nullcontext()),
    ("eps = 1e-5", 1e-5, nullcontext()),
    ("dual weights deluxe", 1e-6, dual_weights(_deluxe_blocks)),
    ("dual weights upwind 1/0", 1e-6, dual_weights(_upwind_blocks, 1.0)),
    ("dual weights upwind 3/4", 1e-6, dual_weights(_upwind_blocks, 0.75)),
    ("dual weights downwind 1/0", 1e-6, dual_weights(_upwind_blocks, 0.0)),
    ("primal average per mesh edge", 1e-6, nullcontext()),
]

# at degree 0 an average per mesh edge is the all-primal variant
VARIANTS = {"primal average per mesh edge": ("all-primal", "all-primal")}


def min_symmetric_eig(subs):
    return min(np.linalg.eigvalsh(0.5 * (s.A + s.A.T))[0] / np.abs(s.A).max()
               for s in subs)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--grids", default="4,8,16",
                   help="comma-separated subdomain counts per direction")
    p.add_argument("--rows", default="",
                   help="comma-separated substrings; run only rows whose "
                        "label contains one of them")
    args = p.parse_args(argv)
    grids = [int(n) for n in args.grids.split(",")]
    wanted = [w for w in args.rows.split(",") if w]
    for label, eps, change in ROWS:
        if wanted and not any(w in label for w in wanted):
            continue
        variants = VARIANTS.get(label, ("bddc1", "bddc3"))
        with change:
            counts = ([], [])
            lam_min = None
            for n in grids:
                built = build_case("rotating", eps, 0, (n, n), 6)
                if lam_min is None:
                    lam_min = min_symmetric_eig(built[4])
                for v, row in zip(variants, counts):
                    r = run_case("rotating", eps, 0, (n, n), 6, v,
                                 built=built)
                    assert r.error is None, r.error
                    row.append(r.label())
        print("%-36s %s %-24s %s %-20s min eig sym(A_i) %+.1e"
              % (label, variants[0].upper(), counts[0], variants[1].upper(),
                 counts[1], lam_min), flush=True)


if __name__ == "__main__":
    main()
