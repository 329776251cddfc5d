"""Checks of every operation's outputs, made apart from the solver layers.

Each check that fails names the operation it fails; an operation fails when
any of its checks does.  The checks are:

* the solve converged and its preconditioned residual history never rises;
* the back-substituted trace vector solves the assembled system A lam = b,
  by a residual computed here;
* it agrees with ``scipy.sparse.linalg.spsolve`` of that system;
* the variants of one build agree with the first variant;
* the chain bddc3 <= bddc2 + 1 <= bddc1 + 2 holds cell by cell (a break
  fails the stronger variant);
* the published iteration counts hold: each count in its band, and the
  growth of the first variant's count from one cell to the next bounded
  (a break fails the later cell).
"""

import numpy as np
import scipy.sparse.linalg as spla

# GMRES stops when the preconditioned interface residual has fallen by
# 1e-10; the unpreconditioned residual of the assembled system and the error
# against a direct solve may be larger by the conditioning of M^-1 and A.
# Measured worst cases on the benchmark's workloads sit below 1e-8.
RESIDUAL_TOL = 1e-6
AGREEMENT_TOL = 1e-6


def relative(x, ref):
    return float(np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300))


def capped(op):
    """Iteration count, an unconverged solve counting as maxit + 1."""
    return op.iterations if op.converged else op.iterations + 1


def check(wl, ops, systems):
    """(failures, worst): failures as {operation index: [reason, ...]};
    worst holds the largest residual and differences seen.

    ``systems`` holds the assembled (A, b) of each cell; each is solved
    once here by ``spsolve``.
    """
    direct = [spla.spsolve(A.tocsc(), b) for A, b in systems]
    fails = {}
    worst = dict(residual=0.0, spsolve=0.0, variants=0.0)

    def fail(i, reason):
        fails.setdefault(i, []).append(reason)

    for i, op in enumerate(ops):
        if not op.converged:
            fail(i, "did not converge in %d steps" % op.iterations)
        if np.any(np.diff(op.resvec) > 0.0):
            fail(i, "preconditioned residual rose")
        A, b = systems[op.cell]
        res = relative(A @ op.lam, b)
        worst["residual"] = max(worst["residual"], res)
        if not res <= RESIDUAL_TOL:
            fail(i, "residual |A lam - b|/|b| = %.2e" % res)
        err = relative(op.lam, direct[op.cell])
        worst["spsolve"] = max(worst["spsolve"], err)
        if not err <= AGREEMENT_TOL:
            fail(i, "differs from spsolve by %.2e" % err)

    by_cell = {}
    for i, op in enumerate(ops):
        by_cell.setdefault((op.round, op.cell), {})[op.variant] = i
    for (rnd, cell), idx in sorted(by_cell.items()):
        first = ops[idx[wl.variants[0]]]
        for v, i in idx.items():
            err = relative(ops[i].lam, first.lam)
            worst["variants"] = max(worst["variants"], err)
            if v != wl.variants[0] and not err <= AGREEMENT_TOL:
                fail(i, "differs from %s by %.2e" % (wl.variants[0], err))
        c = {v: capped(ops[i]) for v, i in idx.items()}
        if "bddc2" in c and "bddc1" in c and c["bddc2"] > c["bddc1"] + 1:
            fail(idx["bddc2"], "bddc2 %d > bddc1 %d + 1"
                 % (c["bddc2"], c["bddc1"]))
        if "bddc3" in c and "bddc2" in c and c["bddc3"] > c["bddc2"] + 1:
            fail(idx["bddc3"], "bddc3 %d > bddc2 %d + 1"
                 % (c["bddc3"], c["bddc2"]))
        if "bddc3" in c and "bddc1" in c and c["bddc3"] > c["bddc1"] + 2:
            fail(idx["bddc3"], "bddc3 %d > bddc1 %d + 2"
                 % (c["bddc3"], c["bddc1"]))
        for v, i in idx.items():
            lo, hi = wl.published.get((cell, v), (-np.inf, np.inf))
            if not lo <= capped(ops[i]) <= hi:
                fail(i, "%s count %d outside published band [%g, %g]"
                     % (v, capped(ops[i]), lo, hi))
        prev = by_cell.get((rnd, cell - 1))
        if wl.max_growth is not None and prev is not None:
            v = wl.variants[0]
            grow = capped(ops[idx[v]]) - capped(ops[prev[v]])
            if grow > wl.max_growth:
                fail(idx[v], "%s count grew by %d > %d from the cell before"
                     % (v, grow, wl.max_growth))
    return fails, worst
