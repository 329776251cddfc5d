"""Unrestarted, left-preconditioned GMRES over the interface space.

Standard Arnoldi with classical Gram-Schmidt plus one reorthogonalization
pass (CGS2), and a Givens-rotation least-squares update.  With a zero initial
guess the iteration stops when the Euclidean norm of the preconditioned
residual M^-1 (b - S lam_m) has dropped below ``tol`` times the norm of
M^-1 b (optionally: when the true residual has).
"""

import time

import numpy as np
import scipy.linalg as sla

from .mesh import InvalidConfigError


class SolveReport:
    """Outcome of one GMRES solve.

    Attributes
    ----------
    iterations : number of Arnoldi steps taken
    resvec : relative preconditioned residual history, length iterations+1
    converged : whether the tolerance was met within maxit
    wall_time : seconds spent in the solver
    true_residual : final ||S lam - b|| / ||b|| (unpreconditioned)
    """

    def __init__(self, iterations, resvec, converged, wall_time,
                 true_residual):
        self.iterations = iterations
        self.resvec = np.asarray(resvec, dtype=float)
        self.converged = converged
        self.wall_time = wall_time
        self.true_residual = true_residual

    def label(self):
        """Count for iteration tables; '>maxit' when not converged."""
        return ("%d" if self.converged else ">%d") % self.iterations

    def __repr__(self):
        return ("SolveReport(iterations=%s, converged=%s, "
                "true_residual=%.3e)" % (self.label(), self.converged,
                                         self.true_residual))


def _solution(V, H, g, m):
    y = sla.solve_triangular(H[:m, :m], g[:m])
    return V[:m].T @ y


def _grown(a, shape):
    """Zero array of ``shape`` with ``a`` copied into its leading corner."""
    out = np.zeros(shape)
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


def gmres(apply_op, apply_precond, b, tol=1e-10, maxit=1000,
          true_residual_stopping=False):
    """Solve S lam = b by left-preconditioned GMRES, zero initial guess.

    Parameters
    ----------
    apply_op : callable, v -> S v
    apply_precond : callable, r -> M^-1 r; None for plain GMRES
    b : interface right-hand side
    tol : relative reduction of the preconditioned residual
    maxit : Arnoldi step cap; exceeding it reports converged=False
    true_residual_stopping : stop on the unpreconditioned residual instead
        (sensitivity studies; costs one solution assembly per step)

    Returns (solution, SolveReport).
    """
    if not 0.0 < tol < 1.0:
        raise InvalidConfigError("tol must lie in (0, 1)")
    if maxit < 1:
        raise InvalidConfigError("maxit must be positive")
    b = np.asarray(b, dtype=float)
    if apply_precond is None:
        apply_precond = lambda r: r
    t0 = time.perf_counter()
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros(b.size), SolveReport(
            0, [0.0], True, time.perf_counter() - t0, 0.0)
    r0 = apply_precond(b)
    beta = np.linalg.norm(r0)
    if beta == 0.0:
        raise InvalidConfigError("preconditioned RHS vanishes for b != 0")

    # storage for ``cap`` Arnoldi steps, doubled when full (up to maxit).
    # A first block of 256 steps lets most solves finish without a copy:
    # the smaller blocks a grown basis frees stay resident in the heap.
    cap = min(maxit, 256)
    V = np.empty((cap + 1, b.size))
    V[0] = r0 / beta
    H = np.zeros((cap + 1, cap))
    cs = np.empty(cap)
    sn = np.empty(cap)
    g = np.zeros(cap + 1)
    g[0] = beta
    resvec = [1.0]
    converged = False

    for j in range(maxit):
        if j == cap:
            cap = min(2 * cap, maxit)
            V = _grown(V, (cap + 1, b.size))
            H = _grown(H, (cap + 1, cap))
            cs, sn = _grown(cs, (cap,)), _grown(sn, (cap,))
            g = _grown(g, (cap + 1,))
        # copy: the callables may return views of their input (e.g. identity)
        w = np.array(apply_precond(apply_op(V[j])), dtype=float)
        h = V[:j + 1] @ w
        w -= V[:j + 1].T @ h
        h2 = V[:j + 1] @ w
        w -= V[:j + 1].T @ h2
        h += h2
        hj1 = np.linalg.norm(w)
        H[:j + 1, j] = h
        H[j + 1, j] = hj1
        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        denom = np.hypot(H[j, j], hj1)
        cs[j], sn[j] = (1.0, 0.0) if denom == 0.0 else \
            (H[j, j] / denom, hj1 / denom)
        H[j, j] = cs[j] * H[j, j] + sn[j] * hj1
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        resvec.append(abs(g[j + 1]) / beta)
        if true_residual_stopping:
            x = _solution(V, H, g, j + 1)
            stop = np.linalg.norm(b - apply_op(x)) <= tol * nb
        else:
            stop = resvec[-1] <= tol
        if stop:
            converged = True
            break
        if hj1 <= 1e-14 * max(np.linalg.norm(h), 1e-300):
            converged = True        # happy breakdown: Krylov space invariant
            break
        V[j + 1] = w / hj1

    m = j + 1
    x = _solution(V, H, g, m)
    true_res = np.linalg.norm(b - apply_op(x)) / nb
    return x, SolveReport(m, resvec, converged,
                          time.perf_counter() - t0, true_res)

