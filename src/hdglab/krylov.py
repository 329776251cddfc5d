"""Unrestarted, left-preconditioned GMRES over the interface space.

Arnoldi with two-pass classical Gram-Schmidt (CGS2) in Gram form, after the
low-synchronization CGS2 of Swirydowicz, Langou, Ananthan, Yang & Thomas
(Numer. Linear Algebra Appl. 2021).  Each step reads the Krylov basis V
twice: one fused reduction V [v_j, w] gives the projection h = V w and the
new column of the Gram matrix V V^T, and one update w <- w - V^T c removes
c = h - (V V^T - I) h.  This c is h plus CGS2's second projection
V (w - V^T h) = h - V V^T h, taken from the Gram matrix instead of a second
pass over V.  The Givens-rotation least-squares update runs on Python floats.
With a zero initial guess the iteration stops when the Euclidean norm of the
preconditioned residual M^-1 (b - S lam_m) has dropped below ``tol`` times
the norm of M^-1 b.

The basis is read in column chunks of at most CHUNK_COLS entries and blocks
of at most BLOCK_ROWS vectors: a product of V with a thin block is then one
small GEMM per chunk and block, which OpenBLAS runs at about the speed of a
GEMV, where the one (j+1, n) @ (n, 2) product is up to 2x slower.  Both
passes run over the ranges of chunks that ``_split.ranges`` cuts the basis
into (more than one only for a large basis, see ``_split.parts``): each
chunk's product is the BLAS call it is unsplit, and the calling thread sums
the reduction's (chunks, rows, 2) products over the chunks, in chunk order,
so the iterates do not depend on the number of workers.
"""

import math
import time

import numpy as np
import scipy.linalg as sla

from ._split import ranges
from .mesh import InvalidConfigError

CHUNK_COLS = 1024
BLOCK_ROWS = 256


class SolveReport:
    """Outcome of one GMRES solve.

    Attributes
    ----------
    iterations : number of Arnoldi steps taken
    resvec : relative preconditioned residual history, length iterations+1
    converged : whether the tolerance was met within maxit
    wall_time : seconds spent in the solver
    true_residual : final ||S lam - b|| / ||b|| (unpreconditioned)
    op_s : seconds spent in calls of the operator apply
    precond_s : seconds spent in calls of the preconditioner apply
    orth_s : seconds spent in the orthogonalization and the Givens update
        (op_s + precond_s + orth_s <= wall_time; the rest is setup, copies
        and the final solution assembly)
    """

    def __init__(self, iterations, resvec, converged, wall_time,
                 true_residual, op_s=0.0, precond_s=0.0, orth_s=0.0):
        self.iterations = iterations
        self.resvec = np.asarray(resvec, dtype=float)
        self.converged = converged
        self.wall_time = wall_time
        self.true_residual = true_residual
        self.op_s = op_s
        self.precond_s = precond_s
        self.orth_s = orth_s

    def label(self):
        """Count for iteration tables; '>maxit' when not converged."""
        return ("%d" if self.converged else ">%d") % self.iterations

    def __repr__(self):
        return ("SolveReport(iterations=%s, converged=%s, "
                "true_residual=%.3e)" % (self.label(), self.converged,
                                         self.true_residual))


def _solution(V, R, g, n):
    """V[:m]^T y for the triangular R y = g, R given by its m columns."""
    m = len(R)
    H = np.zeros((m, m))
    for j, col in enumerate(R):
        H[:j + 1, j] = col
    y = sla.solve_triangular(H, g[:m])
    return (y @ V[:m])[:n]


def _grown(a, shape):
    """Zero array of ``shape`` with ``a`` copied into its leading corner."""
    out = np.zeros(shape)
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


def _chunked(v, nc, width):
    """Vector v as (nc, width) chunks, zero-padded past its end."""
    out = np.zeros(nc * width)
    out[:v.size] = v
    return out.reshape(nc, width)


def _joined(parts):
    """The stacks of consecutive chunk ranges as one (a lone one uncopied)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _timed(fn, clock, key):
    def call(v):
        t = time.perf_counter()
        out = fn(v)
        clock[key] += time.perf_counter() - t
        return out
    return call


def gmres(apply_op, apply_precond, b, tol=1e-10, maxit=1000):
    """Solve S lam = b by left-preconditioned GMRES, zero initial guess.

    Parameters
    ----------
    apply_op : callable, v -> S v
    apply_precond : callable, r -> M^-1 r; None for plain GMRES
    b : interface right-hand side
    tol : relative reduction of the preconditioned residual
    maxit : Arnoldi step cap; exceeding it reports converged=False

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
    clock = {"op": 0.0, "precond": 0.0, "orth": 0.0}
    apply_op = _timed(apply_op, clock, "op")
    apply_precond = _timed(apply_precond, clock, "precond")
    r0 = apply_precond(b)
    beta = np.linalg.norm(r0)
    if beta == 0.0:
        raise InvalidConfigError("preconditioned RHS vanishes for b != 0")

    # basis storage for ``cap`` Arnoldi steps, doubled when full (up to
    # maxit).  A first block of 256 steps lets most solves finish without a
    # copy: the smaller blocks a grown basis frees stay resident in the heap.
    # Rows are zero-padded to nc chunks of ``width``; ``Vc`` views them
    # chunked (nc, rows, width) without a copy.  Contiguous rows touch the
    # pages in step order: a chunk-major array would fault in a huge page
    # per chunk at the first step.
    n = b.size
    nc = -(-n // CHUNK_COLS)
    width = -(-n // nc)
    cap = min(maxit, 256)
    V = np.empty((cap + 1, nc * width))
    V[0] = _chunked(r0 / beta, nc, width).reshape(-1)
    Vc = V.reshape(cap + 1, nc, width).transpose(1, 0, 2)
    Y = np.empty((nc, width, 2))           # [v_j | w], chunked
    E = np.zeros((cap, cap))               # V V^T - I
    R = []                                 # rotated Hessenberg columns
    cs, sn, g = [], [], [float(beta)]
    resvec = [1.0]
    converged = False

    for j in range(maxit):
        if j == cap:
            cap = min(2 * cap, maxit)
            V = _grown(V, (cap + 1, nc * width))
            Vc = V.reshape(cap + 1, nc, width).transpose(1, 0, 2)
            E = _grown(E, (cap, cap))
        Y[:, :, 0] = Vc[:, j]
        Y[:, :, 1] = _chunked(apply_precond(apply_op(V[j, :n])), nc, width)
        t = time.perf_counter()
        # one pass: [Gram column V v_j | projection h = V w], the per-chunk
        # products of ranges of chunks, summed over the chunks in chunk order
        nbytes = (j + 1) * V.strides[0]

        def gram(lo, hi):               # (hi - lo, j + 1, 2)
            if j < BLOCK_ROWS:
                return np.matmul(Vc[lo:hi, :j + 1], Y[lo:hi])
            G = np.empty((hi - lo, j + 1, 2))
            for i in range(0, j + 1, BLOCK_ROWS):
                e = min(i + BLOCK_ROWS, j + 1)
                np.matmul(Vc[lo:hi, i:e], Y[lo:hi], out=G[:, i:e])
            return G

        P = _joined(ranges(nc, gram, nbytes)).sum(axis=0)
        E[:j + 1, j] = E[j, :j + 1] = P[:, 0]
        E[j, j] -= 1.0
        h = P[:, 1]
        c = h - E[:j + 1, :j + 1] @ h

        def update(lo, hi):             # second pass: w <- w - V^T c
            return Y[lo:hi, :, 1] - np.matmul(c, Vc[lo:hi, :j + 1])

        w = _joined(ranges(nc, update, nbytes))
        hj1 = float(np.linalg.norm(w))
        col = c.tolist()
        for i in range(j):
            a, d = col[i], col[i + 1]
            col[i] = cs[i] * a + sn[i] * d
            col[i + 1] = -sn[i] * a + cs[i] * d
        denom = math.hypot(col[j], hj1)
        cj, sj = (1.0, 0.0) if denom == 0.0 else \
            (col[j] / denom, hj1 / denom)
        cs.append(cj)
        sn.append(sj)
        col[j] = cj * col[j] + sj * hj1
        R.append(col)
        g.append(-sj * g[j])
        g[j] = cj * g[j]
        resvec.append(abs(g[j + 1]) / beta)
        breakdown = hj1 <= 1e-14 * max(np.linalg.norm(c), 1e-300)
        if not breakdown:
            V[j + 1] = (w / hj1).reshape(-1)
        clock["orth"] += time.perf_counter() - t
        if resvec[-1] <= tol or breakdown:  # breakdown: invariant Krylov space
            converged = True
            break

    x = _solution(V, R, g, n)
    true_res = np.linalg.norm(b - apply_op(x)) / nb
    return x, SolveReport(j + 1, resvec, converged,
                          time.perf_counter() - t0, true_res, clock["op"],
                          clock["precond"], clock["orth"])
