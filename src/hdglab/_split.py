"""Contiguous ranges of a large batched product, run on a small thread pool.

NumPy's ``matmul`` releases the GIL, so ranges of one stack, taken along its
batch axis, run concurrently.  Each entry of the output is then computed by
the same BLAS call on the same operands as without the split, so results do
not depend on the number of workers.

``WORKERS`` is the process's CPUs divided by the thread count pinned by the
first set variable of ``BLAS_VARS``, the ones the BLAS that NumPy loaded
reads, in its order; if none is set, or the BLAS is not known, BLAS is
counted as using every CPU, so there is one worker and nothing splits.
``parts`` cuts a stack of at least ``SPLIT_BYTES`` into one range per
worker, but into no range that reads less than half of ``SPLIT_BYTES``; a
smaller stack runs as one range on the calling thread.  The measurements
behind the threshold are in README, "Threads".  The pool holds
``WORKERS - 1`` threads (the caller runs the first range), is made on the
first split and is made anew in a forked child.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# the thread variables each BLAS reads, the first one set winning
THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
    "blis": ("BLIS_NUM_THREADS", "OMP_NUM_THREADS"),
    "accelerate": ("VECLIB_MAXIMUM_THREADS",),
}
SPLIT_BYTES = 8 * 2 ** 20


def _blas_vars():
    """THREAD_VARS of the BLAS NumPy was built with, () if not known."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = name["name"].lower()
    except (TypeError, KeyError, AttributeError):   # older NumPy
        return ()
    return next((v for key, v in THREAD_VARS.items() if key in name), ())


def _workers():
    cpus = len(os.sched_getaffinity(0))
    pinned = [int(v) for v in map(os.environ.get, BLAS_VARS)
              if v and v.strip().isdigit() and int(v) > 0]
    return max(1, cpus // (pinned[0] if pinned else cpus))


BLAS_VARS = _blas_vars()
WORKERS = _workers()
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def parts(n, nbytes):
    """The number of ranges a stack of n items and ``nbytes`` splits into:
    one per worker, each reading at least SPLIT_BYTES / 2 (SPLIT_BYTES = 0
    splits every stack); below 2 the stack runs whole."""
    if nbytes < SPLIT_BYTES:
        return 1
    return min(WORKERS, n, 2 * nbytes // max(SPLIT_BYTES, 1))


def _spread(n, k, fn):
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS - 1,
                                       thread_name_prefix="hdglab-split")
    cut = [n * i // k for i in range(k + 1)]
    rest = [_pool.submit(fn, lo, hi) for lo, hi in zip(cut[1:-1], cut[2:])]
    try:
        first = fn(0, cut[1])
    finally:
        wait(rest)
    return [first] + [f.result() for f in rest]


def ranges(n, fn, nbytes):
    """[fn(lo, hi), ...] over ``parts(n, nbytes)`` contiguous ranges that
    cover range(n), in order, the first on the calling thread (a lone range
    never leaves it).  Returns once every range is done; a range's
    exception is raised here."""
    k = parts(n, nbytes)
    return [fn(0, n)] if k < 2 else _spread(n, k, fn)


def matmul(a, b):
    """np.matmul(a, b) of two stacks of equal length, split along the
    stack as ``ranges`` splits it."""
    k = parts(len(a), a.nbytes)
    if k < 2:
        return np.matmul(a, b)
    out = np.empty(a.shape[:-1] + b.shape[-1:], np.result_type(a, b))
    _spread(len(a), k, lambda lo, hi: np.matmul(a[lo:hi], b[lo:hi],
                                                out=out[lo:hi]))
    return out
