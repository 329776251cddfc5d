"""The split of the large batched products over a worker pool (``_split``).

Forced splits (``SPLIT_BYTES = 0``) must give the unsplit results bit for
bit, for any number of workers; a process whose stacks stay below the
threshold, or whose BLAS is unpinned, must start no thread.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from hdglab import _split, krylov
from hdglab.krylov import gmres

from test_krylov import interface_problem


@pytest.fixture
def split(monkeypatch):
    """set(workers, split_bytes) patches the helper; the pool it makes is
    shut down afterwards."""
    monkeypatch.setattr(_split, "_pool", None)

    def set_(workers, split_bytes=0):
        monkeypatch.setattr(_split, "WORKERS", workers)
        monkeypatch.setattr(_split, "SPLIT_BYTES", split_bytes)

    yield set_
    if _split._pool is not None:
        _split._pool.shutdown()
        _split._pool = None


def problem(variant, k):
    *_, subs, pre = interface_problem("rotating", 1e-3, variant, ns=3,
                                      ratio=3, k=k)
    return subs, pre


@pytest.mark.parametrize("k", [0, 2])
def test_forced_split_applies_are_bit_identical(split, k):
    rng = np.random.default_rng(k)
    for variant in ("bddc1", "bddc2", "bddc3", "all-primal"):
        subs, pre = problem(variant, k)
        v = rng.standard_normal(subs.n)
        split(1, 2 ** 62)
        ref = subs.apply(v), pre.apply(v)
        for workers in (1, 2, 3):
            split(workers)
            assert np.array_equal(subs.apply(v), ref[0])
            assert np.array_equal(pre.apply(v), ref[1]), (variant, workers)
    assert _split._pool is not None


def test_forced_split_gmres_is_bit_identical(split, monkeypatch):
    # small chunks and row blocks: 12 column chunks, four row blocks
    monkeypatch.setattr(krylov, "CHUNK_COLS", 16)
    monkeypatch.setattr(krylov, "BLOCK_ROWS", 16)
    *_, subs, pre = interface_problem("rotating", 1e-6, "bddc1", ns=4,
                                      ratio=4, k=1)
    assert -(-subs.n // krylov.CHUNK_COLS) == 12
    split(1, 2 ** 62)
    lam, ref = gmres(subs.apply, pre.apply, subs.b_gamma)
    assert ref.iterations > 3 * krylov.BLOCK_ROWS
    for workers in (1, 2, 3):
        split(workers)
        got, rep = gmres(subs.apply, pre.apply, subs.b_gamma)
        assert np.array_equal(got, lam)
        assert np.array_equal(rep.resvec, ref.resvec)
        assert rep.iterations == ref.iterations


@pytest.mark.parametrize("workers,split_bytes", [(2, _split.SPLIT_BYTES),
                                                 (1, 0)])
def test_no_thread_without_a_split(split, workers, split_bytes):
    # below the threshold, or one worker (unpinned BLAS): all inline
    subs, pre = problem("bddc3", 2)
    assert max(subs.S.nbytes, pre.LG.nbytes) < _split.SPLIT_BYTES
    split(workers, split_bytes)
    before = threading.active_count()
    gmres(subs.apply, pre.apply, subs.b_gamma)
    assert threading.active_count() == before and _split._pool is None


def test_workers_count_the_pinned_blas_threads(monkeypatch):
    # OpenBLAS reads OPENBLAS_, then GOTO_, then OMP_NUM_THREADS, and no
    # other BLAS's variable
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setattr(_split, "BLAS_VARS", _split.THREAD_VARS["openblas"])
    for var in {v for vs in _split.THREAD_VARS.values() for v in vs}:
        monkeypatch.delenv(var, raising=False)
    assert _split._workers() == 1              # unpinned: BLAS takes them all
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    assert _split._workers() == 1              # not OpenBLAS's variable
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert _split._workers() == cpus
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cpus))
    assert _split._workers() == 1              # the first one set counts
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    assert _split._workers() == cpus           # 0 is unset, as in OpenBLAS


def test_blas_vars_are_those_of_the_loaded_blas():
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in name.lower():
        pytest.skip("NumPy is not built with OpenBLAS")
    assert _split.BLAS_VARS == _split.THREAD_VARS["openblas"]


def test_ranges_read_at_least_half_the_threshold(monkeypatch):
    # more CPUs than were measured: no range below SPLIT_BYTES / 2
    monkeypatch.setattr(_split, "WORKERS", 16)
    mib = 2 ** 20
    assert _split.SPLIT_BYTES == 8 * mib
    assert _split.parts(1000, 8 * mib - 1) == 1
    assert _split.parts(1000, 8 * mib) == 2
    assert _split.parts(1000, 18 * mib) == 4
    assert _split.parts(3, 18 * mib) == 3
    assert _split.parts(1000, 200 * mib) == 16


def test_worker_exception_reaches_the_caller(split):
    split(3)
    seen = []

    def fn(lo, hi):
        seen.append((lo, hi))
        if lo > 0:
            raise ValueError("range %d:%d" % (lo, hi))

    with pytest.raises(ValueError, match="range"):
        _split.ranges(9, fn, 2 ** 30)
    assert sorted(seen) == [(0, 3), (3, 6), (6, 9)]
    # the results come back in range order
    assert _split.ranges(9, lambda lo, hi: (lo, hi), 2 ** 30) == [
        (0, 3), (3, 6), (6, 9)]


def test_ranges_cover_once_under_contention(split):
    # more workers than cores, four calling threads and a short switch
    # interval: every index is written once, by its own call
    split(2 * len(os.sched_getaffinity(0)) + 1)
    out = np.zeros((4, 1000), dtype=np.int64)

    def call(t):
        def fn(lo, hi):
            for i in range(lo, hi):
                out[t, i] += t + 1
        for _ in range(50):
            _split.ranges(1000, fn, 2 ** 30)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(t,))
                   for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert np.array_equal(out, 50 * np.arange(1, 5)[:, None]
                          * np.ones((1, 1000), dtype=np.int64))


def test_forked_child_makes_its_own_pool(split):
    split(2)
    hit = np.zeros(4)
    _split.ranges(4, lambda lo, hi: hit.__setitem__(slice(lo, hi), 1.0), 1)
    parent_pool = _split._pool
    assert parent_pool is not None and hit.all()
    pid = os.fork()
    if pid == 0:                                # child: no inherited pool
        ok = False
        try:
            fresh = _split._pool is None
            _split.ranges(4, lambda lo, hi: hit.__setitem__(
                slice(lo, hi), 2.0), 1)
            ok = fresh and _split._pool not in (None, parent_pool) \
                and (hit == 2.0).all()
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0
    assert _split._pool is parent_pool
