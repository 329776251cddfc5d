"""Resident memory over repeated untraced rounds of one benchmark workload.

    python3 scripts/rss_rounds.py WORKLOAD [--rounds N]

Runs N untraced rounds of WORKLOAD (``perfbench.pipeline.run_untraced``, one
round per call) in this one process, with one BLAS thread as the benchmark
uses, and prints after each round the current resident set size and the
process's resident high-water mark, in MiB.  Memory that a round leaves
behind (native allocations not returned to the system, objects kept alive)
shows as a current RSS that grows from round to round; a flat column means
each round gives back what it took.
"""

import os

# one BLAS / OpenMP thread, as perfbench/run.py sets it; before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 1024.0 * 1024.0


def current_rss_mib():
    """Resident set size of this process now, from /proc (None where it is
    absent)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / MIB


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pipeline

    wl = pipeline.WORKLOADS.get(args.workload)
    if wl is None:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(pipeline.WORKLOADS)),
              file=sys.stderr)
        return 2
    print("round  seconds  rss_mib  peak_rss_mib")
    for i in range(1, args.rounds + 1):
        t0 = time.perf_counter()
        pipeline.run_untraced(wl, 0.0, [])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss = current_rss_mib()
        print("%5d  %7.2f  %7s  %12.1f" % (
            i, time.perf_counter() - t0,
            "-" if rss is None else "%.1f" % rss, peak), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
