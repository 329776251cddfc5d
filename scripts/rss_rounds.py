"""Resident memory over repeated untraced rounds of one benchmark workload.

    python3 scripts/rss_rounds.py WORKLOAD [--rounds N] [--stages]

Runs N untraced rounds of WORKLOAD (``perfbench.pipeline.run_untraced``, one
round per call) in this one process, with one BLAS thread as the benchmark
uses, and prints after each round its time, the current resident set size and
the process's resident high-water mark, in MiB.  Memory that a round leaves
behind (native allocations not returned to the system, objects kept alive)
shows as a current RSS that grows from round to round; a flat column means
each round gives back what it took.

With ``--stages`` the layer functions that the round calls are wrapped for
the first round, each swapped for the duration of that round as
``criterion06_evidence.py`` swaps definitions, and the same two figures are
printed after every layer call, the assembled matrix that the benchmark's
checks read at the end of the round included.
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
from contextlib import ExitStack, contextmanager
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


def report(label):
    """One line: ``label``, the current RSS and the high-water mark."""
    rss = current_rss_mib()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("%-24s %8s  %12.1f" % (label, "-" if rss is None else "%.1f" % rss,
                                 peak), flush=True)


@contextmanager
def reported(owner, name, label):
    """owner.name wrapped to report the memory after each call, inside the
    with-block."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        report(label)
        return out
    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, fn)


def stages(pipeline):
    """(owner, name, label) of the layer calls of one untraced round, in
    call order; build_case reaches its layers through ``hdglab.bench``."""
    from hdglab import assembly, bench, dd
    return [(bench, "build_structured_mesh", "mesh"),
            (bench, "build_trace_dof_map", "DOF map"),
            (assembly, "ElementBlocks", "element blocks"),
            (bench, "assemble_trace_system", "assembly"),
            (bench, "build_subdomains", "dd"),
            (pipeline, "build_constraints", "constraints"),
            (pipeline, "build_preconditioner", "BDDC"),
            (pipeline, "gmres", "GMRES"),
            (dd.Subdomains, "back_substitute", "back-substitution"),
            (assembly, "assemble_matrix", "sys.A (checks)")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--stages", action="store_true",
                   help="report after every layer call of the first round")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pipeline

    wl = pipeline.WORKLOADS.get(args.workload)
    if wl is None:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(pipeline.WORKLOADS)),
              file=sys.stderr)
        return 2
    print("%-24s %8s  %12s" % ("", "rss_mib", "peak_rss_mib"))
    if args.stages:
        report("imports")
    for i in range(1, args.rounds + 1):
        with ExitStack() as stack:
            if args.stages and i == 1:
                for owner, name, label in stages(pipeline):
                    stack.enter_context(reported(owner, name, label))
            t0 = time.perf_counter()
            pipeline.run_untraced(wl, 0.0, [])
        report("round %d (%.2f s)" % (i, time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
