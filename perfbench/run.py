"""Run one workload of the solver benchmark and print its metrics.

    python3 perfbench/run.py --workload ratio-sweep --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
``--trace 0`` times whole rounds of the workload until ``--seconds`` have
passed and prints the end-to-end metrics.  ``--trace 1`` does the same,
then one round with a span around every layer call and one round with
``tracemalloc`` around every allocating layer call, prints the per-layer
metrics and writes them with the spans to ``perfbench/out/``.  Every
operation's outputs are checked after the timing.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# one BLAS / OpenMP thread: one core of load and a fixed reduction order,
# so that iteration counts repeat exactly; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and recorded; no workload draws random "
                        "numbers (see README)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="time whole rounds until this much has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def thread_count():
    """Threads of this process, from /proc (None where it is absent)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hdglab" / "__init__.py").is_file():
        print("error: no src/hdglab next to perfbench/; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import pipeline

    wl = pipeline.WORKLOADS.get(args.workload)
    if wl is None:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(pipeline.WORKLOADS)),
              file=sys.stderr)
        return 2

    systems = []
    rounds = pipeline.run_untraced(wl, args.seconds, systems)
    ops = [op for rnd in rounds for op in rnd.ops]
    metrics = {
        "time_to_solution_s": (median([r.total_s for r in rounds]), "s"),
        "setup_s": (median([r.setup_s for r in rounds]), "s"),
        "solve_s": (median([r.solve_s for r in rounds]), "s"),
        # later rounds add heap growth, not workload memory
        "peak_rss_mb": (rounds[0].peak_rss_mib, "MiB"),
        "gmres_iterations": (median([r.iterations for r in rounds]), "count"),
    }
    print("# %s: %d round(s) of %d operation(s), seed %d"
          % (args.workload, len(rounds), len(rounds[0].ops), args.seed))

    if args.trace:
        tracer = pipeline.Tracer()
        traced_ops, counts, meshes = pipeline.run_spans(wl, tracer)
        for op in traced_ops:
            op.round = len(rounds)
        ops += traced_ops
        alloc = pipeline.run_alloc(wl, meshes)
        del meshes
        layer = pipeline.layer_metrics(tracer, counts, alloc,
                                       metrics["time_to_solution_s"][0])
        OUT.mkdir(exist_ok=True)
        path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump(dict(workload=args.workload, seed=args.seed,
                           threads=thread_count(), nproc=os.cpu_count(),
                           end_to_end=metrics, per_layer=layer,
                           spans=tracer.records()), fh, indent=1)
        print("# spans and per-layer metrics written to perfbench/out/%s"
              % path.name)

    fails, worst = checks.check(wl, ops, systems)
    print("# checks: worst |A lam - b|/|b| %.1e, vs spsolve %.1e, between "
          "variants %.1e" % (worst["residual"], worst["spsolve"],
                             worst["variants"]))
    for i, reasons in sorted(fails.items()):
        op = ops[i]
        print("# FAILED round %d cell %d %s: %s"
              % (op.round, op.cell, op.variant, "; ".join(reasons)))
    shown = layer if args.trace else metrics
    for name, (value, unit) in shown.items():
        print("# %-28s %14.6g %s" % (name, value, unit))
    print(json.dumps(dict(
        correct=not fails, attempted=len(ops), failed=len(fails),
        metrics={name: dict(value=value, unit=unit)
                 for name, (value, unit) in shown.items()})))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
