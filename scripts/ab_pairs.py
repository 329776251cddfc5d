"""Paired A/B runs of one benchmark workload: a parent checkout against this one.

    python3 scripts/ab_pairs.py PARENT_DIR --workload W [--pairs N] [--trace]

Runs the benchmark command of ``BENCHMARK.json`` (``--seconds <run_seconds>
--trace 0``) N times in PARENT_DIR and N times in this checkout, alternating:
the parent runs first in odd pairs, this checkout in even ones.  Prints each
run's end-to-end metrics as it finishes, then per end-to-end metric the
median [q1, q3] on each side, the change of the medians, in how many pairs
this checkout was better (ties count for neither side) and whether the
reading is "resolved": the two sides' [q1, q3] are disjoint.  Quartiles
that overlap read "unresolved", not unchanged.  With ``--trace`` the
runs are ``--trace 1`` runs and the summary covers the ``per_layer`` metrics
instead: per-layer times read against a parent traced in the same session,
not against a snapshot recorded at another time on a machine whose speed
drifts.  Any run that reports ``failed > 0``, or prints no result, is
flagged.  Exits non-zero if any run is flagged.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, cwd):
    """Last JSON line of one benchmark run, or None if it printed none."""
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out.stdout + out.stderr)
        return None


def summarize(parent, change, end_to_end):
    """Report lines for paired runs ``parent[i]`` / ``change[i]`` (result
    dicts as the benchmark prints them, None for a run without one) over the
    metrics ``end_to_end`` (the ``end_to_end`` list of BENCHMARK.json)."""
    lines = []
    for side, runs in (("parent", parent), ("change", change)):
        for i, run in enumerate(runs, 1):
            if run is None:
                lines.append("FLAGGED: %s run of pair %d printed no result"
                             % (side, i))
            elif run.get("failed", 0) > 0:
                lines.append("FLAGGED: %s run of pair %d has failed = %d"
                             % (side, i, run["failed"]))
    pairs = [(p, c) for p, c in zip(parent, change)
             if p is not None and c is not None]
    lines.append("%-28s %-30s %-30s %8s %6s  %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "median", "won", "quartiles"))
    for metric in end_to_end:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        vals = np.array([[run["metrics"][name]["value"] for run in pair]
                         for pair in pairs]).reshape(-1, 2)
        if not len(vals):
            lines.append("%-28s no complete pair" % name)
            continue
        q = np.percentile(vals, [25, 50, 75], axis=0)
        won = int(np.sum(sign * (vals[:, 1] - vals[:, 0]) < 0))
        rel = (q[1, 1] - q[1, 0]) / abs(q[1, 0]) if q[1, 0] else float("nan")
        disjoint = q[2, 1] < q[0, 0] or q[0, 1] > q[2, 0]
        lines.append("%-28s %-30s %-30s %+7.1f%% %3d/%d  %s" % (
            name,
            "%.4g [%.4g, %.4g]" % (q[1, 0], q[0, 0], q[2, 0]),
            "%.4g [%.4g, %.4g]" % (q[1, 1], q[0, 1], q[2, 1]),
            100.0 * rel, won, len(vals),
            "resolved" if disjoint else "unresolved"))
    return lines


def plan(bench, workload, trace):
    """The benchmark command of one run and the metrics to summarize, from
    the parsed BENCHMARK.json ``bench``: the ``per_layer`` metrics of
    ``--trace 1`` runs, or the ``end_to_end`` metrics of ``--trace 0``."""
    cmd = bench["command"] + ["--workload", workload, "--seconds",
                              str(bench["run_seconds"]), "--trace",
                              "1" if trace else "0"]
    return cmd, bench["per_layer" if trace else "end_to_end"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="root of the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", action="store_true",
                   help="traced runs; summarize the per-layer metrics")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd, metrics = plan(bench, args.workload, args.trace)
    names = [m["name"] for m in metrics]
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    print("# " + " ".join(cmd), flush=True)
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            run = run_once(cmd, sides[side])
            runs[side].append(run)
            got = "no result" if run is None else "failed=%d %s" % (
                run.get("failed", 0), " ".join(
                    "%s=%.4g" % (n, run["metrics"][n]["value"])
                    for n in names if n in run.get("metrics", {})))
            print("# pair %d %s: %s" % (i, side, got), flush=True)
    lines = summarize(runs["parent"], runs["change"], metrics)
    print("\n".join(lines))
    return 1 if any(ln.startswith("FLAGGED") for ln in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
