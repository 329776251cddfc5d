"""Record one traced benchmark snapshot: BENCH_<n>.json at the repository root.

    python3 scripts/bench_snapshot.py N [--compare BENCH_<m>.json]

Runs the benchmark command of ``BENCHMARK.json`` once per workload it names,
with ``--seconds <run_seconds> --trace 1``, and writes the last line of each
run's standard output (one JSON object: correct, attempted, failed and the
per-layer metrics) to ``BENCH_<N>.json``, keyed by workload.  Each perf change
adds the next snapshot and compares it with the one before: ``--compare``
prints a Markdown table of every metric, old -> new, one column per workload.
Exits non-zero if any run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(old, new):
    """Markdown table of every metric of ``new``, "old -> new" per workload
    (one column each); a metric or workload missing from a side reads -."""
    def value(run, name):
        metric = (run or {}).get("metrics", {}).get(name)
        return "-" if metric is None else "%.4g" % metric["value"]

    workloads = list(new)
    units = {}
    for w in workloads:
        for name, metric in new[w]["metrics"].items():
            units.setdefault(name, metric["unit"])
    lines = ["| metric | " + " | ".join(workloads) + " |",
             "|---" * (len(workloads) + 1) + "|"]
    for name, unit in units.items():
        cells = ["%s → %s" % (value(old.get(w), name), value(new[w], name))
                 for w in workloads]
        lines.append("| `%s` (%s) | %s |" % (name, unit, " | ".join(cells)))
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("n", type=int, help="snapshot number")
    p.add_argument("--compare", metavar="BENCH_M.json",
                   help="earlier snapshot to print the metrics against")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out, status = {}, 0
    for wl in bench["workloads"]:
        name = wl["name"]
        cmd = bench["command"] + ["--workload", name, "--seconds",
                                  str(bench["run_seconds"]), "--trace", "1"]
        print("# " + " ".join(cmd), flush=True)
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode or not lines:
            sys.stderr.write(run.stdout + run.stderr)
            status = 1
        if lines:
            out[name] = json.loads(lines[-1])
    path = ROOT / ("BENCH_%d.json" % args.n)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("# wrote %s" % path.name)
    if args.compare:
        old = json.loads((ROOT / args.compare).read_text())
        print(compare(old, out))
    return status


if __name__ == "__main__":
    sys.exit(main())
