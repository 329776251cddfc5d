"""Record one traced benchmark snapshot: BENCH_<n>.json at the repository root.

    python3 scripts/bench_snapshot.py N

Runs the benchmark command of ``BENCHMARK.json`` once per workload it names,
with ``--seconds <run_seconds> --trace 1``, and writes the last line of each
run's standard output (one JSON object: correct, attempted, failed and the
per-layer metrics) to ``BENCH_<N>.json``, keyed by workload.  Each perf change
adds the next snapshot and compares it with the one before.  Exits non-zero
if any run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("n", type=int, help="snapshot number")
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
    return status


if __name__ == "__main__":
    sys.exit(main())
