"""Smoke tests of scripts/criterion06_evidence.py and of the snapshot
comparison in scripts/bench_snapshot.py.

The criterion-06 script swaps package definitions per row; its tau rows
recompile ``hdg.ElementBlocks._build`` from source, so an edit there that
breaks the swap shows here.  The counts are the 2x2 cell (rotating,
eps = 1e-6, k = 0, H/h = 6) of each row.
"""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT = SCRIPTS / "criterion06_evidence.py"

EXPECTED = {
    "as documented (c=1/2, upwind tau)": (12, 7),
    "Robin c=0": (21, 13),
    "tau = 1.5": (8, 5),
    "dual weights deluxe": (12, 7),
    "dual weights upwind 3/4": (13, 8),
    "primal average per mesh edge": (1, 1),
}


def test_criterion06_evidence_rows(capsys):
    spec = importlib.util.spec_from_file_location("criterion06_evidence",
                                                  SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--grids", "2", "--rows",
                 "documented,Robin c=0,tau = 1.5,deluxe,upwind 3/4,"
                 "per mesh edge"])
    got = {}
    for line in capsys.readouterr().out.splitlines():
        label = line[:36].rstrip()
        counts = re.findall(r"\['(\d+)'\]", line)
        got[label] = tuple(int(c) for c in counts)
    assert got == EXPECTED


def test_bench_snapshot_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", SCRIPTS / "bench_snapshot.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    run = lambda **m: {"metrics": {k: {"value": v, "unit": "s"}
                                   for k, v in m.items()}}
    old = {"a": run(x=1.0, y=0.5)}
    new = {"a": run(x=0.25, y=0.5), "b": run(y=2.0)}
    assert script.compare(old, new).splitlines() == [
        "| metric | a | b |",
        "|---|---|---|",
        "| `x` (s) | 1 → 0.25 | - → - |",
        "| `y` (s) | 0.5 → 0.5 | - → 2 |",
    ]
