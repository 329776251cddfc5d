"""Smoke test of scripts/criterion06_evidence.py.

The script swaps package definitions per row; its tau rows recompile
``hdg.ElementBlocks._build`` from source, so an edit there that breaks the
swap shows here.  The counts are the 2x2 cell (rotating, eps = 1e-6, k = 0,
H/h = 6) of each row.
"""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "criterion06_evidence.py"

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
