"""Smoke tests of scripts/criterion06_evidence.py, of the paired summary in
scripts/ab_pairs.py, of the memory readings in scripts/rss_rounds.py and of
the array fingerprints in scripts/fingerprint.py.

The criterion-06 script swaps package definitions per row (its tau rows
swap ``hdg.upwind_tau``), so an edit that breaks a swap shows here.  The counts are the 2x2 cell (rotating,
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


def test_ab_pairs_summary():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", SCRIPTS / "ab_pairs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    run = lambda t, it, failed=0: {"failed": failed, "metrics": {
        "t": {"value": t, "unit": "s"}, "it": {"value": it, "unit": "count"}}}
    parent = [run(4.0, 10), run(5.0, 10), run(6.0, 10), run(3.0, 10)]
    change = [run(3.0, 10), run(4.0, 10), run(7.0, 10, failed=1), None]
    metrics = [{"name": "t", "better": "lower"},
               {"name": "it", "better": "lower"}]
    lines = script.summarize(parent, change, metrics)
    assert lines[:2] == ["FLAGGED: change run of pair 3 has failed = 1",
                         "FLAGGED: change run of pair 4 printed no result"]
    # three complete pairs: t 4/5/6 against 3/4/7, two won; it all tied.
    # Quartiles that overlap (or touch) leave the reading unresolved
    t = lines[3].split()
    assert t[0] == "t" and t[1:4] == ["5", "[4.5,", "5.5]"]
    assert t[4:7] == ["4", "[3.5,", "5.5]"]
    assert t[7:] == ["-20.0%", "2/3", "unresolved"]
    it = lines[4].split()
    assert it[0] == "it" and it[7:] == ["+0.0%", "0/3", "unresolved"]
    # --trace: traced runs, summarized over the per-layer metrics
    bench = {"command": ["python3", "perfbench/run.py"], "run_seconds": 20,
             "end_to_end": metrics,
             "per_layer": [{"name": "dd.apply_ms", "better": "lower"}]}
    cmd, layer = script.plan(bench, "w", trace=True)
    assert cmd[-2:] == ["--trace", "1"] and layer == bench["per_layer"]
    cmd, e2e = script.plan(bench, "w", trace=False)
    assert cmd == ["python3", "perfbench/run.py", "--workload", "w",
                   "--seconds", "20", "--trace", "0"] and e2e == metrics
    traced = lambda ms: {"failed": 0, "metrics": {
        "dd.apply_ms": {"value": ms, "unit": "ms"}}}
    lines = script.summarize([traced(2.0), traced(3.0)],
                             [traced(1.0), traced(1.5)], layer)
    row = lines[1].split()
    # [1.125, 1.375] against [2.25, 2.75]: disjoint
    assert row[0] == "dd.apply_ms"
    assert row[7:] == ["-50.0%", "2/2", "resolved"]


def test_rss_rounds_reads_resident_memory(capsys):
    spec = importlib.util.spec_from_file_location(
        "rss_rounds", SCRIPTS / "rss_rounds.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rss = script.current_rss_mib()
    assert rss is None or rss > 1.0
    assert script.main(["no-such-workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_rss_rounds_stages(capsys):
    from hdglab import bench
    spec = importlib.util.spec_from_file_location(
        "rss_rounds", SCRIPTS / "rss_rounds.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    build = bench.build_structured_mesh
    assert script.main(["many-subdomains", "--rounds", "1", "--stages"]) == 0
    assert bench.build_structured_mesh is build        # the swap is undone
    labels = [ln[:24].rstrip() for ln in capsys.readouterr().out.splitlines()]
    # one cell, then one op per variant (bddc1, bddc3); the build drops the
    # element blocks, so the checks run the element pass again for sys.A
    op = ["constraints", "BDDC", "GMRES", "back-substitution"]
    assert labels[1:] == (["imports", "mesh", "DOF map", "element blocks",
                           "assembly", "dd"] + 2 * op
                          + ["element blocks", "sys.A (checks)", labels[-1]])
    assert labels[-1].startswith("round 1 (")


def test_fingerprint_repeats(capsys):
    spec = importlib.util.spec_from_file_location(
        "fingerprint", SCRIPTS / "fingerprint.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    runs = []
    for _ in range(2):
        assert script.main(["many-subdomains"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    # fifteen arrays of the cell, then ten arrays and the count per variant
    assert len(runs[0]) == 15 + 2 * 11 and runs[0] == runs[1]
    assert runs[0][0].startswith(
        "many-subdomains 16x16/8 - interface_runs.edges ")
    assert runs[0][3].startswith(
        "many-subdomains 16x16/8 - interface_runs.tangent ")
    assert runs[0][6].startswith(
        "many-subdomains 16x16/8 - interface_runs.run_of_edge ")
    assert runs[0][7].startswith("many-subdomains 16x16/8 - blocks.S_hat ")
    assert runs[0][11].startswith("many-subdomains 16x16/8 - mesh.edges ")
    assert runs[0][-1] == "many-subdomains 16x16/8 bddc3 iterations 10"
    assert script.main(["no-such-workload"]) == 2
    assert "unknown workload" in capsys.readouterr().err
