"""Tests of the benchmark's own checks, on 2x2-subdomain cells.

    python3 -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import pipeline  # noqa: E402

SMALL = pipeline.Workload("thermal", 1.0, 0, [((2, 2), 2), ((2, 2), 4)],
                          ("bddc1", "bddc2", "bddc3"), max_growth=2)


@pytest.fixture(scope="module")
def solved():
    systems = []
    rounds = pipeline.run_untraced(SMALL, 0.0, systems)
    assert len(rounds) == 1
    return rounds[0].ops, systems


def edited(ops, i, **fields):
    """Copy of ``ops`` with operation ``i`` copied and its fields replaced."""
    ops = list(ops)
    ops[i] = copy.copy(ops[i])
    for name, value in fields.items():
        setattr(ops[i], name, value)
    return ops


def index(ops, cell, variant):
    return next(i for i, op in enumerate(ops)
                if (op.cell, op.variant) == (cell, variant))


def test_solved_workload_passes(solved):
    ops, systems = solved
    fails, worst = checks.check(SMALL, ops, systems)
    assert fails == {}
    assert len(ops) == 6
    assert worst["residual"] < 1e-8 and worst["spsolve"] < 1e-8


def test_perturbed_trace_solution_fails(solved):
    ops, systems = solved
    i = index(ops, 1, "bddc2")
    lam = ops[i].lam.copy()
    lam[lam.size // 2] += 1e-4 * np.linalg.norm(lam)
    fails, _ = checks.check(SMALL, edited(ops, i, lam=lam), systems)
    assert sorted(fails) == [i]
    reasons = " ".join(fails[i])
    assert "residual" in reasons and "spsolve" in reasons \
        and "differs from bddc1" in reasons


def test_unconverged_or_rising_history_fails(solved):
    ops, systems = solved
    i = index(ops, 0, "bddc1")
    fails, _ = checks.check(SMALL, edited(ops, i, converged=False), systems)
    assert sorted(fails) == [i]
    rising = ops[i].resvec.copy()
    rising[1] = 1.5 * rising[0]
    fails, _ = checks.check(SMALL, edited(ops, i, resvec=rising), systems)
    assert sorted(fails) == [i]


def test_count_outside_published_band_fails(solved):
    ops, systems = solved
    i = index(ops, 1, "bddc1")
    n = ops[i].iterations
    inside = copy.copy(SMALL)
    inside.published = {(1, "bddc1"): (n - 3, n + 3)}
    assert checks.check(inside, ops, systems)[0] == {}
    outside = copy.copy(SMALL)
    outside.published = {(1, "bddc1"): (n + 1, n + 7)}
    fails, _ = checks.check(outside, ops, systems)
    assert sorted(fails) == [i]
    assert "published band" in fails[i][0]


@pytest.mark.parametrize("counts, bad", [
    ((0, 0, 2), "bddc3"),       # bddc3 > bddc2 + 1 (and > bddc1 + 2)
    ((0, 2, 0), "bddc2"),       # bddc2 > bddc1 + 1
])
def test_broken_variant_chain_fails(solved, counts, bad):
    ops, systems = solved
    base = max(op.iterations for op in ops)
    for v, extra in zip(SMALL.variants, counts):
        ops = edited(ops, index(ops, 0, v), iterations=base + extra)
    fails, _ = checks.check(SMALL, ops, systems)
    i = index(ops, 0, bad)
    assert sorted(fails) == [i]
    assert fails[i][0].startswith(bad + " ")


def test_growth_beyond_bound_fails(solved):
    ops, systems = solved
    first = ops[index(ops, 0, "bddc1")].iterations
    i = index(ops, 1, "bddc1")
    ops = edited(ops, i, iterations=first + 3)
    for v in ("bddc2", "bddc3"):            # keep the chain intact
        ops = edited(ops, index(ops, 1, v), iterations=first + 3)
    fails, _ = checks.check(SMALL, ops, systems)
    assert sorted(fails) == [i]
    assert "grew by 3" in fails[i][0]


def test_traced_run_reports_every_listed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = pipeline.Tracer()
    ops, counts, meshes = pipeline.run_spans(SMALL, tracer)
    alloc = pipeline.run_alloc(SMALL, meshes)
    layer = pipeline.layer_metrics(tracer, counts, alloc, 0.0)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert layer[m["name"]][1] == m["unit"]
    assert counts["krylov.iterations"] == sum(op.iterations for op in ops)
    assert layer["dd.apply_calls"][0] == counts["krylov.iterations"] \
        + len(ops)
    assert all(alloc[name] > 0 for name in alloc)
    spans = tracer.records()
    assert all(s["end"] >= s["start"] for s in spans)
    assert {s["name"] for s in spans if s["parent"] == -1} == {"cell"}


def test_workloads_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(pipeline.WORKLOADS)
