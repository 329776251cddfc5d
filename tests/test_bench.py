import csv
import inspect
import io
import json
import types

import numpy as np
import pytest

from hdglab.bench import BenchmarkConfig, CaseResult, build_arg_parser, \
    build_case, config_from_args, convergence_study, emit_csv, emit_table, \
    emit_convergence, main, make_problem, manufactured_exact, \
    monotonicity_flags, problem_manufactured, problem_rotating, \
    problem_thermal, run_case, run_sweep, _parse_grid, _split
from hdglab import bench
from hdglab.assembly import assemble_trace_system
from hdglab.mesh import InvalidConfigError


# ---------------------------------------------------------------- problems

def test_thermal_field_values():
    spec = problem_thermal(1e-3)
    assert spec.eps == 1e-3 and spec.name == "thermal"
    bx, by = spec.beta_at(np.array([0.0]), np.array([1.0]))
    assert bx[0] == 1.0 and by[0] == 0.0
    bx, _ = spec.beta_at(np.array([0.3]), np.array([-1.0]))
    assert bx[0] == 0.0


def test_thermal_boundary_data():
    g = problem_thermal().g
    y = np.linspace(-0.9, 0.9, 5)
    # inflow wall x = -1 and the top are held at 1, the bottom at 0
    assert np.all(g(-np.ones_like(y), y) == 1.0)
    assert np.all(g(np.linspace(-1, 1, 5), np.ones(5)) == 1.0)
    assert np.all(g(np.linspace(-0.9, 0.9, 5), -np.ones(5)) == 0.0)
    # outflow wall carries the linear profile, including its corners
    assert np.allclose(g(np.ones_like(y), y), (1.0 + y) / 2.0)
    assert g(1.0, -1.0) == 0.0 and g(1.0, 1.0) == 1.0


def test_rotating_field_values():
    spec = problem_rotating()
    bx, by = spec.beta_at(np.array([1.0, 0.0]), np.array([0.0, 0.5]))
    assert np.allclose(bx, [0.0, 0.5]) and np.allclose(by, [-1.0, 0.0])
    g = spec.g
    assert np.all(g(np.ones(3), np.linspace(-1, 1, 3)) == 1.0)
    assert g(0.5, 1.0) == 1.0 and g(0.5, -1.0) == 1.0
    assert g(-1.0, 0.3) == 0.0 and g(-0.5, 1.0) == 0.0


@pytest.mark.parametrize("advect", [False, True])
def test_manufactured_forcing_matches_pde(advect):
    # f must equal -eps lap(u) + beta.grad(u) for the exact solution
    eps = 0.7
    spec = problem_manufactured(eps, advect=advect, h=0.25)
    x, y = 0.37, -0.21
    d = 1e-5
    u = manufactured_exact
    lap = (u(x + d, y) + u(x - d, y) + u(x, y + d) + u(x, y - d)
           - 4.0 * u(x, y)) / d ** 2
    ux = (u(x + d, y) - u(x - d, y)) / (2.0 * d)
    uy = (u(x, y + d) - u(x, y - d)) / (2.0 * d)
    bx, by = spec.beta_at(np.array([x]), np.array([y]))
    want = -eps * lap + bx[0] * ux + by[0] * uy
    assert np.isclose(spec.f(x, y), want, rtol=1e-5)
    assert spec.g(x, -1.0) == 0.0


def test_manufactured_stabilization_scaling():
    spec = problem_manufactured(1e-2, advect=False, h=0.125)
    assert spec.tau_strategy == "upwind_plus_diffusive"
    assert np.isclose(spec.sigma * spec.eps / 0.125, 1.0)  # tau = O(1)
    assert problem_manufactured(1.0, advect=True).tau_strategy == "upwind"


def test_make_problem_dispatch():
    assert make_problem("thermal", 0.5).name == "thermal"
    assert make_problem("rotating", 0.5).name == "rotating"
    assert make_problem("manufactured", 0.5).name == "manufactured"
    with pytest.raises(InvalidConfigError):
        make_problem("poiseuille", 1.0)


# ------------------------------------------------------------------ config

def test_config_validation():
    BenchmarkConfig()  # defaults are valid
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(problem="stokes")
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(epsilons=())
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(degrees=(3,))
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(variants=("bddc9",))
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(tol=0.0)
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(maxit=0)
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(fmt="yaml")


@pytest.mark.parametrize("field,value", [
    ("epsilons", ["1"]), ("epsilons", 1.0), ("variants", "bddc1"),
    ("degrees", [1.0]), ("grids", "4x4"), ("grids", [(2, 2, 2)]),
    ("ratios", [True]), ("tol", "1e-3"), ("maxit", 1.5), ("fmt", None),
    ("advect", "no"), ("problem", 0)])
def test_config_checks_field_types(field, value):
    # a config built in Python is held to the config file's types: no
    # TypeError from a comparison, no string split into characters, no float
    # degree passed through
    with pytest.raises(InvalidConfigError, match="config key '%s'" % field):
        BenchmarkConfig(**{field: value})


def test_config_takes_tuples_and_grid_strings():
    config = BenchmarkConfig(epsilons=(1.0, 1e-2), grids=["2x3", [4, 4]],
                             variants=("bddc1", "bddc3"))
    assert config.epsilons == [1.0, 1e-2]
    assert config.grids == [(2, 3), (4, 4)]
    assert config.variants == ["bddc1", "bddc3"]


def test_case_result_labels():
    ok = CaseResult("thermal", 1.0, 0, (2, 2), 2, "bddc1",
                    iterations=7, converged=True)
    assert ok.label() == "7"
    cap = CaseResult("thermal", 1.0, 0, (2, 2), 2, "bddc1",
                     iterations=50, converged=False)
    assert cap.label() == ">50"
    err = CaseResult("thermal", 1.0, 0, (2, 2), 2, "bddc1", error="boom")
    assert err.label() == "ERR"


# ------------------------------------------------------------------- cases

def test_run_case_all_primal_single_iteration():
    r = run_case("thermal", 1.0, 0, (2, 2), 2, "all-primal")
    assert r.error is None and r.converged and r.iterations == 1
    assert r.true_residual < 1e-10 and r.seconds > 0.0


def test_run_case_unpreconditioned_and_shared_build():
    built = build_case("rotating", 1e-2, 0, (2, 2), 3)
    rn = run_case("rotating", 1e-2, 0, (2, 2), 3, "none", built=built)
    rp = run_case("rotating", 1e-2, 0, (2, 2), 3, "bddc3", built=built)
    assert rn.converged and rp.converged
    assert rn.true_residual < 1e-9 and rp.true_residual < 1e-9


def _float_arrays(root):
    """Every float array reachable from ``root`` through containers,
    instance attributes and the bases of views."""
    seen, todo, out = set(), [root], []
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType,
                                           types.FunctionType)):
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            if x.dtype.kind == "f":
                out.append(x)
            if x.base is not None:
                todo.append(x.base)
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif hasattr(x, "__dict__"):
            todo.extend(vars(x).values())
    return out


@pytest.mark.parametrize("problem,k", [("manufactured", 1), ("rotating", 2)])
def test_build_case_drops_the_element_blocks(problem, k):
    # the subdomains have condensed the element blocks: no float array with
    # one row per element is left, and the blocks and the matrix that the
    # oracles rebuild equal, bit for bit, those of a build that kept them
    built = build_case(problem, 1e-2, k, (2, 3), 2)
    mesh, dofs, spec, sys_, subs, _ = built
    assert "blocks" not in vars(sys_)
    nel = mesh.n_triangles
    assert [a.shape for a in _float_arrays(built) if a.shape[:1] == (nel,)] \
        == []
    kept = assemble_trace_system(mesh, dofs, spec, k)
    for name in ("S_hat", "b_hat", "taus", "hK"):
        assert np.array_equal(getattr(sys_.blocks, name),
                              getattr(kept.blocks, name))
    assert np.array_equal(sys_.b, kept.b)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(sys_.A, name), getattr(kept.A, name))


def test_run_case_reraises_config_errors():
    with pytest.raises(InvalidConfigError):
        run_case("thermal", 1.0, 0, (0, 2), 2, "bddc1")


def test_run_case_paper_spot_value():
    # thermal layer, eps=1, degree 0, 8x8 subdomains, H/h=6, bddc3:
    # published count is 10; allow the one-iteration stopping margin
    r = run_case("thermal", 1.0, 0, (8, 8), 6, "bddc3")
    assert r.converged and abs(r.iterations - 10) <= 1


def test_run_case_diagnostics_attached():
    r = run_case("thermal", 1.0, 0, (2, 2), 2, "bddc3", diagnostics=True)
    assert r.diag is not None
    assert r.diag.norm_h > 0.0 and r.diag.gamma >= 1.0


def test_run_sweep_shares_coordinates_and_orders_rows():
    config = BenchmarkConfig(problem="thermal", epsilons=(1.0, 1e-3),
                             grids=((2, 2),), ratios=(2,),
                             variants=("bddc1", "bddc3"))
    results = run_sweep(config)
    assert [(r.epsilon, r.variant) for r in results] == \
        [(1.0, "bddc1"), (1.0, "bddc3"), (1e-3, "bddc1"), (1e-3, "bddc3")]
    assert all(r.error is None and r.converged for r in results)


def test_run_sweep_build_failure_becomes_error_cells():
    # eps = 1e20 makes the local saddle blocks singular: the build fails,
    # and both variants of the cell are recorded as errors
    config = BenchmarkConfig(problem="thermal", epsilons=(1e20,),
                             grids=((1, 2),), ratios=(2,),
                             variants=("bddc1", "bddc2"))
    results = run_sweep(config)
    assert len(results) == 2
    assert all(r.label() == "ERR" and
               r.error.startswith("StabilizationError: local saddle block "
                                  "nearly singular") for r in results)


def test_run_sweep_lets_config_errors_through(monkeypatch):
    # a config error raised by the build stops the sweep, as in run_case
    def refuse(*args, **kwargs):
        raise InvalidConfigError("refused")
    monkeypatch.setattr(bench, "build_case", refuse)
    with pytest.raises(InvalidConfigError, match="refused"):
        run_sweep(BenchmarkConfig(problem="thermal"))


# ------------------------------------------------------------- monotonicity

def _cell(variant, iterations, converged=True):
    return CaseResult("thermal", 1.0, 0, (4, 4), 6, variant,
                      iterations=iterations, converged=converged)


def test_monotonicity_flags():
    good = [_cell("bddc1", 11), _cell("bddc2", 11), _cell("bddc3", 10)]
    assert monotonicity_flags(good) == set()
    bad2 = [_cell("bddc1", 11), _cell("bddc2", 13), _cell("bddc3", 10)]
    assert monotonicity_flags(bad2) == {id(bad2[1])}
    # an unconverged count is treated as at least iterations+1
    cap = [_cell("bddc1", 11), _cell("bddc2", 12, converged=False)]
    assert monotonicity_flags(cap) == {id(cap[1])}
    skip2 = [_cell("bddc1", 11), _cell("bddc3", 14)]
    assert monotonicity_flags(skip2) == {id(skip2[1])}


# -------------------------------------------------------------------- emit

def test_csv_roundtrip():
    config = BenchmarkConfig(problem="thermal", epsilons=(1.0, 1e-3),
                             grids=((2, 2),), ratios=(2,),
                             variants=("bddc1", "bddc3"))
    results = run_sweep(config)
    buf = io.StringIO()
    emit_csv(results, buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == len(results)
    for rec, r in zip(rows, results):
        assert rec["problem"] == "thermal"
        assert float(rec["epsilon"]) == r.epsilon
        assert (int(rec["nsub_x"]), int(rec["nsub_y"])) == r.grid
        assert rec["variant"] == r.variant
        assert int(rec["iterations"]) == r.iterations
        assert rec["converged"] == "True"
        assert float(rec["true_residual"]) == r.true_residual


def test_csv_diagnostics_columns():
    r = run_case("thermal", 1.0, 0, (2, 2), 2, "bddc3", diagnostics=True)
    buf = io.StringIO()
    emit_csv([r], buf)
    header = buf.getvalue().splitlines()[0]
    assert "gamma" in header and "fov_max" in header
    rec = next(csv.DictReader(io.StringIO(buf.getvalue())))
    assert float(rec["gamma"]) >= 1.0


def test_emit_table_layout_and_flags():
    results = [_cell("bddc1", 11), _cell("bddc2", 14)]
    buf = io.StringIO()
    emit_table(results, buf)
    text = buf.getvalue()
    assert "# thermal  degree 0  H/h = 6" in text
    assert "bddc1" in text and "bddc2" in text and "4x4" in text
    assert "1.00e+00" in text
    assert "14!" in text and "11" in text  # violation marked, count shown


@pytest.mark.parametrize("variants,grids", [
    (("none", "all-primal", "bddc2"), [(2, 2)]),
    (("bddc1", "all-primal"), [(2, 2), (4, 4)]),
    (("all-primal",), [(2, 2), (4, 4), (8, 8)])])
def test_emit_table_groups_fit_their_names(variants, grids):
    # every column bar sits at the same place in the headers and the rows,
    # and each variant's name has a space before the next group's bar
    results = [CaseResult("thermal", eps, 0, g, 6, v, iterations=12,
                          converged=True)
               for eps in (1.0, 1e-3) for v in variants for g in grids]
    buf = io.StringIO()
    emit_table(results, buf)
    lines = buf.getvalue().splitlines()[1:-1]
    bars = [[i for i, ch in enumerate(ln) if ch == "|"] for ln in lines]
    assert len(bars[0]) == len(variants) and all(b == bars[0] for b in bars)
    head = lines[0] + " "
    for v, bar, stop in zip(variants, bars[0], bars[0][1:] + [len(head)]):
        assert head.index("| %s " % v) == bar and bar + len(v) + 3 <= stop


def test_emit_table_missing_cells_dashed():
    results = [_cell("bddc1", 11),
               CaseResult("thermal", 1e-3, 0, (4, 4), 6, "bddc2",
                          iterations=9, converged=True)]
    buf = io.StringIO()
    emit_table(results, buf)
    assert "-" in buf.getvalue()


# ------------------------------------------------------------- convergence

def test_convergence_study_orders():
    rows, slopes = convergence_study(eps=1.0, degrees=(0, 1),
                                     levels=(4, 8, 16), nsub=2)
    assert len(rows) == 6
    ks, hs, errs, rates = zip(*rows)
    assert np.isnan(rates[0]) and rates[1] > 0.5
    assert abs(slopes[0] - 1.0) < 0.35
    assert abs(slopes[1] - 2.0) < 0.35


def test_emit_convergence_formats():
    rows, slopes = convergence_study(eps=1.0, degrees=(0,), levels=(4, 8),
                                     nsub=2)
    buf = io.StringIO()
    emit_convergence(rows, slopes, buf, fmt="table")
    assert "observed order" in buf.getvalue()
    buf = io.StringIO()
    emit_convergence(rows, slopes, buf, fmt="csv")
    assert buf.getvalue().startswith("degree,h,l2_error,rate")


# --------------------------------------------------------------------- CLI

def test_parse_grid_and_split():
    assert _parse_grid("4x4") == (4, 4) and _parse_grid("2X8") == (2, 8)
    with pytest.raises(InvalidConfigError):
        _parse_grid("huge")
    assert _split("1,1e-3  1e-6") == ["1", "1e-3", "1e-6"]


def test_cli_args_to_config():
    args = build_arg_parser().parse_args(
        ["--problem", "rotating", "--epsilon", "1,1e-3", "--degree", "0,1",
         "--subdomains", "2x2,4x4", "--ratio", "2,6", "--variant",
         "bddc1,bddc3", "--tol", "1e-8", "--maxit", "50"])
    config = config_from_args(args)
    assert config.problem == "rotating"
    assert config.epsilons == [1.0, 1e-3] and config.degrees == [0, 1]
    assert config.grids == [(2, 2), (4, 4)] and config.ratios == [2, 6]
    assert config.variants == ["bddc1", "bddc3"]
    assert config.tol == 1e-8 and config.maxit == 50


def test_cli_config_file_with_overrides(tmp_path):
    cfile = tmp_path / "sweep.json"
    cfile.write_text(json.dumps({
        "problem": "thermal", "epsilons": [1.0], "grids": ["2x2"],
        "ratios": [2], "variants": ["bddc1"], "maxit": 40}))
    args = build_arg_parser().parse_args(
        ["--config", str(cfile), "--variant", "bddc3"])
    config = config_from_args(args)
    assert config.variants == ["bddc3"]    # CLI wins
    assert config.maxit == 40 and config.grids == [(2, 2)]


def test_cli_sweep_to_csv_file(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    rc = main(["--problem", "thermal", "--epsilon", "1", "--degree", "0",
               "--subdomains", "2x2", "--ratio", "2", "--variant",
               "bddc1,bddc3", "--format", "csv", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 2 and all(r["converged"] == "True" for r in rows)


def test_cli_table_to_stdout(capsys):
    rc = main(["--problem", "rotating", "--epsilon", "1e-2", "--degree",
               "0", "--subdomains", "2x2", "--ratio", "2", "--variant",
               "bddc3"])
    assert rc == 0
    assert "# rotating  degree 0  H/h = 2" in capsys.readouterr().out


def test_cli_manufactured_runs_convergence(capsys):
    rc = main(["--problem", "manufactured", "--degree", "0", "--ratio",
               "4,8", "--epsilon", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "observed order" in out and "degree 0" in out


def test_cli_rejects_bad_config(capsys):
    assert main(["--problem", "thermal", "--epsilon", "2.0x"]) == 2
    assert main(["--config", "/nonexistent/conf.json"]) == 2
    assert "error:" in capsys.readouterr().err
    # the manufactured study runs one eps; a list is refused, not truncated
    assert main(["--problem", "manufactured", "--epsilon", "1,1e-2"]) == 2
    assert "--epsilon" in capsys.readouterr().err


def test_cli_manufactured_takes_grid_and_ratios(capsys):
    # nsub from --subdomains and the levels from --ratio: h = 2 / (3 H/h)
    assert main(["--problem", "manufactured", "--degree", "0", "--ratio",
                 "4,8", "--subdomains", "3x3"]) == 0
    out = capsys.readouterr().out
    assert "0.16667" in out and "0.08333" in out and "0.25000" not in out


@pytest.mark.parametrize("argv,flag", [
    (["--problem", "manufactured", "--ratio", "8"], "--ratio"),
    (["--problem", "manufactured", "--ratio", "4,8", "--subdomains",
      "3x3,4x4"], "--subdomains"),
    (["--problem", "manufactured", "--ratio", "4,8", "--subdomains", "2x3"],
     "--subdomains"),
    (["--problem", "manufactured", "--ratio", "4,8", "--subdomains", "0x0"],
     "--subdomains"),
    (["--problem", "manufactured", "--ratio", "0,4", "--subdomains", "2x2"],
     "--ratio"),
    (["--problem", "thermal", "--subdomains", "0x0"], "--subdomains"),
    (["--problem", "thermal", "--subdomains", "2x0"], "--subdomains"),
    (["--problem", "thermal", "--ratio", "0"], "--ratio"),
    (["--problem", "rotating", "--epsilon", "-1"], "--epsilon"),
    (["--problem", "thermal", "--epsilon", "1,0"], "--epsilon"),
    (["--problem", "thermal", "--epsilon", "inf"], "--epsilon"),
    (["--problem", "thermal", "--advect"], "--advect"),
    (["--problem", "rotating", "--advect"], "--advect"),
] + [(["--problem", "manufactured", "--ratio", "2,4"] + extra, extra[0])
     for extra in (["--variant", "bddc3"], ["--tol", "1e-3"],
                   ["--maxit", "5"], ["--diagnostics"])],
    ids=["one-ratio", "two-grids", "non-square-grid", "empty-grid",
         "zero-ratio", "sweep-empty-grid", "sweep-zero-column-grid",
         "sweep-zero-ratio", "sweep-negative-eps", "sweep-zero-eps",
         "sweep-inf-eps",
         "advect-thermal", "advect-rotating",
         "study-variant", "study-tol", "study-maxit", "study-diagnostics"])
def test_cli_refuses_flags_a_run_would_drop(argv, flag, capsys):
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


def test_cli_refuses_study_keys_from_config(tmp_path, capsys):
    # a config file key is refused like its flag: the direct solve ignores it
    cfile = tmp_path / "study.json"
    cfile.write_text(json.dumps({"problem": "manufactured", "ratios": [2, 4],
                                 "maxit": 5}))
    assert main(["--config", str(cfile)]) == 2
    assert "--maxit" in capsys.readouterr().err


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfile = tmp_path / "typo.json"
    cfile.write_text(json.dumps({"problem": "thermal", "epsilon": [1.0]}))
    assert main(["--config", str(cfile)]) == 2
    assert "unknown config key(s): epsilon" in capsys.readouterr().err


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


@pytest.mark.parametrize("config,named", [
    ({"epsilons": ["1"]}, "'epsilons'"),
    ({"ratios": ["8"]}, "'ratios'"),
    ({"grids": [[2, 2, 2]]}, "'grids'"),
    ({"degrees": [1.0]}, "'degrees'"),
    ({"variants": "bddc1"}, "'variants'"),
    ({"advect": "no"}, "'advect'"),
    ([{"epsilons": [1.0]}], "JSON object"),
    ({"epsilons": [float("inf")]}, "--epsilon")],
    ids=["eps-string", "ratio-string", "grid-triple", "degree-float",
         "variants-string", "advect-string", "top-level-array", "eps-inf"])
def test_cli_type_checks_config_values(config, named, tmp_path,
                                       monkeypatch, capsys):
    # a value of the wrong JSON type is refused, with its key named, before
    # any cell runs (json writes inf as Infinity, which it reads back)
    monkeypatch.setattr(bench, "run_sweep", _no_sweep)
    cfile = tmp_path / "sweep.json"
    cfile.write_text(json.dumps(config))
    assert main(["--problem", "thermal", "--config", str(cfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("flag,text,what,bad", [
    ("--degree", "1.0", "integers", "1.0"),
    ("--ratio", "4,2.5", "integers", "2.5"),
    ("--maxit", "1.0", "an integer", "1.0"),
    ("--epsilon", "1,1e-3x", "numbers", "1e-3x")])
def test_cli_number_flags_name_themselves(flag, text, what, bad,
                                          monkeypatch, capsys):
    # exit 2 with the flag and its bad entry named, before any cell runs
    monkeypatch.setattr(bench, "run_sweep", _no_sweep)
    assert main(["--problem", "thermal", flag, text]) == 2
    assert capsys.readouterr().err == "error: %s takes %s, got '%s'\n" % (
        flag, what, bad)


def test_config_types_cover_the_config_fields():
    assert set(bench.CONFIG_TYPES) == \
        set(inspect.signature(BenchmarkConfig).parameters)


def test_cli_unwritable_out_fails_before_the_sweep(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(bench, "run_sweep", _no_sweep)
    out = tmp_path / "missing" / "x.csv"
    assert main(["--problem", "thermal", "--subdomains", "2x2", "--ratio",
                 "2", "--format", "csv", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_error_cells_exit_nonzero(tmp_path):
    out = tmp_path / "bad.csv"
    rc = main(["--problem", "thermal", "--epsilon", "1e20", "--degree", "0",
               "--subdomains", "1x2", "--ratio", "2", "--variant", "bddc1",
               "--format", "csv", "--out", str(out)])
    assert rc == 1
    assert "ERR" not in out.read_text()  # csv keeps raw fields, not labels
