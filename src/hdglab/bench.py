"""Benchmark harness: test problems, parameter sweeps, tables, and the CLI.

The two iteration-count problems (thermal boundary layer and rotating flow)
and the manufactured-solution convergence study are defined here in one
place.  ``run_sweep`` walks the Cartesian product of a BenchmarkConfig,
reusing the assembled system across preconditioner variants, and the
results can be emitted as CSV (stable schema) or as aligned text tables
whose rows are epsilon values and whose column groups are variants.
"""

import argparse
import csv
import json
import sys
import time
from contextlib import ExitStack
from itertools import product

import numpy as np

from .assembly import assemble_trace_system, direct_solve, l2_error_u, \
    recover_all
from .bddc import VARIANTS, BddcPreconditioner, PrimalConstraintSet
from .dd import build_subdomains
from .diagnostics import norm_report
from .fespace import build_trace_dof_map
from .hdg import ProblemSpec
from .krylov import gmres
from .mesh import InvalidConfigError, build_structured_mesh

PROBLEMS = ("thermal", "rotating", "manufactured")

CSV_FIELDS = ("problem", "epsilon", "degree", "nsub_x", "nsub_y", "ratio",
              "variant", "iterations", "converged", "true_residual",
              "seconds")
DIAG_FIELDS = ("norm_h", "jump", "norm_b", "gamma", "fov_min", "fov_max")


def _zeros(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def _beta_zero(x, y):
    return _zeros(x, y), _zeros(x, y)


def _beta_thermal(x, y):
    return (1.0 + np.asarray(y, dtype=float)) * 0.5, _zeros(x, y)


def _g_thermal(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.ones_like(x)                          # x = -1 inflow side
    out = np.where(np.isclose(y, 1.0), 1.0, out)
    out = np.where(np.isclose(y, -1.0), 0.0, out)
    out = np.where(np.isclose(x, 1.0), (1.0 + y) * 0.5, out)
    return out


def problem_thermal(eps=1.0):
    """Thermal boundary layer: beta = ((1+y)/2, 0), layered wall data."""
    return ProblemSpec(eps, _beta_thermal, _zeros, _zeros, _g_thermal,
                       name="thermal")


def _beta_rotating(x, y):
    return np.asarray(y, dtype=float) + 0.0, -np.asarray(x, dtype=float)


def _g_rotating(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    on = np.isclose(x, 1.0) | (np.isclose(np.abs(y), 1.0) & (x > 0.0))
    return np.where(on, 1.0, 0.0)


def problem_rotating(eps=1.0):
    """Rotating flow field: beta = (y, -x), u = 1 on the right-hand walls."""
    return ProblemSpec(eps, _beta_rotating, _zeros, _zeros, _g_rotating,
                       name="rotating")


def manufactured_exact(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def problem_manufactured(eps=1.0, advect=False, h=0.25):
    """u = sin(pi x) sin(pi y) with analytic f = -eps lap(u) + beta.grad(u).

    With ``advect`` the thermal beta is used (pure upwind tau); otherwise
    beta = 0 with the diffusive stabilization scaled so that tau = O(1) on
    a mesh of size ``h`` (tau ~ eps/h is not convergent at degree 0).
    """
    def f_diffusive(x, y):
        return 2.0 * eps * np.pi ** 2 * manufactured_exact(x, y)

    if advect:
        def f(x, y):
            bx, _ = _beta_thermal(x, y)
            return f_diffusive(x, y) + \
                bx * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        return ProblemSpec(eps, _beta_thermal, _zeros, f, _zeros,
                           name="manufactured")
    return ProblemSpec(eps, _beta_zero, _zeros, f_diffusive, _zeros,
                       tau_strategy="upwind_plus_diffusive", sigma=h / eps,
                       name="manufactured")


def make_problem(problem, eps, h=0.25, advect=False):
    if problem == "thermal":
        return problem_thermal(eps)
    if problem == "rotating":
        return problem_rotating(eps)
    if problem == "manufactured":
        return problem_manufactured(eps, advect=advect, h=h)
    raise InvalidConfigError("unknown problem %r" % (problem,))


class BenchmarkConfig:
    """Cartesian sweep definition (lists are swept, scalars are shared).

    Each field takes the type that ``CONFIG_TYPES`` gives the config key of
    the same name; a grid is [N, M], (N, M) or "NxM"."""

    def __init__(self, problem="thermal", epsilons=(1.0,), degrees=(0,),
                 grids=((4, 4),), ratios=(6,), variants=("bddc1",),
                 tol=1e-10, maxit=1000, fmt="table", advect=False,
                 diagnostics=False):
        self.problem = problem
        self.epsilons = epsilons
        self.degrees = degrees
        self.grids = grids
        self.ratios = ratios
        self.variants = variants
        self.tol = tol
        self.maxit = maxit
        self.fmt = fmt
        self.advect = advect
        self.diagnostics = diagnostics
        self.validate()

    def validate(self):
        """Refuse a field of the wrong type (a list field takes a list or a
        tuple, never a bare string), then a value no run can take; the error
        names the field or its flag.  The swept fields are kept as lists,
        each grid as (N, M)."""
        for key in CONFIG_TYPES:
            check_config_value(key, getattr(self, key))
        self.epsilons, self.degrees, self.ratios, self.variants = (
            list(v) for v in (self.epsilons, self.degrees, self.ratios,
                              self.variants))
        self.grids = [_parse_grid(g) if _is_str(g) else tuple(g)
                      for g in self.grids]
        if self.problem not in PROBLEMS:
            raise InvalidConfigError("unknown problem %r" % (self.problem,))
        for name in ("epsilons", "degrees", "grids", "ratios", "variants"):
            if not getattr(self, name):
                raise InvalidConfigError("config list %r is empty" % name)
        if not 0.0 < self.tol < 1.0:
            raise InvalidConfigError("tol must lie in (0, 1)")
        if self.maxit < 1:
            raise InvalidConfigError("maxit must be positive")
        for d in self.degrees:
            if d not in (0, 1, 2):
                raise InvalidConfigError("degree must be 0, 1 or 2")
        for v in self.variants:
            if v not in VARIANTS:
                raise InvalidConfigError("unknown variant %r" % (v,))
        if self.fmt not in ("csv", "table"):
            raise InvalidConfigError("format must be csv or table")
        for flag, ok, wants, got in (
                ("--epsilon", all(0.0 < e < np.inf for e in self.epsilons),
                 "finite values > 0", self.epsilons),
                ("--subdomains", all(min(g) >= 1 for g in self.grids),
                 "grids NxM with N, M >= 1", self.grids),
                ("--ratio", min(self.ratios) >= 1, "values >= 1",
                 self.ratios)):
            if not ok:
                raise InvalidConfigError("%s takes %s, got %s"
                                         % (flag, wants, got))
        if self.problem != "manufactured":
            if self.advect:
                raise InvalidConfigError("--advect applies only to the "
                                         "manufactured problem")
            return
        for ok, wants, got in (
                (len(self.epsilons) == 1, "one --epsilon", self.epsilons),
                (len(self.grids) == 1 and len(set(self.grids[0])) == 1,
                 "one square --subdomains grid NxN", self.grids),
                (len(self.ratios) > 1, "at least two --ratio levels",
                 self.ratios)):
            if not ok:
                raise InvalidConfigError("the manufactured study takes %s, "
                                         "got %s" % (wants, got))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or isinstance(v, float)


def _is_str(v):
    return isinstance(v, str)


def _is_grid(v):
    return _is_str(v) or (isinstance(v, (list, tuple)) and len(v) == 2
                          and all(map(_is_int, v)))


# the types of the BenchmarkConfig fields, the config file's keys: (a list
# of them?, check of one value, what it names)
CONFIG_TYPES = {
    "problem": (False, _is_str, "a string"),
    "epsilons": (True, _is_number, "numbers"),
    "degrees": (True, _is_int, "integers"),
    "grids": (True, _is_grid, "grids [N, M] or \"NxM\""),
    "ratios": (True, _is_int, "integers"),
    "variants": (True, _is_str, "strings"),
    "tol": (False, _is_number, "a number"),
    "maxit": (False, _is_int, "an integer"),
    "fmt": (False, _is_str, "a string"),
    "advect": (False, lambda v: isinstance(v, bool), "true or false"),
    "diagnostics": (False, lambda v: isinstance(v, bool), "true or false"),
}


def check_config_file(values):
    """Refuse the parsed config file ``values`` unless it is one JSON object
    of known keys, each holding its JSON type; the error names the key."""
    if not isinstance(values, dict):
        raise InvalidConfigError("a config file holds one JSON object, not "
                                 "a %s" % type(values).__name__)
    unknown = sorted(set(values) - set(CONFIG_TYPES))
    if unknown:
        raise InvalidConfigError("unknown config key(s): %s"
                                 % ", ".join(unknown))
    for key, value in values.items():
        check_config_value(key, value)


def check_config_value(key, value):
    """Refuse ``value`` for the config key ``key`` unless it has the type
    ``CONFIG_TYPES`` gives the key: for a list key, a list or tuple (not a
    bare string) of such values.  The error names the key."""
    many, ok, what = CONFIG_TYPES[key]
    if not (isinstance(value, (list, tuple)) and all(map(ok, value)) if many
            else ok(value)):
        raise InvalidConfigError("config key %r takes %s%s, got %s" % (
            key, "a list of " if many else "", what,
            json.dumps(value, default=repr)))


class CaseResult:
    """One sweep cell: configuration coordinates plus solve outcome.
    ``op_s``, ``precond_s`` and ``orth_s`` are the GMRES cost split of its
    ``SolveReport`` (0 for an error cell); ``seconds`` covers the whole
    cell."""

    def __init__(self, problem, epsilon, degree, grid, ratio, variant,
                 iterations=0, converged=False, true_residual=np.nan,
                 seconds=0.0, error=None, resvec=None, diag=None,
                 op_s=0.0, precond_s=0.0, orth_s=0.0):
        self.problem = problem
        self.epsilon = epsilon
        self.degree = degree
        self.grid = tuple(grid)
        self.ratio = ratio
        self.variant = variant
        self.iterations = iterations
        self.converged = converged
        self.true_residual = true_residual
        self.seconds = seconds
        self.error = error
        self.resvec = resvec
        self.diag = diag
        self.op_s = op_s
        self.precond_s = precond_s
        self.orth_s = orth_s

    def label(self):
        """Table cell: the count, '>maxit' when unconverged, ERR on failure."""
        if self.error is not None:
            return "ERR"
        return ("%d" if self.converged else ">%d") % self.iterations

    def row(self, with_diag=False):
        vals = [self.problem, repr(float(self.epsilon)), self.degree,
                self.grid[0], self.grid[1], self.ratio, self.variant,
                self.iterations, self.converged,
                repr(float(self.true_residual)), "%.4f" % self.seconds]
        if with_diag:
            d = self.diag
            vals += ["" if d is None else repr(float(getattr(d, f)))
                     for f in DIAG_FIELDS]
        return vals


def build_case(problem, epsilon, degree, grid, ratio, advect=False):
    """Mesh, spaces, trace system and subdomains, which are also the
    interface operator: the last two entries are the same object (the
    six-entry tuple is kept for ``perfbench/pipeline.py``).

    The subdomains condense the element blocks of the assembly, which are
    then dropped: the solve reads none of them, and ``sys_.blocks`` runs the
    element pass again for the oracles that do."""
    nx, ny = grid
    mesh = build_structured_mesh(nx, ny, ratio)
    dofs = build_trace_dof_map(mesh, degree)
    spec = make_problem(problem, epsilon, h=mesh.h, advect=advect)
    sys_ = assemble_trace_system(mesh, dofs, spec, degree)
    subs = build_subdomains(mesh, dofs, spec, degree, sys=sys_)
    del sys_.blocks
    return mesh, dofs, spec, sys_, subs, subs


def run_case(problem, epsilon, degree, grid, ratio, variant, tol=1e-10,
             maxit=1000, advect=False, diagnostics=False, built=None):
    """Run one configuration point; build errors become error cells."""
    t0 = time.perf_counter()
    try:
        if built is None:
            built = build_case(problem, epsilon, degree, grid, ratio,
                               advect=advect)
        mesh, _, spec, sys_, subs, _ = built
        pre = None if variant == "none" else BddcPreconditioner(
            subs, PrimalConstraintSet(variant, spec, mesh, degree))
        lamG, rep = gmres(subs.apply, None if pre is None else pre.apply,
                          subs.b_gamma, tol=tol, maxit=maxit)
        diag = None
        if diagnostics:
            lam = subs.back_substitute(lamG)
            diag = norm_report(sys_, subs, lam, lamG, pre=pre)
        return CaseResult(problem, epsilon, degree, grid, ratio, variant,
                          iterations=rep.iterations, converged=rep.converged,
                          true_residual=rep.true_residual,
                          seconds=time.perf_counter() - t0,
                          resvec=rep.resvec, diag=diag, op_s=rep.op_s,
                          precond_s=rep.precond_s, orth_s=rep.orth_s)
    except InvalidConfigError:
        raise
    except Exception as exc:                 # record the cell, keep sweeping
        return CaseResult(problem, epsilon, degree, grid, ratio, variant,
                          seconds=time.perf_counter() - t0,
                          error="%s: %s" % (type(exc).__name__, exc))


def run_sweep(config):
    """All CaseResults of the config's Cartesian product, in stable order.

    The assembled system of each (epsilon, degree, grid, ratio) coordinate
    is shared across its preconditioner variants.
    """
    results = []
    for eps, degree, grid, ratio in product(config.epsilons, config.degrees,
                                            config.grids, config.ratios):
        try:
            built = build_case(config.problem, eps, degree, grid, ratio,
                               advect=config.advect)
        except InvalidConfigError:
            raise
        except Exception as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
            results += [CaseResult(config.problem, eps, degree, grid, ratio,
                                   v, error=error) for v in config.variants]
            continue
        results += [run_case(config.problem, eps, degree, grid, ratio, v,
                             tol=config.tol, maxit=config.maxit,
                             diagnostics=config.diagnostics, built=built)
                    for v in config.variants]
    return results


def monotonicity_flags(results):
    """Variant-enrichment violations: bddc3 <= bddc2+1 <= bddc1+2 cell-wise.

    Returns the set of violating results (the cell whose count is too
    large relative to the weaker variant).
    """
    by_coord = {}
    for r in results:
        if r.error is None:
            key = (r.problem, r.epsilon, r.degree, r.grid, r.ratio)
            by_coord.setdefault(key, {})[r.variant] = r
    flagged = set()
    for cells in by_coord.values():
        def count(v):
            r = cells.get(v)
            if r is None:
                return None
            return r.iterations if r.converged else r.iterations + 1
        c1, c2, c3 = count("bddc1"), count("bddc2"), count("bddc3")
        if c2 is not None and c1 is not None and c2 > c1 + 1:
            flagged.add(id(cells["bddc2"]))
        if c3 is not None and c2 is not None and c3 > c2 + 1:
            flagged.add(id(cells["bddc3"]))
        if c3 is not None and c1 is not None and c2 is None and c3 > c1 + 2:
            flagged.add(id(cells["bddc3"]))
    return flagged


def emit_csv(results, stream, diagnostics=False):
    """One row per case in the stable schema (plus optional diagnostics)."""
    with_diag = diagnostics or any(r.diag is not None for r in results)
    w = csv.writer(stream)
    fields = CSV_FIELDS + (DIAG_FIELDS if with_diag else ())
    w.writerow(fields)
    for r in results:
        w.writerow(r.row(with_diag=with_diag))


def emit_table(results, stream):
    """Aligned tables: rows = epsilon, column groups = variant x grid."""
    flagged = monotonicity_flags(results)
    ordered = lambda seq: list(dict.fromkeys(seq))     # first-seen order
    blocks = ordered([(r.problem, r.degree, r.ratio) for r in results])
    for problem, degree, ratio in blocks:
        sel = [r for r in results
               if (r.problem, r.degree, r.ratio) == (problem, degree, ratio)]
        variants = ordered([r.variant for r in sel])
        grids = ordered([r.grid for r in sel])
        epss = ordered([r.epsilon for r in sel])
        cell = {(r.epsilon, r.variant, r.grid):
                r.label() + ("!" if id(r) in flagged else "") for r in sel}
        width = max(7, *(len(v) for v in cell.values())) + 2
        # a group's columns widen until its name and one space fit above
        wide = {v: max(width, -(-(len(v) + 1) // len(grids)))
                for v in variants}
        gcol = lambda g: "%dx%d" % g
        stream.write("# %s  degree %d  H/h = %d\n" % (problem, degree, ratio))
        head1 = "%-10s" % "eps"
        head2 = "%-10s" % ""
        for v in variants:
            head1 += ("| %-" + str(wide[v] * len(grids)) + "s") % v
            head2 += "|" + "".join(("%" + str(wide[v]) + "s") % gcol(g)
                                   for g in grids) + " "
        stream.write(head1.rstrip() + "\n" + head2.rstrip() + "\n")
        for eps in epss:
            line = "%-10.2e" % eps
            for v in variants:
                line += "|" + "".join(
                    ("%" + str(wide[v]) + "s") % cell.get((eps, v, g), "-")
                    for g in grids) + " "
            stream.write(line.rstrip() + "\n")
        stream.write("\n")


def convergence_study(eps=1.0, advect=False, degrees=(0, 1, 2),
                      levels=(4, 8, 16, 32), nsub=2):
    """Manufactured-solution L2 errors and observed orders.

    Returns (rows, slopes): rows of (degree, h, error, rate) and the
    least-squares slope per degree (expected k+1).
    """
    rows, slopes = [], {}
    for k in degrees:
        errs, hs = [], []
        for r in levels:
            mesh = build_structured_mesh(nsub, nsub, r)
            dofs = build_trace_dof_map(mesh, k)
            spec = problem_manufactured(eps, advect=advect, h=mesh.h)
            sys_ = assemble_trace_system(mesh, dofs, spec, k)
            lam = direct_solve(sys_)
            q, u = recover_all(sys_, lam)
            err = l2_error_u(sys_, u, manufactured_exact)
            rate = np.nan if not errs else \
                np.log(errs[-1] / err) / np.log(hs[-1] / mesh.h)
            rows.append((k, mesh.h, err, rate))
            errs.append(err)
            hs.append(mesh.h)
        slopes[k] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return rows, slopes


def emit_convergence(rows, slopes, stream, fmt="table"):
    if fmt == "csv":
        w = csv.writer(stream)
        w.writerow(("degree", "h", "l2_error", "rate"))
        for k, h, err, rate in rows:
            w.writerow((k, repr(h), repr(err), repr(rate)))
        return
    stream.write("# manufactured solution, L2(Omega) error of u_h\n")
    stream.write("%-8s%-12s%-14s%s\n" % ("degree", "h", "error", "rate"))
    for k, h, err, rate in rows:
        stream.write("%-8d%-12.5f%-14.4e%s\n"
                     % (k, h, err, "-" if np.isnan(rate) else "%.2f" % rate))
    for k in sorted(slopes):
        stream.write("# degree %d: observed order %.2f (expected %d)\n"
                     % (k, slopes[k], k + 1))


def _parse_grid(text):
    try:
        nx, ny = (int(p) for p in text.lower().split("x"))
        return nx, ny
    except ValueError:
        raise InvalidConfigError("subdomain grid %r is not NxN" % (text,))


def _split(text):
    return [p for p in text.replace(",", " ").split() if p]


def _flag(text, flag, key, read):
    """The value of ``flag`` for the config key ``key`` (None when the flag
    is absent): ``read`` of its text, or of each entry for a list key.  An
    entry ``read`` refuses is named with the flag."""
    if text is None:
        return None
    many, _, what = CONFIG_TYPES[key]
    values = []
    for entry in _split(text) if many else [text]:
        try:
            values.append(read(entry))
        except ValueError:
            raise InvalidConfigError("%s takes %s, got %r"
                                     % (flag, what, entry)) from None
    return values if many else values[0]


def build_arg_parser():
    p = argparse.ArgumentParser(
        prog="hdglab-bench",
        description="Iteration-count sweeps and manufactured-solution "
                    "convergence studies for the BDDC-preconditioned "
                    "HDG interface solver.")
    p.add_argument("--config", help="JSON file with BenchmarkConfig fields "
                                    "(CLI flags override)")
    p.add_argument("--problem", choices=PROBLEMS)
    p.add_argument("--epsilon", help="comma-separated list, e.g. 1,1e-3")
    p.add_argument("--degree", help="comma-separated subset of 0,1,2")
    p.add_argument("--subdomains", help="comma-separated NxN list, "
                                        "e.g. 4x4,8x8")
    p.add_argument("--ratio", help="comma-separated H/h list")
    p.add_argument("--variant", help="comma-separated subset of %s"
                                     % (",".join(VARIANTS)))
    p.add_argument("--tol", type=float)
    p.add_argument("--maxit")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "table"), dest="fmt")
    p.add_argument("--advect", action="store_true", default=None,
                   help="manufactured problem: use the thermal beta")
    p.add_argument("--diagnostics", action="store_true", default=None,
                   help="append norm/field-of-values columns")
    return p


def config_from_args(args):
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = json.load(fh)
        check_config_file(values)
    overrides = dict(
        problem=args.problem,
        epsilons=_flag(args.epsilon, "--epsilon", "epsilons", float),
        degrees=_flag(args.degree, "--degree", "degrees", int),
        grids=None if args.subdomains is None else
            [_parse_grid(g) for g in _split(args.subdomains)],
        ratios=_flag(args.ratio, "--ratio", "ratios", int),
        variants=None if args.variant is None else _split(args.variant),
        tol=args.tol, maxit=_flag(args.maxit, "--maxit", "maxit", int),
        fmt=args.fmt, advect=args.advect, diagnostics=args.diagnostics)
    values.update({k: v for k, v in overrides.items() if v is not None})
    # the manufactured study solves directly: no Krylov loop to configure
    given = [flag for key, flag in (
        ("variants", "--variant"), ("tol", "--tol"), ("maxit", "--maxit"),
        ("diagnostics", "--diagnostics")) if key in values]
    if values.get("problem") == "manufactured" and given:
        raise InvalidConfigError("the manufactured study takes no %s"
                                 % ", ".join(given))
    return BenchmarkConfig(**values)


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    with ExitStack() as stack:
        try:
            config = config_from_args(args)
            # opened before the sweep, so an unwritable --out costs no run
            out = stack.enter_context(open(args.out, "w")) if args.out \
                else sys.stdout
            if config.problem == "manufactured":
                rows, slopes = convergence_study(
                    eps=config.epsilons[0], advect=config.advect,
                    degrees=config.degrees, levels=tuple(config.ratios),
                    nsub=config.grids[0][0])
            else:
                results = run_sweep(config)
        except (InvalidConfigError, OSError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if config.problem == "manufactured":
            emit_convergence(rows, slopes, out, fmt=config.fmt)
            return 0
        if config.fmt == "csv":
            emit_csv(results, out, diagnostics=config.diagnostics)
        else:
            emit_table(results, out)
        return 1 if any(r.error is not None for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
