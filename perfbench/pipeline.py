"""Workloads and the three passes of the solver benchmark.

A workload is a list of cells (one build each) and the BDDC variants solved
on every cell, sharing the build as ``hdglab.bench.run_sweep`` does.  One
operation is one (cell, variant) solve; its outputs are kept for the checks
in ``checks.py``, which run after every timed pass.

* ``run_untraced``: the end-to-end pass.  It drives ``build_case`` ->
  ``build_constraints`` / ``build_preconditioner`` -> ``gmres`` ->
  ``back_substitute`` with the package defaults (tol 1e-10, maxit 1000).
* ``run_spans``: the same work with every layer called on its own and
  wrapped in a span, for per-layer self times and counts.
* ``run_alloc``: the peak allocation inside each allocating layer call,
  measured by ``tracemalloc`` around that call only.
"""

import resource
import time
import tracemalloc
from contextlib import contextmanager

from hdglab.assembly import assemble_trace_system
from hdglab.bddc import build_constraints, build_preconditioner
from hdglab.bench import build_case, make_problem
from hdglab.dd import build_interface_operator, build_subdomains
from hdglab.fespace import build_trace_dof_map
from hdglab.hdg import ElementBlocks
from hdglab.krylov import gmres
from hdglab.mesh import build_structured_mesh

MIB = 1024.0 * 1024.0

# functionals per variant, to count the constraints dropped as degenerate
N_FUNCTIONALS = {"bddc1": 1, "bddc2": 2, "bddc3": 3}


class Workload:
    """Problem, diffusion, degree, cells ((nx, ny), H/h) and variants.

    ``published`` maps (cell index, variant) to the band (lo, hi) its
    iteration count must lie in; ``max_growth`` bounds the growth of the
    first variant's count from one cell to the next (None: no bound).
    """

    def __init__(self, problem, eps, degree, cells, variants, published=None,
                 max_growth=None):
        self.problem = problem
        self.eps = eps
        self.degree = degree
        self.cells = [(tuple(grid), ratio) for grid, ratio in cells]
        self.variants = tuple(variants)
        self.published = dict(published or {})
        self.max_growth = max_growth


def _band(ref, rel=None, absolute=None):
    slack = rel * ref if rel is not None else absolute
    return ref - slack, ref + slack


TABLE3_BDDC1 = (10, 12, 14, 15)

WORKLOADS = {
    # Table 4, 16x16 cell: 256 subdomains; per-subdomain loops and the
    # mesh setup dominate.  The 32x32 cell takes 55 s untraced and over
    # 180 s traced (README).
    "many-subdomains": Workload(
        "rotating", 1e-6, 0, [((16, 16), 8)], ("bddc1", "bddc3"),
        published={(0, "bddc1"): _band(60, rel=0.30),
                   (0, "bddc3"): (0, 15)}),
    # Criterion-09 cell: a few hundred Krylov steps dominate.
    "high-degree": Workload(
        "rotating", 1e-5, 2, [((16, 16), 8)], ("bddc3",)),
    # Table 3: few large subdomains; interior factorizations, local Schur
    # complements and element work dominate.
    "ratio-sweep": Workload(
        "thermal", 1.0, 0, [((6, 6), r) for r in (4, 8, 16, 32)],
        ("bddc1", "bddc2", "bddc3"),
        published={(i, "bddc1"): _band(ref, absolute=3)
                   for i, ref in enumerate(TABLE3_BDDC1)},
        max_growth=2),
}


class Operation:
    """Outputs of one (cell, variant) solve that the checks read."""

    def __init__(self, round_, cell, variant, report, lam):
        self.round = round_
        self.cell = cell
        self.variant = variant
        self.iterations = report.iterations
        self.converged = report.converged
        self.resvec = report.resvec
        self.lam = lam


class Round:
    """One pass over every cell and variant of a workload.

    ``peak_rss_mib`` is the process's resident high-water mark at the end of
    the round.
    """

    def __init__(self):
        self.ops = []
        self.setup_s = 0.0
        self.solve_s = 0.0
        self.total_s = 0.0
        self.peak_rss_mib = 0.0

    @property
    def iterations(self):
        return sum(op.iterations for op in self.ops)


def run_untraced(wl, seconds, systems):
    """Whole rounds until ``seconds`` have passed; returns the rounds.

    ``systems`` collects the assembled (A, b) of each cell from the first
    round, for the checks.
    """
    rounds = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        rnd = Round()
        for ci, (grid, ratio) in enumerate(wl.cells):
            t0 = time.perf_counter()
            built = build_case(wl.problem, wl.eps, wl.degree, grid, ratio)
            mesh, dofs, spec, sys_, subs, iface = built
            b_gamma = iface.b_gamma
            rnd.setup_s += time.perf_counter() - t0
            rnd.total_s += time.perf_counter() - t0
            for v in wl.variants:
                t0 = time.perf_counter()
                cons = build_constraints(v, spec, mesh, dofs, wl.degree)
                pre = build_preconditioner(subs, iface, cons, dofs)
                t1 = time.perf_counter()
                lam_g, rep = gmres(iface.apply, pre.apply, b_gamma)
                t2 = time.perf_counter()
                lam = iface.back_substitute(lam_g)
                t3 = time.perf_counter()
                rnd.setup_s += t1 - t0
                rnd.solve_s += t2 - t1
                rnd.total_s += t3 - t0
                rnd.ops.append(Operation(len(rounds), ci, v, rep, lam))
                del cons, pre
            if not rounds:
                systems.append((sys_.A, sys_.b))
            del built, mesh, dofs, spec, sys_, subs, iface
        rnd.peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(rnd)
    return rounds


class Tracer:
    """Spans (name, start, end, parent) kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, attrs]
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return lambda *args: self.call(name, fn, *args)

    def self_times(self):
        """Per span name: (summed self time, summed duration, count)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            s, d, c = out.get(name, (0.0, 0.0, 0))
            out[name] = (s + (t1 - t0) - child[i], d + (t1 - t0), c + 1)
        return out

    def records(self):
        return [dict(name=n, start=t0, end=t1, parent=p, **a)
                for n, t0, t1, p, a in self.spans]


def _build_layers(wl, grid, ratio, call, mesh=None, dofs=None):
    """The body of ``build_case`` with each layer call routed through
    ``call(name, fn, *args)``; ``mesh``/``dofs`` skip those two layers."""
    if mesh is None:
        mesh = call("mesh.build_structured_mesh", build_structured_mesh,
                    grid[0], grid[1], ratio)
        dofs = call("fespace.build_trace_dof_map", build_trace_dof_map,
                    mesh, wl.degree)
    spec = make_problem(wl.problem, wl.eps, h=mesh.h)
    blocks = call("hdg.ElementBlocks", ElementBlocks, mesh, spec, wl.degree)
    sys_ = call("assembly.assemble_trace_system", assemble_trace_system,
                mesh, dofs, spec, wl.degree, blocks=blocks)
    subs = call("dd.build_subdomains", build_subdomains, mesh, dofs, spec,
                wl.degree, sys=sys_)
    iface = build_interface_operator(subs, dofs)
    return mesh, dofs, spec, sys_, subs, iface


def _local_schurs(subs):
    for sub in subs:
        sub.dense_schur()


def run_spans(wl, tracer):
    """One traced round.  Returns (ops, counts, meshes): the operations,
    the layer counts and the (mesh, dofs) of every cell."""
    ops, meshes = [], []
    counts = dict.fromkeys(("mesh.n_subdomain_edges", "fespace.n_interface_dofs",
                            "assembly.nnz", "bddc.n_primal", "bddc.n_dual",
                            "bddc.constraints_dropped", "krylov.iterations"),
                           0)
    for ci, (grid, ratio) in enumerate(wl.cells):
        with tracer.span("cell", grid="%dx%d" % grid, ratio=ratio):
            with tracer.span("bench.build_case"):
                mesh, dofs, spec, sys_, subs, iface = _build_layers(
                    wl, grid, ratio, tracer.call)
            b_gamma = tracer.call("dd.b_gamma", lambda: iface.b_gamma)
            tracer.call("dd.dense_schur", _local_schurs, subs)
            for v in wl.variants:
                with tracer.span("op", variant=v):
                    cons = tracer.call("bddc.build_constraints",
                                       build_constraints, v, spec, mesh,
                                       dofs, wl.degree)
                    pre = tracer.call("bddc.build_preconditioner",
                                      build_preconditioner, subs, iface,
                                      cons, dofs)
                    lam_g, rep = tracer.call(
                        "krylov.gmres", gmres,
                        tracer.wrap("dd.apply", iface.apply),
                        tracer.wrap("bddc.apply", pre.apply), b_gamma)
                    lam = tracer.call("dd.back_substitute",
                                      iface.back_substitute, lam_g)
                ops.append(Operation(0, ci, v, rep, lam))
                counts["bddc.n_primal"] += pre.n_primal
                counts["bddc.n_dual"] += pre.n_dual_total
                counts["bddc.constraints_dropped"] += sum(
                    N_FUNCTIONALS[v] - len(kept) for kept in cons.kept)
                counts["krylov.iterations"] += rep.iterations
                del cons, pre
        counts["mesh.n_subdomain_edges"] += len(mesh.subdomain_edges)
        counts["fespace.n_interface_dofs"] += dofs.n_interface
        counts["assembly.nnz"] += sys_.A.nnz
        meshes.append((mesh, dofs))
        del spec, sys_, subs, iface
    return ops, counts, meshes


def _alloc_peak(peaks, name, fn, *args, **kwargs):
    """Call ``fn`` with tracemalloc on; keep the largest peak per name."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peaks[name] = max(peaks.get(name, 0), peak)
    return out


def run_alloc(wl, meshes):
    """Peak traced allocation (bytes) per layer call, over one round.

    The mesh and DOF map come from ``meshes`` untraced: tracemalloc slows
    their Python loops many times and neither has an allocation metric.
    """
    peaks = {}

    def call(name, fn, *args, **kwargs):
        if name in ("mesh.build_structured_mesh",
                    "fespace.build_trace_dof_map"):
            return fn(*args, **kwargs)
        return _alloc_peak(peaks, name, fn, *args, **kwargs)

    for (grid, ratio), (mesh, dofs) in zip(wl.cells, meshes):
        mesh, dofs, spec, sys_, subs, iface = _build_layers(
            wl, grid, ratio, call, mesh=mesh, dofs=dofs)
        b_gamma = iface.b_gamma
        _local_schurs(subs)
        for v in wl.variants:
            cons = build_constraints(v, spec, mesh, dofs, wl.degree)
            pre = _alloc_peak(peaks, "bddc.build_preconditioner",
                              build_preconditioner, subs, iface, cons, dofs)
            _alloc_peak(peaks, "krylov.gmres", gmres, iface.apply, pre.apply,
                        b_gamma)
            del cons, pre
        del mesh, dofs, spec, sys_, subs, iface
    return {name: peak / MIB for name, peak in peaks.items()}


def layer_metrics(tracer, counts, alloc_mib, untraced_total_s):
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    st = tracer.self_times()
    self_s = lambda name: st.get(name, (0.0, 0.0, 0))[0]
    calls = lambda name: st.get(name, (0.0, 0.0, 0))[2]
    gmres_s = st.get("krylov.gmres", (0.0, 0.0, 0))[1]
    traced_total = sum(t1 - t0 for name, t0, t1, _, _ in tracer.spans
                       if name == "cell")
    m = {
        "mesh.build_s": (self_s("mesh.build_structured_mesh"), "s"),
        "fespace.dofmap_s": (self_s("fespace.build_trace_dof_map"), "s"),
        "hdg.condense_s": (self_s("hdg.ElementBlocks"), "s"),
        "assembly.assemble_s": (self_s("assembly.assemble_trace_system"), "s"),
        "dd.subdomains_s": (self_s("dd.build_subdomains"), "s"),
        "dd.local_schur_s": (self_s("dd.dense_schur"), "s"),
        "dd.rhs_s": (self_s("dd.b_gamma"), "s"),
        "dd.back_substitute_s": (self_s("dd.back_substitute"), "s"),
        "bddc.constraints_s": (self_s("bddc.build_constraints"), "s"),
        "bddc.setup_s": (self_s("bddc.build_preconditioner"), "s"),
        "dd.apply_s": (self_s("dd.apply"), "s"),
        "dd.apply_calls": (calls("dd.apply"), "count"),
        "dd.apply_ms": (1e3 * self_s("dd.apply") / max(calls("dd.apply"), 1),
                        "ms"),
        "bddc.apply_s": (self_s("bddc.apply"), "s"),
        "bddc.apply_calls": (calls("bddc.apply"), "count"),
        "bddc.apply_ms": (1e3 * self_s("bddc.apply")
                          / max(calls("bddc.apply"), 1), "ms"),
        "krylov.gmres_s": (gmres_s, "s"),
        "krylov.orth_s": (self_s("krylov.gmres"), "s"),
        "krylov.step_ms": (1e3 * gmres_s
                           / max(counts["krylov.iterations"], 1), "ms"),
        "trace.overhead_s": (traced_total - untraced_total_s, "s"),
    }
    for name, value in counts.items():
        m[name] = (value, "count")
    for metric, layer in (("hdg.alloc_peak_mb", "hdg.ElementBlocks"),
                          ("assembly.alloc_peak_mb",
                           "assembly.assemble_trace_system"),
                          ("dd.subdomains_alloc_peak_mb",
                           "dd.build_subdomains"),
                          ("bddc.alloc_peak_mb", "bddc.build_preconditioner"),
                          ("krylov.alloc_peak_mb", "krylov.gmres")):
        m[metric] = (alloc_mib[layer], "MiB")
    return m
