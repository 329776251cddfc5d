"""Fingerprints of the arrays that the benchmark workloads build and solve.

    PYTHONPATH=src python3 scripts/fingerprint.py [WORKLOAD ...] > change.txt
    PYTHONPATH=PARENT/src python3 scripts/fingerprint.py [WORKLOAD ...] \\
        > parent.txt
    diff parent.txt change.txt

Builds every cell of the named ``perfbench`` workloads (all of them by
default) and solves every variant on it, as ``pipeline.run_untraced`` does,
with one BLAS thread.  Prints one line per (workload, cell, variant, array):
a short SHA-256 of the array's dtype, shape and bytes, or a count in clear.
The arrays are the interface decomposition ``mesh.interface_runs`` (its
``edges``, ``offsets``, ``pair``, ``tangent``, ``normal``, ``t_range`` and
``run_of_edge``), the element blocks ``S_hat``, the load ``b``, the local
Schur stack ``subs.S``, ``b_gamma`` and the mesh connectivity (``edges``,
``tri_edges``, ``edge_tris`` and ``edge_class``) of each cell, and per
variant the primal count per SubdomainEdge ``n_primal_by_se``, the change
of basis ``Qg``, the fused BDDC stacks ``LG`` and ``C``, the coarse matrix
``Fc`` (``Qg`` and ``Fc`` by their data, indices and indptr), the solution
``lam`` and the iteration count.  Equal lines on two checkouts mean
bit-identical arrays.

``hdglab`` is imported from ``PYTHONPATH`` (this checkout's ``src`` when it
holds none), so the same script fingerprints a parent checkout: it reaches
the interface operator as the last entry of ``build_case`` and builds the
preconditioner with ``build_preconditioner``, as ``perfbench`` does.  Which
package was imported goes to standard error.
"""

import os

# one BLAS / OpenMP thread, as perfbench/run.py sets it; before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def digest(a):
    """Short SHA-256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(("%s %s" % (a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def fingerprint(name, wl):
    """The lines of one workload."""
    from hdglab.bddc import build_constraints, build_preconditioner
    from hdglab.bench import build_case
    from hdglab.krylov import gmres

    lines = []
    for grid, ratio in wl.cells:
        cell = "%dx%d/%d" % (grid + (ratio,))
        line = lambda v, what, value: lines.append(
            "%s %s %s %s %s" % (name, cell, v, what, value))
        mesh, dofs, spec, sys_, subs, iface = build_case(
            wl.problem, wl.eps, wl.degree, grid, ratio)
        b_gamma = iface.b_gamma
        runs = mesh.interface_runs
        for what in ("edges", "offsets", "pair", "tangent", "normal",
                     "t_range", "run_of_edge"):
            line("-", "interface_runs." + what, digest(getattr(runs, what)))
        for what, a in (("blocks.S_hat", sys_.blocks.S_hat), ("sys.b", sys_.b),
                        ("subs.S", subs.S), ("b_gamma", b_gamma)):
            line("-", what, digest(a))
        for what in ("edges", "tri_edges", "edge_tris", "edge_class"):
            line("-", "mesh." + what, digest(getattr(mesh, what)))
        for v in wl.variants:
            cons = build_constraints(v, spec, mesh, dofs, wl.degree)
            pre = build_preconditioner(subs, iface, cons, dofs)
            lam_g, rep = gmres(iface.apply, pre.apply, b_gamma)
            lam = iface.back_substitute(lam_g)
            arrays = [("n_primal_by_se", cons.n_primal_by_se)]
            arrays += [("Qg." + a, getattr(pre.Qg, a))
                       for a in ("data", "indices", "indptr")]
            arrays += [("LG", pre.LG), ("C", pre.C)]
            arrays += [("Fc." + a, getattr(pre.Fc, a))
                       for a in ("data", "indices", "indptr")]
            for what, a in arrays + [("lam", lam)]:
                line(v, what, digest(a))
            line(v, "iterations", rep.iterations)
    return lines


def main(argv=None):
    sys.path += [d for d in (str(ROOT / "src"), str(ROOT / "perfbench"))
                 if d not in sys.path]
    import hdglab
    import pipeline

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=list(pipeline.WORKLOADS),
                   help="workload names (default: all)")
    args = p.parse_args(argv)
    unknown = [w for w in args.workloads if w not in pipeline.WORKLOADS]
    if unknown:
        print("error: unknown workload(s) %s (known: %s)"
              % (", ".join(unknown), ", ".join(pipeline.WORKLOADS)),
              file=sys.stderr)
        return 2
    print("# hdglab from %s" % Path(hdglab.__file__).parent, file=sys.stderr)
    for name in args.workloads:
        for ln in fingerprint(name, pipeline.WORKLOADS[name]):
            print(ln, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
