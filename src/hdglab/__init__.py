"""hdglab: HDG advection-diffusion solver laboratory with BDDC/GMRES substructuring."""

__version__ = "0.1.0"

from .mesh import (BOUNDARY, INTERFACE, INTERIOR, InterfaceRuns,
                   InvalidConfigError, Mesh2d, build_structured_mesh,
                   extract_interface)
from .fespace import (EdgeBasis, QuadRule, TraceDofMap, TriBasis,
                      build_trace_dof_map, quadrature_rule)
from .hdg import ElementBlocks, ProblemSpec, StabilizationError, eval_tau
from .assembly import (TraceSystem, assemble_trace_system, direct_solve,
                       eval_forms, full_saddle_solve, l2_error_u, recover_all)
from .dd import (Subdomain, SubdomainError, Subdomains,
                 build_interface_operator, build_subdomains)
from .bddc import (VARIANTS, BddcPreconditioner, PreconditionerError,
                   PrimalConstraintSet, build_constraints,
                   build_preconditioner)
from .krylov import SolveReport, gmres
from .diagnostics import (NormReport, b_gamma_inner, edge_coefficients,
                          field_of_values, gamma_stat, jump_seminorm, norm_h,
                          norm_report, residual_envelope)
