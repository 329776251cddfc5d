"""hdglab: HDG advection-diffusion solver laboratory with BDDC/GMRES substructuring."""

__version__ = "0.1.0"

from .mesh import (BOUNDARY, INTERFACE, INTERIOR, InvalidConfigError, Mesh2d,
                   SubdomainEdge, build_structured_mesh, extract_interface)
from .fespace import (EdgeBasis, QuadRule, TraceDofMap, TriBasis,
                      build_trace_dof_map, project_boundary_data,
                      quadrature_rule)
from .hdg import (ElementBlocks, ElementLocal, ProblemSpec,
                  StabilizationError, eval_tau, recover)
from .assembly import (TraceSystem, apply_operator, assemble_trace_system,
                       direct_solve, eval_forms, export_coo,
                       full_saddle_solve, l2_error_u, recover_all)
from .dd import (InterfaceOperator, SubdomainError, SubdomainSystem,
                 build_interface_operator, build_subdomains)
from .bddc import (VARIANTS, BddcPreconditioner, EdgeBasisTransform,
                   PreconditionerError, PrimalConstraintSet, build_constraints,
                   constraint_rows, build_preconditioner)
from .krylov import SolveReport, gmres
from .diagnostics import (NormReport, b_gamma_inner, edge_coefficients,
                          envelope_holds, field_of_values, gamma_stat,
                          harmonic_extension, jump_seminorm, norm_h,
                          norm_report, residual_envelope)
