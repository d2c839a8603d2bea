"""Stabilized mixed finite elements for the 2D Stokes problem.

The package solves -div(D(u)) + grad p = f, div u = g on polygonal
domains with equal-order P1/P1 or mixed P2/P1 triangular elements.
Equal-order pairs are stabilized by subtracting an alpha-weighted
element residual term from the saddle form; the admissible range of
alpha is policed through a per-element inverse inequality constant.
A residual error estimator with elementwise efficiency auditing
drives adaptive newest-vertex bisection.

Typical use:

    from stokes_stab import FeSpace, P1P1, unit_square, uniform_study

    table = uniform_study("SMOOTH_SQUARE", "P1P1", levels=4)
    print(table)

The command line mirrors the library: `stokes-stab uniform-study`,
`adaptive-study`, `solve` and `audit`.
"""

from .mesh import (
    AuditReport,
    MeshError,
    MeshFormatError,
    TriMesh,
    generate_structured,
    l_shape,
    unit_square,
)
from .space import ElementPair, FeSpace, P1P1, P2P1, SpaceError, interpolate
from .forms import (
    AssembledSystem,
    ExactSolution,
    InadmissibleAlphaError,
    StokesProblem,
    assemble_system,
    default_alpha,
    estimate_CI,
)
from .solver import (
    DiscreteSolution,
    SolverError,
    combined_error,
    functional_norms,
    schur_pressure_probe,
    solve,
)
from .estimator import (
    EfficiencyAudit,
    ErrorReport,
    efficiency_audit,
    element_estimator,
    edge_estimator,
    global_report,
    oscillations,
)
from .study import (
    AdaptiveLog,
    ConvergenceTable,
    LevelRow,
    ManufacturedCase,
    adaptive_study,
    builtin_cases,
    dorfler_mark,
    get_case,
    uniform_study,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveLog",
    "AssembledSystem",
    "AuditReport",
    "ConvergenceTable",
    "DiscreteSolution",
    "EfficiencyAudit",
    "ElementPair",
    "ErrorReport",
    "ExactSolution",
    "FeSpace",
    "InadmissibleAlphaError",
    "LevelRow",
    "ManufacturedCase",
    "MeshError",
    "MeshFormatError",
    "P1P1",
    "P2P1",
    "SolverError",
    "SpaceError",
    "StokesProblem",
    "TriMesh",
    "adaptive_study",
    "assemble_system",
    "builtin_cases",
    "combined_error",
    "default_alpha",
    "dorfler_mark",
    "edge_estimator",
    "efficiency_audit",
    "element_estimator",
    "estimate_CI",
    "functional_norms",
    "generate_structured",
    "get_case",
    "global_report",
    "interpolate",
    "l_shape",
    "oscillations",
    "schur_pressure_probe",
    "solve",
    "uniform_study",
    "unit_square",
    "__version__",
]
