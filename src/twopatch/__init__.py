"""Numerical laboratory for adaptation of a phenotypically structured
population migrating between two habitats with shifted fitness optima.

The deterministic density model, its principal-eigenvalue persistence
criterion, a stochastic individual-based counterpart, and critical
parameter searches share one parameter object, ModelParams.
"""

from .model import (
    GROWTH_LOGISTIC,
    GROWTH_MALTHUSIAN,
    General,
    ModelParams,
    Symmetric,
    as_phenotype,
    beta_of,
    fitness,
    habitat_difference,
    reflect,
)
from .grid import Field2, Grid, build_grid, integrate, laplacian, reflect_field
from .pde import (
    Bump,
    InitialData,
    SolverConfig,
    SolverError,
    Trajectory,
    integrate_to,
)
from .eigen import (
    EigenError,
    EigenResult,
    assemble_full,
    assemble_symmetric_reduced,
    default_schedules,
    fitness_fields,
    lambda_limit,
    lambda_of,
    principal_eigenpair,
    spectral_lower_bound,
)
from .ibm import (
    IbmOverflowError,
    IbmParams,
    IbmState,
    init_clonal,
    run,
    run_replicates,
)
from .thresholds import (
    CRITICAL,
    EXTINCT,
    PERSIST,
    ThresholdError,
    ThresholdResult,
    classify,
    find_threshold,
)

__all__ = [
    "GROWTH_LOGISTIC",
    "GROWTH_MALTHUSIAN",
    "General",
    "ModelParams",
    "Symmetric",
    "as_phenotype",
    "beta_of",
    "fitness",
    "habitat_difference",
    "reflect",
    "Field2",
    "Grid",
    "build_grid",
    "integrate",
    "laplacian",
    "reflect_field",
    "Bump",
    "InitialData",
    "SolverConfig",
    "SolverError",
    "Trajectory",
    "integrate_to",
    "EigenError",
    "EigenResult",
    "assemble_full",
    "assemble_symmetric_reduced",
    "default_schedules",
    "fitness_fields",
    "lambda_limit",
    "lambda_of",
    "principal_eigenpair",
    "spectral_lower_bound",
    "IbmOverflowError",
    "IbmParams",
    "IbmState",
    "init_clonal",
    "run",
    "run_replicates",
    "CRITICAL",
    "EXTINCT",
    "PERSIST",
    "ThresholdError",
    "ThresholdResult",
    "classify",
    "find_threshold",
]

__version__ = "0.1.0"
