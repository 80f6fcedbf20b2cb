"""Exact point counts, local densities, and prime-sum analysis for cubic
surfaces fibred into conics over the projective line."""

from .conic import FibreConic, count_points, count_points_reference
from .densities import (
    ToleranceNotMet,
    local_density_report,
    peyre_constant,
    sigma_inf,
    sigma_p,
)
from .forms import BinaryForm, factor_over_q, resultant
from .harness import (
    CountRecord,
    GrowthRow,
    ResultCache,
    analyze,
    count_surface,
    growth_table,
    sum_constants,
)
from .surface import (
    CubicSurfaceNF,
    FibreIndex,
    SingularFibre,
    SurfaceValidationError,
    domain_B,
    fibre_conic,
    load_surface,
    surface_from_dict,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "CountRecord",
    "CubicSurfaceNF",
    "FibreConic",
    "FibreIndex",
    "GrowthRow",
    "ResultCache",
    "SingularFibre",
    "SurfaceValidationError",
    "ToleranceNotMet",
    "analyze",
    "count_points",
    "count_points_reference",
    "count_surface",
    "domain_B",
    "factor_over_q",
    "fibre_conic",
    "growth_table",
    "load_surface",
    "local_density_report",
    "peyre_constant",
    "resultant",
    "sigma_inf",
    "sigma_p",
    "sum_constants",
    "surface_from_dict",
    "validate",
    "__version__",
]
