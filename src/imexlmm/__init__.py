"""Energy-dissipative IMEX linear multistep methods for gradient flows.

Construction and exact validation of coefficient tables (``schemes``),
generating-polynomial minima (``chebpoly``), quadratic energy certificates
and step bounds (``certify``), feasibility search plus the exact order-7
obstruction (``barrier``), classical linear stability (``stability``), and a
Fourier pseudo-spectral phase-field simulator (``models``, ``pde``).
"""

from .barrier import (
    FarkasSystem,
    QuadExt,
    build_farkas_system,
    evaluate_feasibility,
    search_feasible,
    verify_farkas_certificate,
)
from .certify import (
    DissipationReport,
    EnergyCertificate,
    ModelConstants,
    build_U,
    certify_scheme,
    recover_G,
    spectral_factorize,
    tau_max_bound,
)
from .chebpoly import ChebSeries, MinResult, evaluate, global_min
from .models import Grid, ModelSpec, allen_cahn, cahn_hilliard, pfc
from .pde import (
    EnergyTrace,
    ManufacturedSolution,
    SpectralFlow,
    convergence_study,
    energy,
    gauss_rk6_start,
    modified_energy,
    pfc_experiment,
    simulate,
    trig_mode_solution,
)
from .schemes import (
    OrderReport,
    ParameterVector,
    ReformedCoefficients,
    SchemeCoefficients,
    bdf_coefficients,
    lmm6_parameters,
    lmm6_scheme,
    lmm_from_parameters,
    parameters_from_scheme,
    reform,
    scheme_from_json,
    scheme_to_json,
    verify_order_conditions,
)
from .stability import (
    CharPolys,
    RegionSlice,
    char_polys,
    region_slice,
    root_condition,
    stability_angle,
)

__version__ = "0.1.0"
