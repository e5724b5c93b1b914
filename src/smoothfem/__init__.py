"""Bubble-enriched edge- and face-based smoothed finite elements.

Simplicial solvers for nearly incompressible linear elasticity and
neo-Hookean hyperelasticity, built around strain smoothing on edge (2D)
or face (3D) domains with interior bubble enrichment and a node-centered
piecewise-constant pressure space, plus the classical smoothed and mixed
baselines used for comparison.
"""

from .mesh import (
    PrimalMesh,
    Topology,
    build_topology,
    distort_mesh,
    generate_annulus,
    generate_block,
    generate_cook,
)
from .dualmesh import (
    MicroCellDecomposition,
    PressureCellSet,
    SmoothingDomainSet,
    build_micro_decomposition,
    build_pressure_cells,
    build_smoothing_domains,
    mesh_size,
)
from .quadrature import QuadratureRule, simplex_quadrature
from .basis import bubble_value, bubble_gradient
from .smoothing import build_smoothed_gradient, volume_average_gradient
from .assembly import (
    METHODS,
    Discretization,
    MaterialParams,
    OperatorBundle,
    assemble_loads,
    assemble_method,
    canonical_method,
    dirichlet_dofs,
)
from .solve import SolutionField, infsup_measure, solve_bundle
from .analysis import (
    ErrorReport,
    ExactPipeSolution,
    error_displacement,
    error_energy,
    error_pressure,
    fit_rate,
    pressure_profile,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    richardson_limit,
    tip_displacement,
)
from .hyperelastic import (
    NeoHookeanParams,
    SmoothedHyperProblem,
    material_tangent,
    newton_load_stepping,
    pk2_stress,
    strain_energy,
)
from .benchmarks import (
    SCENARIOS,
    ScenarioConfig,
    acceptance_data,
    make_config,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "PrimalMesh",
    "Topology",
    "build_topology",
    "distort_mesh",
    "generate_annulus",
    "generate_block",
    "generate_cook",
    "MicroCellDecomposition",
    "PressureCellSet",
    "SmoothingDomainSet",
    "build_micro_decomposition",
    "build_pressure_cells",
    "build_smoothing_domains",
    "mesh_size",
    "QuadratureRule",
    "simplex_quadrature",
    "bubble_value",
    "bubble_gradient",
    "build_smoothed_gradient",
    "volume_average_gradient",
    "METHODS",
    "Discretization",
    "MaterialParams",
    "OperatorBundle",
    "assemble_loads",
    "assemble_method",
    "canonical_method",
    "dirichlet_dofs",
    "SolutionField",
    "infsup_measure",
    "solve_bundle",
    "ErrorReport",
    "ExactPipeSolution",
    "error_displacement",
    "error_energy",
    "error_pressure",
    "fit_rate",
    "pressure_profile",
    "reports_from_json",
    "reports_to_csv",
    "reports_to_json",
    "richardson_limit",
    "tip_displacement",
    "NeoHookeanParams",
    "SmoothedHyperProblem",
    "material_tangent",
    "newton_load_stepping",
    "pk2_stress",
    "strain_energy",
    "SCENARIOS",
    "ScenarioConfig",
    "acceptance_data",
    "make_config",
    "run_scenario",
    "__version__",
]
