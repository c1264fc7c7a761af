"""Nonlocal finite-difference approximation of linearized Griffith energies."""

from .domain import (
    Affine,
    AnalyticField,
    Ball,
    BoxDomain,
    Grid,
    HyperplaneEvalError,
    InputError,
    PlaneJump,
    PlaneSegment,
    SampledField,
    SumField,
    difference_body,
    load_problem,
    sample,
)
from .quad import (
    DirectionRule,
    NodeEvaluationError,
    RuleQualityError,
    build_direction_rule,
    build_sphere_rule,
    gaussian_moment,
    integrate,
)
from .energy import (
    BallFamily,
    BallStrategy,
    EnergyReport,
    GridCapabilityError,
    averaged_energy,
    ball_candidates,
    ball_supremum_energy,
    directional_energy,
    family_energy,
    pairwise_energy,
)
from .slicing import (
    Section1D,
    SliceMeasureValue,
    averaged_jump_measure,
    ball_sup_slice_measure,
    directional_slice_measure,
    endpoint_lower_bound,
    family_slice_measure,
    mumford_shah_1d,
    nonlocal_energy_1d,
    piecewise_project,
    section,
    slice_measure,
)
from .limits import (
    CONVENTIONS,
    GriffithValue,
    bar_load_threshold,
    bulk_density,
    closed_form_bulk_p1,
    closed_form_surface_p1,
    griffith_energy,
    plane_area_in_box,
    surface_constant,
)
from .minimize import (
    DescentTrace,
    DirichletProblem,
    MinimizeOptions,
    band_opening,
    dirichlet_candidates,
    energy_gradient,
    minimize_dirichlet,
    optimality_gap,
)
from .harness import (
    AuditReport,
    ExtrapolationResult,
    SweepSpec,
    audit_inequalities,
    richardson,
    run_sweep,
)

__version__ = "0.1.0"
