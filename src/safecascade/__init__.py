"""Safety filters and cascade controllers on reshaped quadratic programs.

The pieces, bottom to top: a dense projection QP solver with active-set
reporting (qp_solver); norm-augmented safety constraints with a closed-form
Lipschitz selection (qcqp_safety); positive-basis reshaping that restores
Lipschitz regularity to the filtered control law (reshaping); segment/disc
safety certificates (certificates); the recursive cascade controller and its
gain audits (cascade); closed-loop simulation (sim); and a config-driven CLI
(cli).
"""
from .cascade import (
    CascadeController,
    CascadeGains,
    build_cascade_controller,
    estimate_lipschitz,
    gain_ledger,
    k_selection_audit,
    small_gain_audit,
    tracking_law,
)
from .certificates import (
    CertificateSpec,
    Disc,
    Segment,
    cbf_to_certificate,
    disjointness_audit,
    eval_disc,
    eval_segment,
)
from .qcqp_safety import (
    ConstraintSet,
    PlantBounds,
    RateSpec,
    build_constraint_set,
    disc_constraint_set,
    dissipation_audit,
    lipschitz_selection,
)
from .qp_solver import (
    Polyhedron,
    QpSolution,
    hager_lipschitz_bound,
    nonredundant_active_rows,
    project_polygon_2d,
    solve_projection_qp,
)
from .reshaping import (
    PositiveBasis,
    ReshapedSet,
    cbar_a,
    make_positive_basis,
    reshape_b_l,
    reshaped_filter,
    validate_positive_basis,
)
from .sim import (
    IntegratorChain,
    Trajectory,
    VelocityLoop,
    VtolNonlinear,
    run_closed_loop,
    trajectory_metrics,
)

__version__ = "0.1.0"
