"""Safety filters and cascade controllers on reshaped quadratic programs.

The package is planar: every input u has two components. The pieces,
bottom to top: a dense projection QP solver with active-set reporting and
the exact batched 2-D polygon projection (qp_solver); segment/disc safety
certificates V = exp(-h) (certificates); norm-augmented safety constraints
with a closed-form Lipschitz selection and the rate-condition audit
(qcqp_safety); reshaping onto a positive basis of the plane that restores
Lipschitz regularity to the filtered control law (reshaping); the
recursive cascade controller and its gain audits (cascade); closed-loop
simulation (sim); and a config-driven CLI (cli). Every top-level
definition in these modules is used elsewhere in the package, and every
parameter or dataclass field with a default is set by some call in it,
apart from two exemptions that state their reasons
(tests/test_reachability.py checks both).
"""
from .cascade import (
    CascadeController,
    CascadeGains,
    SafetyLaw,
    estimate_lipschitz,
    k_selection_audit,
    small_gain_audit,
    tracking_law,
)
from .certificates import (
    CertificateSpec,
    Disc,
    Segment,
    disjointness_audit,
    eval_disc,
    eval_segment,
)
from .qcqp_safety import (
    ConstraintSet,
    build_constraint_set,
    disc_constraint_set,
    lipschitz_selection,
)
from .qp_solver import (
    Polyhedron,
    QpSolution,
    solve_projection_qp,
)
from .reshaping import (
    PositiveBasis,
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
