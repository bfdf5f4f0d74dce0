"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that simulation and CLI layers can map them to termination flags and exit
codes without string matching.
"""


class SafecascadeError(Exception):
    """Base class for all package errors."""


class InfeasibleError(SafecascadeError):
    """No point satisfies the constraint system within tolerance."""


class MaxIterationsError(SafecascadeError):
    """Iteration budget exhausted before convergence."""


class ZeroGradientError(SafecascadeError):
    """Certificate gradient vanished where a nonzero gradient is assumed."""


class SelectionConditionError(SafecascadeError):
    """Pairwise offset condition for the Lipschitz selection failed, or the
    selection violated a row (geometry not disjoint, or a decay rate without
    the negative-side growth condition)."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class BadCountError(SafecascadeError):
    """Direction count is incompatible with the requested basis."""


class CoverageConditionError(SafecascadeError):
    """Basis coverage constant too small for the requested uncertainty level."""


class SelectionNotFeasibleError(SafecascadeError):
    """Anchor point handed to the reshaping step is not in the original set."""


class DegenerateGeometryError(SafecascadeError):
    """Obstacle geometry collapsed (zero-length segment, zero radius)."""


class AtCenterError(SafecascadeError):
    """Query point coincides with a disc center; no direction defined."""


class NonFiniteStateError(SafecascadeError):
    """Integration produced NaN or infinite state."""


class ThrustSingularityError(SafecascadeError):
    """VTOL thrust magnitude fell below the feedback-linearization floor."""


class ConfigError(SafecascadeError):
    """Scenario configuration file failed to parse or validate."""
