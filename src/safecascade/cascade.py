"""Recursive cascade controller: safety filter outer loop plus closed-form
tracking laws, with the gain arithmetic needed to audit a design.

The controller is data: the outer safety law (SafetyLaw) plus its gains.
The outer virtual control x2* comes from the reshaped safety filter of a
constant nominal input, whose rows decay with slope k_alpha through each
certificate's own envelope (qcqp_safety.decay_rate). Each inner level
tracks the previous virtual control with
rho_i(e) = -(e / |e|) * K_i |e| / (1 - c) for the norm coefficient c,
which for integrator chains (c = 0) is plain proportional feedback -K_i e.
Without safety constraints the cascade is standard constructive control.
The gains' Lipschitz products (CascadeGains.kbar) feed the gain-selection
inequality, and the small-gain audit checks contraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .certificates import CertificateSpec
# lipschitz_selection is unused here but stays importable: the benchmark's
# trace hooks (benchmarks/workloads.py) rebind cascade.lipschitz_selection.
from .qcqp_safety import ConstraintSet, build_constraint_set, lipschitz_selection  # noqa: F401
from .qp_solver import row_product, sum_last_axis
from .reshaping import PositiveBasis, reshaped_filter

# States per call of a map over a grid (in_row_blocks): whole grid rows up
# to this many, where the batched outer law's per-state cost has levelled
# off and its memory stays small at any grid size. The law runs its
# selection, reshaping and projection only on the states near a constraint
# (about a third of a block beside a wall), so a block must be large enough
# to carry those stages' fixed cost per call.
ESTIMATE_BLOCK_STATES = 4096


@dataclass(frozen=True)
class CascadeGains:
    """Gains of an m-level cascade over an integrator chain.

    tracking_slopes are K_2..K_m (1/s each); k1 is the estimated Lipschitz
    constant of the outer safety law; tau > 1 and theta > 0 are the
    small-gain and decay tuning constants; gamma_12_slope is the linear gain
    from velocity tracking error to certificate value and gamma_x2v_slope
    the linear bound of the safety law by the certificate value.
    """

    tracking_slopes: tuple[float, ...]
    k1: float
    tau: float = 1.001
    theta: float = 0.001
    gamma_12_slope: float = 4.0
    gamma_x2v_slope: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "tracking_slopes", tuple(float(k) for k in self.tracking_slopes))
        if any(k <= 0 for k in self.tracking_slopes):
            raise ValueError("tracking slopes must be positive")
        # tau <= 1 and theta <= 0 are design violations, not type errors: the
        # audits exist to flag them, so they must be constructible.
        if self.tau <= 0.0 or self.theta <= 0.0:
            raise ValueError("tau and theta must be positive")

    @property
    def m(self) -> int:
        """Number of cascade levels (1 outer safety level + tracking levels)."""
        return 1 + len(self.tracking_slopes)

    def tracking_slope(self, level: int) -> float:
        """K_level for level in 2..m."""
        return self.tracking_slopes[level - 2]

    def lipschitz_entry(self, level: int) -> float:
        """Lipschitz entry k_level: the estimated k1 at level 1, else 2 K_level."""
        if level == 1:
            return self.k1
        return 2.0 * self.tracking_slope(level)

    def kbar(self, p: int, i: int) -> float:
        """Product of Lipschitz entries k_p ... k_i; zero when p > i."""
        if p > i:
            return 0.0
        prod = 1.0
        for j in range(p, i + 1):
            prod *= self.lipschitz_entry(j)
        return prod


@dataclass(frozen=True)
class LevelMargin:
    """Gain-selection slack at one level; positive means the design holds."""

    level: int
    k_tracking: float
    rhs_slope: float
    margin: float


def k_selection_audit(gains: CascadeGains) -> list[LevelMargin]:
    """Margins K_i - RHS of the integrator-chain gain-selection inequality.

    With kbar(p, q) = k_p ... k_q, the RHS slope at level i is
    theta + tau plus four channels: the nominal input, tau * kbar(1, i-1);
    the certificate, kbar(1, i-1) * gamma_x2v * tau / gamma_12; the middle
    levels, tau * sum over j = 2..i-1 of kbar(j, i-1) K_j + kbar(j-1, i-1);
    and self, k_{i-1}. So it reads only k1 and K_2 ... K_{i-1}.
    The self term at level 2 uses the estimated k1 (no K_1 exists); its
    margin is reported without any pass expectation. Never raises: negative
    margins are data, and deliberately unsafe gain sets are simulated too.
    """
    out = []
    tau = gains.tau
    for i in range(2, gains.m + 1):
        nominal = gains.kbar(1, i - 1)
        middle = sum(gains.kbar(j, i - 1) * gains.tracking_slope(j) + gains.kbar(j - 1, i - 1)
                     for j in range(2, i))
        rhs = (gains.theta + tau + tau * nominal
               + nominal * gains.gamma_x2v_slope * tau / gains.gamma_12_slope
               + tau * middle + gains.lipschitz_entry(i - 1))
        k_i = gains.tracking_slope(i)
        out.append(LevelMargin(level=i, k_tracking=k_i, rhs_slope=rhs, margin=k_i - rhs))
    return out


@dataclass(frozen=True)
class SmallGainReport:
    """Contraction booleans for the linear interconnection gains.

    Tracking-to-tracking gains all share slope 1/tau. The safety loop
    composes the certificate-to-error gain, slope gamma_12/tau, with the
    error-to-certificate gain gamma_12, so its slope is gamma_12^2/tau and
    contraction needs that below one. (Composing gamma_12/tau with the
    inverse gamma_12^-1 would give 1/tau instead.)
    """

    tau: float
    tracking_slope: float
    tracking_contractive: bool
    safety_loop_slope: float
    safety_loop_contractive: bool


def small_gain_audit(gains: CascadeGains) -> SmallGainReport:
    """Evaluate the contraction conditions for the linear gain choices."""
    tracking_slope = 1.0 / gains.tau
    loop_slope = gains.gamma_12_slope ** 2 / gains.tau
    return SmallGainReport(
        tau=gains.tau,
        tracking_slope=tracking_slope,
        tracking_contractive=tracking_slope < 1.0,
        safety_loop_slope=loop_slope,
        safety_loop_contractive=loop_slope < 1.0,
    )


def tracking_law(x_tilde: np.ndarray, c: float, kappa_slope: float) -> np.ndarray:
    """Closed-form minimum-norm tracking input for one planar cascade level.

    rho(e) = -(e / |e|) * (1 / (1 - c)) * K |e| for e != 0, with c the norm
    coefficient, and zero at the origin; at c = 0 that is plain
    proportional feedback. The result meets its generating norm-augmented
    row e/|e| . u + c |u| <= -K |e| with equality for e = x_tilde, a float
    (2,) array.
    """
    nrm = math.sqrt(x_tilde.dot(x_tilde))      # np.linalg.norm's own formula for a vector
    if nrm <= 1e-15:
        return np.zeros(2)
    scale = 1.0 / (1.0 - c)
    # The vector formula -(e / |e|) * scale * K * |e| on floats, in its order:
    # the shorter -scale * K * e rounds differently.
    e0, e1 = x_tilde.tolist()
    return np.array([-(e0 / nrm) * scale * kappa_slope * nrm, -(e1 / nrm) * scale * kappa_slope * nrm])


@dataclass
class ControllerEval:
    """One controller evaluation: input, virtual controls, and the outer
    law's certificate clearances h and values v at x_1, one entry per
    certificate, as the law computed them."""

    u: np.ndarray
    x_stars: tuple[np.ndarray, ...]    # x2*, ..., x_{m+1}* (= u)
    h: np.ndarray
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class SafetyLaw:
    """Outer-loop law: reshaped projection of the constant nominal input.

    evaluate maps one state (2,) to one input (2,), or N states (N, 2) to
    (N, 2) inputs; one state runs on floats with the batch code's values.
    A state where the law is undefined (on a segment spine, at a disc
    center, a failed selection condition) raises the package error for a
    single state and gives a NaN row in a batch. With no certificates the
    law is the nominal itself.

    c is the norm coefficient of the law's rows and tracking levels, and
    k_alpha the slope of its decay rate (qcqp_safety.decay_rate); a c
    outside [0, 1) or a k_alpha that is not finite and positive raises
    ValueError when the law is built.
    nominal is kept as a read-only (2,) array, and so is nominal_dots,
    A_L nominal as row_product gives it; the basis's pair-vertex table is
    built with the law, so no step rebuilds it. A step calls
    build_constraint_set and reshaped_filter through this module's names.
    """

    certs: tuple[CertificateSpec, ...]
    nominal: np.ndarray
    basis: PositiveBasis | None
    c: float
    k_alpha: float
    k_phi: float
    nominal_dots: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        nominal = np.array(self.nominal, dtype=float)
        nominal.flags.writeable = False
        object.__setattr__(self, "certs", tuple(self.certs))
        object.__setattr__(self, "nominal", nominal)
        # The constraint set's check of c: a law without certificates builds none.
        object.__setattr__(self, "c", ConstraintSet(np.zeros((0, 2)), np.zeros(0), self.c).c)
        if not 0.0 < self.k_alpha < math.inf:
            raise ValueError(f"k_alpha must be finite and positive, got {self.k_alpha}")
        if self.basis is not None:
            _ = self.basis.polygon.pairs      # builds and keeps the pair-vertex table
            dots = row_product(nominal, self.basis.polygon.a_t)
            dots.flags.writeable = False
            object.__setattr__(self, "nominal_dots", dots)

    def evaluate(self, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The input at x1, with each certificate's clearance h and value V
        there, as the constraint set evaluated them (shape (..., n_certs))."""
        x1 = np.asarray(x1, dtype=float)
        if not self.certs:
            empty = np.zeros(x1.shape[:-1] + (0,))
            return np.broadcast_to(self.nominal, x1.shape), empty, empty
        cs = build_constraint_set(x1, self.certs, self.c, self.k_alpha)
        # The projection broadcasts the one nominal against a batch's rows.
        return (reshaped_filter(self.nominal, cs, self.basis, self.k_phi,
                                nominal_dots=self.nominal_dots), cs.h, cs.v)


@dataclass
class CascadeController:
    """Cascade law u = rho_m(x_m - rho_{m-1}(... rho_1(x_1))): the outer
    safety law rho1, then one tracking level per slope K_i of gains (none
    when gains is None). Audits are advisory and never block construction:
    deliberately failing gain sets are legitimate simulation subjects.
    """

    rho1: SafetyLaw
    gains: CascadeGains | None

    @property
    def m(self) -> int:
        return 1 if self.gains is None else self.gains.m

    def evaluate(self, blocks: Sequence[np.ndarray]) -> ControllerEval:
        """Evaluate on the state blocks [x_1, ..., x_m]. Each level calls
        tracking_law through this module's name, which the benchmark's
        trace hooks rebind."""
        if len(blocks) != self.m:
            raise ValueError(f"expected {self.m} state blocks, got {len(blocks)}")
        x_star, h, v = self.rho1.evaluate(blocks[0])
        stars = [x_star]
        slopes = () if self.gains is None else self.gains.tracking_slopes
        c = self.rho1.c
        for block, slope in zip(blocks[1:], slopes):
            x_star = tracking_law(block - x_star, c, slope)
            stars.append(x_star)
        return ControllerEval(u=x_star, x_stars=tuple(stars), h=h, v=v)


def estimate_lipschitz(
    fn: Callable[[np.ndarray], np.ndarray],
    box: tuple[tuple[float, float], tuple[float, float]],
    grid: int = 200,
) -> float:
    """Grid lower bound on the Lipschitz constant of a planar map.

    fn maps an (n, 2) array of states to an (n, d) array of values. It is
    called on blocks of whole grid rows (in_row_blocks), each row x holding
    the states (x, y) for every grid y. The result is the largest slope between
    axis-adjacent valid points; non-finite values mask a cell out, so maps
    defined on a subregion can be fed directly.
    """
    (x_lo, x_hi), (y_lo, y_hi) = box
    xs = np.linspace(x_lo, x_hi, grid) if x_hi > x_lo else np.array([x_lo])
    ys = np.linspace(y_lo, y_hi, grid) if y_hi > y_lo else np.array([y_lo])
    nx, ny = xs.shape[0], ys.shape[0]
    states = np.column_stack([np.repeat(xs, ny), np.tile(ys, nx)])
    values = in_row_blocks(fn, states, ny).reshape(nx, ny, -1)
    best = 0.0
    for axis, ticks in enumerate((xs, ys)):
        if ticks.shape[0] > 1:
            step = np.diff(values, axis=axis)
            slopes = np.sqrt(sum_last_axis(step * step))       # np.linalg.norm(step, axis=2)
            slopes /= ticks[1] - ticks[0]
            finite = slopes[np.isfinite(slopes)]
            if finite.size:
                best = max(best, float(np.max(finite)))
    return best


def in_row_blocks(fn: Callable[[np.ndarray], np.ndarray], states: np.ndarray, row: int) -> np.ndarray:
    """fn's values on states (n, 2), whole grid rows of row states each,
    concatenated in order. fn is called on blocks of as many rows as fit in
    ESTIMATE_BLOCK_STATES, and on one row when a row alone exceeds it, so
    every state is evaluated once and the batch temporaries stay bounded."""
    block = max(1, ESTIMATE_BLOCK_STATES // row) * row
    return np.concatenate([np.asarray(fn(states[lo:lo + block]), dtype=float)
                           for lo in range(0, states.shape[0], block)])
