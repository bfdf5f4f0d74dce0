"""Recursive cascade controller: safety filter outer loop plus closed-form
tracking laws, with the gain bookkeeping needed to audit a design.

The controller is data: the outer safety law (SafetyLaw) plus its gains.
The outer virtual control x2* comes from the reshaped safety filter of a
constant nominal input; each inner level tracks the previous virtual
control with rho_i(e) = -(e / |e|) * (g_lower/(g_lower - delta)) * K_i |e|,
which for integrator chains is plain proportional feedback -K_i e. Without
safety constraints the cascade is standard constructive control. The
ledger utilities compute the Lipschitz products that appear in the
gain-selection inequality and the small-gain contraction checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .certificates import CertificateSpec
# lipschitz_selection is unused here but stays importable: the benchmark's
# trace hooks (benchmarks/workloads.py) rebind cascade.lipschitz_selection.
from .qcqp_safety import PlantBounds, RateSpec, build_constraint_set, lipschitz_selection  # noqa: F401
from .reshaping import PositiveBasis, reshaped_filter

# States per call of estimate_lipschitz's map: whole grid rows up to this
# many, where the batched outer law's per-state cost has levelled off.
ESTIMATE_BLOCK_STATES = 2048


@dataclass(frozen=True)
class CascadeGains:
    """Gain ledger for an m-level cascade over an integrator chain.

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
        """Ledger entry k_level: the estimated k1 at level 1, else 2 K_level."""
        if level == 1:
            return self.k1
        return 2.0 * self.tracking_slope(level)

    def kbar(self, p: int, i: int) -> float:
        """Product of ledger entries k_p ... k_i; zero when p > i."""
        if p > i:
            return 0.0
        prod = 1.0
        for j in range(p, i + 1):
            prod *= self.lipschitz_entry(j)
        return prod


@dataclass(frozen=True)
class LevelGains:
    """Interconnection slopes feeding one tracking level of the ledger."""

    level: int
    alpha_rho0_slope: float
    alpha_cert_slope: float
    alpha_mid_slopes: tuple[float, ...]
    alpha_self_slope: float


@dataclass(frozen=True)
class GainLedger:
    levels: tuple[LevelGains, ...]
    kbar_table: dict


def gain_ledger(gains: CascadeGains) -> GainLedger:
    """Slope table of the interconnection gains for an integrator chain.

    For level i: the nominal-input channel has slope kbar(1, i-1); the
    certificate channel is that slope through gamma_x2v; the middle channels
    j = 2..i-1 have slope kbar(j, i-1) K_j + kbar(j-1, i-1); and the
    self channel has slope k_{i-1}. Empty products are zero.
    """
    levels = []
    for i in range(2, gains.m + 1):
        mids = tuple(
            gains.kbar(j, i - 1) * gains.tracking_slope(j) + gains.kbar(j - 1, i - 1)
            for j in range(2, i)
        )
        levels.append(LevelGains(
            level=i,
            alpha_rho0_slope=gains.kbar(1, i - 1),
            alpha_cert_slope=gains.kbar(1, i - 1) * gains.gamma_x2v_slope,
            alpha_mid_slopes=mids,
            alpha_self_slope=gains.lipschitz_entry(i - 1),
        ))
    kbar_table = {(p, i): gains.kbar(p, i)
                  for i in range(1, gains.m + 1) for p in range(1, i + 1)}
    return GainLedger(levels=tuple(levels), kbar_table=kbar_table)


@dataclass(frozen=True)
class LevelMargin:
    """Gain-selection slack at one level; positive means the design holds."""

    level: int
    k_tracking: float
    rhs_slope: float
    margin: float


def k_selection_audit(gains: CascadeGains) -> list[LevelMargin]:
    """Margins K_i - RHS of the integrator-chain gain-selection inequality.

    RHS slope at level i, from the gain_ledger slopes:
    theta + tau + tau * alpha_rho0 + alpha_cert * tau / gamma_12
    + tau * sum(alpha_mid) + alpha_self.
    The self term at level 2 uses the estimated k1 (no K_1 exists); its
    margin is reported without any pass expectation. Never raises: negative
    margins are data, and deliberately unsafe gain sets are simulated too.
    """
    out = []
    tau = gains.tau
    for lvl in gain_ledger(gains).levels:
        rhs = (gains.theta + tau + tau * lvl.alpha_rho0_slope
               + lvl.alpha_cert_slope * tau / gains.gamma_12_slope
               + tau * sum(lvl.alpha_mid_slopes) + lvl.alpha_self_slope)
        k_i = gains.tracking_slope(lvl.level)
        out.append(LevelMargin(level=lvl.level, k_tracking=k_i, rhs_slope=rhs, margin=k_i - rhs))
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


def tracking_law(x_tilde: np.ndarray, bounds: PlantBounds, kappa_slope: float) -> np.ndarray:
    """Closed-form minimum-norm tracking input for one planar cascade level.

    rho(e) = -(e / |e|) * (g_lower / (g_lower - delta)) * K |e| for e != 0,
    and zero at the origin; for an integrator chain that is plain
    proportional feedback. The result meets its generating norm-augmented
    row with equality for e = x_tilde, a float (2,) array.
    """
    nrm = math.sqrt(x_tilde.dot(x_tilde))      # np.linalg.norm's own formula for a vector
    if nrm <= 1e-15:
        return np.zeros(2)
    scale = bounds.g_lower / (bounds.g_lower - bounds.delta_upper)
    # The vector formula -(e / |e|) * scale * K * |e| on floats, in its order:
    # the shorter -scale * K * e rounds differently.
    return np.array([-(e / nrm) * scale * kappa_slope * nrm for e in x_tilde.tolist()])


@dataclass(frozen=True)
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

    Calling the law maps one state (2,) to one input (2,), or N states
    (N, 2) to (N, 2) inputs through the same array code. A state where the
    law is undefined (on a segment spine, at a disc center, a failed
    selection condition) raises the package error for a single state and
    gives a NaN row in a batch. With no certificates the law is the nominal
    itself.

    nominal is kept as a read-only (2,) array, and the basis's pair-vertex
    table is built with the law, so no step rebuilds it. A step calls
    build_constraint_set and reshaped_filter through this module's names.
    """

    certs: tuple[CertificateSpec, ...]
    nominal: np.ndarray
    basis: PositiveBasis | None
    bounds: PlantBounds
    rates: RateSpec
    k_phi: float

    def __post_init__(self):
        nominal = np.array(self.nominal, dtype=float)
        nominal.flags.writeable = False
        object.__setattr__(self, "certs", tuple(self.certs))
        object.__setattr__(self, "nominal", nominal)
        if self.basis is not None and self.basis.polygon is not None:
            _ = self.basis.polygon.pairs      # builds and keeps the pair-vertex table

    def evaluate(self, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The input at x1, with each certificate's clearance h and value V
        there, as the constraint set evaluated them (shape (..., n_certs))."""
        x1 = np.asarray(x1, dtype=float)
        if not self.certs:
            empty = np.zeros(x1.shape[:-1] + (0,))
            return np.broadcast_to(self.nominal, x1.shape), empty, empty
        cs = build_constraint_set(x1, self.certs, self.bounds, self.rates)
        # The projection broadcasts the one nominal against a batch's rows.
        return reshaped_filter(self.nominal, cs, self.basis, self.k_phi), cs.h, cs.v

    def __call__(self, x1: np.ndarray) -> np.ndarray:
        return self.evaluate(x1)[0]


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
        for block, slope in zip(blocks[1:], slopes):
            tilde = np.asarray(block, dtype=float) - stars[-1]
            stars.append(tracking_law(tilde, self.rho1.bounds, slope))
        return ControllerEval(u=stars[-1], x_stars=tuple(stars), h=h, v=v)

    def __call__(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        return self.evaluate(blocks).u


def estimate_lipschitz(
    fn: Callable[[np.ndarray], np.ndarray],
    box: tuple[tuple[float, float], tuple[float, float]],
    grid: int = 200,
) -> float:
    """Grid lower bound on the Lipschitz constant of a planar map.

    fn maps an (n, 2) array of states to an (n, d) array of values. It is
    called on blocks of whole grid rows, each row x holding the states
    (x, y) for every grid y: as many rows as fit in ESTIMATE_BLOCK_STATES,
    and one row when a row alone exceeds it. Every grid state is evaluated
    once, rows in order. The result is the largest slope between
    axis-adjacent valid points; non-finite values mask a cell out, so maps
    defined on a subregion can be fed directly.
    """
    (x_lo, x_hi), (y_lo, y_hi) = box
    xs = np.linspace(x_lo, x_hi, grid) if x_hi > x_lo else np.array([x_lo])
    ys = np.linspace(y_lo, y_hi, grid) if y_hi > y_lo else np.array([y_lo])
    nx, ny = xs.shape[0], ys.shape[0]
    states = np.column_stack([np.repeat(xs, ny), np.tile(ys, nx)])
    block = max(1, ESTIMATE_BLOCK_STATES // ny) * ny
    values = np.concatenate([np.asarray(fn(states[lo:lo + block]), dtype=float)
                             for lo in range(0, nx * ny, block)]).reshape(nx, ny, -1)
    best = 0.0
    for axis, ticks in enumerate((xs, ys)):
        if ticks.shape[0] > 1:
            slopes = np.linalg.norm(np.diff(values, axis=axis), axis=2) / (ticks[1] - ticks[0])
            finite = slopes[np.isfinite(slopes)]
            if finite.size:
                best = max(best, float(np.max(finite)))
    return best
