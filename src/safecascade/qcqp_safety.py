"""Norm-augmented safety constraints for relative-degree-one plants.

The feasible input set at state x is {u : A u + c * |u| <= b} with one row
per certificate: the row direction is the normalized certificate gradient
pushed through the input matrix, the offset is the decay-rate value at the
current certificate level, and the norm coefficient c = delta_upper/g_lower
absorbs input-matrix uncertainty. The module also provides the Lipschitz
selection, a closed-form point of the set used as the reshaping anchor, and
the sampled audit of the decay-rate condition above the threshold.

The selection also returns the slack it verified (selection_with_slack),
so the reshaping does not evaluate the set at it a second time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .certificates import CertificateSpec, Segment, eval_disc, eval_segment
from .errors import SelectionConditionError, ZeroGradientError


@dataclass(frozen=True)
class ConstraintSet:
    """Rows (a, b, c) of the system a @ u + c * |u| <= b with unit rows a.

    One state's set has a of shape (n_rows, n_u) and b of shape (n_rows,);
    a batch of states adds leading axes to both: (..., n_rows, n_u) and
    (..., n_rows). The norm coefficients c, shape (n_rows,), are shared. A
    batch row whose state has no set carries NaN. A set built from
    certificates also carries each certificate's clearance h and value V
    at the state, shaped like b; otherwise both are None.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    h: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim < 2:
            a = np.atleast_2d(a)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1:
            c = c.ravel()
        if not (a.shape[:-1] == b.shape and a.shape[-2] == c.shape[0]):
            raise ValueError("row count mismatch between a, b, c")
        if c.shape[0]:
            # NaN rows (states without a set) compare False and pass.
            if (np.abs(np.sqrt((a * a).sum(axis=-1)) - 1.0) > 1e-9).any():
                raise ValueError("constraint rows must be unit vectors")
            if not ((c >= 0.0) & (c < 1.0)).all():
                raise ValueError("norm coefficients must lie in [0, 1)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_rows(self) -> int:
        return self.a.shape[-2]

    @property
    def n_u(self) -> int:
        return self.a.shape[-1]

    @property
    def batched(self) -> bool:
        return self.b.ndim > 1

    def violations(self, u: np.ndarray) -> np.ndarray:
        """a u + c |u| - b per row, for u of shape (..., n_u)."""
        u = np.asarray(u, dtype=float)
        au = (self.a @ u[..., None])[..., 0]
        return au + self.c * np.sqrt((u * u).sum(axis=-1))[..., None] - self.b

    def contains(self, u: np.ndarray, tol: float = 1e-9):
        """Whether u meets every row within tol; one flag per batch row."""
        return (self.violations(u) <= tol).all(axis=-1)


@dataclass(frozen=True)
class PlantBounds:
    """Envelope constants of the plant: gain floor/ceiling, uncertainty cap,
    and class-K bounds on the drift from the disturbance and state channels."""

    g_lower: float
    g_upper: float
    delta_upper: float = 0.0
    f_z: Callable[[float], float] | None = None
    f_x: Callable[[float], float] | None = None

    def __post_init__(self):
        if not (self.g_upper >= self.g_lower > 0.0):
            raise ValueError("need g_upper >= g_lower > 0")
        if not (self.g_lower > self.delta_upper >= 0.0):
            raise ValueError("need g_lower > delta_upper >= 0")

    @property
    def norm_coefficient(self) -> float:
        return self.delta_upper / self.g_lower

    @property
    def gain_ratio(self) -> float:
        """(g_lower + delta_upper) / (g_lower - delta_upper), >= 1."""
        return (self.g_lower + self.delta_upper) / (self.g_lower - self.delta_upper)


@dataclass(frozen=True)
class RateSpec:
    """Decay-rate family alpha_j = base o alpha_bar_inverse_j.

    The base rate has slope base_slope on s >= 0. On s < 0 it is steepened
    by negative_ratio; choosing negative_ratio >= (g_lower + delta_upper) /
    (g_lower - delta_upper) makes the base satisfy
    base(s) + ratio * base(-s) <= 0 for s <= 0, which is what the Lipschitz
    selection needs to land inside the set. A plain linear rate
    (negative_ratio = 1) has that property only when delta_upper = 0.

    alpha_bar_inverse must act elementwise on arrays (numpy ufuncs, not
    math functions or branches on one float): build_constraint_set passes
    it every certificate's offsets at once, for one state as for a batch.
    """

    base_slope: float
    alpha_bar_inverse: Callable[[np.ndarray], np.ndarray] = lambda s: s
    negative_ratio: float = 1.0

    def __post_init__(self):
        if self.base_slope <= 0:
            raise ValueError("base_slope must be positive")
        if self.negative_ratio < 1.0:
            raise ValueError("negative_ratio must be >= 1")

    def base(self, s):
        """Base rate, elementwise on arrays."""
        return s * np.where(s >= 0.0, self.base_slope, self.base_slope * self.negative_ratio)

    def rate(self, offset):
        """alpha_j applied to the certificate offset V - level, elementwise."""
        return self.base(self.alpha_bar_inverse(offset))


def build_constraint_set(
    x: np.ndarray,
    certs: Sequence[CertificateSpec],
    g: np.ndarray,
    bounds: PlantBounds,
    rates: RateSpec,
    grad_tol: float = 1e-9,
) -> ConstraintSet:
    """Assemble the safety constraint set at x, one state (2,) or a batch (..., 2).

    Row j is the unit vector along dV_j/dx @ g, which is -dh_j/dx @ g
    normalised (V = exp(-h) only scales it), the offset is
    -alpha_j(V_j - level_j), and every norm coefficient is
    delta_upper / g_lower. The set keeps each certificate's h and V, so a
    caller that needs them evaluates nothing again. A clearance gradient
    that vanishes through g (|dh/dx @ g| <= grad_tol |dh/dx|) breaks the
    nonzero-gradient standing assumption: a single state raises
    ZeroGradientError, a batch gives NaN rows there, as it does where a
    certificate is undefined.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.ndim < 2:
        g = np.atleast_2d(g)
    grad_h = np.empty(x.shape[:-1] + (len(certs), x.shape[-1]))
    h = np.empty(x.shape[:-1] + (len(certs),))
    v = np.empty(h.shape)
    for j, cert in enumerate(certs):
        # Called through this module's names, which benchmark tracing rebinds.
        ev = (eval_segment if isinstance(cert.geometry, Segment) else eval_disc)(cert, x)
        grad_h[..., j, :] = ev.grad_h
        h[..., j] = ev.h
        v[..., j] = ev.v
    direction = grad_h @ g
    nrm2 = (direction * direction).sum(axis=-1)
    vanished = nrm2 <= (grad_tol * np.hypot(grad_h[..., 0], grad_h[..., 1])) ** 2
    if vanished.any():
        if x.ndim == 1:
            raise ZeroGradientError(
                f"certificate {int(np.argmax(vanished))}: gradient vanishes through g")
        nrm2 = np.where(vanished, np.nan, nrm2)
    offset = v - np.array([cert.level for cert in certs])
    return ConstraintSet(direction / -np.sqrt(nrm2)[..., None], -rates.rate(offset),
                         np.full(len(certs), bounds.norm_coefficient), h=h, v=v)


def disc_constraint_set(discs: Sequence[CertificateSpec], x: np.ndarray) -> ConstraintSet:
    """Quadratic-clearance rows for disc obstacles under velocity control.

    Row j is -grad h_j / |grad h_j| = -(x - o_j)/|x - o_j| with offset
    h_j / |grad h_j| = h_j / (2 |x - o_j|) and zero norm coefficient; the
    standard gap-crossing setup.
    """
    rows, offsets = [], []
    for cert in discs:
        ev = eval_disc(cert, x)
        nrm = np.sqrt(np.sum(ev.grad_h * ev.grad_h, axis=-1))
        rows.append(-ev.grad_h / nrm[..., None])
        offsets.append(ev.h / nrm)
    return ConstraintSet(np.stack(rows, axis=-2), np.stack(offsets, axis=-1), np.zeros(len(discs)))


def lipschitz_selection(cs: ConstraintSet, tol: float = 1e-9) -> np.ndarray:
    """Lipschitz anchor point of the constraint set, (n_u,) or (..., n_u).

    Requires the pairwise offset condition
    b_j/(1 + sgn(b_j) c_j) + b_k/(1 + sgn(b_k) c_k) >= 0 for j != k, which
    guarantees at most one offset below -tol. Returns zero when all offsets
    are nonnegative, else the negative row's direction times b/(1 - c),
    summed over negative rows (a second one can only lie within tol of
    zero). The point is verified against every row; a violation means the
    certificates are not disjoint or the rate lacks the negative-side
    steepening. For a single state both failures raise
    SelectionConditionError; a batch gives NaN rows there and where the set
    itself is NaN.
    """
    return selection_with_slack(cs, tol)[0]


def selection_with_slack(cs: ConstraintSet, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """lipschitz_selection and the slack b - a u - c|u| of every row at it,
    shape (..., n_rows), from the one evaluation of the set that verifies
    the point; NaN rows where the selection is undefined."""
    a, b, c = cs.a, cs.b, cs.c
    if cs.n_rows == 0:
        return np.zeros(b.shape[:-1] + (cs.n_u,)), np.zeros(b.shape)
    scaled = b / (1.0 + np.sign(b) * c)
    failed = False
    if cs.n_rows >= 2:
        # The two smallest; with two rows that is both (their sum commutes).
        two = scaled if cs.n_rows == 2 else np.partition(scaled, 1, axis=-1)[..., :2]
        failed = two.sum(axis=-1) < -tol
        if not cs.batched and failed:
            lo, second = (int(k) for k in np.argsort(scaled, kind="stable")[:2])
            raise SelectionConditionError(
                f"offset condition fails for rows ({lo}, {second}): "
                f"{scaled[lo]:.6g} + {scaled[second]:.6g} < 0",
                pair=(lo, second),
            )
    u = ((np.minimum(b, 0.0) / (1.0 - c))[..., None] * a).sum(axis=-2)
    viol = cs.violations(u)
    worst = viol.max(axis=-1)
    if not cs.batched:
        if worst > tol:
            raise SelectionConditionError(f"selection violates a row by {worst:.3e}", pair=None)
        return u, -viol
    undefined = (failed | ~(worst <= tol))[..., None]
    return np.where(undefined, np.nan, u), np.where(undefined, np.nan, -viol)


@dataclass(frozen=True)
class RateConditionReport:
    """Sampling audit of the threshold decay condition for one certificate."""

    threshold: float
    v_max: float
    min_margin: float
    argmin_v: float
    holds: bool


def rate_condition_audit(
    rate: RateSpec,
    level: float,
    threshold: float,
    theta: float,
    gamma_w_slope: float,
    bounds: PlantBounds,
    v_max: float,
    gamma_z_inverse: Callable[[float], float] | None = None,
    x_norm: float = 0.0,
    grid: int = 200,
) -> RateConditionReport:
    """Check alpha_j((c-v)/c * V) >= theta V + f_z(gz^-1(V))/g + (1+d/g) V/gw
    + f_x(|x|)/g over sampled V in [threshold, v_max]. Report-only."""
    if threshold <= level:
        raise ValueError("threshold must exceed the certificate level")
    vs = np.linspace(threshold, max(v_max, threshold), grid)
    frac = (threshold - level) / threshold
    min_margin, argmin_v = math.inf, threshold
    for v in vs:
        lhs = rate.rate(frac * v)
        rhs = theta * v + (1.0 + bounds.norm_coefficient) * (v / gamma_w_slope)
        if bounds.f_z is not None and gamma_z_inverse is not None:
            rhs += bounds.f_z(gamma_z_inverse(v)) / bounds.g_lower
        if bounds.f_x is not None:
            rhs += bounds.f_x(x_norm) / bounds.g_lower
        margin = lhs - rhs
        if margin < min_margin:
            min_margin, argmin_v = margin, float(v)
    return RateConditionReport(
        threshold=threshold,
        v_max=v_max,
        min_margin=min_margin,
        argmin_v=argmin_v,
        holds=bool(min_margin >= 0.0),
    )
