"""Safety certificate functions for segment and disc obstacles.

A certificate is a positive scalar field V whose superlevel set {V >= level}
covers an inflated obstacle. Every certificate has the one form V = exp(-h)
of its clearance h. For segments h is the exact point-to-segment distance
minus the safe distance (the distance to the clamped projection of the
point onto the segment), so {V >= 1} is exactly {h <= 0}. Disc obstacles
use the quadratic clearance |x - o|^2 - R^2 that single-integrator
gap-crossing scenarios are built on. Both geometries evaluate to one
CertificateEval, at one point or an array of points. disjointness_audit
samples a box for points inside two unsafe sets at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import AtCenterError, DegenerateGeometryError, ZeroGradientError

# How near a segment's spine or a disc's center the gradient is undefined.
SPINE_TOL = 1e-9
CENTER_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    """Line-segment obstacle with endpoints in meters."""

    o1: np.ndarray
    o2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "o1", np.asarray(self.o1, dtype=float).ravel())
        object.__setattr__(self, "o2", np.asarray(self.o2, dtype=float).ravel())

    @cached_property
    def base(self) -> np.ndarray:
        """Spine vector o2 - o1."""
        return self.o2 - self.o1

    @cached_property
    def base_sq(self) -> float:
        """Squared spine length."""
        return float(self.base @ self.base)


@dataclass(frozen=True)
class Disc:
    """Disc obstacle; the radius doubles as the keep-out distance."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).ravel())
        if self.radius <= 0:
            raise DegenerateGeometryError("disc radius must be positive")


@dataclass(frozen=True)
class CertificateSpec:
    """One safety certificate: geometry, inflation and level."""

    geometry: Union[Segment, Disc]
    safe_distance: float = 0.0
    level: float = 1.0

    def __post_init__(self):
        if isinstance(self.geometry, Segment):
            if np.linalg.norm(self.geometry.o2 - self.geometry.o1) <= 1e-12:
                raise DegenerateGeometryError("segment endpoints coincide")
            if self.safe_distance <= 0:
                raise DegenerateGeometryError("segment certificates need safe_distance > 0")
        if self.level <= 0:
            raise ValueError("certificate level must be positive")


@dataclass(frozen=True)
class CertificateEval:
    """Clearance h, its gradient, and the transformed pair (V, dV/dx).

    Evaluated at one point, h and v are scalars and the gradients (2,)
    vectors; at an (..., 2) array of points every field gains the same
    leading axes.
    """

    h: float | np.ndarray
    grad_h: np.ndarray
    v: float | np.ndarray

    @classmethod
    def from_clearance(cls, h, grad_h: np.ndarray) -> "CertificateEval":
        """Apply the barrier transform V = exp(-h)."""
        return cls(h=h, grad_h=grad_h, v=np.exp(-h))

    @property
    def grad_v(self) -> np.ndarray:
        """dV/dx = -V dh/dx."""
        return -np.asarray(self.v)[..., None] * self.grad_h


def _undefined_where(bad, x: np.ndarray, error: type, message: str, values: np.ndarray) -> np.ndarray:
    """values with NaN where bad; a single point (x of shape (2,)) raises error."""
    if x.ndim == 1:
        if bad:
            raise error(message)
        return values
    if not bad.any():
        return values
    return np.where(bad, np.nan, values)


def eval_segment(cert: CertificateSpec, x: np.ndarray) -> CertificateEval:
    """Clearance and gradient for a segment certificate at x of shape (..., 2).

    The nearest segment point is the projection of x onto the spine line,
    clamped to the endpoints: t = clip((x - o1).b / |b|^2, 0, 1). The
    clearance is the distance to it minus the safe distance, and the
    gradient is the unit vector from it to x. On the spine (within
    SPINE_TOL) that direction is undefined: a single point raises
    ZeroGradientError, and in an array of points such a point keeps its
    clearance and value while its gradient is NaN.
    """
    seg = cert.geometry
    if not isinstance(seg, Segment):
        raise TypeError("eval_segment needs a Segment certificate")
    x = np.asarray(x, dtype=float)
    base, base_sq = seg.base, seg.base_sq
    if base_sq <= 1e-24:
        raise DegenerateGeometryError("segment endpoints coincide")
    rel = x - seg.o1
    if x.ndim == 1:
        # One point clamps a float; the same values as the ufuncs, -0.0 and NaN included.
        t = float(rel @ base) / base_sq
        delta = rel - (0.0 if t <= 0.0 else 1.0 if t >= 1.0 else t) * base
    else:
        t = np.minimum(np.maximum(rel @ base / base_sq, 0.0), 1.0)
        delta = rel - np.multiply.outer(t, base)
    dist = np.hypot(delta[..., 0], delta[..., 1])
    nrm = _undefined_where(dist <= SPINE_TOL, x, ZeroGradientError, "query point on segment spine", dist)
    return CertificateEval.from_clearance(dist - cert.safe_distance, delta / nrm[..., None])


def eval_disc(cert: CertificateSpec, x: np.ndarray) -> CertificateEval:
    """Quadratic clearance h(x) = |x - o|^2 - R^2 for a disc certificate.

    x has shape (..., 2); at the center (within CENTER_TOL) a single point
    raises AtCenterError and an array of points evaluates to NaN there.
    """
    disc = cert.geometry
    if not isinstance(disc, Disc):
        raise TypeError("eval_disc needs a Disc certificate")
    x = np.asarray(x, dtype=float)
    delta = x - disc.center
    r = np.hypot(delta[..., 0], delta[..., 1])
    r = _undefined_where(r <= CENTER_TOL, x, AtCenterError, "query point at disc center", r)
    grad_h = np.where(np.isnan(r)[..., None], np.nan, 2.0 * delta)
    return CertificateEval.from_clearance(r * r - disc.radius**2, grad_h)


def exp_alpha_bar_for_level(level: float):
    """Envelope pair for exp(-h) certificates at an arbitrary level v.

    V - v = v * (e^s - 1) at signed distance s from {V = v}, so the inverse
    is log1p((V - v)/v). Far from the obstacle V drops below the resolution
    of V - v (V < eps v, about 36 units of clearance), the offset rounds to
    -v and the inverse would be -inf; it is clamped there to log(eps), which
    only tightens the constraint. Both act elementwise on arrays.
    """
    if level <= 0:
        raise ValueError("level must be positive")
    floor = -1.0 + np.finfo(float).eps
    return (lambda s: level * np.expm1(s)), (lambda s: np.log1p(np.maximum(s / level, floor)))


def certificate_value(cert: CertificateSpec, x: np.ndarray) -> CertificateEval:
    """Evaluate a certificate of either geometry kind at x."""
    return (eval_segment if isinstance(cert.geometry, Segment) else eval_disc)(cert, x)


@dataclass(frozen=True)
class DisjointnessReport:
    """Sampling audit of pairwise-disjoint unsafe sets and the gradient floor."""

    samples: int
    joint_violations: int
    first_violation: np.ndarray | None
    min_gradient_norm: float
    superlevel_samples: int


MIN_AUDIT_SAMPLES = 1000     # fewer samples make disjointness_audit's report meaningless


def disjointness_audit(
    certs: list[CertificateSpec],
    domain_box: tuple[tuple[float, float], tuple[float, float]],
    samples: int = 2000,
    seed: int = 0,
) -> DisjointnessReport:
    """Sample the box for points inside two unsafe sets at once.

    Also tracks the smallest finite clearance-gradient magnitude seen over
    the sampled unsafe points, which is the robustness floor the decay-rate
    guarantee leans on. Report-only; never raises for violations.
    """
    if samples < MIN_AUDIT_SAMPLES:
        raise ValueError(f"use at least {MIN_AUDIT_SAMPLES} samples for a meaningful audit")
    rng = np.random.default_rng(seed)
    (x_lo, x_hi), (y_lo, y_hi) = domain_box
    pts = np.column_stack([
        rng.uniform(x_lo, x_hi, size=samples),
        rng.uniform(y_lo, y_hi, size=samples),
    ])
    above = np.zeros((samples, len(certs)), dtype=bool)
    min_grad = math.inf
    for j, cert in enumerate(certs):
        ev = certificate_value(cert, pts)
        hit = ev.v >= cert.level
        above[:, j] = hit
        # fmin skips the NaN gradient of a spine point, whose V is finite.
        min_grad = float(np.fmin.reduce(np.hypot(*ev.grad_h[hit].T), initial=min_grad))
    joint = np.count_nonzero(above, axis=1) >= 2
    first = pts[np.argmax(joint)].copy() if joint.any() else None
    joint, superlevel = int(joint.sum()), int(above.sum())
    return DisjointnessReport(
        samples=samples,
        joint_violations=joint,
        first_violation=first,
        min_gradient_norm=min_grad,
        superlevel_samples=superlevel,
    )
