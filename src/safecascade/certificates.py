"""Safety certificate functions for segment and disc obstacles.

A certificate is a positive scalar field V whose superlevel set {V >= level}
covers an inflated obstacle. For segments the clearance h is the exact
point-to-segment distance minus the safe distance (the distance to the
clamped projection of the point onto the segment), and V = exp(-h), so
{V >= 1} is exactly {h <= 0}. Disc obstacles use the quadratic clearance
|x - o|^2 - R^2 that single-integrator gap-crossing scenarios are built on.
Both geometries evaluate to one CertificateEval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    AtCenterError,
    BadTransformError,
    DegenerateGeometryError,
    ZeroGradientError,
)


@dataclass(frozen=True)
class Segment:
    """Line-segment obstacle with endpoints in meters."""

    o1: np.ndarray
    o2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "o1", np.asarray(self.o1, dtype=float).ravel())
        object.__setattr__(self, "o2", np.asarray(self.o2, dtype=float).ravel())


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
class MuTransform:
    """Barrier transform mu plus derivative and inverse, for audits."""

    mu: Callable[[float], float]
    mu_prime: Callable[[float], float]
    mu_inverse: Callable[[float], float]


EXP_TRANSFORM = MuTransform(
    mu=lambda s: math.exp(-s),
    mu_prime=lambda s: -math.exp(-s),
    mu_inverse=lambda y: -math.log(y),
)


@dataclass(frozen=True)
class CertificateSpec:
    """One safety certificate: geometry, inflation, level and transform tag."""

    geometry: Union[Segment, Disc]
    safe_distance: float = 0.0
    level: float = 1.0
    mu: str = "exp"

    def __post_init__(self):
        if isinstance(self.geometry, Segment):
            if np.linalg.norm(self.geometry.o2 - self.geometry.o1) <= 1e-12:
                raise DegenerateGeometryError("segment endpoints coincide")
            if self.safe_distance <= 0:
                raise DegenerateGeometryError("segment certificates need safe_distance > 0")
        if self.level <= 0:
            raise ValueError("certificate level must be positive")
        if self.mu != "exp":
            raise ValueError(f"unknown barrier transform tag {self.mu!r}")


@dataclass(frozen=True)
class CertificateEval:
    """Clearance h, its gradient, and the transformed pair (V, dV/dx)."""

    h: float
    grad_h: np.ndarray
    v: float
    grad_v: np.ndarray

    @classmethod
    def from_clearance(cls, h: float, grad_h: np.ndarray) -> "CertificateEval":
        """Apply the barrier transform V = exp(-h), dV/dx = -V dh/dx."""
        v = math.exp(-h)
        return cls(h=h, grad_h=grad_h, v=v, grad_v=-v * grad_h)


def eval_segment(cert: CertificateSpec, x: np.ndarray, spine_tol: float = 1e-9) -> CertificateEval:
    """Clearance and gradient for a segment certificate at point x.

    The nearest segment point is the projection of x onto the spine line,
    clamped to the endpoints: t = clip((x - o1).b / |b|^2, 0, 1). The
    clearance is the distance to it minus the safe distance, and the
    gradient is the unit vector from it to x. Exactly on the spine that
    direction is undefined and ZeroGradientError is raised.
    """
    seg = cert.geometry
    if not isinstance(seg, Segment):
        raise TypeError("eval_segment needs a Segment certificate")
    x = np.asarray(x, dtype=float).ravel()
    base = seg.o2 - seg.o1
    base_sq = float(base @ base)
    if base_sq <= 1e-24:
        raise DegenerateGeometryError("segment endpoints coincide")
    rel = x - seg.o1
    t = min(max(float(rel @ base) / base_sq, 0.0), 1.0)
    delta = rel - t * base
    dist = math.sqrt(float(delta @ delta))
    if dist <= spine_tol:
        raise ZeroGradientError("query point on segment spine")
    return CertificateEval.from_clearance(dist - cert.safe_distance, delta / dist)


def eval_disc(cert: CertificateSpec, x: np.ndarray, tol: float = 1e-12) -> CertificateEval:
    """Quadratic clearance h(x) = |x - o|^2 - R^2 for a disc certificate."""
    disc = cert.geometry
    if not isinstance(disc, Disc):
        raise TypeError("eval_disc needs a Disc certificate")
    x = np.asarray(x, dtype=float).ravel()
    delta = x - disc.center
    r = math.sqrt(float(delta @ delta))
    if r <= tol:
        raise AtCenterError("query point at disc center")
    return CertificateEval.from_clearance(r * r - disc.radius**2, 2.0 * delta)


def exp_alpha_bar_for_level(level: float):
    """Envelope pair for exp(-h) certificates at an arbitrary level v.

    V - v = v * (e^s - 1) at signed distance s from {V = v}, so the inverse
    is log1p((V - v)/v).
    """
    if level <= 0:
        raise ValueError("level must be positive")
    return (lambda s: level * math.expm1(s)), (lambda s: math.log1p(s / level))


def cbf_to_certificate(
    h_fn: Callable[[np.ndarray], float],
    alpha: Callable[[float], float],
    mu: MuTransform = EXP_TRANSFORM,
    check_span: tuple[float, float] = (0.0, 10.0),
    check_points: int = 400,
):
    """Convert a zeroing-barrier pair (h, alpha) into certificate form.

    Returns (V, alpha_prime) with V = mu(h) and
    alpha_prime(s) = -alpha_mu(s + mu(0)) * alpha(mu_inverse(s + mu(0))),
    where alpha_mu(y) = -mu'(mu_inverse(y)) for y > 0 and 0 otherwise. The
    transform must be strictly decreasing and strictly convex with limit 0;
    both that and the monotonicity of alpha_prime are audited by sampling
    over check_span (the side where the rate matters for safety), raising
    BadTransformError on failure.
    """
    mu0 = mu.mu(0.0)
    probe = np.linspace(-3.0, 8.0, 200)
    vals = np.array([mu.mu(s) for s in probe])
    if not np.all(np.diff(vals) < 0):
        raise BadTransformError("mu is not strictly decreasing on the sampled range")
    if not np.all(np.diff(vals, 2) > -1e-12):
        raise BadTransformError("mu is not convex on the sampled range")
    if mu.mu(40.0) > 1e-6 * mu0:
        raise BadTransformError("mu does not decay toward zero")

    def alpha_mu(y: float) -> float:
        if y <= 0.0:
            return 0.0
        return -mu.mu_prime(mu.mu_inverse(y))

    def alpha_prime(s: float) -> float:
        y = s + mu0
        if y <= 0.0:
            return -math.inf
        return -alpha_mu(y) * alpha(mu.mu_inverse(y))

    lo, hi = check_span
    grid = np.linspace(lo, hi, check_points)
    seq = np.array([alpha_prime(s) for s in grid])
    if abs(alpha_prime(0.0)) > 1e-12:
        raise BadTransformError("alpha_prime(0) must be zero")
    if not np.all(np.diff(seq) > 0):
        raise BadTransformError("alpha_prime not strictly increasing on the checked span")

    def v_fn(x: np.ndarray) -> float:
        return mu.mu(h_fn(x))

    return v_fn, alpha_prime


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


def disjointness_audit(
    certs: list[CertificateSpec],
    domain_box: tuple[tuple[float, float], tuple[float, float]],
    samples: int = 2000,
    seed: int = 0,
) -> DisjointnessReport:
    """Sample the box for points inside two unsafe sets at once.

    Also tracks the smallest clearance-gradient magnitude seen over the
    sampled unsafe points, which is the robustness floor the decay-rate
    guarantee leans on. Report-only; never raises for violations.
    """
    if samples < 1000:
        raise ValueError("use at least 1000 samples for a meaningful audit")
    rng = np.random.default_rng(seed)
    (x_lo, x_hi), (y_lo, y_hi) = domain_box
    pts = np.column_stack([
        rng.uniform(x_lo, x_hi, size=samples),
        rng.uniform(y_lo, y_hi, size=samples),
    ])
    joint = 0
    first = None
    min_grad = math.inf
    superlevel = 0
    for x in pts:
        above = []
        for j, cert in enumerate(certs):
            try:
                ev = certificate_value(cert, x)
            except ZeroGradientError:
                continue
            if ev.v >= cert.level:
                above.append(j)
                superlevel += 1
                min_grad = min(min_grad, float(np.linalg.norm(ev.grad_h)))
        if len(above) >= 2:
            joint += 1
            if first is None:
                first = x.copy()
    return DisjointnessReport(
        samples=samples,
        joint_violations=joint,
        first_violation=first,
        min_gradient_norm=min_grad,
        superlevel_samples=superlevel,
    )
