"""Safety certificate functions for segment and disc obstacles.

A certificate is a positive scalar field V whose superlevel set {V >= level}
covers an inflated obstacle. Every certificate has the one form V = exp(-h)
of its clearance h. For segments h is the exact point-to-segment distance
minus the safe distance (the distance to the clamped projection of the
point onto the segment), so {V >= 1} is exactly {h <= 0}. Disc obstacles
use the quadratic clearance |x - o|^2 - R^2 that single-integrator
gap-crossing scenarios are built on. Both geometries evaluate to one
CertificateEval, at one point or an array of points. disjointness_audit
checks from distances that no two unsafe sets meet anywhere in the plane.

The one form also fixes the envelope: at level v, V - v = v (e^s - 1) at
signed distance s from {V = v}, so a certificate's level alone gives the
inverse log1p((V - v)/v) that its decay rate applies
(qcqp_safety.decay_rate).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import AtCenterError, DegenerateGeometryError, ZeroGradientError
from .qp_solver import states_first, states_last

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

    @cached_property
    def floats(self) -> tuple[float, float, float, float]:
        """o1 and the spine o2 - o1 as floats, for one point."""
        return (*self.o1.tolist(), *self.base.tolist())


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


@dataclass
class CertificateEval:
    """Clearance h, its gradient, and the value V = exp(-h), whose
    gradient is -V grad_h.

    Evaluated at one point, h and v are floats and the gradient a (2,)
    vector; at an (..., 2) array of points every field gains the same
    leading axes.
    """

    h: float | np.ndarray
    grad_h: np.ndarray
    v: float | np.ndarray

    @classmethod
    def from_clearance(cls, h, grad_h: np.ndarray) -> "CertificateEval":
        """Apply the barrier transform V = exp(-h); one point's V is a
        float, from numpy's exp, whose bits math.exp need not give."""
        v = np.exp(-h)
        return cls(h, grad_h, v if isinstance(v, np.ndarray) else float(v))


def _undefined_where(bad: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values with NaN where bad (an array of points)."""
    if not bad.any():
        return values
    return np.where(bad, np.nan, values)


def _hypot(p: float, q: float) -> float:
    """np.hypot's value for two floats: the absolute value of a complex is
    the C library's hypot, which numpy's calls too, at a fifth of the cost
    of a numpy call. An overflow, which abs raises, is left to np.hypot."""
    try:
        return abs(complex(p, q))
    except OverflowError:
        return float(np.hypot(p, q))


def _one_point(x) -> tuple | list | None:
    """One point x as two floats, or None for an array of points (..., 2).
    The constraint set hands its state over as a tuple of two floats,
    which passes as it is; any other x is read as a float array."""
    if type(x) is tuple and len(x) == 2 and type(x[0]) is float:
        return x
    x = np.asarray(x, dtype=float)
    return x.tolist() if x.ndim == 1 else None


def eval_segment(cert: CertificateSpec, x: np.ndarray) -> CertificateEval:
    """Clearance and gradient for a segment certificate at x of shape (..., 2),
    or at one point given as a tuple of two floats.

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
    point = _one_point(x)
    base, base_sq = seg.base, seg.base_sq
    if base_sq <= 1e-24:
        raise DegenerateGeometryError("segment endpoints coincide")
    if point is not None:
        # One point runs on floats, with the ufuncs' values, -0.0 and NaN
        # included; the BLAS dot stays, as floats round otherwise.
        (x0, x1), (o0, o1, b0, b1) = point, seg.floats
        r0, r1 = x0 - o0, x1 - o1
        t = float(base.dot((r0, r1))) / base_sq
        t = 0.0 if t <= 0.0 else 1.0 if t >= 1.0 else t
        d0, d1 = r0 - t * b0, r1 - t * b1
        dist = _hypot(d0, d1)
        if dist <= SPINE_TOL:
            raise ZeroGradientError("query point on segment spine")
        grad_h = np.array([d0 / dist, d1 / dist])
        return CertificateEval.from_clearance(dist - cert.safe_distance, grad_h)
    # Component rows (2, N), states last (qp_solver.states_last).
    x = np.asarray(x, dtype=float)
    rel = np.subtract(states_last(x), seg.o1[:, None], order="C")
    rel -= base[:, None] * np.minimum(np.maximum(base @ rel / base_sq, 0.0), 1.0)
    dist = np.hypot(rel[0], rel[1])
    rel /= _undefined_where(dist <= SPINE_TOL, dist)
    h = (dist - cert.safe_distance).reshape(x.shape[:-1])
    return CertificateEval.from_clearance(h, states_first(rel, x.shape[:-1]))


def eval_disc(cert: CertificateSpec, x: np.ndarray) -> CertificateEval:
    """Quadratic clearance h(x) = |x - o|^2 - R^2 for a disc certificate.

    x has shape (..., 2) or is one point as a tuple of two floats; at the
    center (within CENTER_TOL) a single point raises AtCenterError and an
    array of points evaluates to NaN there.
    """
    disc = cert.geometry
    if not isinstance(disc, Disc):
        raise TypeError("eval_disc needs a Disc certificate")
    point = _one_point(x)
    if point is not None:
        # One point on floats, as eval_segment's.
        (x0, x1), (c0, c1) = point, disc.center.tolist()
        d0, d1 = x0 - c0, x1 - c1
        r = _hypot(d0, d1)
        if r <= CENTER_TOL:
            raise AtCenterError("query point at disc center")
        grad_h = np.full(2, np.nan) if r != r else np.array([2.0 * d0, 2.0 * d1])
        return CertificateEval.from_clearance(r * r - disc.radius**2, grad_h)
    x = np.asarray(x, dtype=float)
    delta = np.subtract(states_last(x), disc.center[:, None], order="C")     # (2, N)
    r = np.hypot(delta[0], delta[1])
    r = _undefined_where(r <= CENTER_TOL, r)
    grad_h = np.where(np.isnan(r), np.nan, 2.0 * delta)
    h = (r * r - disc.radius**2).reshape(x.shape[:-1])
    return CertificateEval.from_clearance(h, states_first(grad_h, x.shape[:-1]))


def certificate_value(cert: CertificateSpec, x: np.ndarray) -> CertificateEval:
    """Evaluate a certificate of either geometry kind at x."""
    return (eval_segment if isinstance(cert.geometry, Segment) else eval_disc)(cert, x)


@dataclass(frozen=True)
class DisjointnessReport:
    """Exact audit of the unsafe sets {V >= level} over the whole plane: the
    first least gap between two and their 1-based pair (inf and None with
    fewer than two), whether it is positive, and the gradient floor."""

    min_gap: float
    pair: tuple[int, int] | None
    holds: bool
    min_gradient_norm: float


def _superlevel_radius(cert: CertificateSpec) -> float:
    """Radius of {V >= level} = {h <= -log(level)} about a segment's spine or
    a disc's center; -inf for an empty set, an infinite gap from any other."""
    segment = isinstance(cert.geometry, Segment)
    depth = (cert.safe_distance if segment else cert.geometry.radius**2) - math.log(cert.level)
    return -math.inf if depth < 0.0 else depth if segment else math.sqrt(depth)


def _to_spine(cert: CertificateSpec, points: np.ndarray) -> float:
    """Least distance from points (n, 2) to a segment's spine, from eval_segment's clearance."""
    return float(np.min(eval_segment(cert, points).h)) + cert.safe_distance


def _spine_distance(a: CertificateSpec, b: CertificateSpec) -> float:
    """Distance between two spines, a segment or a disc's center: 0 for
    segments that cross (each one's endpoints strictly on either side of the
    other's line), else the least distance from an endpoint to the other."""
    if isinstance(a.geometry, Disc) and isinstance(b.geometry, Disc):
        return float(np.hypot(*(a.geometry.center - b.geometry.center)))
    if isinstance(a.geometry, Disc):
        a, b = b, a
    if isinstance(b.geometry, Disc):
        return _to_spine(a, b.geometry.center[None])
    s, t = a.geometry, b.geometry
    cross = lambda p, q: p[0] * q[1] - p[1] * q[0]      # np.cross of 2-vectors is deprecated
    if (cross(s.base, t.o1 - s.o1) * cross(s.base, t.o2 - s.o1) < 0.0
            and cross(t.base, s.o1 - t.o1) * cross(t.base, s.o2 - t.o1) < 0.0):
        return 0.0
    return min(_to_spine(a, np.stack([t.o1, t.o2])), _to_spine(b, np.stack([s.o1, s.o2])))


def disjointness_audit(certs: list[CertificateSpec]) -> DisjointnessReport:
    """Whether the unsafe sets are pairwise disjoint anywhere in the plane:
    each is a capsule about a segment's spine or a disc about its center,
    so two lie the distance between their spines less both radii apart.
    The sets are closed, so a gap of 0 overlaps, and so does a NaN gap,
    which np.argmin takes first. The least |grad h| over the nonempty sets
    (inf if none) is 1 off a segment's spine and 0 at a disc's center."""
    radii = [_superlevel_radius(cert) for cert in certs]
    pairs = list(itertools.combinations(range(len(certs)), 2))
    gaps = [_spine_distance(certs[i], certs[j]) - radii[i] - radii[j] for i, j in pairs] or [math.inf]
    k = int(np.argmin(gaps))
    pair = (pairs[k][0] + 1, pairs[k][1] + 1) if pairs else None
    floor = min((1.0 if isinstance(cert.geometry, Segment) else 0.0
                 for cert, radius in zip(certs, radii) if radius >= 0.0), default=math.inf)
    return DisjointnessReport(min_gap=gaps[k], pair=pair, holds=gaps[k] > 0.0, min_gradient_norm=floor)
