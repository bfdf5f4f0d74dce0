import math

import numpy as np
import pytest

from safecascade.certificates import (
    CertificateSpec,
    Disc,
    Segment,
    disjointness_audit,
    eval_disc,
    eval_segment,
    exp_alpha_bar_for_level,
)
from safecascade.errors import AtCenterError, DegenerateGeometryError, ZeroGradientError
from safecascade.qcqp_safety import disc_constraint_set

from helpers import assert_same_bits
from oracles import segment_distance_by_sampling, signed_level_distance

WALL_LOW = CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)
WALL_HIGH = CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35)


def near_spine_points(cert, offsets=(1e-5, 1e-6, 1e-7)):
    """Points at the given distances off the spine, above its midpoint."""
    seg = cert.geometry
    base = seg.o2 - seg.o1
    normal = np.array([-base[1], base[0]]) / np.linalg.norm(base)
    return [seg.o1 + 0.5 * base + off * normal for off in offsets]


def test_interior_branch_perpendicular_distance():
    ev = eval_segment(WALL_LOW, np.array([-2.0, 1.0]))
    assert ev.h == pytest.approx(0.15, abs=1e-12)
    np.testing.assert_allclose(ev.grad_h, [0.0, 1.0], atol=1e-12)
    assert ev.v == pytest.approx(math.exp(-0.15))
    np.testing.assert_allclose(ev.grad_v, -math.exp(-0.15) * np.array([0.0, 1.0]), atol=1e-12)


def test_endpoint_branch_is_point_distance():
    seg = CertificateSpec(Segment([0.0, 0.0], [1.0, 0.0]), safe_distance=0.25)
    x = np.array([-0.7, 0.0])  # beyond o1 along the axis
    ev = eval_segment(seg, x)
    assert ev.h == pytest.approx(0.7 - 0.25)
    np.testing.assert_allclose(ev.grad_h, [-1.0, 0.0], atol=1e-12)


def test_distance_matches_dense_sampling_oracle():
    rng = np.random.default_rng(5)
    seg = CertificateSpec(Segment([-1.0, 0.3], [2.0, -0.4]), safe_distance=0.2)
    for _ in range(25):
        x = rng.uniform(-3, 3, size=2)
        try:
            ev = eval_segment(seg, x)
        except ZeroGradientError:
            continue
        brute = segment_distance_by_sampling(x, seg.geometry.o1, seg.geometry.o2)
        assert ev.h + seg.safe_distance == pytest.approx(brute, abs=1e-4)
    # Near the spine the distance keeps its relative accuracy. WALL_LOW's
    # spine is the line y = 0.5, so the exact offset is x[1] - 0.5.
    for x in near_spine_points(WALL_LOW):
        ev = eval_segment(WALL_LOW, x)
        assert ev.h + WALL_LOW.safe_distance == pytest.approx(x[1] - 0.5, rel=1e-9)


def test_gradient_is_unit_norm_everywhere():
    rng = np.random.default_rng(6)
    for x in list(rng.uniform(-4, 4, size=(200, 2))) + near_spine_points(WALL_HIGH):
        try:
            ev = eval_segment(WALL_HIGH, x)
        except ZeroGradientError:
            continue
        assert np.linalg.norm(ev.grad_h) == pytest.approx(1.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    # Step size balances central-difference truncation against the roundoff
    # of the clamped-projection distance (a few ulps of the coordinates).
    rng = np.random.default_rng(7)
    eps = 1e-5
    checked = 0
    for _ in range(300):
        x = rng.uniform(-3.5, 3.5, size=2)
        try:
            ev = eval_segment(WALL_HIGH, x)
        except ZeroGradientError:
            continue
        # Stay away from branch boundaries where one-sided kinks live.
        seg = WALL_HIGH.geometry
        base = seg.o2 - seg.o1
        t1 = float((x - seg.o1) @ base)
        t2 = float((x - seg.o2) @ (seg.o1 - seg.o2))
        if min(abs(t1), abs(t2)) < 1e-3 or abs(ev.h + WALL_HIGH.safe_distance) < 1e-3:
            continue
        fd = np.array([
            (eval_segment(WALL_HIGH, x + [eps, 0]).h - eval_segment(WALL_HIGH, x - [eps, 0]).h) / (2 * eps),
            (eval_segment(WALL_HIGH, x + [0, eps]).h - eval_segment(WALL_HIGH, x - [0, eps]).h) / (2 * eps),
        ])
        np.testing.assert_allclose(ev.grad_h, fd, atol=1e-6)
        checked += 1
    assert checked > 100


def test_branch_boundary_one_sided_gradients_agree():
    # On the locus where the endpoint branch hands over to the interior one,
    # the gradient is continuous: compare values just either side.
    seg = CertificateSpec(Segment([0.0, 0.0], [2.0, 0.0]), safe_distance=0.1)
    x_boundary = np.array([0.0, 1.3])  # directly above o1
    left = eval_segment(seg, x_boundary - [1e-9, 0.0])
    right = eval_segment(seg, x_boundary + [1e-9, 0.0])
    np.testing.assert_allclose(left.grad_h, right.grad_h, atol=1e-6)
    np.testing.assert_allclose(left.h, right.h, atol=1e-9)


def test_degenerate_segment_rejected():
    with pytest.raises(DegenerateGeometryError):
        CertificateSpec(Segment([1.0, 1.0], [1.0, 1.0]), safe_distance=0.3)


def test_nonpositive_level_rejected():
    with pytest.raises(ValueError):
        CertificateSpec(Disc([0.0, 0.0], 1.0), level=0.0)


def test_spine_and_endpoint_raise_zero_gradient():
    seg = CertificateSpec(Segment([0.0, 0.0], [2.0, 0.0]), safe_distance=0.5)
    with pytest.raises(ZeroGradientError):
        eval_segment(seg, np.array([1.0, 0.0]))     # on the spine
    with pytest.raises(ZeroGradientError):
        eval_segment(seg, np.array([0.0, 0.0]))     # on an endpoint


def test_single_point_segment_equals_a_batch_of_one_bit_for_bit():
    # One point clamps its projection parameter t with floats, a batch with
    # ufuncs: before the segment (t < 0), beyond it (t > 1) and along it, a
    # point gives its batch of one's bits. On the spine a point raises,
    # while its batch of one keeps h and V and only its gradient is NaN.
    rng = np.random.default_rng(1018)
    certs = [WALL_LOW, WALL_HIGH, CertificateSpec(Segment([0.0, 0.0], [0.0, 2.0]), safe_distance=0.3)]
    sides = {"before": 0, "beyond": 0, "along": 0}
    for cert in certs:
        seg = cert.geometry
        normal = np.array([-seg.base[1], seg.base[0]]) / math.sqrt(seg.base_sq)
        for t in rng.uniform(-1.0, 2.0, size=300):
            x = seg.o1 + t * seg.base + rng.normal(scale=0.5) * normal
            sides["before" if t < 0.0 else "beyond" if t > 1.0 else "along"] += 1
            ev, batch = eval_segment(cert, x), eval_segment(cert, x[None])
            for field in ("h", "grad_h", "v"):
                assert_same_bits(getattr(ev, field), getattr(batch, field)[0])
    assert min(sides.values()) > 200
    on_spine = WALL_LOW.geometry.o1 + 0.3 * WALL_LOW.geometry.base
    with pytest.raises(ZeroGradientError):
        eval_segment(WALL_LOW, on_spine)
    batch = eval_segment(WALL_LOW, on_spine[None])
    assert batch.h[0] == -WALL_LOW.safe_distance and batch.v[0] == math.exp(WALL_LOW.safe_distance)
    assert np.isnan(batch.grad_h).all()


def test_disc_boundary_bound_is_zero():
    cert = CertificateSpec(Disc([0.0, 1.0], 1.0))
    x = np.array([0.0, 0.0])
    assert eval_disc(cert, x).h == pytest.approx(0.0)
    row = disc_constraint_set([cert], x)
    assert row.b[0] == pytest.approx(0.0)
    np.testing.assert_allclose(row.a[0], [0.0, 1.0], atol=1e-12)


def test_disc_far_away_bound_grows_like_half_distance():
    cert = CertificateSpec(Disc([0.0, 0.0], 1.0))
    x = np.array([100.0, 0.0])
    row = disc_constraint_set([cert], x)
    assert row.b[0] == pytest.approx(50.0, rel=1e-2)


def test_disc_center_rejected():
    cert = CertificateSpec(Disc([0.5, -0.5], 1.0))
    with pytest.raises(AtCenterError):
        eval_disc(cert, np.array([0.5, -0.5]))


def test_alpha_bar_exponential_values():
    abar, abar_inv = exp_alpha_bar_for_level(1.0)
    assert abar(0.0) == 0.0
    assert abar_inv(0.0) == 0.0
    assert abar(1.0) == pytest.approx(math.e - 1.0, abs=1e-12)
    for s in np.linspace(-0.9, 5.0, 113):
        assert abar_inv(abar(s)) == pytest.approx(s, abs=1e-12)


def test_alpha_bar_general_level_roundtrip():
    abar, abar_inv = exp_alpha_bar_for_level(2.5)
    for s in np.linspace(-0.5, 3.0, 50):
        assert abar_inv(abar(s)) == pytest.approx(s, abs=1e-12)


def test_disjointness_audit_clean_for_wall_pair():
    report = disjointness_audit([WALL_HIGH, WALL_LOW], ((-3.0, 3.0), (-0.5, 3.0)),
                                samples=3000, seed=1)
    assert report.joint_violations == 0
    # Unit clearance gradients: the robustness floor is one.
    assert report.min_gradient_norm == pytest.approx(1.0, abs=1e-12)
    assert report.superlevel_samples > 0


def test_disjointness_audit_flags_overlapping_discs():
    overlapping = [
        CertificateSpec(Disc([0.0, 0.0], 1.0)),
        CertificateSpec(Disc([0.5, 0.0], 1.0)),
    ]
    report = disjointness_audit(overlapping, ((-2.0, 2.0), (-2.0, 2.0)),
                                samples=3000, seed=2)
    assert report.joint_violations > 0
    assert report.first_violation is not None


def test_level_set_consistency_for_unit_level():
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = rng.uniform(-3.5, 3.5, size=2)
        try:
            ev = eval_segment(WALL_LOW, x)
        except ZeroGradientError:
            continue
        assert (ev.v >= 1.0) == (ev.h <= 0.0)


def test_signed_distance_surrogate_matches_alpha_bar():
    # alpha_bar(D) = V - level for the exponential transform on segments,
    # with D the signed distance to {V = level} measured by bisection.
    abar, _ = exp_alpha_bar_for_level(1.0)
    cert = WALL_LOW
    value_fn = lambda x: eval_segment(cert, x).v
    for x in [np.array([0.0, 1.4]), np.array([0.3, 0.95]), np.array([-1.0, 0.78])]:
        ev = eval_segment(cert, x)
        d = signed_level_distance(value_fn, x, 1.0, ev.grad_v)
        assert abar(d) == pytest.approx(ev.v - 1.0, abs=1e-6)
