import math

import numpy as np
import pytest

from safecascade.certificates import (
    CertificateSpec,
    DisjointnessReport,
    Disc,
    Segment,
    disjointness_audit,
    eval_disc,
    eval_segment,
)
from safecascade.errors import AtCenterError, DegenerateGeometryError, ZeroGradientError
from safecascade.qcqp_safety import decay_rate, disc_constraint_set

from helpers import Raised, assert_same_bits, outcome
from oracles import (one_state_certificate, segment_distance_by_sampling, signed_level_distance,
                     spine_distance_by_sampling)

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
    np.testing.assert_allclose(-ev.v * ev.grad_h, -math.exp(-0.15) * np.array([0.0, 1.0]), atol=1e-12)


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


def envelope_inverse(offset, level):
    """The decay rate of slope 1: log1p(offset / level), clamped."""
    return decay_rate(offset, level, 1.0)


def test_alpha_bar_exponential_values():
    # At level 1 the inverse is zero on the level set and one at V = e. Far
    # out, V - 1 rounds to -1 and the inverse is clamped at log(eps).
    assert envelope_inverse(0.0, 1.0) == 0.0
    assert envelope_inverse(math.e - 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert envelope_inverse(-1.0, 1.0) == pytest.approx(math.log(np.finfo(float).eps), abs=1e-12)
    for s in np.linspace(-0.9, 5.0, 113):
        assert envelope_inverse(math.expm1(s), 1.0) == pytest.approx(s, abs=1e-12)


def test_alpha_bar_general_level_roundtrip():
    # For V = exp(-h) at level v, log1p((V - v)/v) is the signed distance
    # from {V = v}, positive inside: a wall at safe distance 1.5 reaches
    # V = v at distance 1.5 - log v from its spine.
    for level in (0.5, 1.0, 2.5):
        cert = CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=1.5, level=level)
        for d in np.linspace(0.05, 4.0, 50):
            ev = eval_segment(cert, np.array([0.3, 0.5 + d]))
            assert envelope_inverse(ev.v - level, level) == pytest.approx(1.5 - math.log(level) - d, abs=1e-12)


def test_disjointness_audit_clean_for_wall_pair():
    # The spines are 1.0 apart at x = -2.5 (each wall's left endpoint is
    # 1.0 from the other), and the capsules 0.35 thick: a gap of 0.3.
    report = disjointness_audit([WALL_HIGH, WALL_LOW])
    assert report.min_gap == pytest.approx(0.3, abs=1e-12)
    assert report.pair == (1, 2) and report.holds
    # Unit clearance gradients: the robustness floor is one.
    assert report.min_gradient_norm == 1.0


def test_disjointness_audit_flags_overlapping_discs():
    overlapping = [
        CertificateSpec(Disc([0.0, 0.0], 1.0)),
        CertificateSpec(Disc([0.5, 0.0], 1.0)),
    ]
    report = disjointness_audit(overlapping)
    assert report.min_gap == -1.5 and report.pair == (1, 2) and not report.holds
    # A disc's set holds its center, where |grad h| = 2 |x - o| is 0.
    assert report.min_gradient_norm == 0.0


def test_disjointness_audit_flags_crossing_spines_with_far_endpoints():
    # Every endpoint lies at least 3.5 from the other spine, so only the
    # crossing test sees the overlap.
    for ends in (([-5.0, 0.0], [5.0, 0.0]), ([-5.0, -5.0], [5.0, 5.0])):
        crossing = [CertificateSpec(Segment(*ends), safe_distance=0.01),
                    CertificateSpec(Segment([0.0, -5.0], [0.0, 5.0]), safe_distance=0.01)]
        report = disjointness_audit(crossing)
        assert report.min_gap == pytest.approx(-0.02, abs=1e-15) and not report.holds


def test_disjointness_audit_counts_touching_sets_as_overlapping():
    # The sets are closed: capsules whose gap is exactly 0 share a line.
    touching = [CertificateSpec(Segment([0.0, 0.0], [1.0, 0.0]), safe_distance=0.5),
                CertificateSpec(Segment([0.0, 1.0], [1.0, 1.0]), safe_distance=0.5)]
    report = disjointness_audit(touching)
    assert report.min_gap == 0.0 and not report.holds
    # A T: one spine ends on the other, where the gradient is undefined.
    tee = [CertificateSpec(Segment([0.0, 0.0], [0.0, 5.0]), safe_distance=0.5),
           CertificateSpec(Segment([-5.0, 0.0], [5.0, 0.0]), safe_distance=0.5)]
    assert disjointness_audit(tee).min_gap == -1.0


def test_disjointness_audit_of_a_disc_and_a_segment():
    # The center (0, 2) lies 1.5 from the wall's spine y = 0.5, less the
    # wall's 0.35 and the disc's 1.0; at level 0.5 the disc's set has the
    # squared radius 1 + log 2 and the wall's capsule the radius 0.35 + log 2.
    disc = CertificateSpec(Disc([0.0, 2.0], 1.0))
    report = disjointness_audit([WALL_LOW, disc])
    assert report.min_gap == pytest.approx(0.15, abs=1e-12) and report.holds
    assert report.min_gradient_norm == 0.0
    wider = [CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35, level=0.5),
             CertificateSpec(Disc([0.0, 2.0], 1.0), level=0.5)]
    report = disjointness_audit(wider)
    want = 1.5 - (0.35 + math.log(2.0)) - math.sqrt(1.0 + math.log(2.0))
    assert report.min_gap == pytest.approx(want, abs=1e-12) and not report.holds


def test_disjointness_audit_of_an_empty_set():
    # A level above e^{safe distance} leaves {V >= level} empty, and an
    # empty set overlaps nothing, not even a spine that crosses its own.
    empty = CertificateSpec(Segment([-1.0, 0.0], [1.0, 0.0]), safe_distance=0.35, level=1.5)
    crossing = CertificateSpec(Segment([0.0, -1.0], [0.0, 1.0]), safe_distance=0.35)
    report = disjointness_audit([empty, crossing])
    assert report.min_gap == math.inf and report.pair == (1, 2) and report.holds
    assert report.min_gradient_norm == 1.0
    assert disjointness_audit([empty]) == disjointness_audit([]) == DisjointnessReport(
        min_gap=math.inf, pair=None, holds=True, min_gradient_norm=math.inf)


def test_disjointness_audit_reads_a_nan_gap_as_overlapping():
    # A NaN level makes its radius NaN; np.argmin takes that gap first.
    spines = [CertificateSpec(Segment([0.0, 0.0], [1.0, 0.0]), safe_distance=0.1),
              CertificateSpec(Segment([0.0, 5.0], [1.0, 5.0]), safe_distance=0.1),
              CertificateSpec(Segment([0.0, 9.0], [1.0, 9.0]), safe_distance=0.1, level=math.nan)]
    report = disjointness_audit(spines)
    assert math.isnan(report.min_gap) and report.pair == (1, 3) and not report.holds


def _superlevel_radius(geometry, size, level):
    """Radius of {V >= level}: size - log(level) for a segment of safe
    distance size, the root of size^2 - log(level) for a disc of radius
    size; None when the set is empty."""
    depth = (size if isinstance(geometry, Segment) else size * size) - math.log(level)
    return None if depth < 0.0 else depth if isinstance(geometry, Segment) else math.sqrt(depth)


def test_disjointness_audit_of_seeded_draws_matches_dense_spine_sampling():
    # Two segments, or a segment and a disc, placed at random in a 4 x 4 box
    # at levels around 1. The exact gap lies below the gap of 1,000 sampled
    # points per spine by at most their half spacings, and the verdicts
    # agree wherever the sampled gap clears zero by more than that.
    rng = np.random.default_rng(13)
    verdicts = set()
    for _ in range(100):
        ends = rng.uniform(-2.0, 2.0, size=(4, 2))
        sizes = rng.uniform(0.05, 1.0, size=2)
        level = float(rng.choice([0.5, 1.0, 1.2]))
        disc = rng.random() < 0.3
        first = Segment(ends[0], ends[1])
        second = Disc(ends[2], sizes[1]) if disc else Segment(ends[2], ends[3])
        report = disjointness_audit([
            CertificateSpec(first, safe_distance=sizes[0], level=level),
            CertificateSpec(second, level=level) if disc else
            CertificateSpec(second, safe_distance=sizes[1], level=level)])
        radii = [_superlevel_radius(first, sizes[0], level), _superlevel_radius(second, sizes[1], level)]
        if None in radii:
            assert report.min_gap == math.inf and report.holds
            continue
        spine_b = ends[2:3] if disc else ends[2:4]
        sampled = spine_distance_by_sampling(ends[:2], spine_b) - sum(radii)
        resolution = sum(float(np.hypot(*(s[-1] - s[0]))) for s in (ends[:2], spine_b)) / (2 * 999)
        assert sampled - resolution - 1e-12 <= report.min_gap <= sampled + 1e-12
        if abs(sampled) > resolution:
            assert report.holds is (sampled > 0.0)
        verdicts.add(report.holds)
    assert verdicts == {True, False}


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
    # The envelope inverse of V - level is D for the exponential transform
    # on segments, with D the signed distance to {V = level} measured by
    # bisection.
    cert = WALL_LOW
    value_fn = lambda x: eval_segment(cert, x).v
    for x in [np.array([0.0, 1.4]), np.array([0.3, 0.95]), np.array([-1.0, 0.78])]:
        ev = eval_segment(cert, x)
        d = signed_level_distance(value_fn, x, 1.0, -ev.v * ev.grad_h)
        assert envelope_inverse(ev.v - 1.0, 1.0) == pytest.approx(d, abs=1e-6)


def test_one_point_segment_on_floats_equals_the_array_reference_bit_for_bit():
    # One point runs on floats; oracles.one_state_certificate is the same
    # arithmetic on numpy arrays. Same bits for h, the gradient and V (NaN
    # and the sign of zero included), and the same spine error. Points lie
    # past both ends, beside the spine, on it, and at NaN.
    rng = np.random.default_rng(6174)
    seen = set()
    for k in range(400):
        o1, o2 = rng.normal(scale=3.0, size=(2, 2))
        cert = CertificateSpec(Segment(o1, o2), safe_distance=0.35)
        t = rng.uniform(-0.5, 1.5)
        normal = np.array([o1[1] - o2[1], o2[0] - o1[0]])
        for off in (rng.normal(), 1e-10 * rng.normal(), 0.0):
            x = o1 + t * (o2 - o1) + off * normal
            if k % 50 == 0:
                x[k % 2] = np.nan
            want = outcome(lambda: one_state_certificate(cert, x))
            got = outcome(lambda: eval_segment(cert, x))
            if isinstance(want, Raised):
                assert got == want
                seen.add("spine")
                continue
            for g, w in zip((got.h, got.grad_h, got.v), want):
                assert_same_bits(g, w)
            seen.add("nan" if np.isnan(want[0]) else "end" if not 0.0 < t < 1.0 else "side")
    assert seen == {"spine", "nan", "end", "side"}
