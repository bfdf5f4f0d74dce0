import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safecascade.certificates import CertificateSpec, Disc, Segment, exp_alpha_bar_for_level
from safecascade.errors import SelectionConditionError
from safecascade.qcqp_safety import (
    ConstraintSet,
    PlantBounds,
    RateSpec,
    build_constraint_set,
    disc_constraint_set,
    lipschitz_selection,
    rate_condition_audit,
)

from oracles import norm_constrained_membership

UNIT_BOUNDS = PlantBounds(g_lower=1.0, delta_upper=0.0)


def cs_of(a, b, c=0.0):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return ConstraintSet(a, np.asarray(b, dtype=float), c)


def random_unit_rows(rng, n, dim=2):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def draw_disjoint_disc_offsets(rng, n_c, rate: RateSpec):
    """Offsets b from signed distances to pairwise-disjoint disc unsafe sets.

    Distances satisfy the disjointness inequality max + min <= 0 for every
    pair by construction, which is all the selection guarantee needs.
    """
    centers = []
    radii = []
    while len(centers) < n_c:
        c = rng.uniform(-4.0, 4.0, size=2)
        r = rng.uniform(0.2, 1.2)
        if all(np.linalg.norm(c - c2) > r + r2 + 0.05 for c2, r2 in zip(centers, radii)):
            centers.append(c)
            radii.append(r)
    x = rng.uniform(-4.0, 4.0, size=2)
    signed = np.array([r - np.linalg.norm(x - c) for c, r in zip(centers, radii)])
    return np.array([-rate.base(float(s)) for s in signed])


# ------------------------------------------------------------ construction

def test_single_disc_on_level_set():
    cert = CertificateSpec(Disc([1.0, 0.0], 1.0))
    cs = build_constraint_set(np.array([0.0, 0.0]), [cert], UNIT_BOUNDS,
                              RateSpec(base_slope=1.0))
    np.testing.assert_allclose(cs.a, [[1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(cs.b, [0.0], atol=1e-12)


def test_zero_uncertainty_gives_zero_norm_coefficients():
    cert = CertificateSpec(Segment([-1.0, 0.0], [1.0, 0.0]), safe_distance=0.2)
    cs = build_constraint_set(np.array([0.0, 1.0]), [cert], UNIT_BOUNDS,
                              RateSpec(base_slope=2.0))
    assert cs.c == 0.0


def test_wall_scenario_offsets_are_slope_times_clearance():
    certs = [
        CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
        CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35),
    ]
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rate = RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv)
    cs = build_constraint_set(np.array([-2.0, 1.0]), certs, UNIT_BOUNDS, rate)
    # Clearances by the perpendicular-distance oracle: the low wall is the
    # line y = 0.5, the high wall passes 0.5581 away from the query point.
    assert cs.b[1] == pytest.approx(1.0 * 0.15, abs=1e-12)
    assert cs.b[0] == pytest.approx(1.0 * 0.20815630565, abs=1e-9)
    norms = np.linalg.norm(cs.a, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_uncertain_bounds_fill_norm_coefficient():
    bounds = PlantBounds(g_lower=2.0, delta_upper=0.5)
    cert = CertificateSpec(Disc([0.0, 2.0], 1.0))
    cs = build_constraint_set(np.array([0.0, 0.0]), [cert], bounds,
                              RateSpec(1.0, negative_ratio=bounds.gain_ratio))
    np.testing.assert_allclose(cs.c, 0.25)


# ---------------------------------------------------------------- witness
# The Lipschitz selection is the closed-form witness that the set is nonempty.

def test_witness_zero_when_all_offsets_nonnegative():
    cs = cs_of(random_unit_rows(np.random.default_rng(0), 2), [0.5, 0.2])
    np.testing.assert_array_equal(lipschitz_selection(cs), [0.0, 0.0])


def test_witness_hand_substitution():
    cs = cs_of([[1.0, 0.0], [0.0, 1.0]], [-1.0, 2.0])
    w = lipschitz_selection(cs)
    np.testing.assert_allclose(w, [-1.0, 0.0], atol=1e-12)
    # Row checks by direct substitution into the norm-augmented system.
    assert norm_constrained_membership(cs.a, cs.b, cs.c, w)


def test_witness_monte_carlo_disjoint_configurations():
    rng = np.random.default_rng(1234)
    for _ in range(2000):
        n_c = int(rng.integers(2, 4))
        delta_ratio = float(rng.uniform(0.0, 0.8))
        bounds = PlantBounds(g_lower=1.0, delta_upper=delta_ratio)
        rate = RateSpec(float(rng.uniform(0.3, 3.0)), negative_ratio=bounds.gain_ratio)
        b = draw_disjoint_disc_offsets(rng, n_c, rate)
        cs = cs_of(random_unit_rows(rng, n_c), b, delta_ratio)
        w = lipschitz_selection(cs)
        assert norm_constrained_membership(cs.a, cs.b, cs.c, w, tol=1e-9)


def test_witness_and_selection_homogeneity_in_offsets():
    rng = np.random.default_rng(77)
    a = random_unit_rows(rng, 3)
    # Offsets satisfy the pairwise condition: -0.7/0.8 + 1.2/1.2 >= 0.
    b = np.array([-0.7, 1.2, 1.4])
    c = 0.2
    base_s = lipschitz_selection(cs_of(a, b, c))
    for lam in [0.5, 2.0, 7.5]:
        scaled = cs_of(a, lam * b, c)
        np.testing.assert_allclose(lipschitz_selection(scaled), lam * base_s, atol=1e-12)


def test_witness_infeasible_without_rate_steepening():
    # Plain linear rate with nonzero uncertainty and tight geometry: the
    # closed form would land outside the set, the pairwise offset condition
    # fails, and the failure is reported.
    ratio = 0.5
    b = np.array([-1.0, 1.0])      # from signed distances +1 / -1, slope 1
    cs = cs_of([[1.0, 0.0], [-1.0, 0.0]], b, ratio)
    with pytest.raises(SelectionConditionError):
        lipschitz_selection(cs)


def test_base_rate_negative_side_condition():
    # The selection needs base(s) + ratio * base(-s) <= 0 for every s <= 0.
    s = np.linspace(-10.0, 0.0, 200)
    worst = lambda rate, bounds: np.max(rate.base(s) + bounds.gain_ratio * rate.base(-s))
    bounds = PlantBounds(g_lower=1.0, delta_upper=0.4)
    plain = RateSpec(base_slope=1.0)
    steep = RateSpec(1.0, negative_ratio=bounds.gain_ratio)
    assert worst(plain, UNIT_BOUNDS) <= 1e-12        # delta = 0: fine
    assert worst(plain, bounds) > 0.0                # delta > 0: fails
    assert worst(steep, bounds) <= 1e-12             # steepened: fine


# -------------------------------------------------------------- selection

def test_selection_zero_case():
    cs = cs_of(random_unit_rows(np.random.default_rng(3), 3), [0.1, 0.0, 2.0])
    np.testing.assert_array_equal(lipschitz_selection(cs), [0.0, 0.0])


def test_selection_single_negative_row():
    cs = cs_of([[1.0, 0.0], [0.0, 1.0]], [-0.4, 0.6], 0.2)
    sel = lipschitz_selection(cs)
    np.testing.assert_allclose(sel, [-0.5, 0.0], atol=1e-12)
    assert norm_constrained_membership(cs.a, cs.b, cs.c, sel)


def test_selection_condition_violation_reports_pair():
    cs = cs_of([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [-1.0, 5.0, -1.0], 0.2)
    with pytest.raises(SelectionConditionError) as err:
        lipschitz_selection(cs)
    assert set(err.value.pair) == {0, 2}


def test_selection_is_lipschitz_along_gap_path():
    # Walk along the axis of the two-disc gap; the selection must move with
    # a slope bounded by the constituent Lipschitz constants:
    # |d sel| <= (|db| + |b| |da|) / (1 - cbar).
    discs = [CertificateSpec(Disc([0.0, 1.0], 0.99)), CertificateSpec(Disc([0.0, -1.0], 0.99))]
    xs = np.linspace(-1.6, -0.4, 400)
    points = []
    for x1 in xs:
        cs = disc_constraint_set(discs, np.array([x1, 0.35]))
        points.append(lipschitz_selection(cs))
    points = np.asarray(points)
    slopes = np.linalg.norm(np.diff(points, axis=0), axis=1) / np.diff(xs)
    # Constituent bounds measured on the same path.
    db, bmax, da = [], [], []
    for x1 in xs:
        cs = disc_constraint_set(discs, np.array([x1, 0.35]))
        bmax.append(np.max(np.abs(cs.b)))
        db.append(cs.b)
        da.append(cs.a)
    db = np.max(np.abs(np.diff(np.asarray(db), axis=0)), axis=1) / np.diff(xs)
    da = np.max(np.linalg.norm(np.diff(np.asarray(da), axis=0), axis=2), axis=1) / np.diff(xs)
    bound = np.max(np.abs(db)) + np.max(bmax) * np.max(np.abs(da))
    assert np.max(np.abs(slopes)) <= bound + 1e-6


@settings(max_examples=100, deadline=None)
@given(scale=st.floats(0.1, 5.0), seed=st.integers(0, 10_000))
def test_selection_membership_property(scale, seed):
    rng = np.random.default_rng(seed)
    n_c = int(rng.integers(1, 4))
    a = random_unit_rows(rng, n_c)
    b = rng.uniform(-1.0, 2.0, size=n_c) * scale
    c = float(rng.uniform(0.0, 0.6))
    # Enforce the pairwise offset condition by lifting all but the minimum.
    scaled = b / (1.0 + np.sign(b) * c)
    order = np.argsort(scaled)
    if n_c >= 2 and scaled[order[0]] + scaled[order[1]] < 0:
        # Lift every non-minimal offset until its scaled value cancels the
        # minimum: positive offsets scale by (1 + c).
        lift = -scaled[order[0]]
        for idx in order[1:]:
            b[idx] = lift * (1.0 + c) + abs(b[idx])
    cs = cs_of(a, b, c)
    sel = lipschitz_selection(cs)
    assert norm_constrained_membership(cs.a, cs.b, cs.c, sel, tol=1e-9)


# --------------------------------------------------------- rate condition

def test_rate_condition_audit_reports_margin():
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rate = RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv)
    report = rate_condition_audit(rate, level=1.0, threshold=1.4, theta=1e-3,
                                  gamma_w_slope=4.0, bounds=UNIT_BOUNDS,
                                  v_max=math.exp(0.35))
    # The logarithmic rate loses to the linear budget on this band by a
    # small, stable amount.
    assert not report.holds
    assert report.min_margin == pytest.approx(-0.0158, abs=2e-3)
    linear_rate = RateSpec(base_slope=1.0)
    report2 = rate_condition_audit(linear_rate, level=1.0, threshold=1.4, theta=1e-3,
                                   gamma_w_slope=4.0, bounds=UNIT_BOUNDS, v_max=4.0)
    assert report2.holds


def test_row_normalization_validated():
    with pytest.raises(ValueError):
        ConstraintSet(np.array([[2.0, 0.0]]), np.array([1.0]), 0.0)


@pytest.mark.parametrize("c", [-0.1, 1.0, 1.5, math.nan, np.array([0.2]), np.full(2, 0.2),
                               np.array(0.2), [0.2], "0.2", None])
def test_norm_coefficient_must_be_one_number_in_unit_interval(c):
    with pytest.raises(ValueError, match="norm coefficient"):
        ConstraintSet(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]), c)


@pytest.mark.parametrize("c", [0.0, 0.5, np.float64(0.25), np.float32(0.25), 0])
def test_norm_coefficient_is_kept_as_a_float(c):
    cs = ConstraintSet(np.array([[1.0, 0.0]]), np.array([1.0]), c)
    assert type(cs.c) is float and cs.c == float(c)
