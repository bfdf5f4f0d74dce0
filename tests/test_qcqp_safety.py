import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safecascade.cascade import SafetyLaw, tracking_law
from safecascade.certificates import CertificateSpec, Disc, Segment
from safecascade.errors import SelectionConditionError
from safecascade.qcqp_safety import (
    ConstraintSet,
    build_constraint_set,
    decay_rate,
    disc_constraint_set,
    lipschitz_selection,
    rate_condition_audit,
    selection_with_slack,
)

from helpers import Raised, assert_same_bits, one_state_sets, outcome
from oracles import batch_selection, norm_constrained_membership, one_state_selection, set_violations


def cs_of(a, b):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return ConstraintSet(a, np.asarray(b, dtype=float))


def random_unit_rows(rng, n, dim=2):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def draw_disjoint_disc_offsets(rng, n_c, k_alpha):
    """Offsets b from signed distances to pairwise-disjoint disc unsafe sets,
    through the decay rate at level 1 of the value exp(distance).

    Distances satisfy the disjointness inequality max + min <= 0 for every
    pair by construction, which is all the selection guarantee needs.
    """
    centers = []
    radii = []
    while len(centers) < n_c:
        o = rng.uniform(-4.0, 4.0, size=2)
        r = rng.uniform(0.2, 1.2)
        if all(np.linalg.norm(o - o2) > r + r2 + 0.05 for o2, r2 in zip(centers, radii)):
            centers.append(o)
            radii.append(r)
    x = rng.uniform(-4.0, 4.0, size=2)
    signed = np.array([r - np.linalg.norm(x - o) for o, r in zip(centers, radii)])
    return np.array([-decay_rate(math.expm1(s), 1.0, k_alpha) for s in signed])


# ------------------------------------------------------------ construction

def test_single_disc_on_level_set():
    cert = CertificateSpec(Disc([1.0, 0.0], 1.0))
    cs = build_constraint_set(np.array([0.0, 0.0]), [cert], 1.0)
    np.testing.assert_allclose(cs.a, [[1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(cs.b, [0.0], atol=1e-12)


def test_wall_scenario_offsets_are_slope_times_clearance():
    certs = [
        CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
        CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35),
    ]
    cs = build_constraint_set(np.array([-2.0, 1.0]), certs, 1.0)
    # Clearances by the perpendicular-distance oracle: the low wall is the
    # line y = 0.5, the high wall passes 0.5581 away from the query point.
    assert cs.b[1] == pytest.approx(1.0 * 0.15, abs=1e-12)
    assert cs.b[0] == pytest.approx(1.0 * 0.20815630565, abs=1e-9)
    norms = np.linalg.norm(cs.a, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_each_row_decays_through_its_own_certificates_level():
    # vtol_safe's walls at levels 1 (high) and 2 (low). Row j's offset is
    # -k_alpha log1p((V_j - v_j)/v_j), its own level's envelope, on the
    # float path and on the batch path alike. Beside the low wall, at
    # (0, 1), V = exp(-0.15): the level-2 envelope gives 0.8431, where the
    # level-1 envelope of the offset V - 2 < -1 clamps at log(eps) (36.04).
    certs = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35, level=1.0),
             CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35, level=2.0)]
    k_alpha = 1.5
    xs, ys = np.meshgrid(np.linspace(-3.0, 6.0, 13), np.linspace(-0.5, 12.0, 17))
    states = np.vstack([[[0.0, 1.0]], np.column_stack([xs.ravel(), ys.ravel()])])
    batch = build_constraint_set(states, certs, k_alpha)
    levels = np.array([1.0, 2.0])
    assert_same_bits(batch.b, -k_alpha * np.log1p((batch.v - levels) / levels))
    for k, x in enumerate(states):
        one = build_constraint_set(x, certs, k_alpha)
        for got, want in zip((one.a, one.b, one.h, one.v), (batch.a, batch.b, batch.h, batch.v)):
            assert_same_bits(got, want[k])
    assert batch.b[0, 1] == pytest.approx(k_alpha * 0.8431, abs=1e-4)


# ---------------------------------------------------------------- witness
# The Lipschitz selection is the closed-form witness that the set is nonempty.

def test_witness_zero_when_all_offsets_nonnegative():
    cs = cs_of(random_unit_rows(np.random.default_rng(0), 2), [0.5, 0.2])
    np.testing.assert_array_equal(lipschitz_selection(cs), [0.0, 0.0])


def test_witness_hand_substitution():
    cs = cs_of([[1.0, 0.0], [0.0, 1.0]], [-1.0, 2.0])
    w = lipschitz_selection(cs)
    np.testing.assert_allclose(w, [-1.0, 0.0], atol=1e-12)
    # Row checks by direct substitution into the system.
    assert norm_constrained_membership(cs.a, cs.b, 0.0, w)


def test_witness_monte_carlo_disjoint_configurations():
    rng = np.random.default_rng(1234)
    for _ in range(2000):
        n_c = int(rng.integers(2, 4))
        b = draw_disjoint_disc_offsets(rng, n_c, float(rng.uniform(0.3, 3.0)))
        cs = cs_of(random_unit_rows(rng, n_c), b)
        w = lipschitz_selection(cs)
        assert norm_constrained_membership(cs.a, cs.b, 0.0, w, tol=1e-9)


def test_witness_and_selection_homogeneity_in_offsets():
    rng = np.random.default_rng(77)
    a = random_unit_rows(rng, 3)
    # Offsets satisfy the pairwise condition: -0.7 + 1.2 >= 0.
    b = np.array([-0.7, 1.2, 1.4])
    base_s = lipschitz_selection(cs_of(a, b))
    for lam in [0.5, 2.0, 7.5]:
        scaled = cs_of(a, lam * b)
        np.testing.assert_allclose(lipschitz_selection(scaled), lam * base_s, atol=1e-12)


def test_base_rate_negative_side_condition():
    # The selection needs base(s) + base(-s) <= 0 for every s <= 0. The
    # decay rate is odd in s: offsets at signed distance -s and +s from
    # {V = v}, v (e^-s - 1) and v (e^s - 1), give rates whose sum is at
    # most rounding. (Further out, v (e^-s - 1) nears -v and log1p of it
    # loses digits.)
    s = np.linspace(0.0, 3.0, 200)
    for level in (1.0, 0.9, 2.0):
        for k_alpha in (1.0, 5.0):
            outside = decay_rate(level * np.expm1(-s), level, k_alpha)
            inside = decay_rate(level * np.expm1(s), level, k_alpha)
            assert np.max(outside + inside) <= 1e-12, (level, k_alpha)
            np.testing.assert_allclose(inside, k_alpha * s, rtol=1e-12, atol=1e-12)


# -------------------------------------------------------------- selection

def test_selection_zero_case():
    cs = cs_of(random_unit_rows(np.random.default_rng(3), 3), [0.1, 0.0, 2.0])
    np.testing.assert_array_equal(lipschitz_selection(cs), [0.0, 0.0])


def test_zero_selection_rows_skip_the_product_with_its_bits(monkeypatch):
    # Where every offset is >= 0 the batch's selection is exactly 0 and its
    # slack has the bits of -(a u + 0.0 - b) at u = 0, b = +-0.0 included
    # (a u is -0.0 on a row with a negative entry); the product a u runs
    # only on the states with a nonzero selection (every seventh one here,
    # a negative offset beside large ones).
    rng = np.random.default_rng(77)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(70, 3))
    a = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    b = np.abs(rng.normal(size=(70, 3)))
    b[::5, 0], b[1::5, 1] = 0.0, -0.0
    b[2::7, :2] += 5.0
    b[2::7, 2] = -rng.uniform(0.1, 1.0, size=10)
    calls = []
    violations = ConstraintSet.violations
    monkeypatch.setattr(ConstraintSet, "violations",
                        lambda self, u: calls.append(u.shape[0]) or violations(self, u))
    selection, slack = selection_with_slack(ConstraintSet(a, b))
    for got, want in zip((selection, slack), batch_selection(a, b, 0.0)):
        assert_same_bits(got, want)
    zero = (selection == 0.0).all(axis=1)
    assert zero.sum() == 60 and np.isfinite(selection[~zero]).all()
    assert_same_bits(slack[zero], -set_violations(a[zero], b[zero], 0.0, np.zeros((60, 2))))
    assert calls == [10]


def test_selection_single_negative_row():
    cs = cs_of([[1.0, 0.0], [0.0, 1.0]], [-0.4, 0.6])
    sel = lipschitz_selection(cs)
    np.testing.assert_allclose(sel, [-0.4, 0.0], atol=1e-12)
    assert norm_constrained_membership(cs.a, cs.b, 0.0, sel)


def test_selection_condition_violation_reports_pair():
    cs = cs_of([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [-1.0, 5.0, -1.0])
    with pytest.raises(SelectionConditionError) as err:
        lipschitz_selection(cs)
    assert set(err.value.pair) == {0, 2}


def test_selection_is_lipschitz_along_gap_path():
    # Walk along the axis of the two-disc gap; the selection must move with
    # a slope bounded by the constituent Lipschitz constants:
    # |d sel| <= |db| + |b| |da|.
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
    # Enforce the pairwise offset condition by lifting all but the minimum.
    order = np.argsort(b)
    if n_c >= 2 and b[order[0]] + b[order[1]] < 0:
        # Lift every non-minimal offset until it cancels the minimum.
        lift = -b[order[0]]
        for idx in order[1:]:
            b[idx] = lift + abs(b[idx])
    cs = cs_of(a, b)
    sel = lipschitz_selection(cs)
    assert norm_constrained_membership(cs.a, cs.b, 0.0, sel, tol=1e-9)


# --------------------------------------------------------- rate condition

def test_rate_condition_audit_reports_margin():
    report = rate_condition_audit(1.0, level=1.0, threshold=1.4, theta=1e-3,
                                  gamma_w_slope=4.0, v_max=math.exp(0.35))
    # The logarithmic rate loses to the linear budget on this band by a
    # small, stable amount.
    assert not report.holds
    assert report.min_margin == pytest.approx(-0.0158, abs=2e-3)


def test_row_normalization_validated():
    with pytest.raises(ValueError):
        ConstraintSet(np.array([[2.0, 0.0]]), np.array([1.0]))


@pytest.mark.parametrize("rows", [(1, 2), (2, 2), (4, 2, 2)], ids=str)
def test_unit_rows_are_checked_within_1e_9_for_one_state_and_a_batch(rows):
    # The constructor checks rows on arrays, and ConstraintSet.planar one
    # planar state's rows on floats; the same bound either way, and a NaN
    # row (no set) passes.
    a = np.zeros(rows)
    a[..., 0] = 1.0
    b = np.ones(rows[:-1])
    builds = [lambda: ConstraintSet(a, b)]
    if len(rows) == 2:
        builds.append(lambda: ConstraintSet.planar(a.tolist(), b.tolist(), b.tolist(), b.tolist()))
    for off, ok in ((0.9e-9, True), (1.1e-9, False), (-1.1e-9, False), (math.nan, True)):
        a.reshape(-1, rows[-1])[-1, 0] = 1.0 + off
        for build in builds:
            if ok:
                build()
            else:
                with pytest.raises(ValueError, match="unit vectors"):
                    build()


@pytest.mark.parametrize("rows", [(2, 3), (4, 2, 3), (1, 1)], ids=str)
def test_rows_wider_or_narrower_than_the_plane_are_refused(rows):
    # The package is planar: a set whose rows are not pairs is refused when
    # built, with the limit named, not later in the reshaping's products
    # against the basis's (2, n_l) rows.
    a = np.zeros(rows)
    a[..., 0] = 1.0
    with pytest.raises(ValueError, match="2 columns .the package is planar., got"):
        ConstraintSet(a, np.ones(rows[:-1]))


def test_a_take_and_a_lifted_set_keep_the_parents_bits_and_skip_its_check(monkeypatch):
    # The parent's rows passed the constructor's unit-row check once: a
    # take (flat indices) and a lifted set (offsets of the masked states at
    # +inf; with none masked, the set itself) keep its bits without running
    # the check again, while a set built from outside arrays still runs it
    # and refuses non-unit rows.
    rng = np.random.default_rng(4242)
    x = rng.uniform([-3.0, -0.5], [6.0, 12.0], size=(6, 7, 2))
    walls = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
             CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)]
    cs = build_constraint_set(x, walls, 1.0)
    rows, b = cs.a.reshape(-1, 2, 2), cs.b.reshape(-1, 2)
    checks = []
    post_init = ConstraintSet.__post_init__
    monkeypatch.setattr(ConstraintSet, "__post_init__", lambda self: checks.append(1) or post_init(self))
    idx = np.array([40, 3, 3, 17])
    taken = cs.take(idx)
    assert_same_bits(taken.a, rows[idx])
    assert_same_bits(taken.b, b[idx])
    mask = rng.uniform(size=42) < 0.5
    lifted = cs.lifted(mask)
    assert lifted.a is cs.a and lifted.b.shape == cs.b.shape == (6, 7, 2)
    assert np.isposinf(lifted.b.reshape(-1, 2)[mask]).all()
    assert_same_bits(lifted.b.reshape(-1, 2)[~mask], b[~mask])
    for derived in (taken, lifted):
        assert derived.h is None and derived.v is None
    assert cs.lifted(np.zeros(42, dtype=bool)) is cs
    assert checks == []
    with pytest.raises(ValueError, match="unit vectors"):
        ConstraintSet(rows[idx] * 1.1, b[idx])
    assert checks == [1]


def test_rate_of_one_float_equals_the_rate_of_an_array_bit_for_bit():
    # One state's offsets go through decay_rate one float at a time, a
    # batch's as one array with a column of levels: the same bits, NaN and
    # the sign of zero included, through the envelope inverse at several
    # levels (its floor too) and slopes.
    rng = np.random.default_rng(99)
    for level in (1.0, 0.37, 2.5):
        for k_alpha in (1.0, 0.73, 3.1):
            offsets = np.concatenate([rng.normal(size=300) * 10.0 ** rng.integers(-12, 2, size=300),
                                      [0.0, -0.0, -1.0, -3.0, math.nan]])
            want = decay_rate(offsets, level, k_alpha)
            assert_same_bits([decay_rate(o, level, k_alpha) for o in offsets.tolist()], want)
            assert_same_bits(decay_rate(offsets[:, None], np.full((offsets.size, 1), level), k_alpha)[:, 0],
                             want)


def test_one_state_selection_on_floats_equals_the_array_reference_bit_for_bit():
    # One state's selection runs on floats; oracles.one_state_selection is
    # the same arithmetic on numpy arrays. Same bits for the point and the
    # slack (NaN and the sign of zero included), and the same error and
    # message for a failed pair condition and a violated row.
    seen = set()
    for a, b in one_state_sets(4242, 3000):
        want = outcome(lambda: one_state_selection(a, b, 0.0))
        got = outcome(lambda: selection_with_slack(ConstraintSet(a, b)))
        if isinstance(want, Raised):
            assert got == want
            seen.add(want[1].split(" ")[0])
            continue
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        u = want[0]
        seen.add((b.shape[0], "nan" if np.isnan(u).any() else "zero" if np.all(u == 0.0) else "point"))
    assert {"offset", "selection"} <= seen
    assert {(n, kind) for n in (1, 2, 3, 4) for kind in ("nan", "zero", "point")} <= seen


def test_a_stale_norm_coefficient_argument_fails_loudly():
    # The package treats exact input gains, and no signature takes a norm
    # coefficient. A call written for one fails rather than reading the
    # coefficient as the next parameter: a set's h and V are keyword-only,
    # and a law reads it as k_alpha = 0, which it refuses.
    a, b = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    walls = [CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)]
    for stale in (lambda: ConstraintSet(a, b, 0.0),
                  lambda: ConstraintSet.planar(a.tolist(), b.tolist(), 0.0, b.tolist(), b.tolist()),
                  lambda: build_constraint_set(np.array([0.0, 1.0]), walls, 0.0, 1.0),
                  lambda: decay_rate(0.5, 1.0, 1.0, 0.0),
                  lambda: rate_condition_audit(1.0, 1.0, 1.4, 1e-3, 4.0, 0.0, v_max=2.0),
                  lambda: tracking_law(np.array([0.3, -1.2]), 0.0, 5.0),
                  lambda: SafetyLaw((), np.zeros(2), None, 0.0, 1.0, 0.0)):
        with pytest.raises(TypeError):
            stale()
    with pytest.raises(ValueError, match="k_alpha"):
        SafetyLaw((), np.zeros(2), None, 0.0, 1.0)


def test_one_planar_state_set_from_floats_checks_its_row_count():
    with pytest.raises(ValueError, match="row count mismatch"):
        ConstraintSet.planar([(1.0, 0.0)], [1.0, 1.0], [0.0], [1.0])


@pytest.mark.parametrize("rows", [[(1.0, 0.0, 0.0)], [(0.0, 1.0), (1.0,)]], ids=["wide", "narrow"])
def test_one_planar_state_set_from_floats_refuses_rows_that_are_not_pairs(rows):
    # As the constructor does, with the limit named, not Python's unpacking
    # error.
    with pytest.raises(ValueError, match=r"2 columns \(the package is planar\), got [13]$"):
        ConstraintSet.planar(rows, [1.0] * len(rows), [0.0] * len(rows), [1.0] * len(rows))


@pytest.mark.parametrize("k_alpha", [0.0, -1.0, math.inf, math.nan])
def test_safety_law_refuses_a_decay_slope_that_is_not_finite_and_positive(k_alpha):
    with pytest.raises(ValueError, match="k_alpha"):
        SafetyLaw((), np.zeros(2), None, k_alpha, 0.0)
