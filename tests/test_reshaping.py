import math

import numpy as np
import pytest

from safecascade.certificates import CertificateSpec, Disc, Segment, exp_alpha_bar_for_level
from safecascade.errors import (
    BadCountError,
    CoverageConditionError,
    SelectionNotFeasibleError,
    UnsupportedDimensionError,
)
from safecascade.qcqp_safety import (
    ConstraintSet,
    PlantBounds,
    RateSpec,
    build_constraint_set,
    disc_constraint_set,
    lipschitz_selection,
)
from safecascade import reshaping
from safecascade.qp_solver import Polyhedron, solve_projection_qp
from safecascade.reshaping import (
    PositiveBasis,
    cbar_a,
    make_positive_basis,
    polytope_vertices_2d,
    reshape_b_l,
    reshaped_filter,
    sample_polytope_2d,
    validate_positive_basis,
)

GAP_DISCS = [CertificateSpec(Disc([0.0, 1.0], 0.99)), CertificateSpec(Disc([0.0, -1.0], 0.99))]
NOMINAL = np.array([1.0, 0.0])


def cs_of(a, b, c=0.0):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return ConstraintSet(a, np.asarray(b, dtype=float), c)


# -------------------------------------------------------------------- basis

def test_pentagon_basis_rows_and_coverage_constant():
    basis = make_positive_basis(2, 5)
    assert basis.c_a == pytest.approx(math.cos(2.0 * math.pi / 5.0))
    assert basis.c_a == pytest.approx(0.309017, abs=1e-6)
    for i, row in enumerate(basis.a_l, start=1):
        angle = 2.0 * math.pi * i / 5.0
        np.testing.assert_allclose(row, [math.cos(angle), math.sin(angle)], atol=1e-12)


def test_eleven_direction_basis_constant():
    basis = make_positive_basis(2, 11)
    assert basis.c_a == pytest.approx(math.cos(2.0 * math.pi / 11.0))
    assert basis.c_a == pytest.approx(0.841254, abs=1e-6)


def test_minimal_three_direction_basis_passes():
    basis = make_positive_basis(2, 3)
    report = validate_positive_basis(basis, samples=720)
    assert report.coverage_failures == 0
    assert report.min_subset_sigma > 1e-8


def test_basis_count_and_dimension_guards():
    with pytest.raises(BadCountError):
        make_positive_basis(2, 4)       # even: collinear pairs
    with pytest.raises(BadCountError):
        make_positive_basis(2, 1)
    with pytest.raises(UnsupportedDimensionError):
        make_positive_basis(4, 9)


def test_validation_flags_duplicated_row():
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-0.7071067811865476, -0.7071067811865476]])
    report = validate_positive_basis(PositiveBasis(rows, 0.3), samples=200)
    assert report.min_subset_sigma <= 1e-8


def test_validation_flags_oversized_coverage_constant():
    # A pentagon covers every direction at cos(2 pi / 5); raising the
    # constant past cos(pi / 5) starves directions between adjacent rows.
    rows = make_positive_basis(2, 5).a_l
    tight = PositiveBasis(rows, math.cos(math.pi / 5.0) + 0.02)
    report = validate_positive_basis(tight, samples=720)
    assert report.coverage_failures > 0
    assert report.first_failure is not None


def test_three_dimensional_basis_constructs_and_validates():
    basis = make_positive_basis(3, 14)
    assert basis.n_u == 3
    report = validate_positive_basis(basis, samples=500)
    assert report.coverage_failures == 0
    assert report.min_subset_sigma > 1e-8
    assert 0.0 < basis.c_a < 1.0


@pytest.mark.parametrize("n_l, c_a", [(10, 0.031397423138982576), (14, 0.27617328034031857),
                                      (20, 0.48535341552379313)])
def test_three_dimensional_basis_builds_its_subset_stack_once(monkeypatch, n_l, c_a):
    # Only the chosen rows depend on the coverage constant, so the search
    # that shrinks it (72 candidates for n_l = 10) shares one subset stack
    # and finds the same constants.
    builds = []
    build = reshaping.subset_stack
    monkeypatch.setattr(reshaping, "subset_stack", lambda a_l: builds.append(a_l.shape) or build(a_l))
    basis = make_positive_basis(3, n_l)
    assert builds == [(n_l, 3)]
    assert basis.c_a == pytest.approx(c_a, rel=1e-12)
    assert basis.report.coverage_failures == 0


@pytest.mark.parametrize("n_l", [11, 13, 51])
def test_singular_three_dimensional_rows_are_refused_before_the_search(monkeypatch, n_l):
    # These Fibonacci-sphere row sets hold a (numerically) singular triple.
    # Subset conditioning does not depend on the coverage constant, so no
    # candidate's validation report is computed before the basis is refused.
    reports = []
    validate = reshaping.validate_positive_basis
    monkeypatch.setattr(reshaping, "validate_positive_basis",
                        lambda basis, **kw: reports.append(basis.c_a) or validate(basis, **kw))
    refusal = rf"min subset sigma \S+ <= {reshaping.MIN_SUBSET_SIGMA:g}"
    with pytest.raises(CoverageConditionError, match=refusal):
        make_positive_basis(3, n_l)
    assert reports == []


def _nnls_coverage(basis, samples):
    """Coverage failures and the first failing probe by nonnegative least
    squares on the rows within each probe's coverage cone."""
    nnls = pytest.importorskip("scipy.optimize").nnls
    failures, first = 0, None
    for probe in reshaping._unit_probes(basis.n_u, samples):
        chosen = basis.a_l[basis.a_l @ probe >= basis.c_a - 1e-12]
        if chosen.shape[0] < basis.n_u or nnls(chosen.T, probe)[1] > 1e-8:
            failures += 1
            first = probe if first is None else first
    return failures, first


_CROSS_CHECK_BASES = [(2, 3), (2, 5), (2, 11), (2, 21), (3, 10), (3, 14), (3, 20)]


@pytest.mark.parametrize("oversized", [False, True])
@pytest.mark.parametrize("n_u, n_l", _CROSS_CHECK_BASES)
def test_cone_coverage_matches_nnls(n_u, n_l, oversized):
    basis = make_positive_basis(n_u, n_l)
    if oversized:
        basis = PositiveBasis(basis.a_l, basis.c_a + 0.25 * (1.0 - basis.c_a))
    report = validate_positive_basis(basis, samples=500)
    failures, first = _nnls_coverage(basis, 500)
    assert report.coverage_failures == failures
    assert (failures > 0) == oversized
    if oversized:
        np.testing.assert_array_equal(report.first_failure, first)
    else:
        assert report.first_failure is None


def test_cone_coverage_matches_nnls_on_a_duplicated_row():
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-0.7071067811865476, -0.7071067811865476]])
    basis = PositiveBasis(rows, 0.3)
    report = validate_positive_basis(basis, samples=200)
    failures, first = _nnls_coverage(basis, 200)
    assert report.coverage_failures == failures > 0
    np.testing.assert_array_equal(report.first_failure, first)


# ------------------------------------------------------------------- cbar_a

def test_cbar_a_identity_at_zero_uncertainty():
    assert cbar_a(0.0, 0.77) == pytest.approx(0.77, abs=1e-12)
    c_a = math.cos(2.0 * math.pi / 11.0)
    assert cbar_a(0.0, c_a) == pytest.approx(0.841254, abs=1e-6)


def test_cbar_a_angle_addition_cross_check():
    c_bar, c_a = 0.3, 0.95
    direct = cbar_a(c_bar, c_a)
    # cos(u + v) = cos u cos v - sin u sin v with u = asin(c_bar).
    u = math.asin(c_bar)
    v = math.acos(c_a)
    expected = math.cos(u) * math.cos(v) - math.sin(u) * math.sin(v)
    assert direct == pytest.approx(expected, abs=1e-12)
    assert direct > 0.0


def test_cbar_a_condition_guard():
    with pytest.raises(CoverageConditionError):
        cbar_a(0.5, 0.4)   # coverage cone narrower than the uncertainty cone
    with pytest.raises(CoverageConditionError):
        # The minimal three-direction basis has a negative constant and is
        # therefore not usable for reshaping, only for spanning.
        cbar_a(0.0, math.cos(2.0 * math.pi / 3.0))
    # The cache keeps results only: a failed condition raises every time.
    with pytest.raises(CoverageConditionError):
        cbar_a(0.5, 0.4)


def test_basis_rows_are_a_read_only_copy():
    # The basis keeps its rows' polygon structure, so its rows must not
    # change under it; the caller's own array stays writeable.
    rows = np.array([[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0], [-0.5, -math.sqrt(3.0) / 2.0]])
    basis = PositiveBasis(rows, -0.5)
    assert rows.flags.writeable
    assert not basis.a_l.flags.writeable
    with pytest.raises(ValueError):
        basis.a_l[0, 0] = 2.0
    rows[0, 0] = 2.0
    assert basis.a_l[0, 0] == 1.0


# ------------------------------------------------------------------ reshape

def test_reshape_single_constraint_hand_value():
    basis = make_positive_basis(2, 5)
    cs = cs_of([[1.0, 0.0]], [1.0])
    b_l = reshape_b_l(np.zeros(2), cs, basis, k_phi=0.0)
    expected = np.maximum(basis.a_l @ np.array([1.0, 0.0]), basis.c_a)
    np.testing.assert_allclose(b_l, expected, atol=1e-12)


def test_reshape_zero_slack_collapses_to_selection():
    basis = make_positive_basis(2, 7)
    selection = np.array([0.3, -0.2])
    direction = selection / np.linalg.norm(selection)
    b = np.array([float(direction @ selection)])    # selection exactly tight
    cs = cs_of([direction], b)
    b_l = reshape_b_l(selection, cs, basis, k_phi=0.0)
    np.testing.assert_allclose(b_l, basis.a_l @ selection, atol=1e-12)
    verts = polytope_vertices_2d(Polyhedron(basis.a_l, b_l))
    assert verts.shape[0] >= 1
    np.testing.assert_allclose(verts, np.tile(selection, (verts.shape[0], 1)), atol=1e-9)


def test_reshape_rejects_infeasible_selection():
    basis = make_positive_basis(2, 5)
    cs = cs_of([[1.0, 0.0]], [-1.0])
    with pytest.raises(SelectionNotFeasibleError):
        reshape_b_l(np.zeros(2), cs, basis, k_phi=0.0)


def sandwich_check(cs, basis, k_phi, rng, samples=400):
    selection = lipschitz_selection(cs)
    poly = Polyhedron(basis.a_l, reshape_b_l(selection, cs, basis, k_phi))
    assert np.all(poly.a @ selection <= poly.b + 1e-9)
    pts = sample_polytope_2d(poly, samples, rng)
    violations = 0
    for u in pts:
        if not cs.contains(u):
            violations += 1
    return violations


def test_sandwich_containment_gap_scenario():
    rng = np.random.default_rng(42)
    basis = make_positive_basis(2, 5)
    for x1 in np.linspace(-1.8, 1.8, 13):
        for x2 in (0.0, 0.4, -0.3):
            x = np.array([x1, x2])
            if min(np.linalg.norm(x - d.geometry.center) for d in GAP_DISCS) < 1.0:
                continue
            cs = disc_constraint_set(GAP_DISCS, x)
            for k_phi in (0.0, 1.0):
                assert sandwich_check(cs, basis, k_phi, rng) == 0


def test_filter_returns_nominal_when_feasible():
    basis = make_positive_basis(2, 11)
    cs = cs_of([[0.0, 1.0]], [5.0])
    out = reshaped_filter(np.array([0.2, 0.1]), cs, basis, 2.0)
    np.testing.assert_allclose(out, [0.2, 0.1], atol=1e-9)


def test_single_state_filter_evaluates_its_set_once(monkeypatch):
    # The selection's own check evaluates the set at the selection; the
    # reshaping takes that slack instead of evaluating it again. Covers a
    # zero selection and a nonzero one (a state inside the lower wall's
    # band, where one offset is negative).
    walls = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
             CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)]
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rate = RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv)
    basis = make_positive_basis(2, 11)
    calls = []
    violations = ConstraintSet.violations
    monkeypatch.setattr(ConstraintSet, "violations",
                        lambda self, u: calls.append(u) or violations(self, u))
    for x in ([-2.0, 1.0], [0.0, 0.75]):
        cs = build_constraint_set(np.array(x), walls, PlantBounds(1.0), rate)
        calls.clear()
        out = reshaped_filter(np.array([0.6, 1.0]), cs, basis, 2.0)
        assert len(calls) == 1, x
        np.testing.assert_array_equal(calls[0], lipschitz_selection(cs))
        assert np.all(np.isfinite(out))
    assert np.any(calls[-1] != 0.0)


def test_supplied_slack_below_tolerance_is_rejected():
    # A supplied slack is checked like a computed one: a selection outside
    # the set raises for one state and gives a NaN row in a batch.
    basis = make_positive_basis(2, 11)
    cs = cs_of([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(SelectionNotFeasibleError):
        reshape_b_l(np.zeros(2), cs, basis, 1.0, slack=np.array([1.0, -1e-3]))
    ok = reshape_b_l(np.zeros(2), cs, basis, 1.0, slack=np.array([1.0, 1.0]))
    np.testing.assert_array_equal(ok, reshape_b_l(np.zeros(2), cs, basis, 1.0))
    batch = ConstraintSet(np.broadcast_to(cs.a, (2, 2, 2)), np.ones((2, 2)), cs.c)
    out = reshape_b_l(np.zeros((2, 2)), batch, basis, 1.0,
                      slack=np.array([[1.0, 1.0], [1.0, -1e-3]]))
    np.testing.assert_array_equal(out[0], ok)
    assert np.all(np.isnan(out[1]))


def test_filter_matches_gap_axis_closed_form():
    basis = make_positive_basis(2, 5)
    radius = 0.99
    for x1 in np.linspace(-1.9, -0.05, 77):
        cs = disc_constraint_set(GAP_DISCS, np.array([x1, 0.0]))
        out = reshaped_filter(NOMINAL, cs, basis, 0.0)
        cap = max(-x1 / math.sqrt(1 + x1 * x1), basis.c_a) \
            * (1 + x1 * x1 - radius * radius) / (2 * math.sqrt(1 + x1 * x1))
        if cap < 1.0 - 1e-9:
            np.testing.assert_allclose(out, [cap, 0.0], atol=1e-9)
        else:
            np.testing.assert_allclose(out, NOMINAL, atol=1e-9)


def test_raw_gap_axis_closed_form_value():
    # The unreshaped projection on the axis: value at x1 = -1 with the gap
    # nearly closed.
    cs = disc_constraint_set(GAP_DISCS, np.array([-1.0, 0.0]))
    sol = solve_projection_qp(NOMINAL, Polyhedron(cs.a, cs.b))
    np.testing.assert_allclose(sol.point, [0.50995, 0.0], atol=1e-9)


def test_filter_norm_bound():
    rng = np.random.default_rng(11)
    basis = make_positive_basis(2, 7)
    for _ in range(200):
        x = rng.uniform(-2.2, 2.2, size=2)
        if min(np.linalg.norm(x - d.geometry.center) for d in GAP_DISCS) < 1.05:
            continue
        cs = disc_constraint_set(GAP_DISCS, x)
        sel = lipschitz_selection(cs)
        nominal = rng.normal(scale=1.5, size=2)
        out = reshaped_filter(nominal, cs, basis, 1.0)
        assert np.linalg.norm(out) <= np.linalg.norm(sel) + np.linalg.norm(nominal) + 1e-9


def test_sandwich_containment_with_norm_coefficients():
    # Nonzero norm coefficients engage the effective coverage constant and
    # the per-column slack scaling; containment must still hold exactly.
    rng = np.random.default_rng(314)
    basis = make_positive_basis(2, 11)
    checked = 0
    for _ in range(60):
        n_c = int(rng.integers(1, 4))
        rows = rng.normal(size=(n_c, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        c = float(rng.uniform(0.0, 0.5, size=n_c).max())    # n_c draws keep the stream
        b = rng.uniform(-0.8, 1.5, size=n_c)
        # Keep at most one negative offset and make the pairwise condition
        # hold so a selection exists.
        scaled = b / (1.0 + np.sign(b) * c)
        order = np.argsort(scaled)
        if n_c >= 2 and scaled[order[0]] + scaled[order[1]] < 0:
            lift = -scaled[order[0]]
            for idx in order[1:]:
                b[idx] = lift * (1.0 + c) + abs(b[idx])
        cs = cs_of(rows, b, c)
        try:
            sel = lipschitz_selection(cs)
        except Exception:
            continue
        for k_phi in (0.0, 2.0):
            poly = Polyhedron(basis.a_l, reshape_b_l(sel, cs, basis, k_phi))
            assert np.all(poly.a @ sel <= poly.b + 1e-9)
            pts = sample_polytope_2d(poly, 300, rng)
            lhs = pts @ cs.a.T + np.linalg.norm(pts, axis=1, keepdims=True) * cs.c
            assert np.all(lhs <= cs.b[None, :] + 1e-9)
            checked += 1
    assert checked >= 80


def test_reshaped_solution_against_polar_scan_oracle():
    # The polyhedral set is an inner approximation: its projection is
    # feasible for the original norm-augmented system and can only sit
    # farther from the nominal than the true constrained minimizer found by
    # the coarse polar scan.
    from oracles import qcqp_polar_scan, norm_constrained_membership
    basis = make_positive_basis(2, 5)
    for x1 in (-1.2, -0.6):
        cs = disc_constraint_set(GAP_DISCS, np.array([x1, 0.0]))
        out = reshaped_filter(NOMINAL, cs, basis, 0.0)
        assert norm_constrained_membership(cs.a, cs.b, cs.c, out, tol=1e-9)
        best = qcqp_polar_scan(NOMINAL, cs.a, cs.b, cs.c,
                               radii=np.linspace(0.0, 2.0, 161), angles=180)
        assert best is not None
        slack = 0.05   # polar grid coarseness
        assert np.linalg.norm(out - NOMINAL) >= np.linalg.norm(best - NOMINAL) - slack


def test_polytope_sampler_respects_constraints():
    rng = np.random.default_rng(3)
    basis = make_positive_basis(2, 7)
    poly = Polyhedron(basis.a_l, np.full(7, 1.0))
    pts = sample_polytope_2d(poly, 500, rng)
    assert pts.shape == (500, 2)
    assert np.all(poly.a @ pts.T <= poly.b[:, None] + 1e-9)


def _dyadic_sets(shape, n_c, n_u, seed):
    """Constraint sets batched over shape, each with a feasible selection.

    The selection entries are zero or signed powers of two, so each product
    with a basis entry is exact and numpy's vector product (one state) and
    matrix product (a batch) round selection @ A_L^T alike; with other
    selections the two may differ in the last bit, whatever the reshaping
    does. The filter's nominal is dyadic for the same reason: the
    projection takes nominal @ A_L^T.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape + (n_c, n_u))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    c = float(np.linspace(0.0, 0.1, n_c)[-1])      # the largest of n_c per-row values
    selection = rng.choice([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0], size=shape + (n_u,))
    b = ((a @ selection[..., None])[..., 0] + c * np.linalg.norm(selection, axis=-1)[..., None]
         + rng.uniform(0.0, 1.0, size=shape + (n_c,)))
    return a, b, c, selection


def _assert_batch_equals_states(call, a, b, c, selection):
    """call(selection, cs) on the batch against each state's own call; a
    state whose call raises SelectionNotFeasibleError must be a NaN row."""
    batch = call(selection, ConstraintSet(a, b, c))
    for idx in np.ndindex(b.shape[:-1]):
        try:
            want = call(selection[idx], ConstraintSet(a[idx], b[idx], c))
        except SelectionNotFeasibleError:
            want = np.full(batch.shape[-1], np.nan)
        got = batch[idx]
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=str(idx))
        np.testing.assert_array_equal(got.view(np.int64)[~np.isnan(want)],
                                      want.view(np.int64)[~np.isnan(want)], err_msg=str(idx))


BATCH_CASES = {
    # A square (3, 3) batch with three rows: moving the row axis to the
    # front by a plain swap would mix the batch axes.
    "square": ((3, 3), 3, 2),
    "nan rows": ((40,), 2, 2),
    "one row": ((40,), 1, 2),
    "one state": ((1,), 3, 2),
    "n_u = 3": ((40,), 3, 3),
}


def _batch_case(name):
    shape, n_c, n_u = BATCH_CASES[name]
    a, b, c, selection = _dyadic_sets(shape, n_c, n_u, seed=list(BATCH_CASES).index(name))
    if name == "nan rows":
        a[[3, 17]] = np.nan           # states without a set
        b[[3, 17]] = np.nan
        b[[5, 29], 0] -= 10.0         # selections outside their set
    return make_positive_basis(n_u, 11 if n_u == 2 else 14), a, b, c, selection


@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_reshape_of_a_batch_equals_the_per_state_reshapes_bit_for_bit(name):
    basis, a, b, c, selection = _batch_case(name)
    _assert_batch_equals_states(lambda s, cs: reshape_b_l(s, cs, basis, 2.0), a, b, c, selection)


@pytest.mark.parametrize("name", [n for n, (_, _, n_u) in BATCH_CASES.items() if n_u == 2])
def test_filter_of_a_batch_equals_the_per_state_filters_bit_for_bit(name):
    basis, a, b, c, selection = _batch_case(name)
    nominal = np.array([0.5, 1.0])
    # Anchored at the given selections: reshape, then project onto the basis.
    _assert_batch_equals_states(
        lambda s, cs: basis.polygon.project(nominal, reshape_b_l(s, cs, basis, 2.0)), a, b, c, selection)
