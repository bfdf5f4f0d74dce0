import math

import numpy as np
import pytest

from safecascade.certificates import CertificateSpec, Disc, Segment
from safecascade.errors import (
    BadCountError,
    CoverageConditionError,
    SelectionNotFeasibleError,
)
from safecascade.qcqp_safety import (
    ConstraintSet,
    build_constraint_set,
    disc_constraint_set,
    lipschitz_selection,
    selection_with_slack,
)
from safecascade import reshaping
from safecascade.qp_solver import PolygonRows, Polyhedron, solve_projection_qp
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

from helpers import Raised, assert_same_bits, filter_calls, layouts, one_state_sets, outcome
from oracles import batch_b_l, batch_filter, batch_selection, one_state_b_l, set_violations

GAP_DISCS = [CertificateSpec(Disc([0.0, 1.0], 0.99)), CertificateSpec(Disc([0.0, -1.0], 0.99))]
NOMINAL = np.array([1.0, 0.0])


def cs_of(a, b, c=0.0):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return ConstraintSet(a, np.asarray(b, dtype=float), c)


# -------------------------------------------------------------------- basis

def test_pentagon_basis_rows_and_coverage_constant():
    basis = make_positive_basis(5)
    assert basis.c_a == pytest.approx(math.cos(2.0 * math.pi / 5.0))
    assert basis.c_a == pytest.approx(0.309017, abs=1e-6)
    for i, row in enumerate(basis.a_l, start=1):
        angle = 2.0 * math.pi * i / 5.0
        np.testing.assert_allclose(row, [math.cos(angle), math.sin(angle)], atol=1e-12)


def test_eleven_direction_basis_constant():
    basis = make_positive_basis(11)
    assert basis.c_a == pytest.approx(math.cos(2.0 * math.pi / 11.0))
    assert basis.c_a == pytest.approx(0.841254, abs=1e-6)


def test_minimal_three_direction_basis_passes():
    basis = make_positive_basis(3)
    report = validate_positive_basis(basis, samples=720)
    assert report.coverage_failures == 0
    assert report.min_subset_sigma > 1e-8


def test_basis_count_and_dimension_guards():
    with pytest.raises(BadCountError):
        make_positive_basis(4)       # even: collinear pairs
    with pytest.raises(BadCountError):
        make_positive_basis(1)
    # The package is planar: a basis of any other input dimension is refused.
    with pytest.raises(ValueError, match=r"shape \(n_l, 2\)"):
        PositiveBasis(np.eye(3), 0.5)


def test_validation_flags_duplicated_row():
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-0.7071067811865476, -0.7071067811865476]])
    report = validate_positive_basis(PositiveBasis(rows, 0.3), samples=200)
    assert report.min_subset_sigma <= 1e-8


def test_validation_flags_oversized_coverage_constant():
    # A pentagon covers every direction at cos(2 pi / 5); raising the
    # constant past cos(pi / 5) starves directions between adjacent rows.
    rows = make_positive_basis(5).a_l
    tight = PositiveBasis(rows, math.cos(math.pi / 5.0) + 0.02)
    report = validate_positive_basis(tight, samples=720)
    assert report.coverage_failures > 0
    assert report.first_failure is not None


def _nnls_coverage(basis, samples):
    """Coverage failures and the first failing probe by nonnegative least
    squares on the rows within each probe's coverage cone."""
    nnls = pytest.importorskip("scipy.optimize").nnls
    failures, first = 0, None
    for probe in reshaping._unit_probes(samples):
        chosen = basis.a_l[basis.a_l @ probe >= basis.c_a - 1e-12]
        if chosen.shape[0] < 2 or nnls(chosen.T, probe)[1] > 1e-8:
            failures += 1
            first = probe if first is None else first
    return failures, first


@pytest.mark.parametrize("oversized", [False, True])
@pytest.mark.parametrize("n_l", [3, 5, 11, 21], ids=lambda n_l: f"2-{n_l}")     # n_u = 2, then n_l
def test_cone_coverage_matches_nnls(n_l, oversized):
    basis = make_positive_basis(n_l)
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
    basis = make_positive_basis(5)
    cs = cs_of([[1.0, 0.0]], [1.0])
    b_l = reshape_b_l(np.zeros(2), cs, basis, k_phi=0.0)
    expected = np.maximum(basis.a_l @ np.array([1.0, 0.0]), basis.c_a)
    np.testing.assert_allclose(b_l, expected, atol=1e-12)


def test_reshape_zero_slack_collapses_to_selection():
    basis = make_positive_basis(7)
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
    basis = make_positive_basis(5)
    cs = cs_of([[1.0, 0.0]], [-1.0])
    with pytest.raises(SelectionNotFeasibleError):
        reshape_b_l(np.zeros(2), cs, basis, k_phi=0.0)


def test_reshape_takes_a_list_selection():
    basis = make_positive_basis(5)
    cs = cs_of([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    np.testing.assert_array_equal(reshape_b_l([0.5, 0.25], cs, basis, 1.0),
                                  reshape_b_l(np.array([0.5, 0.25]), cs, basis, 1.0))


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
    basis = make_positive_basis(5)
    for x1 in np.linspace(-1.8, 1.8, 13):
        for x2 in (0.0, 0.4, -0.3):
            x = np.array([x1, x2])
            if min(np.linalg.norm(x - d.geometry.center) for d in GAP_DISCS) < 1.0:
                continue
            cs = disc_constraint_set(GAP_DISCS, x)
            for k_phi in (0.0, 1.0):
                assert sandwich_check(cs, basis, k_phi, rng) == 0


def test_filter_returns_nominal_when_feasible():
    basis = make_positive_basis(11)
    cs = cs_of([[0.0, 1.0]], [5.0])
    out = reshaped_filter(np.array([0.2, 0.1]), cs, basis, 2.0)
    np.testing.assert_allclose(out, [0.2, 0.1], atol=1e-9)


def test_single_state_filter_evaluates_its_set_once(monkeypatch):
    # The selection's own check evaluates the set at a nonzero selection
    # (a state inside the lower wall's band, where one offset is negative),
    # and the reshaping takes that slack instead of evaluating it again. A
    # zero selection's slack is -(0.0 - b), so its set is not evaluated.
    walls = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
             CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)]
    basis = make_positive_basis(11)
    calls = []
    violations = ConstraintSet.violations
    monkeypatch.setattr(ConstraintSet, "violations",
                        lambda self, u: calls.append(u) or violations(self, u))
    for x, evaluations in (([-2.0, 1.0], 0), ([0.0, 0.75], 1)):
        cs = build_constraint_set(np.array(x), walls, 0.0, 1.0)
        selection = lipschitz_selection(cs)
        calls.clear()
        out = reshaped_filter(np.array([0.6, 1.0]), cs, basis, 2.0)
        assert len(calls) == evaluations, x
        assert np.any(selection != 0.0) == bool(evaluations), x
        for u in calls:
            np.testing.assert_array_equal(u, selection)
        assert np.all(np.isfinite(out))


def test_one_state_reshape_on_floats_equals_the_array_reference_bit_for_bit():
    # One state's b_l runs on floats; oracles.one_state_b_l is the same
    # arithmetic on numpy arrays. Same bits (NaN and the sign of zero
    # included) and the same errors: a selection outside its set, given or
    # drawn (slack computed), and a coverage constant too small for c.
    rng = np.random.default_rng(31337)
    basis = make_positive_basis(11)
    narrow = PositiveBasis(basis.a_l, 0.05)
    seen = set()
    for k, (a, b, c) in enumerate(one_state_sets(2024, 3000)):
        cs = ConstraintSet(a, b, c)
        on = (basis, narrow)[k % 10 == 0]
        k_phi = (0.0, 0.7, 2.0)[k % 3]
        found = outcome(lambda: selection_with_slack(cs))
        if isinstance(found, Raised) or k % 2:
            selection, slack = rng.normal(scale=0.1, size=2), None
        else:
            selection, slack = found
        want = outcome(lambda: one_state_b_l(
            selection, -set_violations(a, b, c, selection) if slack is None else slack,
            a, c, on.a_l, on.c_a, k_phi))
        got = outcome(lambda: reshape_b_l(selection, cs, on, k_phi, slack=slack))
        if isinstance(want, Raised):
            assert got == want
            seen.add(want[0].__name__)
            continue
        assert_same_bits(got, want)
        seen.add((slack is None, bool(np.isnan(want).any())))
    assert {"SelectionNotFeasibleError", "CoverageConditionError"} <= seen
    assert {(True, False), (False, False), (True, True), (False, True)} <= seen


def test_batched_selection_and_reshape_equal_the_array_reference_bit_for_bit():
    # The hand-built sets of helpers.one_state_sets (1-4 unit rows, c in
    # {0, 0.1, 0.9}, offsets across scales, NaN, signed zeros, and offset
    # pairs on the selection condition's bound), one batch per row count and
    # coefficient, each in C order, Fortran order and a transposed view. The
    # selection, its slack, the violations there and b_l equal oracles'
    # numpy reductions on C-order arrays bit for bit, b_l both from the
    # selection's slack and from drawn points, whose slack is computed
    # (some outside their set, some NaN in one row only); at c = 0.9 the
    # 11-row basis fails the coverage condition for the whole batch.
    rng = np.random.default_rng(4243)
    basis = make_positive_basis(11)
    groups = {}
    for a, b, c in one_state_sets(4242, 1200):
        groups.setdefault((b.shape[0], c), []).append((a, b))
    seen = set()
    for k, ((n, c), sets) in enumerate(sorted(groups.items())):
        a, b = np.stack([s[0] for s in sets]), np.stack([s[1] for s in sets])
        k_phi = (0.0, 0.7, 2.0)[k % 3]
        want = batch_selection(a, b, c)
        drawn = rng.normal(scale=0.1, size=(b.shape[0], 2))
        want_b_l = {key: outcome(lambda: batch_b_l(
            selection, -set_violations(a, b, c, selection) if slack is None else slack,
            a, c, basis.a_l, basis.c_a, k_phi)) for key, selection, slack in
            (("selection", want[0], want[1]), ("drawn", drawn, None))}
        for (_, a_in), (_, b_in), (_, u), (_, s), (_, d) in zip(
                layouts(a, 2), layouts(b), layouts(want[0]), layouts(want[1]), layouts(drawn)):
            cs = ConstraintSet(a_in, b_in, c)
            for g, w in zip(selection_with_slack(cs), want):
                assert_same_bits(g, w)
            assert_same_bits(cs.violations(u), set_violations(a, b, c, want[0]))
            for key, selection, slack in (("selection", u, s), ("drawn", d, None)):
                got_b_l = outcome(lambda: reshape_b_l(selection, cs, basis, k_phi, slack=slack))
                if isinstance(want_b_l[key], Raised):
                    assert got_b_l == want_b_l[key]
                    seen.add(want_b_l[key][0].__name__)
                    continue
                assert_same_bits(got_b_l, want_b_l[key])
                nan_rows = np.isnan(want_b_l[key]).any(axis=-1)
                assert nan_rows.any() and not nan_rows.all(), (n, c)
                seen.add((n, c))
    assert seen == {"CoverageConditionError"} | {(n, c) for n in (1, 2, 3, 4) for c in (0.0, 0.1)}


def test_supplied_slack_below_tolerance_is_rejected():
    # A supplied slack is checked like a computed one: a selection outside
    # the set raises for one state and gives a NaN row in a batch.
    basis = make_positive_basis(11)
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
    basis = make_positive_basis(5)
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
    basis = make_positive_basis(7)
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
    basis = make_positive_basis(11)
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
    basis = make_positive_basis(5)
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
    basis = make_positive_basis(7)
    poly = Polyhedron(basis.a_l, np.full(7, 1.0))
    pts = sample_polytope_2d(poly, 500, rng)
    assert pts.shape == (500, 2)
    assert np.all(poly.a @ pts.T <= poly.b[:, None] + 1e-9)


def _seeded_sets(shape, n_c, n_u, seed):
    """Constraint sets batched over shape, each with a feasible selection:
    seeded normal entries, a tenth of the selections exactly zero. One
    state and a batch round every product alike, so no entry needs to be
    exact in binary."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape + (n_c, n_u))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    c = float(np.linspace(0.0, 0.1, n_c)[-1])      # the largest of n_c per-row values
    selection = rng.normal(size=shape + (n_u,)) * (rng.uniform(size=shape + (1,)) > 0.1)
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
    "two states": ((2,), 3, 2),
}


def _batch_case(name):
    shape, n_c, n_u = BATCH_CASES[name]
    a, b, c, selection = _seeded_sets(shape, n_c, n_u, seed=list(BATCH_CASES).index(name))
    if name == "nan rows":
        a[[3, 17]] = np.nan           # states without a set
        b[[3, 17]] = np.nan
        b[[5, 29], 0] -= 10.0         # selections outside their set
    return make_positive_basis(11), a, b, c, selection


@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_reshape_of_a_batch_equals_the_per_state_reshapes_bit_for_bit(name):
    basis, a, b, c, selection = _batch_case(name)
    _assert_batch_equals_states(lambda s, cs: reshape_b_l(s, cs, basis, 2.0), a, b, c, selection)


@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_filter_of_a_batch_equals_the_per_state_filters_bit_for_bit(name):
    basis, a, b, c, selection = _batch_case(name)
    nominal = np.array([0.6, 1.0])
    # Anchored at the given selections: reshape, then project onto the basis.
    _assert_batch_equals_states(
        lambda s, cs: basis.polygon.project(nominal, reshape_b_l(s, cs, basis, 2.0)), a, b, c, selection)


# ------------------------------------------ the batched filter's inactive states

SKIP_CERTS = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
              CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), 0.35, level=2.0),
              CertificateSpec(Disc([2.0, 3.0], 0.5))]
SKIP_NOMINAL = np.array([0.6, 1.0])


def _straddling_states():
    """A grid from inside the walls' and the disc's bands out to where every
    state is inactive, then seven points on each spine and the disc centre."""
    xs, ys = np.meshgrid(np.linspace(-3.0, 3.0, 25), np.linspace(-1.0, 6.0, 29))
    t = np.linspace(0.0, 1.0, 7)[:, None]
    spines = [cert.geometry.o1 + t * cert.geometry.base for cert in SKIP_CERTS[:2]]
    return np.vstack([np.column_stack([xs.ravel(), ys.ravel()]), *spines, [[2.0, 3.0]]])


def _inactive(cs, basis, nominal):
    """The filter's test: finite rows, and cbar_a (min_j b_j / (1 + c))
    above max_l (A_L u0)_l + 4 eps |u0|_1."""
    low = cbar_a(cs.c, basis.c_a) * (cs.b.min(axis=-1) / (1.0 + cs.c))
    reach = np.max(basis.a_l @ nominal) + 4.0 * np.finfo(float).eps * np.abs(nominal).sum()
    return (low > reach) & ~np.isnan(cs.a).any(axis=(-2, -1))


@pytest.mark.parametrize("k_phi", [0.0, 2.0])
@pytest.mark.parametrize("c", [0.0, 0.4])
@pytest.mark.parametrize("n_l", [5, 11, 21])
def test_batched_filter_skips_inactive_states_with_the_full_pipelines_bits(monkeypatch, n_l, c, k_phi):
    # The filter on a batch gives every state the bits of the full pipeline
    # (oracles.batch_filter): on a grid straddling the inactive-state
    # threshold, on the spines and at the disc centre (NaN rows), and at
    # six far states whose first row is NaN beside a large offset, as a
    # spine point keeps a finite b, in both components or in the second
    # alone: those would pass the offsets' test and stay on the full path. Only the active states reach reshape_b_l and
    # the projection, in order. At n_l = 5 and c = 0.4 the coverage
    # condition fails, for the whole batch.
    basis = make_positive_basis(n_l)
    cs = build_constraint_set(_straddling_states(), SKIP_CERTS, c, 1.0)
    want = outcome(lambda: batch_filter(SKIP_NOMINAL, cs.a, cs.b, c, basis.a_l, basis.c_a, k_phi))
    if isinstance(want, Raised):
        assert outcome(lambda: reshaped_filter(SKIP_NOMINAL, cs, basis, k_phi)) == want
        assert want[0] is CoverageConditionError and (n_l, c) == (5, 0.4)
        return
    a, b = cs.a.copy(), cs.b.copy()
    far = np.flatnonzero(_inactive(cs, basis, SKIP_NOMINAL))[-6:]
    a[far[:3], 0], a[far[3:], 0, 1], b[far, 0] = np.nan, np.nan, 30.0
    cs = ConstraintSet(a, b, c)
    want = batch_filter(SKIP_NOMINAL, a, b, c, basis.a_l, basis.c_a, k_phi)
    seen = filter_calls(monkeypatch)
    got = reshaped_filter(SKIP_NOMINAL, cs, basis, k_phi)
    assert_same_bits(got, want)
    inactive = _inactive(cs, basis, SKIP_NOMINAL)
    assert 0 < inactive.sum() < inactive.size - 50
    assert far.size == 6 and not inactive[far].any() and np.isnan(want[far]).all()
    assert np.isnan(want[-15:]).any(axis=1).sum() >= 8     # the spine points of the first wall, the disc centre
    assert_same_bits(np.concatenate(seen["reshape"]), b[~inactive])
    assert [p.shape[0] for p in seen["project"]] == [(~inactive).sum()]
    np.testing.assert_array_equal(got[inactive], np.broadcast_to(SKIP_NOMINAL, got[inactive].shape))


@pytest.mark.parametrize("block", ["far", "near"])
def test_batched_filter_on_blocks_with_every_state_inactive_or_none(monkeypatch, block):
    # Far from every obstacle no state reaches the selection, the
    # reshaping or the projection, and every state gets the nominal; across
    # the lower wall's band every state is active and runs them all. The
    # bits equal the full pipeline's either way.
    basis = make_positive_basis(11)
    x = np.linspace(-2.0, 2.0, 40)
    y = np.full(40, 12.0) if block == "far" else 0.5 + np.linspace(-0.3, 0.3, 40)
    cs = build_constraint_set(np.column_stack([x, y]), SKIP_CERTS, 0.0, 1.0)
    seen = filter_calls(monkeypatch)
    got = reshaped_filter(SKIP_NOMINAL, cs, basis, 2.0)
    assert_same_bits(got, batch_filter(SKIP_NOMINAL, cs.a, cs.b, 0.0, basis.a_l, basis.c_a, 2.0))
    if block == "far":
        assert seen == {"reshape": [], "project": []}
        np.testing.assert_array_equal(got, np.broadcast_to(SKIP_NOMINAL, got.shape))
    else:
        assert [r.shape[0] for r in seen["reshape"]] == [40] and [p.shape[0] for p in seen["project"]] == [40]
