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
from safecascade.qp_solver import Polyhedron, solve_projection_qp
from safecascade.reshaping import (
    MAX_DIRECTIONS,
    PositiveBasis,
    make_positive_basis,
    polytope_vertices_2d,
    reshape_b_l,
    reshaped_filter,
    sample_polytope_2d,
)

from helpers import Raised, assert_same_bits, filter_calls, layouts, one_state_sets, outcome
from oracles import batch_b_l, batch_filter, batch_selection, one_state_b_l, set_violations

GAP_DISCS = [CertificateSpec(Disc([0.0, 1.0], 0.99)), CertificateSpec(Disc([0.0, -1.0], 0.99))]
NOMINAL = np.array([1.0, 0.0])


def cs_of(a, b):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return ConstraintSet(a, np.asarray(b, dtype=float))


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
    report = make_positive_basis(3).report
    assert report.uncovered_gaps == 0
    assert report.min_subset_sigma > 1e-8


def test_basis_count_and_dimension_guards():
    with pytest.raises(BadCountError):
        make_positive_basis(4)       # even: collinear pairs
    with pytest.raises(BadCountError):
        make_positive_basis(1)
    # The package is planar: a basis of any other input dimension is refused.
    with pytest.raises(ValueError, match=r"shape \(n_l, 2\)"):
        PositiveBasis(np.eye(3), 0.5)


DUPLICATED = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-0.7071067811865476, -0.7071067811865476]])


def test_validation_flags_duplicated_row():
    assert PositiveBasis(DUPLICATED, 0.3).report.min_subset_sigma <= 1e-8


def test_validation_flags_oversized_coverage_constant():
    # A pentagon covers every direction at cos(2 pi / 5); raising the
    # constant past cos(pi / 5) starves directions between adjacent rows,
    # in each of the five gaps.
    rows = make_positive_basis(5).a_l
    tight = PositiveBasis(rows, math.cos(math.pi / 5.0) + 0.02)
    assert tight.report.uncovered_gaps == 5


def _unit_probes(samples):
    angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False) + 0.1234
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _nnls_coverage_failures(basis, samples):
    """Probe directions that the rows within their coverage cone do not
    positively span, by nonnegative least squares."""
    nnls = pytest.importorskip("scipy.optimize").nnls
    failures = 0
    for probe in _unit_probes(samples):
        chosen = basis.a_l[basis.a_l @ probe >= basis.c_a - 1e-12]
        if chosen.shape[0] < 2 or nnls(chosen.T, probe)[1] > 1e-8:
            failures += 1
    return failures


@pytest.mark.parametrize("oversized", [False, True])
@pytest.mark.parametrize("n_l", [3, 5, 11, 21], ids=lambda n_l: f"2-{n_l}")     # n_u = 2, then n_l
def test_cone_coverage_matches_nnls(n_l, oversized):
    # The exact gap count is nonzero iff some probe direction fails.
    basis = make_positive_basis(n_l)
    if oversized:
        basis = PositiveBasis(basis.a_l, basis.c_a + 0.25 * (1.0 - basis.c_a))
    failures = _nnls_coverage_failures(basis, 500)
    assert (basis.report.uncovered_gaps > 0) == (failures > 0) == oversized


def test_cone_coverage_matches_nnls_on_a_duplicated_row():
    basis = PositiveBasis(DUPLICATED, 0.3)
    assert basis.report.uncovered_gaps > 0 and _nnls_coverage_failures(basis, 200) > 0


def test_rows_in_a_half_plane_leave_its_open_side_uncovered():
    # A gap of pi is uncovered at every constant, even the loosest one
    # above -1: no two rows around it are less than pi apart.
    loosest = float(np.nextafter(-1.0, 0.0))
    half = PositiveBasis([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], loosest)
    assert half.report.uncovered_gaps == 1 and _nnls_coverage_failures(half, 200) > 0
    assert PositiveBasis([[1.0, 0.0]], loosest).report.uncovered_gaps == 1


@pytest.mark.parametrize("n_l", [3, 5, 11, 51, 101])
def test_coverage_is_exact_at_the_polygon_constant(n_l):
    # A regular polygon covers at exactly cos(2 pi / n_l), the cosine of
    # its gap; any larger constant leaves all n_l gaps uncovered. Probes
    # miss the arcs this leaves: at 11 rows and +1e-9, none of 2,000 fail.
    basis = make_positive_basis(n_l)
    assert basis.report.uncovered_gaps == 0
    assert PositiveBasis(basis.a_l, basis.c_a + 1e-9).report.uncovered_gaps == n_l


def test_pair_sigma_is_the_closed_form():
    # Two unit rows at angle phi have singular values sqrt(1 +- cos phi); in
    # an odd polygon the pair nearest antiparallel, at pi - pi / n_l, is
    # the worst conditioned.
    for n_l in range(3, MAX_DIRECTIONS + 1, 2):
        sigma = make_positive_basis(n_l).report.min_subset_sigma
        assert sigma == pytest.approx(math.sqrt(1.0 - math.cos(math.pi / n_l)), abs=1e-12), n_l


# ------------------------------------------------------- the coverage condition

@pytest.mark.parametrize("basis", [make_positive_basis(3), PositiveBasis(make_positive_basis(11).a_l, 0.0)],
                         ids=["three", "zero"])
def test_a_basis_without_positive_coverage_refuses_to_reshape(basis):
    # Reshaping needs c_a > 0, which neither the minimal three-direction
    # basis (c_a = -1/2) nor eleven rows stated at c_a = 0 has. Without it,
    # reshape_b_l and the filter raise CoverageConditionError for one
    # state, and so does the filter on a batch whose every state has a
    # negative least offset, where c_a * min_j b_j > 0 would otherwise pass
    # every state's inactive test and hand each the nominal: at c_a = -1/2
    # that product is at least 0.05, above this nominal's reach 0.01.
    message = f"coverage constant {basis.c_a:.6g} must be positive for reshaping"
    nominal = np.array([0.01, 0.0])
    cs = cs_of([[1.0, 0.0], [0.0, 1.0]], [-0.5, 2.0])
    with pytest.raises(CoverageConditionError, match=message):
        reshape_b_l(lipschitz_selection(cs), cs, basis, 1.0)
    with pytest.raises(CoverageConditionError, match=message):
        reshaped_filter(nominal, cs, basis, 1.0)
    rows = np.broadcast_to([[1.0, 0.0], [0.0, 1.0]], (40, 2, 2))
    batch = ConstraintSet(rows, np.column_stack([np.linspace(-0.9, -0.1, 40), np.full(40, 2.0)]))
    with pytest.raises(CoverageConditionError, match=message):
        reshaped_filter(nominal, batch, basis, 1.0)
    # A basis keeps its constant whatever it is: basis-check prints the
    # three-direction basis at -0.5.
    assert basis.c_a <= 0.0


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
        cs = build_constraint_set(np.array(x), walls, 1.0)
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
    # drawn (slack computed), and a coverage constant that is not positive.
    rng = np.random.default_rng(31337)
    basis = make_positive_basis(11)
    narrow = PositiveBasis(basis.a_l, 0.0)
    seen = set()
    for k, (a, b) in enumerate(one_state_sets(2024, 3000)):
        cs = ConstraintSet(a, b)
        on = (basis, narrow)[k % 10 == 0]
        k_phi = (0.0, 0.7, 2.0)[k % 3]
        found = outcome(lambda: selection_with_slack(cs))
        if isinstance(found, Raised) or k % 2:
            selection, slack = rng.normal(scale=0.1, size=2), None
        else:
            selection, slack = found
        want = outcome(lambda: one_state_b_l(
            selection, -set_violations(a, b, 0.0, selection) if slack is None else slack,
            a, 0.0, on.a_l, on.c_a, k_phi))
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
    # The hand-built sets of helpers.one_state_sets (1-4 unit rows, offsets
    # across scales, NaN, signed zeros, and offset pairs on the selection
    # condition's bound), one batch per row count, each in C order, Fortran
    # order and a transposed view. The selection, its slack, the violations
    # there and b_l equal oracles' numpy reductions on C-order arrays bit
    # for bit, b_l both from the selection's slack and from drawn points,
    # whose slack is computed (some outside their set, some NaN in one row
    # only).
    rng = np.random.default_rng(4243)
    basis = make_positive_basis(11)
    groups = {}
    for a, b in one_state_sets(4242, 1200):
        groups.setdefault(b.shape[0], []).append((a, b))
    seen = set()
    for k, (n, sets) in enumerate(sorted(groups.items())):
        a, b = np.stack([s[0] for s in sets]), np.stack([s[1] for s in sets])
        k_phi = (0.0, 0.7, 2.0)[k % 3]
        want = batch_selection(a, b, 0.0)
        drawn = rng.normal(scale=0.1, size=(b.shape[0], 2))
        want_b_l = {key: batch_b_l(
            selection, -set_violations(a, b, 0.0, selection) if slack is None else slack,
            a, 0.0, basis.a_l, basis.c_a, k_phi) for key, selection, slack in
            (("selection", want[0], want[1]), ("drawn", drawn, None))}
        for (_, a_in), (_, b_in), (_, u), (_, s), (_, d) in zip(
                layouts(a, 2), layouts(b), layouts(want[0]), layouts(want[1]), layouts(drawn)):
            cs = ConstraintSet(a_in, b_in)
            for g, w in zip(selection_with_slack(cs), want):
                assert_same_bits(g, w)
            assert_same_bits(cs.violations(u), set_violations(a, b, 0.0, want[0]))
            for key, selection, slack in (("selection", u, s), ("drawn", d, None)):
                got_b_l = reshape_b_l(selection, cs, basis, k_phi, slack=slack)
                assert_same_bits(got_b_l, want_b_l[key])
                nan_rows = np.isnan(want_b_l[key]).any(axis=-1)
                assert nan_rows.any() and not nan_rows.all(), n
                seen.add(n)
    assert seen == {1, 2, 3, 4}


def test_supplied_slack_below_tolerance_is_rejected():
    # A supplied slack is checked like a computed one: a selection outside
    # the set raises for one state and gives a NaN row in a batch.
    basis = make_positive_basis(11)
    cs = cs_of([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(SelectionNotFeasibleError):
        reshape_b_l(np.zeros(2), cs, basis, 1.0, slack=np.array([1.0, -1e-3]))
    ok = reshape_b_l(np.zeros(2), cs, basis, 1.0, slack=np.array([1.0, 1.0]))
    np.testing.assert_array_equal(ok, reshape_b_l(np.zeros(2), cs, basis, 1.0))
    batch = ConstraintSet(np.broadcast_to(cs.a, (2, 2, 2)), np.ones((2, 2)))
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


def test_reshaped_solution_against_polar_scan_oracle():
    # The polyhedral set is an inner approximation: its projection is
    # feasible for the original system and can only sit
    # farther from the nominal than the true constrained minimizer found by
    # the coarse polar scan.
    from oracles import qcqp_polar_scan, norm_constrained_membership
    basis = make_positive_basis(5)
    for x1 in (-1.2, -0.6):
        cs = disc_constraint_set(GAP_DISCS, np.array([x1, 0.0]))
        out = reshaped_filter(NOMINAL, cs, basis, 0.0)
        assert norm_constrained_membership(cs.a, cs.b, 0.0, out, tol=1e-9)
        best = qcqp_polar_scan(NOMINAL, cs.a, cs.b, 0.0,
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
    selection = rng.normal(size=shape + (n_u,)) * (rng.uniform(size=shape + (1,)) > 0.1)
    b = (a @ selection[..., None])[..., 0] + rng.uniform(0.0, 1.0, size=shape + (n_c,))
    return a, b, selection


def _assert_batch_equals_states(call, a, b, selection):
    """call(selection, cs) on the batch against each state's own call; a
    state whose call raises SelectionNotFeasibleError must be a NaN row."""
    batch = call(selection, ConstraintSet(a, b))
    for idx in np.ndindex(b.shape[:-1]):
        try:
            want = call(selection[idx], ConstraintSet(a[idx], b[idx]))
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
    a, b, selection = _seeded_sets(shape, n_c, n_u, seed=list(BATCH_CASES).index(name))
    if name == "nan rows":
        a[[3, 17]] = np.nan           # states without a set
        b[[3, 17]] = np.nan
        b[[5, 29], 0] -= 10.0         # selections outside their set
    return make_positive_basis(11), a, b, selection


@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_reshape_of_a_batch_equals_the_per_state_reshapes_bit_for_bit(name):
    basis, a, b, selection = _batch_case(name)
    _assert_batch_equals_states(lambda s, cs: reshape_b_l(s, cs, basis, 2.0), a, b, selection)


@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_filter_of_a_batch_equals_the_per_state_filters_bit_for_bit(name):
    basis, a, b, selection = _batch_case(name)
    nominal = np.array([0.6, 1.0])
    # Anchored at the given selections: reshape, then project onto the basis.
    _assert_batch_equals_states(
        lambda s, cs: basis.polygon.project(nominal, reshape_b_l(s, cs, basis, 2.0)), a, b, selection)


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
    """The filter's test: finite rows, and c_a min_j b_j above
    max_l (A_L u0)_l + 4 eps |u0|_1."""
    low = basis.c_a * cs.b.min(axis=-1)
    reach = np.max(basis.a_l @ nominal) + 4.0 * np.finfo(float).eps * np.abs(nominal).sum()
    return (low > reach) & ~np.isnan(cs.a).any(axis=(-2, -1))


@pytest.mark.parametrize("k_phi", [0.0, 2.0])
@pytest.mark.parametrize("n_l", [5, 11, 21])
def test_batched_filter_skips_inactive_states_with_the_full_pipelines_bits(monkeypatch, n_l, k_phi):
    # The filter on a batch gives every state the bits of the full pipeline
    # (oracles.batch_filter): on a grid straddling the inactive-state
    # threshold, on the spines and at the disc centre (NaN rows), and at
    # six far states whose first row is NaN beside a large offset, as a
    # spine point keeps a finite b, in both components or in the second
    # alone: those would pass the offsets' test and stay on the full path.
    # Only the active states reach reshape_b_l and the projection, in order.
    basis = make_positive_basis(n_l)
    cs = build_constraint_set(_straddling_states(), SKIP_CERTS, 1.0)
    a, b = cs.a.copy(), cs.b.copy()
    far = np.flatnonzero(_inactive(cs, basis, SKIP_NOMINAL))[-6:]
    a[far[:3], 0], a[far[3:], 0, 1], b[far, 0] = np.nan, np.nan, 30.0
    cs = ConstraintSet(a, b)
    want = batch_filter(SKIP_NOMINAL, a, b, 0.0, basis.a_l, basis.c_a, k_phi)
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
    cs = build_constraint_set(np.column_stack([x, y]), SKIP_CERTS, 1.0)
    seen = filter_calls(monkeypatch)
    got = reshaped_filter(SKIP_NOMINAL, cs, basis, 2.0)
    assert_same_bits(got, batch_filter(SKIP_NOMINAL, cs.a, cs.b, 0.0, basis.a_l, basis.c_a, 2.0))
    if block == "far":
        assert seen == {"reshape": [], "project": []}
        np.testing.assert_array_equal(got, np.broadcast_to(SKIP_NOMINAL, got.shape))
    else:
        assert [r.shape[0] for r in seen["reshape"]] == [40] and [p.shape[0] for p in seen["project"]] == [40]
