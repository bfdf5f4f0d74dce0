import tracemalloc
import warnings

import numpy as np
import pytest

from safecascade import qp_solver
from safecascade.errors import InfeasibleError
from safecascade.qp_solver import (DEFAULT_TOL, PolygonRows, Polyhedron, columns_product, row_product,
                                   solve_projection_qp, states_last, sum_last_axis)

from helpers import Raised, assert_same_bits, layouts, outcome
from oracles import (INFEASIBLE, batch_projection, nearest_pair_vertex, one_state_projection,
                     project_by_face_enumeration)


def empty_poly(n_u=2):
    return Polyhedron(np.zeros((0, n_u)), np.zeros(0))


def random_instance(rng):
    n_rows = int(rng.integers(1, 7))
    a = rng.uniform(-1.0, 1.0, size=(n_rows, 2))
    norms = np.linalg.norm(a, axis=1)
    a[norms < 0.1] += 0.5  # keep rows away from zero
    if rng.uniform() < 0.7:
        anchor = rng.normal(size=2)
        b = a @ anchor + np.abs(rng.normal(size=n_rows))
    else:
        b = rng.normal(size=n_rows)
    u0 = rng.normal(scale=2.0, size=2)
    return u0, Polyhedron(a, b)


def test_unconstrained_projection_is_identity():
    u0 = np.array([0.3, -0.1])
    sol = solve_projection_qp(u0, empty_poly())
    np.testing.assert_allclose(sol.point, u0)
    assert sol.active_indices.size == 0


def test_halfspace_projection():
    sol = solve_projection_qp([1.0, 0.0], Polyhedron([[1.0, 0.0]], [0.0]))
    np.testing.assert_allclose(sol.point, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(sol.multipliers, [1.0], atol=1e-12)


def test_matches_face_enumeration_oracle():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(200):
        u0, poly = random_instance(rng)
        expected = project_by_face_enumeration(u0, poly.a, poly.b)
        if expected is INFEASIBLE:
            with pytest.raises(InfeasibleError):
                solve_projection_qp(u0, poly)
        else:
            sol = solve_projection_qp(u0, poly)
            np.testing.assert_allclose(sol.point, expected, atol=1e-8)
            checked += 1
    assert checked > 100


def test_polygon_projection_batch_matches_oracle_rowwise():
    # One shared row matrix with a duplicated row, a redundant parallel row
    # and an antiparallel pair, against the face-enumeration oracle per
    # batch row: feasible rows agree, infeasible rows (and a NaN row) are
    # NaN in the batch, and a single infeasible problem raises.
    rng = np.random.default_rng(6021023)
    a = rng.normal(size=(5, 2))
    a = np.vstack([a, a[0], 2.0 * a[1], -a[2]])
    anchors = rng.normal(size=(400, 2))
    b = anchors @ a.T + np.abs(rng.normal(size=(400, a.shape[0])))
    b[::7] = rng.normal(size=(b[::7].shape[0], a.shape[0]))     # some empty sets
    b[3] = np.nan
    u0 = rng.normal(scale=3.0, size=(400, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = PolygonRows(a).project(u0, b)
    assert got.shape == (400, 2)
    assert np.isnan(got[3]).all()
    empty = 0
    for k in range(400):
        if k == 3:
            continue
        expected = project_by_face_enumeration(u0[k], a, b[k])
        if expected is INFEASIBLE:
            empty += 1
            assert np.isnan(got[k]).all()
            with pytest.raises(InfeasibleError):
                PolygonRows(a).project(u0[k], b[k])
        else:
            np.testing.assert_allclose(got[k], expected, atol=1e-8)
            np.testing.assert_allclose(PolygonRows(a).project(u0[k], b[k]), got[k], rtol=0, atol=1e-12)
    assert 0 < empty < 100


def test_projection_takes_the_farthest_line_not_the_largest_violation():
    # Row 0 is three times a unit row: the largest raw violation (2.1
    # against 1.0) on the nearer line (0.7 against 1.0 away). The answer is
    # the edge on the farthest line, row 1's, and no vertex: a line chosen
    # by raw violation alone fails its edge and ends at the vertex (1/6, 0).
    polygon = PolygonRows(np.array([[1.8, 2.4], [0.0, 1.0]]))
    b, u0 = np.array([0.3, 0.0]), np.array([0.0, 1.0])
    np.testing.assert_allclose(project_by_face_enumeration(u0, polygon.a, b), [0.0, 0.0], atol=1e-15)
    assert_same_bits(polygon.project(u0, b), [0.0, 0.0])
    assert_same_bits(polygon.project(u0[None], b[None]), [[0.0, 0.0]])


def test_sum_last_axis_equals_add_reduce_bit_for_bit():
    # Column sums for fewer than eight columns, the reduction itself from
    # eight on; entries across scales with signed zeros, NaN and infinities,
    # and rows of -0.0 alone, which numpy sums to +0.0.
    rng = np.random.default_rng(88)
    for n in range(10):
        m = rng.normal(size=(3, 500, n)) * 10.0 ** rng.integers(-8, 9, size=(3, 500, n))
        pick = rng.random(m.shape)
        m[pick < 0.1] = -0.0
        m[(pick >= 0.1) & (pick < 0.15)] = 0.0
        m[(pick >= 0.15) & (pick < 0.17)] = np.nan
        m[(pick >= 0.17) & (pick < 0.18)] = np.inf
        m[(pick >= 0.18) & (pick < 0.19)] = -np.inf
        m[0, :5] = -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)      # inf - inf
            assert_same_bits(sum_last_axis(m), np.add.reduce(m, axis=-1))


def test_idempotence():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u0, poly = random_instance(rng)
        try:
            first = solve_projection_qp(u0, poly)
        except InfeasibleError:
            continue
        again = solve_projection_qp(first.point, poly)
        np.testing.assert_allclose(again.point, first.point, atol=1e-9)


def test_projection_contract():
    # (v - point) . (u0 - point) <= tol * (1 + |v|) for feasible v.
    rng = np.random.default_rng(11)
    for _ in range(30):
        u0, poly = random_instance(rng)
        try:
            sol = solve_projection_qp(u0, poly)
        except InfeasibleError:
            continue
        for _ in range(200):
            v = rng.normal(scale=3.0, size=2)
            if np.all(poly.a @ v - poly.b <= 0):
                lhs = float((v - sol.point) @ (u0 - sol.point))
                assert lhs <= 1e-9 * (1.0 + np.linalg.norm(v))


def test_kkt_stationarity_and_feasibility():
    rng = np.random.default_rng(23)
    for _ in range(100):
        u0, poly = random_instance(rng)
        try:
            sol = solve_projection_qp(u0, poly)
        except InfeasibleError:
            continue
        assert np.all(poly.a @ sol.point - poly.b <= 1e-9)
        assert np.all(sol.multipliers >= -1e-12)
        resid = (sol.point - u0) + sol.multipliers @ poly.a[sol.active_indices] \
            if sol.active_indices.size else sol.point - u0
        assert np.linalg.norm(resid) <= 1e-9


def test_solution_lipschitz_in_data():
    # Fixed well-conditioned A; perturb (u0, b) and compare the solution
    # movement against the bound computed from the worst active subset.
    rng = np.random.default_rng(3)
    angles = 2.0 * np.pi * np.arange(1, 6) / 5.0
    a = np.column_stack([np.cos(angles), np.sin(angles)])
    base_b = np.full(5, 0.8)
    worst = np.inf
    for i in range(5):
        for j in range(i + 1, 5):
            worst = min(worst, np.linalg.svd(a[[i, j]], compute_uv=False)[-1])
    bound = 1.0 + (2.0 / worst) * (1.0 + 2.0 * np.linalg.norm(a.T, 2) * max(1.0 / worst, 1.0))
    for _ in range(1000):
        u0 = rng.normal(scale=1.5, size=2)
        du = rng.normal(scale=0.05, size=2)
        db = rng.normal(scale=0.05, size=5)
        p1 = solve_projection_qp(u0, Polyhedron(a, base_b)).point
        p2 = solve_projection_qp(u0 + du, Polyhedron(a, base_b + db)).point
        move = np.linalg.norm(p2 - p1)
        budget = bound * (np.linalg.norm(du) + np.linalg.norm(db))
        assert move <= budget + 1e-9


def test_infeasible_is_reported():
    poly = Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
    with pytest.raises(InfeasibleError):
        solve_projection_qp([0.0, 0.0], poly)


def test_single_polygon_projection_equals_a_batch_of_one_bit_for_bit():
    # A single problem settles a feasible u0 or its edge on 1-D arrays and
    # runs the vertex stage as a batch of one. Each stage gives the bits of
    # the batch of one. A NaN in u0 or in an offset gives NaN, as the batch
    # of one does, and an empty set raises where the batch of one is NaN.
    rng = np.random.default_rng(1018)
    a = rng.normal(size=(7, 2))
    polygon = PolygonRows(np.vstack([a, -a[0]]))
    vertex_calls = []
    edge_ends = polygon.edge_ends
    polygon.edge_ends = lambda b: vertex_calls.append(b.shape) or edge_ends(b)
    stages = {"pass": 0, "edge": 0, "vertex": 0, "nan": 0, "empty": 0}
    for k in range(2000):
        b = rng.normal(size=2) @ polygon.a_t + np.abs(rng.normal(size=8))
        if k % 9 == 0:
            b = rng.normal(size=8)                       # often an empty set
        if k % 50 == 0:
            b[rng.integers(8)] = np.nan
        u0 = rng.normal(scale=2.0, size=2)
        if k % 50 == 25:
            u0[rng.integers(2)] = np.nan
        want = polygon.project(u0[None], b[None])[0]
        vertex_calls.clear()
        try:
            got = polygon.project(u0, b)
        except InfeasibleError:
            assert np.isnan(want).all() and not np.isnan(b).any()
            stages["empty"] += 1
            continue
        assert_same_bits(got, want)
        assert not np.shares_memory(got, u0)
        if np.isnan(b).any() or np.isnan(u0).any():
            assert np.isnan(got).all()
            stages["nan"] += 1
        else:
            stages["vertex" if vertex_calls else "pass" if np.array_equal(got, u0) else "edge"] += 1
    assert min(stages.values()) >= 10, stages


def test_batched_polygon_projection_equals_the_array_reference_bit_for_bit():
    # A batch computes its violations and edges in place and gathers the
    # farthest rows with take; oracles.batch_projection builds each step as
    # a new array. Same bits over rows of any length and the unit 11-row
    # basis, one u0 per problem or one for all, with NaN, empty sets and
    # every stage, and u0 and b in C order, Fortran order and a transposed
    # view.
    rng = np.random.default_rng(5772)
    a = rng.normal(size=(7, 2))
    angles = 2.0 * np.pi * np.arange(1, 12) / 11
    for rows in (np.vstack([a, -a[0]]), np.column_stack([np.cos(angles), np.sin(angles)])):
        polygon = PolygonRows(rows)
        b = rng.normal(size=(3000, 2)) @ polygon.a_t + np.abs(rng.normal(size=(3000, rows.shape[0])))
        b[::9] = rng.normal(size=b[::9].shape)                  # often an empty set
        b[::50, 1] = np.nan
        u0 = rng.normal(scale=2.0, size=(3000, 2))
        u0[25::50, 0] = np.nan
        for x in (u0, np.array([0.6, 1.0])):
            want = batch_projection(np.broadcast_to(x, u0.shape), rows, b)
            for (_, x_in), (_, b_in) in zip(layouts(x), layouts(b)):
                assert_same_bits(polygon.project(x_in, b_in), want)
            nan_rows = np.isnan(want).any(axis=1)
            assert 100 < nan_rows.sum() < 1500


def test_single_polygon_projection_on_floats_equals_the_array_reference_bit_for_bit():
    # A single problem settles a feasible u0 or its edge on floats;
    # oracles.one_state_projection is the same stages on numpy arrays. Same
    # bits at every stage, NaN and the sign of zero included, and the same
    # error for an empty set.
    rng = np.random.default_rng(2718)
    a = rng.normal(size=(7, 2))
    angles = 2.0 * np.pi * np.arange(1, 12) / 11
    stages = {}
    for rows in (np.vstack([a, -a[0]]), np.column_stack([np.cos(angles), np.sin(angles)])):
        polygon = PolygonRows(rows)
        for k in range(1500):
            b = rng.normal(size=2) @ polygon.a_t + np.abs(rng.normal(size=rows.shape[0]))
            if k % 9 == 0:
                b = rng.normal(size=rows.shape[0])            # often an empty set
            if k % 50 == 0:
                b[rng.integers(rows.shape[0])] = np.nan
            u0 = rng.normal(scale=2.0, size=2)
            if k % 50 == 25:
                u0[rng.integers(2)] = np.nan
            if k % 7 == 0:
                u0 = np.array([0.0, -0.0])
            want = outcome(lambda: one_state_projection(u0, rows, b))
            got = outcome(lambda: polygon.project(u0, b))
            if isinstance(want, Raised):
                assert got == want
                stages["empty"] = stages.get("empty", 0) + 1
                continue
            assert_same_bits(got, want[0])
            stages[want[1]] = stages.get(want[1], 0) + 1
    assert set(stages) == {"inside", "edge", "vertex", "nan", "empty"}, stages
    assert min(stages.values()) >= 10, stages


@pytest.mark.parametrize("n", [5, 11, 21, 51, 101])
def test_a_kept_row_product_is_every_column_of_the_batch_product_bit_for_bit(n):
    # A batch of one u0 reads A_L u0 as row_product gives it for one state
    # (dots) in place of its own product a U over the broadcast columns;
    # the two agree bit for bit at every basis size and batch width, and so
    # does the projection with and without dots, NaN rows included.
    rng = np.random.default_rng(n)
    angles = 2.0 * np.pi * np.arange(1, n + 1) / n
    polygon = PolygonRows(np.column_stack([np.cos(angles), np.sin(angles)]))
    for width in (1, 2, 3, 7, 64, 257, 1000, 4000):
        for scale in (1e-3, 1.0, 1e3):
            u0 = rng.normal(scale=scale, size=2)
            dots = row_product(u0, polygon.a_t)
            columns = columns_product(polygon.a, states_last(np.broadcast_to(u0, (width, 2))))
            assert columns.shape == (n, width)
            assert_same_bits(columns, np.repeat(dots[:, None], width, axis=1))
    # The vertex stage holds C(n, 2) vertices a state: 64 states keep it small.
    b = rng.normal(size=(64, 2)) @ polygon.a_t + np.abs(rng.normal(size=(64, n)))
    b[::5] = rng.normal(size=b[::5].shape)
    b[1::7, 0] = np.nan
    assert_same_bits(polygon.project(u0, b, dots=dots), polygon.project(u0, b))


def _regular_rows(n):
    angles = 2.0 * np.pi * np.arange(1, n + 1) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.mark.parametrize("n", [5, 11, 101])
def test_vertex_stage_finds_the_pair_vertex_references_point(n):
    # The vertex stage takes the nearest feasible end of the rows' edges;
    # oracles.nearest_pair_vertex is the stage as it was, the nearest
    # feasible vertex over every row pair. On the regular n-row basis, with
    # an antiparallel row added, and on its first two rows (an unbounded
    # set), both find a point for the same problems: none for an empty set
    # or a NaN offset. They give the same bits on generic polygons and agree
    # to within DEFAULT_TOL on single points (b = A c), where many pairs name
    # the one corner, each with its own rounding.
    rng = np.random.default_rng(3100 + n)
    basis = _regular_rows(n)
    for rows in (basis, np.vstack([basis, -basis[0]]), basis[:2]):
        k = 40
        anchors = rng.normal(size=(k, 2))
        b = anchors @ rows.T + np.abs(rng.normal(size=(k, rows.shape[0])))
        point = np.arange(k) % 4 == 1
        b[point] = anchors[point] @ rows.T
        if rows.shape[0] > 2:
            b[2::4] = anchors[2::4] @ rows.T - np.abs(rng.normal(size=b[2::4].shape)) - 0.1   # empty
        b[3::8, rng.integers(rows.shape[0])] = np.nan
        u0 = rng.normal(scale=3.0, size=(k, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, found = PolygonRows(rows)._nearest_vertices(u0.T.copy(), b.T.copy())
            want, want_found = (np.concatenate(parts) for parts in zip(
                *(nearest_pair_vertex(u0[s], rows, b[s]) for s in np.array_split(np.arange(k), 8))))
        got = got.T
        np.testing.assert_array_equal(found, want_found)
        np.testing.assert_array_equal(np.isnan(got).any(axis=1), ~found)
        assert_same_bits(got[~point], want[~point])
        np.testing.assert_allclose(got[point], want[point], rtol=0, atol=DEFAULT_TOL)
        assert found[point].all() and not found[3::8].any()
        assert found[0::4].all() and found[0::4].size >= 10
        if rows.shape[0] > 2:
            assert not found[2::4].any()


def test_vertex_stage_memory_is_quadratic_in_the_rows():
    # One 200-state call at 101 rows holds (rows, rows, states) arrays, not
    # one array per row pair and row: a tracemalloc peak of at most 64 MB.
    rng = np.random.default_rng(101)
    polygon = PolygonRows(_regular_rows(101))
    b = rng.normal(size=(200, 2)) @ polygon.a_t + np.abs(rng.normal(size=(200, 101)))
    u0 = rng.normal(scale=3.0, size=(2, 200))
    tracemalloc.start()
    try:
        found = polygon._nearest_vertices(u0, b.T.copy())[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.all()
    assert peak <= 64e6, peak


def test_vertex_stage_runs_in_blocks_of_bounded_memory(monkeypatch):
    # edge_ends takes its states in blocks whose largest temporaries hold
    # at most EDGE_END_BLOCK_ELEMENTS: blocks of 7 states give the ends and
    # flags of one pass over all 100 (the last block short), and a
    # 1,000-state call at 101 rows peaks at most 32 MB by tracemalloc (one
    # pass over every state takes about 200 MB).
    rng = np.random.default_rng(7)
    polygon = PolygonRows(_regular_rows(11))
    b = (rng.normal(size=(100, 2)) @ polygon.a_t + rng.normal(size=(100, 11))).T.copy()
    b[3, ::9] = np.nan
    whole = polygon._edge_ends(b)
    monkeypatch.setattr(qp_solver, "EDGE_END_BLOCK_ELEMENTS", 7 * 2 * 11 * 11)
    for got, want in zip(polygon.edge_ends(b), whole):
        assert_same_bits(got, want)
    monkeypatch.undo()
    polygon = PolygonRows(_regular_rows(101))
    b = (rng.normal(size=(1000, 2)) @ polygon.a_t + np.abs(rng.normal(size=(1000, 101)))).T.copy()
    tracemalloc.start()
    try:
        ok = polygon.edge_ends(b)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.any(axis=0).all()
    assert peak <= 32e6, peak
