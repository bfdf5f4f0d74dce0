import warnings

import numpy as np
import pytest

from safecascade.errors import InfeasibleError
from safecascade.qp_solver import PolygonRows, Polyhedron, solve_projection_qp

from helpers import assert_same_bits
from oracles import INFEASIBLE, project_by_face_enumeration


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
            if np.all(poly.violations(v) <= 0):
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
        assert np.all(poly.violations(sol.point) <= 1e-9)
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
    vertices = polygon.vertices
    polygon.vertices = lambda b: vertex_calls.append(b.shape) or vertices(b)
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
