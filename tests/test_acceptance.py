"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them).

Frozen regression constants live next to the criterion that uses them.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from safecascade.cascade import CascadeController, CascadeGains, SafetyLaw, k_selection_audit
from safecascade.certificates import CertificateSpec, Segment
from safecascade.cli import (
    axis_slice_grid,
    cmd_run,
    gap_axis_closed_form,
    gap_discs,
    gap_raw_solution,
    gap_reshaped_solution,
    max_abs_slope,
)
from safecascade.errors import InfeasibleError
from safecascade.qcqp_safety import (
    ConstraintSet,
    build_constraint_set,
    disc_constraint_set,
    lipschitz_selection,
)
from safecascade.qp_solver import PolygonRows, Polyhedron, solve_projection_qp
from safecascade.reshaping import make_positive_basis, reshape_b_l, sample_polytope_2d
from safecascade.sim import IntegratorChain, run_closed_loop, trajectory_metrics

from helpers import bundled_config
from oracles import INFEASIBLE, project_by_face_enumeration

WALLS = [
    CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
    CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35),
]

# Criterion 4 frozen slope bounds for the reshaped axis slice, measured once
# at the stock grids and stable under refinement.
RESHAPED_SLOPE_BOUND_KPHI0 = 0.58
RESHAPED_SLOPE_BOUND_KPHI1 = 0.90


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


# ---------------------------------------------------------------------------

def test_criterion_1_qp_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    started = time.perf_counter()
    solved = infeasible = 0
    for _ in range(200):
        n_rows = int(rng.integers(1, 7))
        a = rng.uniform(-1.0, 1.0, size=(n_rows, 2))
        norms = np.linalg.norm(a, axis=1)
        a[norms < 0.1] += 0.5
        if rng.uniform() < 0.7:
            anchor = rng.normal(size=2)
            b = a @ anchor + np.abs(rng.normal(size=n_rows))
        else:
            b = rng.normal(size=n_rows)
        u0 = rng.normal(scale=2.0, size=2)
        expected = project_by_face_enumeration(u0, a, b)
        poly = Polyhedron(a, b)
        if expected is INFEASIBLE:
            with pytest.raises(InfeasibleError):
                solve_projection_qp(u0, poly)
            with pytest.raises(InfeasibleError):
                PolygonRows(a).project(u0, b)
            infeasible += 1
        else:
            got = solve_projection_qp(u0, poly).point
            assert np.max(np.abs(got - expected)) <= 1e-8
            exact = PolygonRows(a).project(u0, b)
            assert np.max(np.abs(exact - expected)) <= 1e-8
            solved += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert infeasible > 0
    report(1, "qp and polygon projection oracle equivalence",
           f"{solved} solved, {infeasible} infeasible, {elapsed:.2f}s")


def test_criterion_2_witness_feasibility_property():
    rng = np.random.default_rng(97531)
    violations = 0
    active = 0
    for _ in range(10_000):
        n_c = int(rng.integers(2, 4))
        ratio = float(rng.uniform(0.0, 0.8))
        slope = float(rng.uniform(0.2, 3.0))
        steep = (1.0 + ratio) / (1.0 - ratio)

        def rate(s):
            return slope * s if s >= 0 else slope * steep * s

        centers, radii = [], []
        while len(centers) < n_c:
            c = rng.uniform(-4.0, 4.0, size=2)
            r = float(rng.uniform(0.2, 1.2))
            if all(np.linalg.norm(c - c2) > r + r2 + 0.05
                   for c2, r2 in zip(centers, radii)):
                centers.append(c)
                radii.append(r)
        if rng.uniform() < 0.5:
            # Half the draws start inside an unsafe region so the nonzero
            # branch of the selection is exercised, not just the origin case.
            pick = int(rng.integers(0, n_c))
            angle = rng.uniform(0.0, 2.0 * math.pi)
            x = centers[pick] + radii[pick] * float(rng.uniform(0.0, 0.98)) \
                * np.array([math.cos(angle), math.sin(angle)])
        else:
            x = rng.uniform(-4.0, 4.0, size=2)
        signed = np.array([r - np.linalg.norm(x - c) for c, r in zip(centers, radii)])
        b = np.array([-rate(float(s)) for s in signed])
        rows = rng.normal(size=(n_c, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        cs = ConstraintSet(rows, b, ratio)
        w = lipschitz_selection(cs)
        if b.min() < 0.0:
            active += 1
            assert float(np.linalg.norm(w)) > 0.0
        if float(np.max(cs.violations(w))) > 1e-9:
            violations += 1
    assert violations == 0
    assert active > 4000
    report(2, "selection feasibility over 10^4 disjoint draws",
           f"0 violations, {active} active draws")


def _batch_membership(cs, points, tol=1e-9):
    lhs = points @ cs.a.T + np.linalg.norm(points, axis=1, keepdims=True) * cs.c
    return int(np.count_nonzero(np.any(lhs > cs.b[None, :] + tol, axis=1)))


def test_criterion_3_reshaping_sandwich():
    rng = np.random.default_rng(1001)
    outside = 0
    sets_checked = 0
    # Gap scenario at several states and both expansion weights.
    discs = gap_discs(0.99)
    basis5 = make_positive_basis(5)
    # The state (0.0, 0.1) sits inside the upper disc's unsafe set with a
    # nonzero selection anchor; the rest are safe-region states.
    for x_state in ((-1.6, 0.0), (-1.0, 0.0), (-0.4, 0.0), (0.8, 0.0), (0.0, 0.1)):
        cs = disc_constraint_set(discs, np.asarray(x_state))
        sel = lipschitz_selection(cs)
        for k_phi in (0.0, 1.0):
            poly = Polyhedron(basis5.a_l, reshape_b_l(sel, cs, basis5, k_phi))
            assert np.all(poly.a @ sel <= poly.b + 1e-9)
            pts = sample_polytope_2d(poly, 10_000, rng)
            outside += _batch_membership(cs, pts)
            sets_checked += 1
    # Wall scenario with the stock basis and expansion weight; (0.0, 0.45)
    # lies inside the low wall's inflated band (selection nonzero).
    basis11 = make_positive_basis(11)
    for x in ([-2.0, 1.0], [0.0, 1.2], [1.0, 1.1], [2.0, 2.6], [0.0, 0.45]):
        cs = build_constraint_set(np.asarray(x), WALLS, 0.0, 1.0)
        sel = lipschitz_selection(cs)
        poly = Polyhedron(basis11.a_l, reshape_b_l(sel, cs, basis11, 2.0))
        assert np.all(poly.a @ sel <= poly.b + 1e-9)
        pts = sample_polytope_2d(poly, 10_000, rng)
        outside += _batch_membership(cs, pts)
        sets_checked += 1
    assert outside == 0
    report(3, "reshaping sandwich", f"{sets_checked} sets x 10^4 samples, 0 outside")


def test_criterion_4_gap_slopes_and_closed_form():
    started = time.perf_counter()
    radius = 0.99
    discs = gap_discs(radius)
    basis = make_positive_basis(5)

    # Exact-arithmetic supremum of the raw axis slope: radius / (1 - radius).
    sup = Fraction(99, 100) / (1 - Fraction(99, 100))
    assert sup >= 99

    on_axis = lambda xs: np.column_stack([xs, np.zeros_like(xs)])
    grid = axis_slice_grid(radius)
    raw = np.linalg.norm(gap_raw_solution(discs, on_axis(grid)), axis=1)
    measured = max_abs_slope(grid, raw)
    # Finite differences approach the supremum from below; the refinement
    # down to 1e-8 leaves a bias well under 1e-3.
    assert measured >= 99.0 - 1e-3

    closed = np.array([gap_axis_closed_form(x, radius, basis.c_a) for x in grid])
    slopes = {}
    for k_phi in (0.0, 1.0):
        values = np.linalg.norm(gap_reshaped_solution(discs, basis, k_phi, on_axis(grid)), axis=1)
        active = closed < 1.0 - 1e-6
        assert np.count_nonzero(active) > 200
        if k_phi == 0.0:
            err = np.max(np.abs(values[active] - closed[active]))
        else:
            # The expansion bonus vanishes only where the binding row aligns
            # with a constraint normal beyond the effective coverage constant,
            # so the closed form applies on that subinterval.
            aligned = active & (grid <= -basis.c_a / math.sqrt(1 - basis.c_a**2) - 1e-6)
            assert np.count_nonzero(aligned) > 100
            err = np.max(np.abs(values[aligned] - closed[aligned]))
        assert err <= 1e-6
        slopes[k_phi] = max_abs_slope(grid, values)

        refined = axis_slice_grid(radius, points=3000)
        values_refined = np.linalg.norm(
            gap_reshaped_solution(discs, basis, k_phi, on_axis(refined)), axis=1)
        slope_refined = max_abs_slope(refined, values_refined)
        bound = RESHAPED_SLOPE_BOUND_KPHI0 if k_phi == 0.0 else RESHAPED_SLOPE_BOUND_KPHI1
        assert slopes[k_phi] <= bound
        assert slope_refined <= bound

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, "gap slope dichotomy",
           f"raw {measured:.4f} vs reshaped {slopes[0.0]:.4f}/{slopes[1.0]:.4f}, {elapsed:.1f}s")


def test_criterion_5_takeoff_dichotomy(tmp_path):
    started = time.perf_counter()
    safe_out = tmp_path / "safe"
    assert cmd_run(bundled_config("vtol_safe"), safe_out) == 0
    safe_elapsed = time.perf_counter() - started
    doc = json.loads((safe_out / "metrics.json").read_text())
    assert doc["trajectory"]["min_clearance"] >= 0.0
    assert doc["trajectory"]["termination"] == "completed"
    assert safe_elapsed < 30.0

    started = time.perf_counter()
    unsafe_out = tmp_path / "unsafe"
    assert cmd_run(bundled_config("vtol_unsafe"), unsafe_out) == 0
    unsafe_elapsed = time.perf_counter() - started
    doc_u = json.loads((unsafe_out / "metrics.json").read_text())
    assert doc_u["trajectory"]["min_clearance"] < 0.0
    assert doc_u["trajectory"]["first_crossing_time_s"] is not None
    assert unsafe_elapsed < 30.0
    report(5, "takeoff safe/unsafe dichotomy",
           f"safe {doc['trajectory']['min_clearance']:.4f} in {safe_elapsed:.1f}s, "
           f"unsafe {doc_u['trajectory']['min_clearance']:.4f} in {unsafe_elapsed:.1f}s")


def test_criterion_6_gain_ledger_regression():
    gains = CascadeGains(tracking_slopes=(8.0, 320.0, 4.0e5), k1=3.49,
                         tau=1.001, theta=0.001,
                         gamma_12_slope=4.0, gamma_x2v_slope=0.25)
    assert gains.kbar(2, 2) == 16.0
    assert gains.kbar(1, 2) == pytest.approx(55.84, abs=1e-12)
    margins = {lm.level: lm for lm in k_selection_audit(gains)}
    # Independent arithmetic for every level.
    expect = {}
    kbar11 = 3.49
    expect[2] = 8.0 - (0.001 + 1.001 + kbar11 * 1.001
                       + kbar11 * 0.25 * 1.001 / 4.0 + 3.49)
    kbar12, kbar22 = 3.49 * 16.0, 16.0
    expect[3] = 320.0 - (0.001 + 1.001 + kbar12 * 1.001 + kbar12 * 0.25 * 1.001 / 4.0
                         + (kbar22 * 8.0 + kbar12) * 1.001 + 2.0 * 8.0)
    kbar13, kbar23, kbar33 = 3.49 * 16.0 * 640.0, 16.0 * 640.0, 640.0
    expect[4] = 4.0e5 - (0.001 + 1.001 + kbar13 * 1.001 + kbar13 * 0.25 * 1.001 / 4.0
                         + (kbar23 * 8.0 + kbar13) * 1.001
                         + (kbar33 * 320.0 + kbar23) * 1.001 + 2.0 * 320.0)
    for level in (2, 3, 4):
        assert margins[level].margin == pytest.approx(expect[level], abs=1e-9)
    assert margins[3].margin > 0.0
    assert margins[4].margin > 0.0
    # Level 2 is recorded under the documented reading (the self channel
    # carries the estimated outer constant); no sign assertion.
    report(6, "gain ledger regression",
           f"margins 2..4: {margins[2].margin:+.4f} {margins[3].margin:+.4f} "
           f"{margins[4].margin:+.4f}")


def test_criterion_7_numerical_hygiene(tmp_path):
    # Analytic certificate gradients against central differences, off the
    # branch boundaries.
    from safecascade.certificates import eval_segment
    from safecascade.errors import ZeroGradientError
    rng = np.random.default_rng(13)
    eps = 1e-5
    checked = 0
    for _ in range(400):
        x = rng.uniform(-3.5, 3.5, size=2)
        cert = WALLS[int(rng.integers(0, 2))]
        try:
            ev = eval_segment(cert, x)
        except ZeroGradientError:
            continue
        seg = cert.geometry
        base = seg.o2 - seg.o1
        if min(abs(float((x - seg.o1) @ base)), abs(float((x - seg.o2) @ (seg.o1 - seg.o2)))) < 1e-3:
            continue
        if abs(ev.h + cert.safe_distance) < 1e-3:
            continue
        fd = np.array([
            (eval_segment(cert, x + [eps, 0]).h - eval_segment(cert, x - [eps, 0]).h) / (2 * eps),
            (eval_segment(cert, x + [0, eps]).h - eval_segment(cert, x - [0, eps]).h) / (2 * eps),
        ])
        assert np.max(np.abs(ev.grad_h - fd)) <= 1e-6
        checked += 1
    assert checked > 150

    # Integration order on the smooth nonlinear plant.
    from safecascade.sim import VtolNonlinear
    plant = VtolNonlinear(gravity=9.81)
    x0 = np.array([0.0, 0.0, 0.2, -0.1, 0.05, 0.02, 9.0, 0.3])
    u = np.array([1.3, -0.8])

    def endpoint(dt):
        state = x0.copy()
        for _ in range(int(round(0.5 / dt))):
            state = plant.step(state, u, dt)
        return state

    ref = endpoint(0.0025)
    e1 = np.linalg.norm(endpoint(0.02) - ref)
    e2 = np.linalg.norm(endpoint(0.01) - ref)
    order = math.log2(e1 / e2)
    assert 3.5 <= order <= 4.5

    # Determinism: identical inputs, bit-identical CSV bytes.
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert cmd_run(bundled_config("vtol_safe"), out1, horizon=0.5) == 0
    assert cmd_run(bundled_config("vtol_safe"), out2, horizon=0.5) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    report(7, "numerical hygiene",
           f"{checked} gradient checks, order {order:.2f}, deterministic csv")


def test_criterion_8_single_level_decay():
    basis = make_positive_basis(11)
    law = SafetyLaw(WALLS, np.array([0.6, 1.0]), basis, 0.0, 1.0, k_phi=2.0)
    controller = CascadeController(rho1=law, gains=None)
    plant = IntegratorChain(m=1)
    dt = 1e-3
    threshold = 1.4
    x0 = np.array([0.0, 0.51])   # inside the low wall's inflated band
    traj = run_closed_loop(plant, controller, x0, horizon=2.0, dt=dt)
    v = traj.margins_v[:, 1]
    assert v[0] > threshold
    below = np.flatnonzero(v < threshold)
    assert below.size > 0
    first_below = int(below[0])
    steps_above = np.diff(v[: first_below + 1])
    worst_increase = float(np.max(steps_above, initial=0.0))
    assert worst_increase <= 10.0 * dt * dt
    report(8, "single-level decay",
           f"V falls {v[0]:.4f} -> {threshold} in {first_below} steps, "
           f"worst step increase {worst_increase:.2e}")
