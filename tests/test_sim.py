import math
import warnings

import numpy as np
import pytest

from safecascade.cascade import CascadeController, CascadeGains, SafetyLaw
from safecascade.certificates import CertificateSpec, Segment, certificate_value
from safecascade.errors import NonFiniteStateError, ThrustSingularityError
from safecascade.qp_solver import PolygonRows
from safecascade.reshaping import make_positive_basis
from safecascade.sim import (
    IntegratorChain,
    VelocityLoop,
    VtolNonlinear,
    exact_cascade_step_matrices,
    expm,
    run_closed_loop,
    trajectory_metrics,
)

WALLS = [
    CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
    CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35),
]


def wall_law():
    return SafetyLaw(WALLS, np.array([0.6, 1.0]), make_positive_basis(11), 1.0, k_phi=2.0)


def wall_controller(slopes):
    return CascadeController(wall_law(), CascadeGains(tracking_slopes=slopes, k1=3.49))


def free_controller(slopes, nominal=(0.6, 1.0)):
    law = SafetyLaw((), nominal, None, 1.0, 0.0)
    return CascadeController(law, CascadeGains(tracking_slopes=slopes, k1=1.0))


# ---------------------------------------------------------------- steppers

def test_double_integrator_at_rest_stays_put():
    plant = IntegratorChain(m=2)
    state = np.zeros(4)
    for _ in range(100):
        state = plant.step(state, np.zeros(2), 1e-2)
    np.testing.assert_allclose(state, np.zeros(4), atol=1e-15)


def test_chain_matches_polynomial_flow():
    # Constant input on the 4-chain: x1(t) = u t^4 / 24 exactly (the chain
    # is nilpotent, so one RK4 step reproduces the exact flow).
    plant = IntegratorChain(m=4)
    u = np.array([0.3, -1.1])
    dt, steps = 1e-3, 1000
    state = np.zeros(8)
    for _ in range(steps):
        state = plant.step(state, u, dt)
    t = dt * steps
    np.testing.assert_allclose(state[:2], u * t**4 / 24.0, atol=1e-10)
    np.testing.assert_allclose(state[2:4], u * t**3 / 6.0, atol=1e-10)
    np.testing.assert_allclose(state[6:8], u * t, atol=1e-10)


def test_vtol_hover_is_equilibrium():
    plant = VtolNonlinear(gravity=9.81)
    hover = np.array([0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 9.81, 0.0])
    state = hover.copy()
    for _ in range(200):
        state = plant.step(state, np.zeros(2), 1e-3)
    np.testing.assert_allclose(state, hover, atol=1e-12)


def test_vtol_fourth_derivative_tracks_command():
    # The linearizing feedback makes the position's fourth time derivative
    # equal the commanded input; recover it by finite differences.
    plant = VtolNonlinear(gravity=9.81)
    u = np.array([0.7, -0.4])
    dt = 1e-4
    state = np.array([0.0, 0.0, 0.1, -0.05, 0.02, 0.01, 9.5, 0.1])
    sample_every = 100                      # 0.01 s
    positions = [state[:2].copy()]
    for step in range(1, 4 * sample_every + 1):
        state = plant.step(state, u, dt)
        if step % sample_every == 0:
            positions.append(state[:2].copy())
    h = dt * sample_every
    p = np.asarray(positions)
    fourth = (p[4] - 4 * p[3] + 6 * p[2] - 4 * p[1] + p[0]) / h**4
    np.testing.assert_allclose(fourth, u, rtol=2e-3, atol=2e-3)


def test_vtol_thrust_singularity_guard():
    plant = VtolNonlinear(gravity=9.81)
    state = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-6, 0.0])
    with pytest.raises(ThrustSingularityError):
        plant.step(state, np.zeros(2), 1e-3)


@pytest.mark.parametrize("state", [
    [0.0, 0.0, 0.0, 0.0, math.inf, 0.0, 9.81, 0.0],    # math.sin(inf) is a domain error
    [0.0, 0.0, 0.0, 0.0, 0.0, 1e200, 9.81, 1e200],     # omega * omega overflows
])
def test_vtol_step_stops_at_a_nonfinite_stage(state):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError):
            VtolNonlinear(gravity=9.81).step(np.array(state), np.zeros(2), 1e-3)


def test_velocity_loop_stage_equilibrium():
    # With the reference matched and the internal stages at zero, the
    # velocity states sit still while the position integrates.
    plant = VelocityLoop()
    ref = np.array([0.4, -0.2])
    state = np.concatenate([[0.0, 0.0], ref, np.zeros(4)])
    for _ in range(500):
        state = plant.step(state, ref, 1e-3)
    np.testing.assert_allclose(state[2:4], ref, atol=1e-12)
    np.testing.assert_allclose(state[4:], np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(state[:2], ref * 0.5, atol=1e-9)


def test_velocity_loop_unit_dc_gain():
    plant = VelocityLoop()
    ref = np.array([1.0, 1.0])
    state = np.zeros(8)
    for _ in range(60_000):
        state = plant.step(state, ref, 1e-3)
    np.testing.assert_allclose(state[2:4], ref, atol=1e-4)


def test_velocity_loop_poles_are_stable():
    plant = VelocityLoop()
    for axis in range(2):
        t2, t3, t4 = plant.t2[axis], plant.t3[axis], plant.t4[axis]
        companion = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-t4 * t3 * t2, -t4 * t3, -t4],
        ])
        assert np.all(np.linalg.eigvals(companion).real < 0)


def test_rk4_convergence_order_on_vtol():
    # Richardson slope between dt and dt/2 runs against a dt/8 reference;
    # the VTOL flow is smooth and genuinely nonlinear so the classical
    # fourth order shows.
    plant = VtolNonlinear(gravity=9.81)
    x0 = np.array([0.0, 0.0, 0.2, -0.1, 0.05, 0.02, 9.0, 0.3])
    u = np.array([1.3, -0.8])

    def endpoint(dt):
        state = x0.copy()
        for _ in range(int(round(0.5 / dt))):
            state = plant.step(state, u, dt)
        return state

    ref = endpoint(0.02 / 8)
    e1 = np.linalg.norm(endpoint(0.02) - ref)
    e2 = np.linalg.norm(endpoint(0.01) - ref)
    order = math.log2(e1 / e2)
    assert 3.5 <= order <= 4.5


def test_flat_map_roundtrip():
    plant = VtolNonlinear(gravity=9.81)
    state = np.array([0.3, 1.2, -0.4, 0.6, 0.12, -0.2, 8.7, 0.5])
    flat = plant.flat_state(state)
    back = plant.state_from_flat(flat)
    np.testing.assert_allclose(back, state, atol=1e-12)


def test_feedback_linearization_consistency_with_chain():
    # Drive the nonlinear VTOL (through the linearizing feedback) and the
    # flat 4-chain with the same piecewise-constant input from the same flat
    # state; the positions agree to integration accuracy.
    plant = VtolNonlinear(gravity=9.81)
    chain = IntegratorChain(m=4)
    dt, steps = 1e-3, 1000
    vtol_state = np.array([0.0, 0.0, 0.3, 0.2, 0.05, -0.1, 9.81, 0.2])
    chain_state = plant.flat_state(vtol_state)
    worst = 0.0
    for k in range(steps):
        u = np.array([math.sin(0.7 * k * dt), 0.5 * math.cos(1.3 * k * dt)])
        vtol_state = plant.step(vtol_state, u, dt)
        chain_state = chain.step(chain_state, u, dt)
        worst = max(worst, float(np.linalg.norm(vtol_state[:2] - chain_state[:2])))
    assert worst <= 1e-8


def test_exact_cascade_step_matches_analytic_stiff_solution():
    # Two-level cascade, scalar per axis: dx1 = x2, dx2 = -K (x2 - ref).
    # Analytic flow: x2(t) = ref + (x2_0 - ref) e^{-Kt},
    # x1(t) = x1_0 + ref t + (x2_0 - ref)(1 - e^{-Kt})/K. At K = 4e5 and
    # dt = 1e-3 the decaying mode underflows to zero; the exact step must
    # reproduce that, which no explicit stepper can.
    big_k = 4.0e5
    dt = 1e-3
    e_mat, f_vec = exact_cascade_step_matrices((big_k,), dt)
    x1_0, x2_0, ref = 0.7, -0.3, 1.1
    decay = math.exp(-big_k * dt)
    expect_x2 = ref + (x2_0 - ref) * decay
    expect_x1 = x1_0 + ref * dt + (x2_0 - ref) * (1.0 - decay) / big_k
    got = e_mat @ np.array([x1_0, x2_0]) + f_vec * ref
    assert got[0] == pytest.approx(expect_x1, rel=1e-12)
    assert got[1] == pytest.approx(expect_x2, rel=1e-12, abs=1e-15)
    # Mild-gain cross-check against brute-force RK4 substepping of the same
    # frozen-reference system.
    e_mat, f_vec = exact_cascade_step_matrices((3.0, 7.0), 0.05)
    state = np.array([1.0, -2.0, 0.5])
    ref = 0.8
    sub = state.copy()
    n_sub, h = 500, 0.05 / 500

    def deriv(s):
        u = -7.0 * (s[2] - (-3.0 * (s[1] - ref)))
        return np.array([s[1], s[2], u])

    for _ in range(n_sub):
        k1 = deriv(sub)
        k2 = deriv(sub + 0.5 * h * k1)
        k3 = deriv(sub + 0.5 * h * k2)
        k4 = deriv(sub + h * k3)
        sub = sub + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    got = e_mat @ state + f_vec * ref
    np.testing.assert_allclose(got, sub, atol=1e-10)


def test_exact_cascade_step_matches_rk4_when_stable():
    # For mild gains both integration routes resolve the same closed loop.
    slopes = (2.0, 3.0)
    e_mat, f_vec = exact_cascade_step_matrices(slopes, 1e-3)
    gains = CascadeGains(tracking_slopes=slopes, k1=1.0)
    controller = free_controller(slopes, nominal=(0.3, -0.5))
    plant = IntegratorChain(m=3)
    state = np.zeros(6)
    state[:2] = [1.0, -1.0]
    state_rk = state.copy()
    for _ in range(2000):
        ev = controller.evaluate([state[0:2], state[2:4], state[4:6]])
        fresh = state.copy()
        for axis in range(2):
            idx = np.arange(axis, 6, 2)
            fresh[idx] = e_mat @ state[idx] + f_vec * ev.x_stars[0][axis]
        state = fresh
        ev_rk = controller.evaluate([state_rk[0:2], state_rk[2:4], state_rk[4:6]])
        state_rk = plant.step(state_rk, ev_rk.u, 1e-3)
    np.testing.assert_allclose(state, state_rk, atol=5e-4)


def test_closed_loop_exact_step_matches_per_axis_reference():
    # run_closed_loop applies the exact flow to all axes as one
    # (m x m) @ (m x d) product; the reference is the per-axis product
    # E x_axis + F x2*_axis. Only the summation order may differ, so the
    # match is to a few ulps of each entry's magnitude.
    plant = IntegratorChain(m=4)
    slopes = (8.0, 320.0, 4.0e5)
    controller = wall_controller(slopes)
    e_mat, f_vec = exact_cascade_step_matrices(slopes, 1e-3)
    x0 = np.random.default_rng(3).normal(scale=0.1, size=8)
    x0[:2] = [-2.0, 1.0]
    traj = run_closed_loop(plant, controller, x0, horizon=0.005, dt=1e-3)
    for k in range(traj.times.shape[0] - 1):
        state, x2_star = traj.states[k], traj.virtual_controls[k, :2]
        ref = np.empty(8)
        scale = np.empty(8)
        for axis in range(2):
            idx = np.arange(axis, 8, 2)
            ref[idx] = e_mat @ state[idx] + f_vec * x2_star[axis]
            scale[idx] = np.abs(e_mat) @ np.abs(state[idx]) + np.abs(f_vec * x2_star[axis])
        assert np.all(np.abs(traj.states[k + 1] - ref) <= 8 * np.finfo(float).eps * scale), k


def _step_block(slopes, dt):
    """The input-augmented block whose exponential is the exact step:
    x' = A x + B x2* with the chain under proportional tracking."""
    m = 1 + len(slopes)
    block = np.zeros((m + 1, m + 1))
    block[np.arange(m - 1), np.arange(1, m)] = 1.0
    coeffs, star = np.zeros(m), 1.0
    for level, big_k in enumerate(slopes, start=2):
        coeffs, star = coeffs * big_k, star * big_k
        coeffs[level - 1] -= big_k
    block[m - 1, :m] = coeffs
    block[m - 1, m] = star
    return block * dt


@pytest.mark.parametrize("dt", [1e-5, 1e-3, 1e-2])
@pytest.mark.parametrize("slopes", [(8.0, 320.0, 4.0e5), (8.0, 8.0, 8.0), (320.0, 4.0e5, 8.0),
                                    (17.61, 1397.0, 8.793e6)])
def test_expm_matches_scipy_on_the_step_blocks(slopes, dt):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    block = _step_block(slopes, dt)
    got, ref = expm(block), scipy_linalg.expm(block)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    m = len(slopes) + 1
    e_mat, f_vec = exact_cascade_step_matrices(slopes, dt)
    np.testing.assert_array_equal(e_mat, got[:m, :m])
    np.testing.assert_array_equal(f_vec, got[:m, m])


def test_exact_step_obeys_the_semigroup_law():
    # Two steps of dt are one step of 2 dt: E(2dt) = E(dt)^2 and
    # F(2dt) = E(dt) F(dt) + F(dt), each entry to within 1e-12 of the
    # magnitudes that form it.
    slopes = (8.0, 320.0, 4.0e5)
    e1, f1 = exact_cascade_step_matrices(slopes, 1e-3)
    e2, f2 = exact_cascade_step_matrices(slopes, 2e-3)
    assert np.all(np.abs(e2 - e1 @ e1) <= 1e-12 * (np.abs(e1) @ np.abs(e1)))
    assert np.all(np.abs(f2 - (e1 @ f1 + f1)) <= 1e-12 * (np.abs(e1) @ np.abs(f1) + np.abs(f1)))


# ------------------------------------------------------------- closed loop

@pytest.mark.parametrize("plant", [IntegratorChain(m=4), VtolNonlinear(gravity=9.81), VelocityLoop()],
                         ids=["chain", "vtol", "velocity_loop"])
def test_plant_interface(plant):
    x1 = np.array([-2.0, 1.0])
    state = plant.initial_state(x1)
    assert state.shape == (plant.state_dim,)
    blocks = plant.blocks(state)
    assert len(blocks) == plant.levels
    np.testing.assert_array_equal(blocks[0], x1)
    for block in blocks[1:]:
        np.testing.assert_array_equal(block, np.zeros(2))
    if isinstance(plant, VtolNonlinear):
        assert state[6] == plant.gravity    # hover thrust
    # At rest: a zero input holds the initial state.
    np.testing.assert_allclose(plant.step(state, np.zeros(2), 1e-3), state, rtol=0.0, atol=1e-12)
    # No plant here takes two levels; the mismatch names the plant.
    with pytest.raises(ValueError, match=f"{type(plant).__name__} takes {plant.levels} "):
        run_closed_loop(plant, free_controller((8.0,)), state, horizon=0.01, dt=1e-3)


def test_zero_obstacles_drift_along_nominal():
    controller = free_controller((8.0, 320.0, 4.0e5))
    plant = IntegratorChain(m=4)
    traj = run_closed_loop(plant, controller, np.zeros(8), horizon=3.0, dt=1e-3)
    displacement = traj.states[-1][:2]
    direction = displacement / np.linalg.norm(displacement)
    nominal_dir = np.array([0.6, 1.0]) / np.linalg.norm([0.6, 1.0])
    assert float(direction @ nominal_dir) > 0.995
    assert traj.termination == "completed"


def test_workspace_exit_terminates_early():
    controller = free_controller((8.0, 320.0, 4.0e5))
    plant = IntegratorChain(m=4)
    traj = run_closed_loop(plant, controller, np.zeros(8), horizon=10.0, dt=1e-3,
                           workspace=((-1.0, 1.0), (-1.0, 1.0)))
    assert traj.termination == "left_workspace"
    assert traj.times[-1] < 10.0


def test_wall_scenario_safe_and_unsafe_dichotomy_short():
    plant = IntegratorChain(m=4)
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    safe = run_closed_loop(plant, wall_controller((8.0, 320.0, 4.0e5)), x0,
                           horizon=2.0, dt=1e-3, workspace=((-3.0, 6.0), (-0.5, 12.0)))
    mets = trajectory_metrics(safe, WALLS)
    assert mets.min_clearance >= 0.0
    assert mets.termination == "completed"


def test_metrics_empty_certificates_use_null_sentinel():
    controller = free_controller((8.0,))
    plant = IntegratorChain(m=2)
    traj = run_closed_loop(plant, controller, np.zeros(4), horizon=0.5, dt=1e-3)
    mets = trajectory_metrics(traj, [])
    assert mets.min_clearance is None
    assert mets.min_clearance_per_certificate == ()
    assert mets.first_crossing_time is None


def test_trajectory_grid_is_uniform_and_finite():
    controller = wall_controller((8.0, 320.0, 4.0e5))
    plant = IntegratorChain(m=4)
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    traj = run_closed_loop(plant, controller, x0, horizon=0.25, dt=1e-3)
    assert traj.times.shape[0] == 251
    np.testing.assert_allclose(np.diff(traj.times), 1e-3, atol=1e-15)
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.isfinite(traj.inputs))
    assert traj.margins_h.shape == (251, 2)


def test_single_integrator_decay_outside_threshold():
    # Relative-degree-one run from inside the inflated band: with zero
    # disturbances the certificate value must fall until it re-enters the
    # threshold sublevel set.
    controller = CascadeController(rho1=wall_law(), gains=None)
    plant = IntegratorChain(m=1)
    x0 = np.array([0.0, 0.51])            # 0.01 m above the low wall spine
    threshold = 1.4
    traj = run_closed_loop(plant, controller, x0, horizon=2.0, dt=1e-3)
    v_low = traj.margins_v[:, 1]
    assert v_low[0] > threshold
    below = np.flatnonzero(v_low < threshold)
    assert below.size > 0
    first_below = below[0]
    increases = np.diff(v_low[: first_below + 1])
    assert np.max(increases, initial=0.0) <= 10.0 * (1e-3) ** 2


# ------------------------------------------------------------ margin reuse

def _counting_certificate_value(monkeypatch):
    from safecascade import sim
    calls = []
    original = sim.certificate_value

    def counted(cert, x):
        calls.append(cert)
        return original(cert, x)
    monkeypatch.setattr(sim, "certificate_value", counted)
    return calls


def _assert_margins_are_certificate_values(traj, certs):
    # A batch of one: a single point gives the same bits, but raises on a spine.
    for k, state in enumerate(traj.states):
        for j, cert in enumerate(certs):
            ev = certificate_value(cert, state[None, :2])
            assert traj.margins_h[k, j] == ev.h[0] and traj.margins_v[k, j] == ev.v[0], (k, j)


def test_margins_reuse_the_controllers_certificate_values(monkeypatch):
    # The margins are those of the outer law's certificates, from the
    # controller's evaluation, bit for bit what certificate_value gives at
    # x_1, and the simulator evaluates nothing itself.
    calls = _counting_certificate_value(monkeypatch)
    plant = IntegratorChain(m=4)
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    controller = wall_controller((8.0, 320.0, 4.0e5))
    traj = run_closed_loop(plant, controller, x0, horizon=0.2, dt=1e-3)
    assert traj.termination == "completed" and traj.times.shape[0] == 201
    assert calls == []
    _assert_margins_are_certificate_values(traj, WALLS)


def test_margins_on_a_left_workspace_final_row(monkeypatch):
    calls = _counting_certificate_value(monkeypatch)
    plant = IntegratorChain(m=4)
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    traj = run_closed_loop(plant, wall_controller((8.0, 320.0, 4.0e5)), x0, horizon=2.0,
                           dt=1e-3, workspace=((-3.0, 6.0), (-0.5, 1.02)))
    assert traj.termination == "left_workspace"
    assert traj.states[-1][1] > 1.02 and traj.states.shape[0] > 2
    # Only the final row, where the controller was not evaluated.
    assert calls == list(WALLS)
    np.testing.assert_array_equal(traj.inputs[-1], 0.0)
    _assert_margins_are_certificate_values(traj, WALLS)


def test_margins_on_a_controller_error_final_row(monkeypatch):
    # A start on the low wall's spine: the outer law's gradient is undefined
    # there, so the controller raises at the first step, and the simulator
    # records that row's margins from a batch of one, finite on the spine.
    calls = _counting_certificate_value(monkeypatch)
    x0 = np.zeros(8)
    x0[:2] = [0.0, 0.5]
    traj = run_closed_loop(IntegratorChain(m=4), wall_controller((8.0, 320.0, 4.0e5)), x0,
                           horizon=2.0, dt=1e-3)
    assert traj.termination == "controller_error: ZeroGradientError"
    assert traj.times.shape[0] == 1
    assert calls == list(WALLS)
    np.testing.assert_array_equal(traj.inputs[-1], 0.0)
    assert traj.margins_h[0, 1] == -0.35 and np.isfinite(traj.margins_h).all()
    _assert_margins_are_certificate_values(traj, WALLS)


def test_closed_loop_reaches_the_vertex_stage_every_step_and_builds_no_polygon(monkeypatch):
    # From (1.25, 1.9) toward the stock nominal every step reaches the
    # projection's vertex stage, which reads the tables the basis's
    # PolygonRows built with the law: a 50-step loop builds no PolygonRows.
    builds, vertex_stages = [], []
    init, edge_ends = PolygonRows.__init__, PolygonRows.edge_ends
    monkeypatch.setattr(PolygonRows, "__init__", lambda self, a: builds.append(a) or init(self, a))
    monkeypatch.setattr(PolygonRows, "edge_ends",
                        lambda self, b: vertex_stages.append(b) or edge_ends(self, b))
    controller = wall_controller((8.0, 320.0, 4.0e5))
    assert len(builds) == 1
    x0 = np.zeros(8)
    x0[:2] = [1.25, 1.9]
    traj = run_closed_loop(IntegratorChain(m=4), controller, x0, horizon=0.05, dt=1e-3,
                           workspace=((-3.0, 6.0), (-0.5, 12.0)))
    assert traj.termination == "completed" and traj.times.shape[0] == 51
    assert len(vertex_stages) == 51
    assert len(builds) == 1
