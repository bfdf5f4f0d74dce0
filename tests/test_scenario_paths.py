import math

import numpy as np
import pytest

from safecascade.cascade import CascadeController, CascadeGains, gain_ledger
from safecascade.certificates import CertificateSpec, Segment, exp_alpha_bar_for_level
from safecascade.qcqp_safety import (
    PlantBounds,
    RateSpec,
    rate_condition_audit,
)
from safecascade.reshaping import make_positive_basis
from safecascade.cascade import safety_virtual_law, build_cascade_controller
from safecascade.scenario import build_scenario, parse_config_text
from safecascade.sim import (
    VelocityLoop,
    VtolNonlinear,
    run_closed_loop,
    trajectory_metrics,
)

from helpers import bundled_config

WALLS = [
    CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
    CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35),
]
UNIT_BOUNDS = PlantBounds(g_lower=1.0, g_upper=1.0, delta_upper=0.0)


def outer_law():
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rate = RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv)
    basis = make_positive_basis(2, 11)
    return safety_virtual_law(WALLS, lambda x: np.array([0.6, 1.0]), basis,
                              UNIT_BOUNDS, rate, k_phi=2.0)


def test_velocity_loop_closed_loop_with_outer_law():
    controller = CascadeController(rho1=outer_law(), tracking_laws=(), gains=None)
    plant = VelocityLoop()
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    traj = run_closed_loop(plant, controller, x0, horizon=2.0, dt=1e-3,
                           certs=WALLS, workspace=((-3.0, 6.0), (-0.5, 12.0)))
    assert traj.termination == "completed"
    mets = trajectory_metrics(traj, WALLS)
    assert np.isfinite(mets.max_virtual_speed)
    assert traj.states.shape == (2001, 8)


def test_vtol_nonlinear_closed_loop_mild_gains():
    # The nonlinear plant integrates explicitly, so only mild gains are
    # usable at millisecond steps; this exercises the flat-block wiring.
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rate = RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv)
    basis = make_positive_basis(2, 11)
    gains = CascadeGains(tracking_slopes=(2.0, 4.0, 8.0), k1=3.49)
    controller = build_cascade_controller(WALLS, lambda x: np.array([0.6, 1.0]),
                                          basis, gains, bounds=UNIT_BOUNDS,
                                          rates=rate, k_phi=2.0)
    plant = VtolNonlinear(gravity=9.81)
    flat = np.zeros(8)
    flat[:2] = [-2.0, 1.0]
    x0 = plant.state_from_flat(flat)
    traj = run_closed_loop(plant, controller, x0, horizon=0.5, dt=1e-3,
                           certs=WALLS, workspace=((-3.0, 6.0), (-0.5, 12.0)))
    assert traj.termination == "completed"
    assert np.all(np.isfinite(traj.states))


def test_vtol_thrust_singularity_flagged():
    controller = CascadeController(rho1=lambda x: np.array([0.0, -5.0]),
                                   tracking_laws=(), gains=None)
    # m = 1 on the VTOL is rejected; use the stepping flag directly through
    # a 4-level controller with zero laws.
    gains = CascadeGains(tracking_slopes=(1.0, 1.0, 1.0), k1=1.0)
    controller = build_cascade_controller([], lambda x: np.array([0.0, -30.0]),
                                          None, gains, bounds=UNIT_BOUNDS)
    plant = VtolNonlinear(gravity=9.81, thrust_floor=1e-2)
    flat = np.zeros(8)
    flat[5] = -9.7    # accelerate downward: thrust must pass near zero
    x0 = plant.state_from_flat(flat)
    traj = run_closed_loop(plant, controller, x0, horizon=5.0, dt=1e-3)
    assert traj.termination in ("thrust_singularity", "nonfinite_state")


def test_scenario_k1_estimate_path():
    text = (
        "plant.kind = integrator_chain\n"
        "plant.levels = 4\n"
        "obstacle.1.kind = segment\n"
        "obstacle.1.p1_m = -2.5, 0.5\n"
        "obstacle.1.p2_m = 2.5, 0.5\n"
        "obstacle.1.safe_distance_m = 0.35\n"
        "nominal.value = 0.6, 1.0\n"
        "cascade.k_tracking = 8.0, 320.0, 4.0e5\n"
        "cascade.k1 = estimate\n"
        "cascade.k1_grid = 40\n"
        "sim.workspace_m = -3.0, 3.0, -0.5, 3.0\n"
    )
    scenario = build_scenario(parse_config_text(text))
    assert scenario.k1_estimated
    assert scenario.gains.k1 > 0.0
    assert math.isfinite(scenario.gains.k1)


def test_outer_law_passes_nominal_far_from_every_obstacle():
    # |grad V . g| = V |grad h . g| falls below any absolute threshold once
    # the clearance passes about 20 m; the gradient test is relative to
    # |grad h|, so the law stays defined there.
    from safecascade.scenario import load_scenario
    controller = build_scenario(load_scenario(bundled_config("vtol_safe"))).controller
    for x in ([0.0, 21.5], [0.0, 25.0], [0.0, 100.0]):
        np.testing.assert_array_equal(controller.rho1(np.array(x)), [0.6, 1.0])


def test_scenario_rejects_wrong_gain_count():
    text = (
        "plant.kind = integrator_chain\n"
        "plant.levels = 4\n"
        "nominal.value = 0.6, 1.0\n"
        "cascade.k_tracking = 8.0, 320.0\n"
    )
    from safecascade.errors import ConfigError
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text(text))


def test_rate_condition_with_drift_envelopes():
    bounds = PlantBounds(g_lower=1.0, g_upper=1.0, delta_upper=0.0,
                         f_z=lambda s: 0.5 * s, f_x=lambda s: 0.2 * s)
    rate = RateSpec(base_slope=3.0)
    report = rate_condition_audit(rate, level=1.0, threshold=2.0, theta=1e-3,
                                  gamma_w_slope=4.0, bounds=bounds, v_max=6.0,
                                  gamma_z_inverse=lambda s: s / 2.0, x_norm=1.0)
    # At V: lhs = 3 * (V/2); rhs = 1e-3 V + V/4 + 0.5*(V/2) + 0.2*1.
    vs = np.linspace(2.0, 6.0, 200)
    margins = 1.5 * vs - (1e-3 * vs + vs / 4.0 + 0.25 * vs + 0.2)
    assert report.min_margin == pytest.approx(float(np.min(margins)), abs=1e-9)
    assert report.holds


def test_gain_ledger_slope_table_matches_hand_loops():
    gains = CascadeGains(tracking_slopes=(8.0, 320.0, 4.0e5), k1=3.49,
                         gamma_x2v_slope=0.25)
    ledger = gain_ledger(gains)
    by_level = {lvl.level: lvl for lvl in ledger.levels}
    lip = {1: 3.49, 2: 16.0, 3: 640.0, 4: 8.0e5}

    def kbar(p, i):
        if p > i:
            return 0.0
        out = 1.0
        for j in range(p, i + 1):
            out *= lip[j]
        return out

    for i in (2, 3, 4):
        lvl = by_level[i]
        assert lvl.alpha_rho0_slope == pytest.approx(kbar(1, i - 1), rel=1e-12)
        assert lvl.alpha_cert_slope == pytest.approx(kbar(1, i - 1) * 0.25, rel=1e-12)
        assert lvl.alpha_self_slope == pytest.approx(lip[i - 1], rel=1e-12)
        bigk = {2: 8.0, 3: 320.0, 4: 4.0e5}
        mids = tuple(kbar(j, i - 1) * bigk[j] + kbar(j - 1, i - 1) for j in range(2, i))
        assert lvl.alpha_mid_slopes == pytest.approx(mids, rel=1e-12)
