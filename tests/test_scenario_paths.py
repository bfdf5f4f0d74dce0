import math

import numpy as np
import pytest

from safecascade import scenario
from safecascade.cascade import CascadeController, CascadeGains, SafetyLaw
from safecascade.certificates import CertificateSpec, Segment
from safecascade.qcqp_safety import rate_condition_audit
from safecascade.reshaping import make_positive_basis
from safecascade.scenario import DesignReport, build_scenario, parse_config_text
from safecascade.sim import (
    VelocityLoop,
    VtolNonlinear,
    run_closed_loop,
    trajectory_metrics,
)

from helpers import assert_same_bits, bundled_config
from oracles import rate_condition_by_loop

WALLS = [
    CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
    CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35),
]


def outer_law():
    basis = make_positive_basis(11)
    return SafetyLaw(WALLS, np.array([0.6, 1.0]), basis, 1.0, k_phi=2.0)


def test_velocity_loop_closed_loop_with_outer_law():
    controller = CascadeController(rho1=outer_law(), gains=None)
    plant = VelocityLoop()
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    traj = run_closed_loop(plant, controller, x0, horizon=2.0, dt=1e-3,
                           workspace=((-3.0, 6.0), (-0.5, 12.0)))
    assert traj.termination == "completed"
    mets = trajectory_metrics(traj, WALLS)
    assert np.isfinite(mets.max_virtual_speed)
    assert traj.states.shape == (2001, 8)


def test_vtol_nonlinear_closed_loop_mild_gains():
    # The nonlinear plant integrates explicitly, so only mild gains are
    # usable at millisecond steps; this exercises the flat-block wiring.
    gains = CascadeGains(tracking_slopes=(2.0, 4.0, 8.0), k1=3.49)
    controller = CascadeController(outer_law(), gains)
    plant = VtolNonlinear(gravity=9.81)
    flat = np.zeros(8)
    flat[:2] = [-2.0, 1.0]
    x0 = plant.state_from_flat(flat)
    traj = run_closed_loop(plant, controller, x0, horizon=0.5, dt=1e-3,
                           workspace=((-3.0, 6.0), (-0.5, 12.0)))
    assert traj.termination == "completed"
    assert np.all(np.isfinite(traj.states))


def test_vtol_thrust_singularity_flagged():
    # m = 1 on the VTOL is rejected; use the stepping flag directly through
    # a 4-level controller with no certificates.
    gains = CascadeGains(tracking_slopes=(1.0, 1.0, 1.0), k1=1.0)
    law = SafetyLaw((), np.array([0.0, -30.0]), None, 1.0, 0.0)
    controller = CascadeController(law, gains)
    plant = VtolNonlinear(gravity=9.81)
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
        np.testing.assert_array_equal(controller.rho1.evaluate(np.array(x))[0], [0.6, 1.0])


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
    # margin(V) = rate(frac V) - (theta V + V / gamma_w) with
    # frac = (2 - 1)/2, so lhs = 6 log1p(V/2) at level 1. The drift envelope
    # V/0.8 = 1.25 V keeps the condition holding; at gamma_w = 0.5 (2 V) it
    # fails.
    vs = np.linspace(2.0, 6.0, 200)
    for gamma_w, holds in ((0.8, True), (0.5, False)):
        report = rate_condition_audit(6.0, level=1.0, threshold=2.0, theta=1e-3, gamma_w_slope=gamma_w,
                                      v_max=6.0)
        margins = 6.0 * np.log1p(0.5 * vs) - (1e-3 * vs + vs / gamma_w)
        assert report.min_margin == pytest.approx(float(np.min(margins)), abs=1e-9)
        assert report.argmin_v == float(vs[np.argmin(margins)])
        assert report.holds is holds


def _matches_the_loop(k_alpha, level, threshold, theta, gamma_w_slope, v_max, grid):
    """The audit's report, after checking it against the per-point loop on
    a grid over [threshold, v_max]: the endpoints' least margin is at most
    the grid's (equal, bit for bit, on the two-point grid, which is the two
    endpoints), and the verdicts agree."""
    report = rate_condition_audit(k_alpha, level, threshold, theta, gamma_w_slope, v_max=v_max)
    want = rate_condition_by_loop(k_alpha, level, threshold, theta, gamma_w_slope, 0.0, v_max, grid)
    if grid == 2:
        assert_same_bits([report.min_margin, report.argmin_v], want)
    assert report.min_margin <= want[0] + 1e-14 * abs(want[0])
    assert report.holds is bool(want[0] >= 0.0)
    return report


# The constants derived level by level for vtol_safe.cfg (ROADMAP item 2):
# the rate condition holds there.
DERIVED_SET = {"cascade.k_tracking": "20.14, 1827, 1.503e7", "cascade.gamma_12_slope": "0.99",
               "rate.k_alpha": "5", "cascade.k1": "estimate"}


@pytest.mark.parametrize("name, keys, holds", [
    ("vtol_safe", {}, False),
    ("vtol_unsafe", {}, False),
    ("vtol_safe", DERIVED_SET, True),
], ids=["safe", "unsafe", "derived"])
def test_rate_condition_audit_of_a_config_matches_the_per_point_loop(monkeypatch, name, keys, holds):
    seen = []
    audit = scenario.rate_condition_audit
    monkeypatch.setattr(scenario, "rate_condition_audit",
                        lambda *args, **kwargs: seen.append((args, kwargs)) or audit(*args, **kwargs))
    lines = [line for line in bundled_config(name).read_text().splitlines()
             if line.split("=")[0].strip() not in keys]
    text = "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n"
    report = DesignReport(build_scenario(parse_config_text(text))).rate_condition
    (args, kwargs), = seen
    assert _matches_the_loop(*args, **kwargs, grid=10**5) == report
    assert report.holds is holds


@pytest.mark.parametrize("grid", [2, 3, 200, 10**4])
def test_rate_condition_audit_of_seeded_draws_matches_the_per_point_loop(grid):
    # Draws of (k_alpha, theta, gamma_12, level, threshold, v_max) across
    # scales, checked against the loop on a grid of each size; both
    # verdicts occur.
    rng = np.random.default_rng(grid)
    verdicts = set()
    for _ in range(40):
        k_alpha, theta, gamma_w, level = 10.0 ** rng.uniform([-1, -4, -1, -3], [2, 0, 1, 1])
        threshold = level * (1.0 + 10.0 ** rng.uniform(-2, 1))
        v_max = threshold * 10.0 ** rng.uniform(0.0, 3.0)
        verdicts.add(_matches_the_loop(k_alpha, level, threshold, theta, gamma_w, v_max, grid).holds)
    assert verdicts == {True, False}


def test_rate_condition_audit_reads_a_nan_margin_as_not_holding():
    # A NaN slope makes every margin NaN; at slope 6 the margin
    # 6 log1p(V/2) - (1e-3 V + V / 0.8) > 0 holds. The per-point loop
    # skipped NaN margins and read "holds".
    report = rate_condition_audit(math.nan, level=1.0, threshold=2.0, theta=1e-3, gamma_w_slope=0.8,
                                  v_max=6.0)
    assert math.isnan(report.min_margin) and not report.holds
    assert report.argmin_v == 2.0
    assert rate_condition_audit(6.0, level=1.0, threshold=2.0, theta=1e-3, gamma_w_slope=0.8,
                                v_max=6.0).holds
