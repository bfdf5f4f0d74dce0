"""The benchmark's per-layer trace hooks against the package's module names.

``benchmarks/workloads.py:install_trace`` rebinds names that the package's
modules import (``qcqp_safety.eval_segment``, ``sim.certificate_value``, ...).
A refactor that drops or renames one of them breaks the traced benchmark
run, so the hooks are installed and removed here, in the test suite.
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from tracing import Tracer  # noqa: E402
from workloads import install_trace  # noqa: E402

from safecascade import cascade, qcqp_safety, scenario, sim  # noqa: E402
from safecascade.cascade import CascadeGains, build_cascade_controller  # noqa: E402
from safecascade.certificates import CertificateSpec, Disc, Segment, exp_alpha_bar_for_level  # noqa: E402
from safecascade.qcqp_safety import PlantBounds, RateSpec  # noqa: E402
from safecascade.reshaping import make_positive_basis  # noqa: E402


def test_trace_hooks_install_record_and_restore():
    originals = (sim.certificate_value, qcqp_safety.eval_segment, qcqp_safety.eval_disc)
    wall = CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)
    disc = CertificateSpec(Disc([0.0, 3.0], 0.5))
    x = np.array([0.0, 1.5])
    tracer = Tracer()
    install_trace(tracer)
    try:
        # The constraint set evaluates its certificates through the rebound
        # module names, so both geometries show up as certificate spans.
        qcqp_safety.build_constraint_set(
            x, [wall, disc], np.eye(2), PlantBounds(1.0, 1.0), RateSpec(base_slope=1.0))
        sim.certificate_value(wall, x)
    finally:
        tracer.restore()
    called = {tracer.names[i] for i in tracer.arrays()["name_id"]}
    assert {"certificates.eval_segment", "certificates.eval_disc",
            "certificates.certificate_value"} <= called
    assert (sim.certificate_value, qcqp_safety.eval_segment, qcqp_safety.eval_disc) == originals


def test_traced_batched_law_and_single_evaluate():
    # The k1 estimate hands the law a whole grid row, and the hooks wrap
    # names the law calls (cascade.build_constraint_set, ...) or must not
    # see a batch (the selection counter reads one state's selection). A
    # traced 5 x 5 estimate and one traced controller step must run.
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    rate = RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv)
    basis = make_positive_basis(2, 11)
    walls = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
             CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)]
    gains = CascadeGains(tracking_slopes=(8.0, 320.0, 4.0e5), k1=3.49)
    tracer = Tracer()
    install_trace(tracer)
    try:
        controller = build_cascade_controller(
            walls, lambda x: np.array([0.6, 1.0]), basis, gains,
            bounds=PlantBounds(1.0, 1.0), rates=rate, k_phi=2.0)
        k1 = scenario.estimate_safety_law_lipschitz(
            controller.rho1, walls, ((-3.0, 6.0), (-0.5, 12.0)), grid=5)
        ev = controller.evaluate([np.array([-2.0, 1.0]), np.zeros(2), np.zeros(2), np.zeros(2)])
    finally:
        tracer.restore()
    assert k1 > 0.0
    assert np.all(np.isfinite(ev.u))
    called = {tracer.names[i] for i in tracer.arrays()["name_id"]}
    assert {"certificates.eval_segment", "qcqp_safety.build_constraint_set",
            "reshaping.reshaped_filter", "cascade.CascadeController.evaluate",
            "scenario.estimate_safety_law_lipschitz"} <= called


def test_traced_closed_loop_evaluates_each_certificate_once_per_step():
    # The simulator records its margins from the controller's evaluation,
    # so a traced run shows one certificate span per certificate and step,
    # plus at most one final row that the simulator evaluates itself.
    _, abar_inv = exp_alpha_bar_for_level(1.0)
    walls = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
             CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)]
    controller = build_cascade_controller(
        walls, lambda x: np.array([0.6, 1.0]), make_positive_basis(2, 11),
        CascadeGains(tracking_slopes=(8.0, 320.0, 4.0e5), k1=3.49), bounds=PlantBounds(1.0, 1.0),
        rates=RateSpec(base_slope=1.0, alpha_bar_inverse=abar_inv), k_phi=2.0)
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    tracer = Tracer()
    install_trace(tracer)
    try:
        traj = sim.run_closed_loop(sim.IntegratorChain(m=4), controller, x0, horizon=0.05,
                                   dt=1e-3, certs=walls, workspace=((-3.0, 6.0), (-0.5, 12.0)))
    finally:
        tracer.restore()
    rows = traj.times.shape[0]
    names = [tracer.names[i] for i in tracer.arrays()["name_id"]]
    cert_spans = sum(name.startswith("certificates.") for name in names)
    assert traj.termination == "completed" and rows == 51
    assert rows * len(walls) <= cert_spans <= (rows + 1) * len(walls)
    assert names.count("cascade.tracking_law") == 3 * rows
    # The names the hooks rebind still exist.
    for owner, attr in ((sim, "certificate_value"), (cascade, "tracking_law"),
                        (cascade, "build_constraint_set"), (cascade, "reshaped_filter")):
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
