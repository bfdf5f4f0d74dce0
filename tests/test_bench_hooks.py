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

from safecascade import qcqp_safety, sim  # noqa: E402
from safecascade.certificates import CertificateSpec, Disc, Segment  # noqa: E402
from safecascade.qcqp_safety import PlantBounds, RateSpec  # noqa: E402


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
