"""The benchmark's per-layer trace hooks against the package's module names.

``benchmarks/workloads.py:install_trace`` rebinds names that the package's
modules import (``qcqp_safety.eval_segment``, ``sim.certificate_value``, ...).
A refactor that drops or renames one of them breaks the traced benchmark
run, so the hooks are installed and removed here, in the test suite.
"""
import ast
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from tracing import Tracer  # noqa: E402
from workloads import install_trace  # noqa: E402

import safecascade  # noqa: E402
from safecascade import cascade, cli, qcqp_safety, reshaping, scenario, sim  # noqa: E402
from safecascade.cascade import CascadeController, CascadeGains, SafetyLaw  # noqa: E402
from safecascade.certificates import CertificateSpec, Disc, Segment  # noqa: E402
from safecascade.reshaping import make_positive_basis  # noqa: E402

from helpers import bundled_config  # noqa: E402


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
        qcqp_safety.build_constraint_set(x, [wall, disc], 1.0)
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
    basis = make_positive_basis(11)
    walls = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
             CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)]
    gains = CascadeGains(tracking_slopes=(8.0, 320.0, 4.0e5), k1=3.49)
    tracer = Tracer()
    install_trace(tracer)
    try:
        law = SafetyLaw(walls, np.array([0.6, 1.0]), basis, 1.0, k_phi=2.0)
        controller = CascadeController(law, gains)
        k1 = scenario.estimate_safety_law_lipschitz(law, ((-3.0, 6.0), (-0.5, 12.0)), grid=5)
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
    # so a traced run that completes shows one certificate span per
    # certificate and step. The law keeps its constants but still builds
    # its set and filters through the traced names, once per step, even
    # though the controller was built before the hooks were installed.
    walls = [CertificateSpec(Segment([-2.5, 1.5], [1.5, 2.0]), safe_distance=0.35),
             CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35)]
    law = SafetyLaw(walls, np.array([0.6, 1.0]), make_positive_basis(11), 1.0, k_phi=2.0)
    controller = CascadeController(law, CascadeGains(tracking_slopes=(8.0, 320.0, 4.0e5), k1=3.49))
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    tracer = Tracer()
    install_trace(tracer)
    try:
        traj = sim.run_closed_loop(sim.IntegratorChain(m=4), controller, x0, horizon=0.05,
                                   dt=1e-3, workspace=((-3.0, 6.0), (-0.5, 12.0)))
    finally:
        tracer.restore()
    rows = traj.times.shape[0]
    names = [tracer.names[i] for i in tracer.arrays()["name_id"]]
    cert_spans = sum(name.startswith("certificates.") for name in names)
    assert traj.termination == "completed" and rows == 51
    assert cert_spans == rows * len(walls)
    assert names.count("cascade.tracking_law") == 3 * rows
    assert names.count("qcqp_safety.build_constraint_set") == rows
    assert names.count("reshaping.reshaped_filter") == rows
    # The filter still reshapes through the traced name, once per step.
    assert names.count("reshaping.reshape_b_l") == rows
    # The names the hooks rebind still exist.
    for owner, attr in ((sim, "certificate_value"), (cascade, "tracking_law"),
                        (cascade, "build_constraint_set"), (cascade, "reshaped_filter"),
                        (reshaping, "reshape_b_l")):
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


def test_traced_closed_loop_with_a_disc_evaluates_each_certificate_once_per_step():
    # A wall and a disc: the constraint set hands each certificate the
    # state as floats through the traced module names, so a 50-step run
    # shows one certificate span per certificate and step, eval_disc among
    # them, and one set, filter and reshaping per step.
    certs = [CertificateSpec(Segment([-2.5, 0.5], [2.5, 0.5]), safe_distance=0.35),
             CertificateSpec(Disc([0.8, 6.0], 1.0))]
    law = SafetyLaw(certs, np.array([0.6, 1.0]), make_positive_basis(11), 1.0, k_phi=2.0)
    controller = CascadeController(law, CascadeGains(tracking_slopes=(8.0, 320.0, 4.0e5), k1=3.49))
    x0 = np.zeros(8)
    x0[:2] = [-2.0, 1.0]
    tracer = Tracer()
    install_trace(tracer)
    try:
        traj = sim.run_closed_loop(sim.IntegratorChain(m=4), controller, x0, horizon=0.05,
                                   dt=1e-3, workspace=((-3.0, 6.0), (-0.5, 12.0)))
    finally:
        tracer.restore()
    rows = traj.times.shape[0]
    names = [tracer.names[i] for i in tracer.arrays()["name_id"]]
    assert traj.termination == "completed" and rows == 51
    assert sum(name.startswith("certificates.") for name in names) == rows * len(certs)
    assert names.count("certificates.eval_segment") == names.count("certificates.eval_disc") == rows
    for name in ("qcqp_safety.build_constraint_set", "reshaping.reshaped_filter", "reshaping.reshape_b_l"):
        assert names.count(name) == rows, name


def test_output_hooks_receive_the_written_file_as_argument_0(tmp_path, monkeypatch):
    # The trace hooks count output bytes with Path(args[0]).stat() after each
    # writer that cli calls through its own names returns: every writer must
    # take its file path first and have written it by then.
    seen = {}

    def recorder(attr):
        write = getattr(cli, attr)

        def recorded(*args, **kwargs):
            result = write(*args, **kwargs)
            seen.setdefault(attr, []).append(Path(args[0]).is_file())
            return result
        return recorded

    writers = ("write_trajectory_csv", "write_scene_svg", "write_metrics_json", "_field_csv")
    for attr in writers:
        monkeypatch.setattr(cli, attr, recorder(attr))
    assert cli.main(["run", "--config", str(bundled_config("vtol_safe")),
                     "--out", str(tmp_path / "run"), "--horizon", "0.05"]) == cli.EXIT_OK
    assert cli.main(["example1", "--out", str(tmp_path / "example1"), "--grid", "5"]) == cli.EXIT_OK
    assert seen == {attr: [True] for attr in writers}


def test_traced_gap_examples_complete_and_restore_every_name(tmp_path):
    # The traced gap_fields run installs these hooks around both examples:
    # the sweeps call the gap solutions once per field and slice with (N, 2)
    # states, while the selection counter on cli.lipschitz_selection reads
    # one state's selection and so must only see the containment check.
    modules = (cascade, cascade.CascadeController, cli, qcqp_safety, reshaping, scenario, sim)
    before = [dict(vars(owner)) for owner in modules]
    tracer = Tracer()
    install_trace(tracer)
    try:
        for example in ("example1", "example2"):
            argv = [example, "--out", str(tmp_path / example), "--grid", "5"]
            assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.restore()
    names = [tracer.names[i] for i in tracer.arrays()["name_id"]]
    assert names.count("cli.gap_raw_solution") == 2
    assert names.count("cli.gap_reshaped_solution") == 4
    assert names.count("reshaping.reshaped_filter") == 4
    assert names.count("qcqp_safety.lipschitz_selection") >= 50
    for owner, was in zip(modules, before):
        now = vars(owner)
        assert now.keys() == was.keys()
        assert all(now[attr] is value for attr, value in was.items()), owner


def _hook_only_imports() -> list[tuple[str, str]]:
    """(module, name) for each name that a ``# noqa: F401`` import in the
    package brings into a module which never reads it."""
    found = []
    for path in sorted(Path(safecascade.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and \
                    any("# noqa: F401" in line for line in lines[stmt.lineno - 1:stmt.end_lineno]):
                found += [(path.stem, alias.asname or alias.name) for alias in stmt.names
                          if (alias.asname or alias.name) not in read]
    return sorted(found)


def test_hook_only_imports_are_names_the_trace_hooks_patch():
    # A module keeps an import it never reads only so that install_trace can
    # rebind that name on it. Once the hooks stop patching one, the failure
    # names the import to delete.
    imports = _hook_only_imports()
    assert imports == [("cascade", "lipschitz_selection"), ("reshaping", "solve_projection_qp"),
                       ("scenario", "eval_segment")]
    owners = {"cascade": cascade, "reshaping": reshaping, "scenario": scenario}
    before = {(module, name): getattr(owners[module], name) for module, name in imports}
    tracer = Tracer()
    install_trace(tracer)
    try:
        unpatched = [f"{module}.{name}" for (module, name), original in before.items()
                     if getattr(owners[module], name) is original]
    finally:
        tracer.restore()
    assert not unpatched, "hook-only imports that install_trace no longer patches: " + \
        ", ".join(unpatched)
