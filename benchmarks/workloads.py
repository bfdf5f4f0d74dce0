"""The benchmark's four workloads: inputs made from a seed, the reference
values their outputs must match, and the per-layer trace hooks.

Shared by the runner (``run.py``, which makes inputs and checks results)
and by the per-iteration child (``iteration.py``, which runs the program).
This module imports nothing from safecascade at import time, so the runner
never loads the package into its own process.
"""
from __future__ import annotations

import math
import random
import re
from pathlib import Path

WORKLOADS = ("takeoff_safe", "takeoff_unsafe", "k1_grid", "gap_fields")

# Stock sizes. A resized workload takes its reference values from the
# parent commit at the new size (see README.md).
STOCK_SIZES = {
    "takeoff_safe": {"config": "vtol_safe.cfg", "horizon_s": None},
    "takeoff_unsafe": {"config": "vtol_unsafe.cfg", "horizon_s": None},
    "k1_grid": {"config": "vtol_safe.cfg", "k1_grid": 200},
    "gap_fields": {"radius": 0.99, "grid1": 161, "grid2": 101},
}

# Values pinned at seed 0 on the stock sizes, compared after rounding to
# four decimals. Seeds other than 0 move the takeoff start and the example2
# containment sample; ``check`` says which values still apply then.
STOCK_REFERENCES = {
    "takeoff_safe": {"min_clearance": 0.0945, "termination": "completed"},
    "takeoff_unsafe": {"min_clearance": -0.3499, "termination": "completed"},
    "k1_grid": {"k1": 6.3408},
    "gap_fields": {"example1_slope": 98.9999, "example2_slope_kphi0": 0.5613,
                   "example2_slope_kphi1": 0.8681, "containment_points_outside": 0},
}

START_OFFSET_M = 0.15     # seeded per-axis shift of sim.x1_0_m for seed != 0
X1_0_LINE = re.compile(r"^sim\.x1_0_m\s*=\s*(.+)$", re.M)


def _set_key(text: str, key: str, value: str) -> str:
    """Config text with ``key = value`` replacing the key's line, or appended."""
    line = re.compile(rf"^{re.escape(key)}\s*=.*$", re.M)
    if line.search(text):
        return line.sub(f"{key} = {value}", text, count=1)
    return text.rstrip("\n") + f"\n{key} = {value}\n"


def make_spec(name: str, seed: int, root: Path, work_dir: Path, sizes: dict | None = None) -> dict:
    """Everything one iteration of ``name`` needs, as JSON-ready data.

    The program receives only the config text or CLI arguments made here.
    ``k1_grid`` has no randomness: its seed changes nothing.
    """
    size = dict(STOCK_SIZES[name], **(sizes or {}))
    spec = {"workload": name, "seed": seed, "size": size}
    if name in ("takeoff_safe", "takeoff_unsafe", "k1_grid"):
        text = (root / "src" / "safecascade" / "configs" / size["config"]).read_text()
        if name == "k1_grid":
            text = _set_key(text, "cascade.k1", "estimate")
            text = _set_key(text, "cascade.k1_grid", str(size["k1_grid"]))
            spec["config_text"] = text
            return spec
        if seed != 0:
            rng = random.Random(f"start-{seed}")
            x, y = (float(v) for v in X1_0_LINE.search(text).group(1).split(","))
            x += rng.uniform(-START_OFFSET_M, START_OFFSET_M)
            y += rng.uniform(-START_OFFSET_M, START_OFFSET_M)
            text = _set_key(text, "sim.x1_0_m", f"{x!r}, {y!r}")
        if size["horizon_s"] is not None:
            text = _set_key(text, "sim.horizon_s", repr(size["horizon_s"]))
        cfg_path = work_dir / "scenario.cfg"
        cfg_path.write_text(text)
        spec["argv"] = [["run", "--config", str(cfg_path), "--out", str(work_dir / "out")]]
        spec["out"] = str(work_dir / "out")
        return spec
    # gap_fields
    radius = repr(size["radius"])
    spec["argv"] = [
        ["example1", "--out", str(work_dir / "example1"), "--radius", radius,
         "--grid", str(size["grid1"])],
        ["example2", "--out", str(work_dir / "example2"), "--radius", radius,
         "--grid", str(size["grid2"]), "--seed", str(seed)],
    ]
    spec["out"] = str(work_dir)
    return spec


def check(name: str, seed: int, values: dict, refs: dict) -> list[str]:
    """Mismatches between an iteration's outputs and its references.

    At seed 0 every pinned value must match. At other seeds the takeoff runs
    must complete with a finite final state (takeoff_safe also with positive
    clearance); gap_fields and k1_grid keep all their pins, because the seed
    changes only the containment sample.
    """
    problems = []
    if any(code != 0 for code in values.get("exit_codes", [])):
        problems.append(f"nonzero exit code {values['exit_codes']}")
    if name.startswith("takeoff"):
        if not values.get("final_state_finite"):
            problems.append("final state not finite")
        if values.get("rows") != values.get("expected_rows"):
            problems.append(f"trajectory has {values.get('rows')} rows, "
                            f"expected {values.get('expected_rows')}")
        pins = refs if seed == 0 else {"termination": refs["termination"]}
        if seed != 0 and name == "takeoff_safe" and not values["min_clearance"] > 0.0:
            problems.append(f"min clearance {values['min_clearance']} not above 0")
    else:
        pins = refs
    for key, want in pins.items():
        got = values.get(key)
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and math.isfinite(got) and round(got, 4) == want
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


# ------------------------------------------------------------ trace hooks

def _count_qp(tracer, args, kwargs, sol) -> None:
    import numpy as np
    c = tracer.counters
    c["qp_solver.iterations"] += sol.iterations
    c["qp_solver.iterations_max"] = max(c["qp_solver.iterations_max"], sol.iterations)
    c["qp_solver.active_rows"] += int(sol.active_indices.shape[0])
    if np.array_equal(sol.point, np.asarray(args[0], dtype=float).ravel()):
        c["qp_solver.passthrough"] += 1


def _count_selection(tracer, args, kwargs, selection) -> None:
    if any(v != 0.0 for v in selection):
        tracer.counters["qcqp_safety.selection_nonzero"] += 1


def _count_bytes(tracer, args, kwargs, result) -> None:
    tracer.counters["output.bytes"] += Path(args[0]).stat().st_size


def _count_steps(tracer, args, kwargs, traj) -> None:
    tracer.counters["sim.steps"] += int(traj.times.shape[0])


def install_trace(tracer) -> None:
    """Rebind the names each calling module imported to traced wrappers.

    A span is named after the module that defines the function, so a call
    is charged to that layer whichever module makes it. ``cli``'s private
    field and slice writers count as the output layer.
    """
    import numpy as np
    from safecascade import cascade, cli, qcqp_safety, reshaping, scenario, sim

    bind = tracer.rebind
    bind(sim, "certificate_value", "certificates.certificate_value")
    for owner in (qcqp_safety, scenario):
        bind(owner, "eval_segment", "certificates.eval_segment")
    bind(qcqp_safety, "eval_disc", "certificates.eval_disc")

    bind(cascade.CascadeController, "evaluate", "cascade.CascadeController.evaluate")
    bind(cascade, "tracking_law", "cascade.tracking_law")

    bind(cascade, "build_constraint_set", "qcqp_safety.build_constraint_set")
    bind(cli, "disc_constraint_set", "qcqp_safety.disc_constraint_set")
    for owner in (cascade, cli):
        bind(owner, "lipschitz_selection", "qcqp_safety.lipschitz_selection", _count_selection)
        bind(owner, "reshaped_filter", "reshaping.reshaped_filter")
    for owner in (reshaping, cli):
        bind(owner, "reshape_b_l", "reshaping.reshape_b_l")
        bind(owner, "solve_projection_qp", "qp_solver.solve_projection_qp", _count_qp)
    bind(cli, "sample_polytope_2d", "reshaping.sample_polytope_2d")

    bind(cli, "run_closed_loop", "sim.run_closed_loop", _count_steps)
    bind(cli, "load_scenario", "scenario.load_scenario")
    bind(cli, "build_scenario", "scenario.build_scenario")
    bind(scenario, "build_scenario", "scenario.build_scenario")
    bind(scenario, "estimate_safety_law_lipschitz", "scenario.estimate_safety_law_lipschitz")

    bind(cli, "main", "cli.main")
    bind(cli, "gap_raw_solution", "cli.gap_raw_solution")
    bind(cli, "gap_reshaped_solution", "cli.gap_reshaped_solution")

    for attr in ("write_trajectory_csv", "write_scene_svg", "write_metrics_json"):
        bind(cli, attr, f"output.{attr}", _count_bytes)
    bind(cli, "_field_csv", "output.field_csv", _count_bytes)
    bind(cli, "_slice_plot_svg", "output.slice_plot_svg", _count_bytes)

    # Count the k1 grid's states and its masked (non-finite) cells without a
    # span: the grid loop stays part of the scenario layer's self time.
    estimate = scenario.estimate_lipschitz
    counters = tracer.counters

    def counting_estimate(fn, box, grid=200):
        def counted(x):
            value = fn(x)
            counters["scenario.k1_points"] += 1
            if not np.all(np.isfinite(value)):
                counters["scenario.k1_masked"] += 1
            return value
        return estimate(counted, box, grid=grid)

    tracer.patch(scenario, "estimate_lipschitz", counting_estimate)


def layer_metrics(tracer, span: dict) -> dict[str, float]:
    """Per-layer counts, self times and ratios for one traced iteration."""
    from tracing import calls_per_name, layer_self_seconds

    calls = calls_per_name(tracer.names, span)
    self_s = layer_self_seconds(tracer.names, span)
    c, err = tracer.counters, tracer.errors

    def n(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = c["sim.steps"]
    qp_calls = n("qp_solver.")
    selections = n("qcqp_safety.lipschitz_selection")
    out = {
        "certificates.calls": n("certificates."),
        "certificates.self_s": self_s.get("certificates", 0.0),
        "certificates.errors": err["certificates"],
        "certificates.evals_per_step": share(n("certificates."), steps),
        "qcqp_safety.calls": n("qcqp_safety."),
        "qcqp_safety.self_s": self_s.get("qcqp_safety", 0.0),
        "qcqp_safety.errors": err["qcqp_safety"],
        "qcqp_safety.selection_nonzero_share": share(c["qcqp_safety.selection_nonzero"], selections),
        "reshaping.calls": n("reshaping."),
        "reshaping.self_s": self_s.get("reshaping", 0.0),
        "qp_solver.calls": qp_calls,
        "qp_solver.self_s": self_s.get("qp_solver", 0.0),
        "qp_solver.iterations_mean": share(c["qp_solver.iterations"], qp_calls - err["qp_solver"]),
        "qp_solver.iterations_max": c["qp_solver.iterations_max"],
        "qp_solver.active_rows_mean": share(c["qp_solver.active_rows"], qp_calls - err["qp_solver"]),
        "qp_solver.errors": err["qp_solver"],
        "qp_solver.passthrough_share": share(c["qp_solver.passthrough"], qp_calls),
        "cascade.calls": n("cascade.CascadeController.evaluate"),
        "cascade.tracking_law_calls": n("cascade.tracking_law"),
        "cascade.self_s": self_s.get("cascade", 0.0),
        "sim.steps": steps,
        "sim.self_s": self_s.get("sim", 0.0),
        "scenario.self_s": self_s.get("scenario", 0.0),
        "scenario.k1_points": c["scenario.k1_points"],
        "scenario.k1_masked_share": share(c["scenario.k1_masked"], c["scenario.k1_points"]),
        "output.self_s": self_s.get("output", 0.0),
        "output.bytes": c["output.bytes"],
        "cli.self_s": self_s.get("cli", 0.0),
        "bench.self_s": self_s.get("bench", 0.0),
    }
    return {k: float(v) for k, v in out.items()}
