"""Command-line entry point: scenario runs, gap-crossing reproductions,
design audits, and basis checks.

Exit codes: 0 success (an unsafe trajectory is still a successful run),
2 configuration problems, 3 I/O failures, 4 simulation/controller errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .cascade import gain_ledger, k_selection_audit, small_gain_audit
from .certificates import CertificateSpec, Disc, disjointness_audit
from .errors import ConfigError, InfeasibleError, SafecascadeError
from .output import (
    metrics_document,
    write_metrics_json,
    write_scene_svg,
    write_trajectory_csv,
)
from .qcqp_safety import disc_constraint_set, lipschitz_selection, rate_condition_audit
from .qp_solver import Polyhedron, solve_projection_qp
from .reshaping import make_positive_basis, reshaped_filter, sample_polytope_2d, reshape_b_l, validate_positive_basis
from .scenario import Scenario, build_scenario, check_time_grid, load_scenario
from .sim import run_closed_loop, trajectory_metrics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SIM = 4


# ----------------------------------------------------------------- gap setup

def gap_discs(radius: float) -> list[CertificateSpec]:
    """Two disc obstacles with a gap at the origin; the stock hard case."""
    return [
        CertificateSpec(Disc(np.array([0.0, 1.0]), radius)),
        CertificateSpec(Disc(np.array([0.0, -1.0]), radius)),
    ]


GAP_NOMINAL = np.array([1.0, 0.0])


def gap_raw_solution(discs, x) -> np.ndarray:
    """Projection of the nominal onto the raw (unreshaped) constraint rows.

    NaN vector where the rows are inconsistent (deep inside an obstacle).
    """
    try:
        cs = disc_constraint_set(discs, x)
        return solve_projection_qp(GAP_NOMINAL, Polyhedron(cs.a, cs.b)).point
    except (InfeasibleError, SafecascadeError):
        return np.array([math.nan, math.nan])


def gap_reshaped_solution(discs, basis, k_phi, x) -> np.ndarray:
    """Reshaped projection for the same scenario; NaN where undefined."""
    try:
        cs = disc_constraint_set(discs, x)
        selection = lipschitz_selection(cs)
        return reshaped_filter(GAP_NOMINAL, cs, basis, k_phi, selection)
    except SafecascadeError:
        return np.array([math.nan, math.nan])


def gap_axis_closed_form(x1: float, radius: float, c_a: float) -> float:
    """Reshaped-solution magnitude on the axis: the hand-derived expression
    max(-x1/sqrt(1+x1^2), c_a) * (1 + x1^2 - radius^2) / (2 sqrt(1+x1^2))."""
    return max(-x1 / math.sqrt(1.0 + x1 * x1), c_a) \
        * (1.0 + x1 * x1 - radius * radius) / (2.0 * math.sqrt(1.0 + x1 * x1))


def gap_raw_closed_form(x1: float, radius: float) -> float:
    """Raw-solution magnitude on the axis: the cap (radius^2 - x1^2 - 1)/(2 x1)
    inside the binding interval, the nominal magnitude 1 outside."""
    if -radius - 1.0 < x1 < radius - 1.0:
        return (radius * radius - x1 * x1 - 1.0) / (2.0 * x1)
    return 1.0


def axis_slice_grid(radius: float, points: int = 1500) -> np.ndarray:
    """Axis sample grid with geometric refinement toward the cap boundary.

    The raw solution's slope supremum radius/(1 - radius) is approached at
    x = radius - 1; measuring it needs neighbors within ~1e-8 of that point.
    """
    edge = radius - 1.0
    coarse = np.linspace(-radius - 1.2, 0.3, points)
    offsets = np.geomspace(1e-8, 1e-3, 40)
    fine = edge - offsets
    grid = np.unique(np.concatenate([coarse, fine, [edge]]))
    return grid[np.abs(grid) > 1e-9]     # axis solutions are singular at 0


def max_abs_slope(xs: np.ndarray, values: np.ndarray) -> float:
    good = np.isfinite(values)
    xs, values = xs[good], values[good]
    if xs.shape[0] < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(values) / np.diff(xs))))


def _field_csv(path: Path, xs, ys, norm_grid) -> None:
    lines = ["x,y,norm"]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lines.append(f"{x:.9g},{y:.9g},{norm_grid[i, j]:.9g}")
    path.write_text("\n".join(lines) + "\n")


def _slice_plot_svg(path: Path, xs, curves: dict[str, np.ndarray]) -> None:
    """Minimal line plot: |solution| against the axis coordinate."""
    width, height = 640.0, 360.0
    finite = np.concatenate([c[np.isfinite(c)] for c in curves.values()])
    lo, hi = float(np.min(finite)), float(np.max(finite))
    span = hi - lo if hi > lo else 1.0
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    colors = ["#1a1a1a", "#c0392b", "#2c7fb8", "#7a7a7a"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" stroke="#999"/>',
    ]
    for color, (label, curve) in zip(colors, curves.items()):
        pts = []
        for x, v in zip(xs, curve):
            if not np.isfinite(v):
                continue
            px = (x - x_lo) / (x_hi - x_lo) * (width - 40) + 20
            py = height - 20 - (v - lo) / span * (height - 40)
            pts.append(f"{px:.2f},{py:.2f}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5">'
            f"<title>{label}</title></polyline>"
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ------------------------------------------------------------------ commands

def cmd_example1(out_dir: str | Path, radius: float = 0.99, field_grid: int = 161) -> int:
    """Raw gap-crossing filter: |solution| field, axis slice, slope report.

    Shows the filter losing regularity as the gap closes: the measured axis
    slope approaches radius/(1 - radius).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    discs = gap_discs(radius)
    xs = np.linspace(-2.5, 2.5, field_grid)
    ys = np.linspace(-2.5, 2.5, field_grid)
    field = np.empty((field_grid, field_grid))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            field[i, j] = float(np.linalg.norm(gap_raw_solution(discs, np.array([x, y]))))
    _field_csv(out / "field.csv", xs, ys, field)

    grid = axis_slice_grid(radius)
    solved = np.array([np.linalg.norm(gap_raw_solution(discs, np.array([x, 0.0]))) for x in grid])
    closed = np.array([gap_raw_closed_form(x, radius) for x in grid])
    lines = ["x,solution_norm,closed_form"]
    lines += [f"{x:.9g},{s:.9g},{c:.9g}" for x, s, c in zip(grid, solved, closed)]
    (out / "slice.csv").write_text("\n".join(lines) + "\n")
    _slice_plot_svg(out / "slice.svg", grid, {"solved": solved, "closed_form": closed})

    slope = max_abs_slope(grid, solved)
    report = {
        "radius": radius,
        "measured_max_slope": slope,
        "slope_supremum": radius / (1.0 - radius),
        "closed_form_max_error": float(np.nanmax(np.abs(solved - closed))),
        "field_grid": field_grid,
        "slice_points": int(grid.shape[0]),
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"example1: measured max slope {slope:.4f} vs supremum {report['slope_supremum']:.4f}")
    return EXIT_OK


def cmd_example2(out_dir: str | Path, radius: float = 0.99, field_grid: int = 101,
                 directions: int = 5, containment_checks: int = 50, seed: int = 0) -> int:
    """Reshaped gap-crossing filter: fields for both expansion weights, the
    axis slice against the closed form, slopes, and containment spot checks."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    discs = gap_discs(radius)
    basis = make_positive_basis(2, directions)
    xs = np.linspace(-2.5, 2.5, field_grid)
    ys = np.linspace(-2.5, 2.5, field_grid)
    slopes = {}
    for k_phi, name in ((0.0, "field.csv"), (1.0, "field_kphi1.csv")):
        field = np.empty((field_grid, field_grid))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                field[i, j] = float(np.linalg.norm(
                    gap_reshaped_solution(discs, basis, k_phi, np.array([x, y]))))
        _field_csv(out / name, xs, ys, field)

    grid = axis_slice_grid(radius)
    solved0 = np.array([np.linalg.norm(gap_reshaped_solution(discs, basis, 0.0, np.array([x, 0.0])))
                        for x in grid])
    solved1 = np.array([np.linalg.norm(gap_reshaped_solution(discs, basis, 1.0, np.array([x, 0.0])))
                        for x in grid])
    closed = np.array([gap_axis_closed_form(x, radius, basis.c_a) for x in grid])
    lines = ["x,solution_norm_kphi0,solution_norm_kphi1,closed_form"]
    lines += [f"{x:.9g},{a:.9g},{b:.9g},{c:.9g}"
              for x, a, b, c in zip(grid, solved0, solved1, closed)]
    (out / "slice.csv").write_text("\n".join(lines) + "\n")
    _slice_plot_svg(out / "slice.svg", grid,
                    {"kphi0": solved0, "kphi1": solved1, "closed_form": closed})
    slopes["kphi0"] = max_abs_slope(grid, solved0)
    slopes["kphi1"] = max_abs_slope(grid, solved1)

    active = closed < 1.0 - 1e-6
    err0 = float(np.max(np.abs(solved0[active] - closed[active])))

    rng = np.random.default_rng(seed)
    containment_bad = 0
    checked = 0
    while checked < containment_checks:
        x = rng.uniform(-2.2, 2.2, size=2)
        cs = disc_constraint_set(discs, x)
        try:
            selection = lipschitz_selection(cs)
            reshaped = reshape_b_l(selection, cs, basis, 0.0)
        except SafecascadeError:
            continue
        checked += 1
        pts = sample_polytope_2d(reshaped.polyhedron(), 200, rng)
        for u in pts:
            if not cs.contains(u, tol=1e-9):
                containment_bad += 1
    report = {
        "radius": radius,
        "directions": directions,
        "coverage_constant": basis.c_a,
        "measured_max_slope_kphi0": slopes["kphi0"],
        "measured_max_slope_kphi1": slopes["kphi1"],
        "closed_form_max_error_kphi0": err0,
        "containment_points_outside": containment_bad,
        "containment_states_checked": checked,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"example2: slopes kphi0 {slopes['kphi0']:.4f} kphi1 {slopes['kphi1']:.4f}, "
          f"closed-form err {err0:.2e}, containment misses {containment_bad}")
    return EXIT_OK


def _scenario_audits(scenario: Scenario) -> tuple[list | None, dict | None, dict | None]:
    gain_rows = None
    small_gain = None
    if scenario.gains is not None:
        gain_rows = [
            {"level": lm.level, "k_tracking": lm.k_tracking,
             "rhs_slope": lm.rhs_slope, "margin": lm.margin}
            for lm in k_selection_audit(scenario.gains)
        ]
        sg = small_gain_audit(scenario.gains)
        small_gain = {
            "tau": sg.tau,
            "tracking_slope": sg.tracking_slope,
            "tracking_contractive": sg.tracking_contractive,
            "safety_loop_slope": sg.safety_loop_slope,
            "safety_loop_contractive": sg.safety_loop_contractive,
        }
    basis_summary = None
    if scenario.basis is not None:
        report = scenario.basis.report
        basis_summary = {
            "directions": scenario.basis.n_l,
            "coverage_constant": scenario.basis.c_a,
            "max_unit_norm_deviation": report.max_unit_norm_deviation,
            "min_subset_sigma": report.min_subset_sigma,
            "coverage_failures": report.coverage_failures,
            "samples": report.samples,
        }
    return gain_rows, small_gain, basis_summary


def cmd_run(config_path: str | Path, out_dir: str | Path,
            dt: float | None = None, horizon: float | None = None,
            seed: int | None = None) -> int:
    """Audit + simulate a scenario and write trajectory.csv/path.svg/metrics.json."""
    started = time.perf_counter()
    try:
        cfg = load_scenario(config_path)
        scenario = build_scenario(cfg)
        if dt is not None:
            scenario.dt = dt
        if horizon is not None:
            scenario.horizon = horizon
        check_time_grid(scenario.dt, scenario.horizon)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if seed is not None:
        scenario.seed = seed
    try:
        gain_rows, small_gain, basis_summary = _scenario_audits(scenario)
        traj = run_closed_loop(
            scenario.plant, scenario.controller, scenario.x0,
            scenario.horizon, scenario.dt,
            certs=scenario.certificates, workspace=scenario.workspace,
        )
        mets = trajectory_metrics(traj, scenario.certificates)
    except SafecascadeError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    doc = metrics_document(
        scenario_hash=cfg.source_hash,
        runtime_s=time.perf_counter() - started,
        gain_audit=gain_rows,
        small_gain=small_gain,
        basis_validation=basis_summary,
        metrics=mets,
    )
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out / cfg.get("output.csv", "trajectory.csv"), traj)
        write_scene_svg(out / cfg.get("output.svg", "path.svg"), traj,
                        scenario.certificates, scenario.workspace)
        write_metrics_json(out / cfg.get("output.metrics", "metrics.json"), doc)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    clearance = "n/a" if mets.min_clearance is None else f"{mets.min_clearance:.4f}"
    print(f"run complete: termination={mets.termination} min_clearance={clearance}")
    return EXIT_OK


def cmd_audit(config_path: str | Path, seed: int | None = None) -> int:
    """Print the design audits for a scenario; always exits 0 once parsed."""
    try:
        cfg = load_scenario(config_path)
        scenario = build_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if seed is not None:
        scenario.seed = seed
    if scenario.gains is not None:
        g = scenario.gains
        print(f"gain ledger (k1 = {g.k1:g}{' estimated' if scenario.k1_estimated else ''}):")
        kbar = gain_ledger(g).kbar_table
        for i in range(1, g.m + 1):
            row = "  ".join(f"kbar({p},{i})={kbar[p, i]:.6g}" for p in range(1, i + 1))
            print(f"  level {i}: {row}")
        print("gain-selection margins:")
        for lm in k_selection_audit(g):
            note = "" if lm.level > 2 else "  (level 2 uses the estimated outer constant)"
            print(f"  level {lm.level}: K={lm.k_tracking:g} rhs={lm.rhs_slope:.6g} "
                  f"margin={lm.margin:+.6g}{note}")
        sg = small_gain_audit(g)
        print(f"small gain: tracking slope {sg.tracking_slope:.6g} "
              f"({'contractive' if sg.tracking_contractive else 'NOT contractive'}), "
              f"safety loop slope {sg.safety_loop_slope:.6g} "
              f"({'contractive' if sg.safety_loop_contractive else 'NOT contractive'})")
    else:
        print("no cascade gains configured (single-level law)")
    if scenario.basis is not None:
        rep = scenario.basis.report
        print(f"basis: n_l={scenario.basis.n_l} c_a={scenario.basis.c_a:.6g} "
              f"unit-norm dev {rep.max_unit_norm_deviation:.2e}, "
              f"min subset sigma {rep.min_subset_sigma:.4f}, "
              f"coverage failures {rep.coverage_failures}/{rep.samples}")
    if scenario.certificates:
        (x_rng, y_rng) = scenario.workspace
        rep = disjointness_audit(scenario.certificates, (x_rng, y_rng),
                                 samples=cfg.get("audit.samples", 2000), seed=scenario.seed)
        grad_floor = "n/a" if math.isinf(rep.min_gradient_norm) else f"{rep.min_gradient_norm:.4f}"
        print(f"disjointness: {rep.joint_violations} joint-superlevel samples out of "
              f"{rep.samples}; gradient floor {grad_floor}")
        # For exp(-h) certificates over segments the value is capped at
        # level * e^{safe distance} (h >= -safe distance).
        v_caps = [c.level * math.exp(c.safe_distance)
                  for c in scenario.certificates if not isinstance(c.geometry, Disc)]
        v_max = max(v_caps) if v_caps else 4.0 * scenario.threshold
        try:
            rc = rate_condition_audit(
                scenario.rate, scenario.certificates[0].level, scenario.threshold,
                scenario.gains.theta if scenario.gains else 0.001,
                scenario.gains.gamma_12_slope if scenario.gains else 4.0,
                scenario.bounds, v_max=max(v_max, scenario.threshold * 1.01),
                grid=cfg.get("audit.grid", 200),
            )
            print(f"rate condition above threshold {rc.threshold:g}: "
                  f"min margin {rc.min_margin:+.6g} at V={rc.argmin_v:.4g} "
                  f"({'holds' if rc.holds else 'does NOT hold'})")
        except ValueError as exc:
            print(f"rate condition audit skipped: {exc}")
    return EXIT_OK


def cmd_basis_check(n_u: int, n_l: int, samples: int = 500) -> int:
    """Construct and validate a positive basis; print the report."""
    try:
        basis = make_positive_basis(n_u, n_l)
    except SafecascadeError as exc:
        print(f"basis construction failed: {exc}", file=sys.stderr)
        return 1
    rep = validate_positive_basis(basis, samples=samples)
    print(f"basis n_u={n_u} n_l={n_l}: c_a={basis.c_a:.6g}")
    print(f"  max unit-norm deviation {rep.max_unit_norm_deviation:.2e}")
    print(f"  min subset singular value {rep.min_subset_sigma:.6f}")
    print(f"  coverage failures {rep.coverage_failures}/{rep.samples}")
    return EXIT_OK


def bundled_config(name: str) -> Path:
    """Path of a bundled scenario config (vtol_safe or vtol_unsafe)."""
    from importlib import resources
    return Path(str(resources.files("safecascade.configs").joinpath(f"{name}.cfg")))


def _seed(text: str) -> int:
    """A nonnegative integer seed, for argparse (numpy rejects negatives)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="safecascade",
                                     description="safety-filtered cascade control simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="audit and simulate a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--dt", type=float, default=None, help="override sim.dt_s")
    p_run.add_argument("--horizon", type=float, default=None, help="override sim.horizon_s")
    p_run.add_argument("--seed", type=_seed, default=None, help="override sampling seed")

    p_e1 = sub.add_parser("example1", help="raw gap-crossing filter sweep")
    p_e1.add_argument("--out", default="out/example1")
    p_e1.add_argument("--radius", type=float, default=0.99)
    p_e1.add_argument("--grid", type=int, default=161)

    p_e2 = sub.add_parser("example2", help="reshaped gap-crossing filter sweep")
    p_e2.add_argument("--out", default="out/example2")
    p_e2.add_argument("--radius", type=float, default=0.99)
    p_e2.add_argument("--grid", type=int, default=101)
    p_e2.add_argument("--seed", type=_seed, default=0)

    p_audit = sub.add_parser("audit", help="print design audits for a config")
    p_audit.add_argument("--config", required=True)
    p_audit.add_argument("--seed", type=_seed, default=None)

    p_basis = sub.add_parser("basis-check", help="construct and validate a positive basis")
    p_basis.add_argument("--n-u", type=int, default=2)
    p_basis.add_argument("--n-l", type=int, default=11)
    p_basis.add_argument("--samples", type=int, default=500)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, dt=args.dt, horizon=args.horizon, seed=args.seed)
    if args.command == "example1":
        return cmd_example1(args.out, radius=args.radius, field_grid=args.grid)
    if args.command == "example2":
        return cmd_example2(args.out, radius=args.radius, field_grid=args.grid, seed=args.seed)
    if args.command == "audit":
        return cmd_audit(args.config, seed=args.seed)
    if args.command == "basis-check":
        return cmd_basis_check(args.n_u, args.n_l, samples=args.samples)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
