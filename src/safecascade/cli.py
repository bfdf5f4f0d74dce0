"""Command-line entry point: scenario runs, gap-crossing reproductions,
design audits, and basis checks.

Exit codes: 0 success (an unsafe trajectory is still a successful run),
2 configuration problems (a config or command-line value out of range, or
a basis that cannot be built), 3 I/O failures, 4 simulation/controller
errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .cascade import in_row_blocks
from .certificates import CertificateSpec, Disc
from .errors import ConfigError, SafecascadeError
from .output import (
    metrics_document,
    write_csv,
    write_metrics_json,
    write_scene_svg,
    write_trajectory_csv,
)
from .qcqp_safety import disc_constraint_set, lipschitz_selection
from .qp_solver import Polyhedron, solve_projection_qp
from .reshaping import MAX_DIRECTIONS, make_positive_basis, reshape_b_l, reshaped_filter, sample_polytope_2d
from .scenario import DesignReport, build_scenario, check_time_grid, load_scenario
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

# example2's basis size, and the sampled states its containment check reshapes.
EXAMPLE2_DIRECTIONS = 5
CONTAINMENT_CHECKS = 50


def gap_raw_solution(discs, x) -> np.ndarray:
    """Projection of the nominal onto the raw (unreshaped) constraint rows,
    for one state (2,) or states (N, 2).

    The rows change with the state, so each state is its own dual
    active-set QP. NaN rows where the rows are inconsistent (deep inside an
    obstacle) or undefined (at a disc center).
    """
    x = np.asarray(x, dtype=float)
    cs = disc_constraint_set(discs, x.reshape(-1, 2))    # a batch: NaN rows at a disc center
    out = np.full((cs.b.shape[0], 2), math.nan)
    for k in np.flatnonzero(np.isfinite(cs.b).all(axis=1)):
        try:
            out[k] = solve_projection_qp(GAP_NOMINAL, Polyhedron(cs.a[k], cs.b[k])).point
        except SafecascadeError:
            pass
    return out.reshape(x.shape)


def gap_reshaped_solution(discs, basis, k_phi, x) -> np.ndarray:
    """Reshaped projection for the same scenario, for one state (2,) or
    states (N, 2) in one reshaped_filter call; NaN rows where undefined."""
    try:
        return reshaped_filter(GAP_NOMINAL, disc_constraint_set(discs, x), basis, k_phi)
    except SafecascadeError:
        return np.full(np.shape(x), math.nan)


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
    """One row (x_i, y_j, norm_grid[i, j]) per grid point, x slowest."""
    write_csv(path, "x,y,norm", [np.repeat(xs, len(ys)), np.tile(ys, len(xs)), norm_grid.ravel()])


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


def _gap_sweep(out: Path, radius: float, field_grid: int, fields: dict):
    """What both gap examples sweep. Makes out, then for each field CSV name
    and its solution function of (N, 2) states evaluates the field grid in
    blocks of whole rows (cascade.in_row_blocks), written as that CSV, and
    the axis slice in one call. Returns the slice grid and each function's
    slice norms, or None when out cannot be made."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return None
    # Row norms by np.linalg.norm's own formula for a vector (norm(axis=1)
    # rounds differently), so each value is the norm of that one solution.
    norms = lambda v: np.sqrt(np.vecdot(v, v))
    ticks = np.linspace(-2.5, 2.5, field_grid)
    states = np.column_stack([np.repeat(ticks, field_grid), np.tile(ticks, field_grid)])
    grid = axis_slice_grid(radius)
    on_axis = np.column_stack([grid, np.zeros_like(grid)])
    slices = []
    for name, solve in fields.items():
        field = in_row_blocks(lambda x: norms(solve(x)), states, field_grid)
        _field_csv(out / name, ticks, ticks, field.reshape(field_grid, field_grid))
        slices.append(norms(solve(on_axis)))
    return grid, slices


# ------------------------------------------------------------------ commands

def cmd_example1(out_dir: str | Path, radius: float = 0.99, field_grid: int = 161) -> int:
    """Raw gap-crossing filter: |solution| field, axis slice, slope report.

    Shows the filter losing regularity as the gap closes: the measured axis
    slope approaches radius/(1 - radius).
    """
    out = Path(out_dir)
    discs = gap_discs(radius)
    swept = _gap_sweep(out, radius, field_grid, {"field.csv": lambda x: gap_raw_solution(discs, x)})
    if swept is None:
        return EXIT_IO
    grid, (solved,) = swept
    closed = np.array([gap_raw_closed_form(x, radius) for x in grid])
    write_csv(out / "slice.csv", "x,solution_norm,closed_form", [grid, solved, closed])
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
                 seed: int = 0) -> int:
    """Reshaped gap-crossing filter: fields for both expansion weights, the
    axis slice against the closed form, slopes, and containment spot checks."""
    out = Path(out_dir)
    discs = gap_discs(radius)
    basis = make_positive_basis(EXAMPLE2_DIRECTIONS)
    swept = _gap_sweep(out, radius, field_grid, {
        "field.csv": lambda x: gap_reshaped_solution(discs, basis, 0.0, x),
        "field_kphi1.csv": lambda x: gap_reshaped_solution(discs, basis, 1.0, x),
    })
    if swept is None:
        return EXIT_IO
    grid, (solved0, solved1) = swept
    closed = np.array([gap_axis_closed_form(x, radius, basis.c_a) for x in grid])
    write_csv(out / "slice.csv", "x,solution_norm_kphi0,solution_norm_kphi1,closed_form",
              [grid, solved0, solved1, closed])
    _slice_plot_svg(out / "slice.svg", grid,
                    {"kphi0": solved0, "kphi1": solved1, "closed_form": closed})
    slopes = {"kphi0": max_abs_slope(grid, solved0), "kphi1": max_abs_slope(grid, solved1)}

    active = closed < 1.0 - 1e-6
    err0 = float(np.max(np.abs(solved0[active] - closed[active])))

    rng = np.random.default_rng(seed)
    containment_bad = 0
    checked = 0
    while checked < CONTAINMENT_CHECKS:
        x = rng.uniform(-2.2, 2.2, size=2)
        cs = disc_constraint_set(discs, x)
        try:
            b_l = reshape_b_l(lipschitz_selection(cs), cs, basis, 0.0)
        except SafecascadeError:
            continue
        checked += 1
        pts = sample_polytope_2d(Polyhedron(basis.a_l, b_l), 200, rng)
        containment_bad += int(np.count_nonzero(~cs.contains(pts)))
    report = {
        "radius": radius,
        "directions": EXAMPLE2_DIRECTIONS,
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


def cmd_run(config_path: str | Path, out_dir: str | Path,
            dt: float | None = None, horizon: float | None = None) -> int:
    """Simulate a scenario and write trajectory.csv/path.svg/metrics.json, the
    last with its design record's gain, small-gain and basis parts."""
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
    try:
        traj = run_closed_loop(
            scenario.plant, scenario.controller, scenario.x0,
            scenario.horizon, scenario.dt, workspace=scenario.workspace,
        )
        certs = scenario.controller.rho1.certs
        mets = trajectory_metrics(traj, certs)
        doc = metrics_document(cfg.source_hash, time.perf_counter() - started,
                               DesignReport(scenario), mets)
    except SafecascadeError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out / cfg["output.csv"], traj)
        write_scene_svg(out / cfg["output.svg"], traj, certs, scenario.workspace)
        write_metrics_json(out / cfg["output.metrics"], doc)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    clearance = "n/a" if mets.min_clearance is None else f"{mets.min_clearance:.4f}"
    print(f"run complete: termination={mets.termination} min_clearance={clearance}")
    return EXIT_OK


def cmd_audit(config_path: str | Path) -> int:
    """Print a scenario's design record; always exits 0 once parsed."""
    try:
        cfg = load_scenario(config_path)
        scenario = build_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    design = DesignReport(scenario)
    contractive = lambda holds: "contractive" if holds else "NOT contractive"
    if design.k1 is not None:
        print(f"gain ledger (k1 = {design.k1:g}{' estimated' if design.k1_source == 'estimated' else ''}):")
        for i, row in enumerate(design.kbar_table, start=1):
            cells = "  ".join(f"kbar({p},{i})={kbar:.6g}" for p, kbar in enumerate(row, start=1))
            print(f"  level {i}: {cells}")
        print("gain-selection margins:")
        for lvl in design.gain_margins:
            note = "" if lvl.level > 2 else f"  (level 2 uses the {design.k1_source} outer constant)"
            print(f"  level {lvl.level}: K={lvl.k_tracking:g} rhs={lvl.rhs_slope:.6g} "
                  f"margin={lvl.margin:+.6g}{note}")
        sg = design.small_gain
        print(f"small gain: tracking slope {sg.tracking_slope:.6g} "
              f"({contractive(sg.tracking_contractive)}), safety loop slope "
              f"{sg.safety_loop_slope:.6g} ({contractive(sg.safety_loop_contractive)})")
    else:
        print("no cascade gains configured (single-level law)")
    if design.basis is not None:
        basis, rep = design.basis, design.basis.report
        print(f"basis: n_l={basis.n_l} c_a={basis.c_a:.6g} "
              f"unit-norm dev {rep.max_unit_norm_deviation:.2e}, "
              f"min subset sigma {rep.min_subset_sigma:.4f}, "
              f"uncovered gaps {rep.uncovered_gaps}/{basis.n_l}")
    rep = design.disjointness
    if rep is not None:
        pair = "" if rep.pair is None else " between obstacles {} and {}".format(*rep.pair)
        print(f"disjointness over the plane: least gap {rep.min_gap:+.6g}{pair} "
              f"({'disjoint' if rep.holds else 'NOT disjoint'}); gradient floor {rep.min_gradient_norm:.4f}")
        rc = design.rate_condition
        print(f"rate condition above threshold {rc.threshold:g}: "
              f"min margin {rc.min_margin:+.6g} at V={rc.argmin_v:.4g} "
              f"({'holds' if rc.holds else 'does NOT hold'})")
    return EXIT_OK


def cmd_basis_check(n_l: int) -> int:
    """Construct and validate a positive basis of the plane; print the report."""
    try:
        basis = make_positive_basis(n_l)
    except SafecascadeError as exc:
        print(f"basis construction failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rep = basis.report
    print(f"basis n_u=2 n_l={n_l}: c_a={basis.c_a:.6g}")
    print(f"  max unit-norm deviation {rep.max_unit_norm_deviation:.2e}")
    print(f"  min subset singular value {rep.min_subset_sigma:.6f}")
    print(f"  uncovered gaps {rep.uncovered_gaps}/{n_l}")
    return EXIT_OK


def _checked(name: str, parse, ok, rule: str):
    """An argparse type: text that parse turns into a value ok accepts; a
    usage error stating rule otherwise."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text!r}")
        return value
    return convert


# The finest example field grid, grid^2 states: a sweep holds about 45 bytes
# a state (the law runs in blocks of whole rows) and example1 takes about
# 23 us a state, so 1,001 per axis (10^6 states) is about 45 MB and 25 s.
MAX_FIELD_GRID = 1001

# numpy rejects negative seeds; the gap radius must leave a gap between the
# discs.
_seed = _checked("seed", int, lambda v: v >= 0, "nonnegative")
_radius = _checked("radius", float, lambda v: 0.0 < v < 1.0, "finite, in (0, 1)")
_grid = _checked("grid", int, lambda v: 2 <= v <= MAX_FIELD_GRID, f"2 to {MAX_FIELD_GRID}")
_n_l = _checked("n-l", int, lambda v: v <= MAX_DIRECTIONS, f"at most {MAX_DIRECTIONS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="safecascade",
                                     description="safety-filtered cascade control simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="audit and simulate a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--dt", type=float, default=None, help="override sim.dt_s")
    p_run.add_argument("--horizon", type=float, default=None, help="override sim.horizon_s")

    p_e1 = sub.add_parser("example1", help="raw gap-crossing filter sweep")
    p_e1.add_argument("--out", default="out/example1")
    p_e1.add_argument("--radius", type=_radius, default=0.99)
    p_e1.add_argument("--grid", type=_grid, default=161)

    p_e2 = sub.add_parser("example2", help="reshaped gap-crossing filter sweep")
    p_e2.add_argument("--out", default="out/example2")
    p_e2.add_argument("--radius", type=_radius, default=0.99)
    p_e2.add_argument("--grid", type=_grid, default=101)
    p_e2.add_argument("--seed", type=_seed, default=0)

    p_audit = sub.add_parser("audit", help="print design audits for a config")
    p_audit.add_argument("--config", required=True)

    p_basis = sub.add_parser("basis-check", help="construct and validate a positive basis")
    p_basis.add_argument("--n-l", type=_n_l, default=11)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, dt=args.dt, horizon=args.horizon)
    if args.command == "example1":
        return cmd_example1(args.out, radius=args.radius, field_grid=args.grid)
    if args.command == "example2":
        return cmd_example2(args.out, radius=args.radius, field_grid=args.grid, seed=args.seed)
    if args.command == "audit":
        return cmd_audit(args.config)
    if args.command == "basis-check":
        return cmd_basis_check(args.n_l)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
