"""Deterministic file outputs: trajectory CSV, scene SVG, metrics JSON.

All numeric formatting is fixed at nine significant digits so identical runs
produce byte-identical files. The CSV writers stream: they format and write
CSV_BLOCK_ROWS rows at a time, so their memory does not grow with the file,
and the bytes written do not depend on the block size. The metrics document
follows the bundled schema of version SCHEMA_VERSION
(schemas/metrics-v{SCHEMA_VERSION}.json) and is checked against it before
writing.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .certificates import CertificateSpec, Disc, Segment
from .scenario import DesignReport
from .sim import Trajectory, TrajectoryMetrics

NUM_FORMAT = "{:.9g}"
CSV_BLOCK_ROWS = 1024
SCENE_STRIDE = 10       # the scene plots every SCENE_STRIDE-th state, and the last
SCHEMA_VERSION = 2      # metrics.json's schema_version and its schema file


def _fmt(value: float) -> str:
    return NUM_FORMAT.format(float(value))      # NaN prints as nan


def write_csv(path: str | Path, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write the header, then a line per row of the columns side by side (each
    1-D, or 2-D for several columns, as long as the first) in NUM_FORMAT."""
    n_rows = columns[0].shape[0]
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, n_rows)
            block = np.column_stack([c[lo:hi] for c in columns]).tolist()
            handle.writelines(",".join(map(NUM_FORMAT.format, row)) + "\n" for row in block)


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Write t, state blocks, input, clearances, certificate values, x2*;
    a block is as wide as the input."""
    block_dim = traj.inputs.shape[1]
    n = traj.states.shape[1]
    if n % block_dim:
        raise ValueError("state size not a multiple of the block dimension")
    dims, certs = range(block_dim), range(traj.margins_h.shape[1])
    cols = ["t", *(f"x{blk}_{i}" for blk in range(1, n // block_dim + 1) for i in dims),
            *(f"u_{i}" for i in dims), *(f"h_{j}" for j in certs), *(f"V_{j}" for j in certs),
            *(f"xs2_{i}" for i in dims)]
    write_csv(path, ",".join(cols), [traj.times, traj.states, traj.inputs, traj.margins_h,
                                     traj.margins_v, traj.virtual_controls[:, :block_dim]])


def scene_svg(
    traj: Trajectory,
    certs: Sequence[CertificateSpec],
    workspace: tuple[tuple[float, float], tuple[float, float]],
) -> str:
    """Static SVG: inflated obstacle bands, spines, and the output trajectory.

    Round line caps render each segment's inflation exactly (stroke width is
    twice the safe distance). World y points up, so the scene is drawn in a
    flipped group. Output is deterministic for fixed inputs.
    """
    (x_lo, x_hi), (y_lo, y_hi) = workspace
    pad = 0.05 * max(x_hi - x_lo, y_hi - y_lo)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x_lo - pad)} '
        f'{_fmt(-(y_hi + pad))} {_fmt(x_hi - x_lo + 2 * pad)} {_fmt(y_hi - y_lo + 2 * pad)}">',
        '<g stroke-linecap="round">',
        f'<rect x="{_fmt(x_lo)}" y="{_fmt(-y_hi)}" width="{_fmt(x_hi - x_lo)}" '
        f'height="{_fmt(y_hi - y_lo)}" fill="white" stroke="#999" stroke-width="0.02"/>',
    ]
    for cert in certs:
        geom = cert.geometry
        if isinstance(geom, Segment):
            x1, y1 = geom.o1
            x2, y2 = geom.o2
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(-y1)}" x2="{_fmt(x2)}" y2="{_fmt(-y2)}" '
                f'stroke="#f4b6b6" stroke-width="{_fmt(2 * cert.safe_distance)}"/>'
            )
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(-y1)}" x2="{_fmt(x2)}" y2="{_fmt(-y2)}" '
                'stroke="#c0392b" stroke-width="0.03"/>'
            )
        elif isinstance(geom, Disc):
            cx, cy = geom.center
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(geom.radius)}" '
                'fill="#f4b6b6" stroke="#c0392b" stroke-width="0.02"/>'
            )
    pts = traj.states[::SCENE_STRIDE, :2]
    if traj.states.shape[0] and (traj.states.shape[0] - 1) % SCENE_STRIDE:
        pts = np.vstack([pts, traj.states[-1, :2]])
    if pts.shape[0] >= 2:
        coords = " ".join(f"{_fmt(p[0])},{_fmt(-p[1])}" for p in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1a1a1a" stroke-width="0.04"/>'
        )
    if pts.shape[0]:
        parts.append(
            f'<circle cx="{_fmt(pts[0][0])}" cy="{_fmt(-pts[0][1])}" r="0.08" fill="#2c7fb8"/>'
        )
    parts.append("</g></svg>")
    return "\n".join(parts) + "\n"


def write_scene_svg(path, traj, certs, workspace) -> None:
    Path(path).write_text(scene_svg(traj, certs, workspace))


def validate_metrics(doc: dict) -> list[str]:
    """Structural check against the bundled schema; returns problem strings,
    each starting with the path of its node from the root "$".

    Supports the subset the schema uses: object/number/integer/string/
    boolean/array types, required keys, nullable, items, and closed objects.
    """
    with resources.files("safecascade.schemas").joinpath(f"metrics-v{SCHEMA_VERSION}.json").open() as handle:
        schema = json.load(handle)
    problems: list[str] = []
    _validate_node(doc, schema, "$", problems)
    return problems


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _validate_node(value, schema: dict, path: str, problems: list[str]) -> None:
    if value is None:
        if not schema.get("nullable", False):
            problems.append(f"{path}: null not allowed")
        return
    expected = schema.get("type")
    if expected and not _TYPE_CHECKS[expected](value):
        problems.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if expected == "object":
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                problems.append(f"{path}: missing required key {key!r}")
        for key, sub in value.items():
            if key in props:
                _validate_node(sub, props[key], f"{path}.{key}", problems)
            elif not schema.get("additionalProperties", False):
                problems.append(f"{path}: unexpected key {key!r}")
    elif expected == "array" and "items" in schema:
        for i, item in enumerate(value):
            _validate_node(item, schema["items"], f"{path}[{i}]", problems)


def metrics_document(scenario_hash: str, runtime_s: float, design: DesignReport,
                     metrics: TrajectoryMetrics | None) -> dict:
    """Assemble the metrics JSON from a run's DesignReport (its gain,
    small-gain and basis parts) and trajectory metrics, with explicit nulls
    for absent sections."""
    trajectory, basis = None, design.basis
    if metrics is not None:
        trajectory = {
            "min_clearance": metrics.min_clearance,
            "min_clearance_per_certificate": list(metrics.min_clearance_per_certificate),
            "first_crossing_time_s": metrics.first_crossing_time,
            "time_below_zero_s": metrics.time_below_zero,
            "max_virtual_speed": metrics.max_virtual_speed,
            "max_input": metrics.max_input,
            "termination": metrics.termination,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario_hash": scenario_hash,
        "runtime_s": runtime_s,
        "gain_audit": None if design.gain_margins is None else list(map(asdict, design.gain_margins)),
        "small_gain": None if design.small_gain is None else asdict(design.small_gain),
        "basis_validation": None if basis is None else {
            "directions": basis.n_l, "coverage_constant": basis.c_a,
            **asdict(basis.report)},
        "trajectory": trajectory,
    }


def write_metrics_json(path: str | Path, doc: dict) -> None:
    problems = validate_metrics(doc)
    if problems:
        raise ValueError("metrics document fails its schema: " + "; ".join(problems))
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
