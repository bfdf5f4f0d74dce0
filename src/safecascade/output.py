"""Deterministic file outputs: trajectory CSV, scene SVG, metrics JSON.

All numeric formatting is fixed at nine significant digits so identical runs
produce byte-identical files. The metrics document follows the bundled
versioned schema (schemas/metrics-v1.json) and is checked against it before
writing.
"""
from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .certificates import CertificateSpec, Disc, Segment
from .sim import Trajectory, TrajectoryMetrics

NUM_FORMAT = "{:.9g}"


def _fmt(value: float) -> str:
    if value != value:                      # NaN
        return "nan"
    return NUM_FORMAT.format(float(value))


def trajectory_csv_header(state_blocks: int, block_dim: int, n_certs: int) -> str:
    cols = ["t"]
    for blk in range(1, state_blocks + 1):
        cols += [f"x{blk}_{i}" for i in range(block_dim)]
    cols += [f"u_{i}" for i in range(block_dim)]
    cols += [f"h_{j}" for j in range(n_certs)]
    cols += [f"V_{j}" for j in range(n_certs)]
    cols += [f"xs2_{i}" for i in range(block_dim)]
    return ",".join(cols)


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Write t, state blocks, input, clearances, certificate values, x2*;
    a block is as wide as the input."""
    block_dim = traj.inputs.shape[1]
    n = traj.states.shape[1]
    if n % block_dim:
        raise ValueError("state size not a multiple of the block dimension")
    blocks = n // block_dim
    n_certs = traj.margins_h.shape[1]
    lines = [trajectory_csv_header(blocks, block_dim, n_certs)]
    for k in range(traj.times.shape[0]):
        row = [traj.times[k], *traj.states[k], *traj.inputs[k],
               *traj.margins_h[k], *traj.margins_v[k],
               *traj.virtual_controls[k][:block_dim]]
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    return header, data


def scene_svg(
    traj: Trajectory,
    certs: Sequence[CertificateSpec],
    workspace: tuple[tuple[float, float], tuple[float, float]],
    stride: int = 10,
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
    pts = traj.states[::stride, :2]
    if traj.states.shape[0] and (traj.states.shape[0] - 1) % stride:
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


def write_scene_svg(path, traj, certs, workspace, stride: int = 10) -> None:
    Path(path).write_text(scene_svg(traj, certs, workspace, stride=stride))


def load_metrics_schema() -> dict:
    with resources.files("safecascade.schemas").joinpath("metrics-v1.json").open() as handle:
        return json.load(handle)


def validate_metrics(doc: dict, schema: dict | None = None, path: str = "$") -> list[str]:
    """Structural check against the bundled schema; returns problem strings.

    Supports the subset the schema uses: object/number/integer/string/
    boolean/array types, required keys, nullable, items, and closed objects.
    """
    if schema is None:
        schema = load_metrics_schema()
    problems: list[str] = []
    _validate_node(doc, schema, path, problems)
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


def metrics_document(
    scenario_hash: str,
    runtime_s: float,
    gain_audit: list | None,
    small_gain: dict | None,
    basis_validation: dict | None,
    metrics: TrajectoryMetrics | None,
) -> dict:
    """Assemble the metrics JSON with explicit nulls for absent sections."""
    trajectory = None
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
        "schema_version": 1,
        "scenario_hash": scenario_hash,
        "runtime_s": runtime_s,
        "gain_audit": gain_audit,
        "small_gain": small_gain,
        "basis_validation": basis_validation,
        "trajectory": trajectory,
    }


def write_metrics_json(path: str | Path, doc: dict) -> None:
    problems = validate_metrics(doc)
    if problems:
        raise ValueError("metrics document fails its schema: " + "; ".join(problems))
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
