"""Scenario configuration: a flat dotted-key text format and the builders
that turn a parsed config into certificates, basis, gains, controller and
plant.

Key reference (suffixes document units: _m meters, _s seconds, _mps2 m/s^2).
Each key's parser, default and admissible range live in KEYS (obstacle keys
in OBSTACLE_KEYS); a value outside its range is rejected when parsed, whether
or not the chosen plant reads the key.

    plant.kind                integrator_chain | velocity_loop | vtol_nonlinear
    plant.levels              integrator_chain length m
    plant.block_dim           states per block (the outer law is planar)
    plant.gravity_mps2        vtol_nonlinear gravity
    plant.t2                  velocity_loop diagonal pair of level 2
    plant.t3                  velocity_loop diagonal pair of level 3
    plant.t4                  velocity_loop diagonal pair of level 4
    obstacle.<n>.kind         segment | disc
    obstacle.<n>.p1_m         segment endpoint "x, y"
    obstacle.<n>.p2_m         segment endpoint "x, y"
    obstacle.<n>.safe_distance_m   segment inflation radius
    obstacle.<n>.center_m     disc center "x, y"
    obstacle.<n>.radius_m     disc radius
    certificate.level         superlevel threshold v
    certificate.threshold     decay threshold c > v
    rate.k_alpha              decay-rate slope
    nominal.value             constant nominal input "x, y"
    nominal.preset            zero (alternative to nominal.value)
    reshape.directions        positive-basis count n_l
    reshape.k_phi             expansion weight
    reshape.c_a               coverage-constant override (otherwise
                              cos(2*pi/n_l); must pass the coverage condition
                              cbar_a checks)
    cascade.k_tracking        "K_2, ..., K_m" (empty for m = 1)
    cascade.tau               small-gain constant
    cascade.theta             decay constant
    cascade.gamma_12_slope    error-to-certificate gain slope
    cascade.gamma_x2v_slope   safety-law-by-certificate slope
    cascade.k1                outer-law Lipschitz constant, or "estimate"
    cascade.k1_grid           grid points per axis for the estimate
    sim.dt_s                  step size (checked by check_time_grid, after any
                              command-line override)
    sim.horizon_s             duration (checked likewise)
    sim.x1_0_m                initial output block "x, y"
    sim.workspace_m           "xmin, xmax, ymin, ymax" termination box
    audit.samples             disjointness audit sample count
    audit.grid                rate-condition audit grid
    output.csv                trajectory file name
    output.svg                scene plot file name
    output.metrics            metrics file name
    seed                      sampling seed

Unknown keys are rejected. Lines are "key = value"; '#' starts a comment.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .cascade import CascadeController, CascadeGains, SafetyLaw, estimate_lipschitz
# eval_segment is unused here but stays importable: the benchmark's trace
# hooks (benchmarks/workloads.py) rebind scenario.eval_segment.
from .certificates import (  # noqa: F401
    MIN_AUDIT_SAMPLES,
    CertificateSpec,
    Disc,
    Segment,
    eval_segment,
    exp_alpha_bar_for_level,
)
from .errors import ConfigError, DegenerateGeometryError, SafecascadeError
from .qcqp_safety import PlantBounds, RateSpec
from .reshaping import MAX_DIRECTIONS, PositiveBasis, cbar_a, make_positive_basis
from .sim import IDENTIFIED_T2, IDENTIFIED_T3, IDENTIFIED_T4, IntegratorChain, PlantModel, VelocityLoop, VtolNonlinear


@dataclass(frozen=True)
class Key:
    """One config key: how its text parses, its default, and its admissible
    range as a predicate ok on the parsed value with the rule it states
    (ok None: any parsed value)."""

    parse: Callable[[str], object]
    default: object = None
    ok: Callable[[object], bool] | None = None
    rule: str = ""


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _positive(default=None) -> Key:
    return Key(float, default, lambda v: 0.0 < v < math.inf, "finite and positive")


def _count(default: int, least: int) -> Key:
    return Key(int, default, lambda v: v >= least, f"at least {least}")


def _choice(default, *choices: str) -> Key:
    return Key(str, default, lambda v: v in choices, " | ".join(choices))


def _pair(default=None, positive=False) -> Key:
    low = 0.0 if positive else -math.inf
    return Key(_numbers, default, lambda v: len(v) == 2 and all(low < x < math.inf for x in v),
               "two finite positive numbers" if positive else "two finite numbers")


def _file_name(default: str) -> Key:
    return Key(str, default, lambda v: v not in ("", "..") and Path(v).name == v,
               "a file name without a directory")


def _k1_ok(text: str) -> bool:
    if text == "estimate":
        return True
    try:
        return 0.0 < float(text) < math.inf
    except ValueError:
        return False


KEYS: dict[str, Key] = {
    "plant.kind": _choice("integrator_chain", "integrator_chain", "velocity_loop", "vtol_nonlinear"),
    "plant.levels": _count(4, 1),
    "plant.block_dim": Key(int, 2, lambda v: v == 2, "2 (the outer law is planar)"),
    "plant.gravity_mps2": _positive(9.81),
    "plant.t2": _pair(IDENTIFIED_T2, positive=True),
    "plant.t3": _pair(IDENTIFIED_T3, positive=True),
    "plant.t4": _pair(IDENTIFIED_T4, positive=True),
    "certificate.level": _positive(1.0),
    "certificate.threshold": _positive(1.4),
    "rate.k_alpha": _positive(1.0),
    "nominal.value": _pair(),
    "nominal.preset": _choice(None, "zero"),
    "reshape.directions": Key(int, 11, lambda v: v % 2 == 1 and 3 <= v <= MAX_DIRECTIONS,
                              f"odd, 3 to {MAX_DIRECTIONS}"),
    "reshape.k_phi": Key(float, 2.0, lambda v: 0.0 <= v < math.inf, "finite and nonnegative"),
    "reshape.c_a": Key(float, None, lambda v: -1.0 < v < 1.0, "in (-1, 1)"),
    "cascade.k_tracking": Key(_numbers, (), lambda v: all(0.0 < k < math.inf for k in v),
                              "finite positive numbers"),
    "cascade.tau": _positive(1.001),
    "cascade.theta": _positive(0.001),
    "cascade.gamma_12_slope": _positive(4.0),
    "cascade.gamma_x2v_slope": _positive(0.25),
    "cascade.k1": Key(str, "estimate", _k1_ok, "a finite positive number or 'estimate'"),
    # A grid of one point per axis has no slope to estimate.
    "cascade.k1_grid": _count(200, 2),
    "sim.dt_s": Key(float, 1e-3),
    "sim.horizon_s": Key(float, 10.0),
    "sim.x1_0_m": _pair((0.0, 0.0)),
    "sim.workspace_m": Key(
        _numbers, (-5.0, 5.0, -5.0, 5.0),
        lambda b: len(b) == 4 and all(map(math.isfinite, b)) and b[0] < b[1] and b[2] < b[3],
        "finite 'xmin, xmax, ymin, ymax' with xmin < xmax and ymin < ymax"),
    # The audits' own minimum sample count, and both ends of the audited
    # interval of certificate values.
    "audit.samples": _count(2000, MIN_AUDIT_SAMPLES),
    "audit.grid": _count(200, 2),
    "output.csv": _file_name("trajectory.csv"),
    "output.svg": _file_name("path.svg"),
    "output.metrics": _file_name("metrics.json"),
    "seed": _count(0, 0),
}
OBSTACLE_KEYS: dict[str, Key] = {
    "kind": _choice(None, "segment", "disc"),
    "p1_m": _pair(),
    "p2_m": _pair(),
    "safe_distance_m": _positive(),
    "center_m": _pair(),
    "radius_m": _positive(),
}
_OBSTACLE_SHAPES = {
    "segment": {"p1_m", "p2_m", "safe_distance_m"},
    "disc": {"center_m", "radius_m"},
}


@dataclass
class ScenarioConfig:
    """Parsed, range-checked scenario description plus its source hash.

    raw holds the keys the config sets, as parsed; cfg[key] is the value
    or, for a key the config leaves out, its default from KEYS.
    """

    raw: dict
    obstacles: list[dict]
    source_hash: str

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def __getitem__(self, key: str):
        return self.raw[key] if key in self.raw else KEYS[key].default


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse a config; ConfigError naming the line for a malformed line, an
    unknown or repeated key, or a value outside its range."""
    raw: dict = {}
    obstacles: dict[int, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        obstacle = re.fullmatch(r"obstacle\.(\d+)\.(\w+)", key)
        if obstacle:
            table, name = OBSTACLE_KEYS, obstacle.group(2)
            entry = obstacles.setdefault(int(obstacle.group(1)), {})
        else:
            table, name, entry = KEYS, key, raw
        spec = table.get(name)
        if spec is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if name in entry:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            parsed = spec.parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: cannot parse {value!r}") from exc
        if spec.ok is not None and not spec.ok(parsed):
            raise ConfigError(f"line {lineno}: {key} must be {spec.rule}, got {value!r}")
        entry[name] = parsed
    ordered = [obstacles[i] for i in sorted(obstacles)]
    for i, obs in enumerate(ordered, start=1):
        missing = _OBSTACLE_SHAPES.get(obs.get("kind"), {"kind"}) - obs.keys()
        if missing:
            raise ConfigError(f"obstacle {i}: missing {sorted(missing)}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return ScenarioConfig(raw=raw, obstacles=ordered, source_hash=f"sha256:{digest}")


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


@dataclass
class Scenario:
    """Everything a run needs, assembled from one config."""

    config: ScenarioConfig
    plant: PlantModel
    certificates: list[CertificateSpec]
    basis: PositiveBasis | None
    bounds: PlantBounds
    rate: RateSpec
    gains: CascadeGains | None
    controller: CascadeController
    x0: np.ndarray
    dt: float
    horizon: float
    workspace: tuple[tuple[float, float], tuple[float, float]]
    threshold: float
    seed: int
    k1_estimated: bool


def build_certificates(cfg: ScenarioConfig) -> list[CertificateSpec]:
    """One certificate per obstacle; a degenerate obstacle is a ConfigError."""
    certs = []
    for i, obs in enumerate(cfg.obstacles, start=1):
        try:
            if obs["kind"] == "segment":
                certs.append(CertificateSpec(
                    geometry=Segment(np.array(obs["p1_m"]), np.array(obs["p2_m"])),
                    safe_distance=obs["safe_distance_m"],
                    level=cfg["certificate.level"],
                ))
            else:
                certs.append(CertificateSpec(
                    geometry=Disc(np.array(obs["center_m"]), obs["radius_m"]),
                    level=cfg["certificate.level"],
                ))
        except DegenerateGeometryError as exc:
            raise ConfigError(f"obstacle {i}: {exc}") from exc
    return certs


# The most steps a run takes: its trajectory arrays hold one row per step
# (the bundled runs take 10,000 and 25,000).
MAX_STEPS = 10**7


def check_time_grid(dt: float, horizon: float) -> None:
    """Raise ConfigError unless dt and horizon are finite and positive and
    the horizon holds at least one step and at most MAX_STEPS.

    build_scenario leaves the grid unchecked: a run checks the values it
    uses, after any command-line override.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"step size must be finite and positive, got {dt}")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ConfigError(f"horizon must be finite and positive, got {horizon}")
    steps = horizon / dt                # inf for a subnormal dt
    if steps > MAX_STEPS:
        raise ConfigError(f"horizon {horizon} s holds {steps:.3g} steps of {dt} s, "
                          f"more than {MAX_STEPS:.0e}")
    if round(steps) < 1:
        raise ConfigError(f"horizon {horizon} s holds no step of {dt} s")


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Assemble a scenario. Every value is already in its KEYS range; only
    the conditions that involve more than one key are checked here."""
    kind = cfg["plant.kind"]
    if kind == "integrator_chain":
        plant: PlantModel = IntegratorChain(m=cfg["plant.levels"])
    elif kind == "velocity_loop":
        plant = VelocityLoop(t2=cfg["plant.t2"], t3=cfg["plant.t3"], t4=cfg["plant.t4"])
    else:
        plant = VtolNonlinear(gravity=cfg["plant.gravity_mps2"])
    levels = plant.levels
    k_tracking = cfg["cascade.k_tracking"]
    if len(k_tracking) != levels - 1:
        raise ConfigError(f"cascade.k_tracking needs {levels - 1} entries for {levels} levels, "
                          f"got {len(k_tracking)}")

    certs = build_certificates(cfg)
    level = cfg["certificate.level"]
    threshold = cfg["certificate.threshold"]
    if threshold <= level:
        raise ConfigError(f"certificate.threshold must be above certificate.level {level}, "
                          f"got {threshold}")
    bounds = PlantBounds(g_lower=1.0, delta_upper=0.0)
    _, abar_inv = exp_alpha_bar_for_level(level)
    # The Lipschitz selection needs this negative-side steepening (RateSpec).
    rate = RateSpec(base_slope=cfg["rate.k_alpha"], alpha_bar_inverse=abar_inv,
                    negative_ratio=bounds.gain_ratio)

    if cfg["nominal.preset"] == "zero":
        nominal = np.zeros(2)
    elif cfg["nominal.value"] is not None:
        nominal = cfg["nominal.value"]
    else:
        raise ConfigError("need nominal.value or nominal.preset")

    basis = None
    if certs:
        try:
            basis = make_positive_basis(2, cfg["reshape.directions"])
            if cfg["reshape.c_a"] is not None:
                basis = PositiveBasis(basis.a_l, cfg["reshape.c_a"])
            # The coverage condition every reshaping checks; a constant that
            # fails it would stop every run at its first step.
            cbar_a(bounds.norm_coefficient, basis.c_a)
        except SafecascadeError as exc:
            raise ConfigError(f"reshape: {exc}") from exc

    x_lo, x_hi, y_lo, y_hi = cfg["sim.workspace_m"]
    workspace = ((x_lo, x_hi), (y_lo, y_hi))
    # One law serves the k1 estimate and the controller.
    law = SafetyLaw(certs, nominal, basis, bounds, rate, cfg["reshape.k_phi"])
    k1_estimated = levels > 1 and cfg["cascade.k1"] == "estimate"
    gains = None
    if levels > 1:
        if k1_estimated:
            k1 = estimate_safety_law_lipschitz(law, workspace, grid=cfg["cascade.k1_grid"])
        else:
            k1 = float(cfg["cascade.k1"])
        gains = CascadeGains(
            tracking_slopes=k_tracking,
            k1=k1,
            tau=cfg["cascade.tau"],
            theta=cfg["cascade.theta"],
            gamma_12_slope=cfg["cascade.gamma_12_slope"],
            gamma_x2v_slope=cfg["cascade.gamma_x2v_slope"],
        )

    return Scenario(
        config=cfg,
        plant=plant,
        certificates=certs,
        basis=basis,
        bounds=bounds,
        rate=rate,
        gains=gains,
        controller=CascadeController(law, gains),
        x0=plant.initial_state(np.asarray(cfg["sim.x1_0_m"], dtype=float)),
        dt=cfg["sim.dt_s"],
        horizon=cfg["sim.horizon_s"],
        workspace=workspace,
        threshold=threshold,
        seed=cfg["seed"],
        k1_estimated=k1_estimated,
    )


def estimate_safety_law_lipschitz(law: SafetyLaw, workspace, grid: int) -> float:
    """Grid Lipschitz lower bound of the outer safety law over the workspace.

    The law is evaluated on blocks of whole grid rows (estimate_lipschitz).
    States inside an inflated segment obstacle, and states where the law is
    undefined (NaN rows, or the whole block when the law raises a package
    error), are masked out; only adjacent safe-region points contribute
    slopes. The mask reads the clearances the law's own evaluation
    computed, so each certificate is evaluated once per state. Any other
    exception is a fault and propagates.
    """
    def masked(x):
        try:
            values, h, _ = law.evaluate(x)
        except SafecascadeError:
            return np.full(x.shape, math.nan)
        values = np.array(values, dtype=float)
        for j, cert in enumerate(law.certs):
            if isinstance(cert.geometry, Segment):
                values[h[..., j] < 0] = math.nan
        return values
    return estimate_lipschitz(masked, workspace, grid=grid)
