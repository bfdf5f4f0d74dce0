"""Scenario configuration: a flat dotted-key text format and the builders
that turn a parsed config into certificates, basis, gains, controller and
plant.

Key reference (suffixes document units: _m meters, _s seconds, _mps2 m/s^2):

    plant.kind                integrator_chain | velocity_loop | vtol_nonlinear
    plant.levels              chain length m (integrator_chain, default 4)
    plant.block_dim           states per block (2: the outer law is planar)
    plant.gravity_mps2        vtol_nonlinear gravity (default 9.81; finite, > 0)
    plant.t2 / .t3 / .t4      velocity_loop diagonal pairs (defaults: identified;
                              entries finite, > 0)
    obstacle.<n>.kind         segment | disc
    obstacle.<n>.p1_m         segment endpoint "x, y"
    obstacle.<n>.p2_m         segment endpoint "x, y"
    obstacle.<n>.safe_distance_m   inflation radius (segment)
    obstacle.<n>.center_m     disc center "x, y"
    obstacle.<n>.radius_m     disc radius
    certificate.level         superlevel threshold v (default 1.0)
    certificate.threshold     decay threshold c > v (default 1.4)
    rate.k_alpha              decay-rate slope (default 1.0)
    nominal.value             constant nominal input "x, y"
    nominal.preset            zero (the only preset; alternative to nominal.value)
    reshape.directions        positive-basis count n_l (odd, default 11)
    reshape.k_phi             expansion weight (default 2.0)
    reshape.c_a               coverage-constant override (default cos(2*pi/n_l);
                              must pass the coverage condition cbar_a checks)
    cascade.k_tracking        "K_2, ..., K_m" (empty for m = 1)
    cascade.tau               small-gain constant > 1 (default 1.001)
    cascade.theta             decay constant > 0 (default 0.001)
    cascade.gamma_12_slope    error-to-certificate gain slope (default 4.0)
    cascade.gamma_x2v_slope   safety-law-by-certificate slope (default 0.25)
    cascade.k1                outer-law Lipschitz constant, or "estimate"
    cascade.k1_grid           grid for the estimate (default 200, at least 2)
    sim.dt_s                  step size (default 1e-3)
    sim.horizon_s             duration (default 10.0)
    sim.x1_0_m                initial output block "x, y"
    sim.workspace_m           "xmin, xmax, ymin, ymax" termination box (finite,
                              xmin < xmax, ymin < ymax)
    audit.samples             disjointness audit sample count (default 2000,
                              at least 1000)
    audit.grid                rate-condition audit grid (default 200, at least 2)
    output.csv / .svg / .metrics   output file names
    seed                      sampling seed (default 0, nonnegative)

Unknown keys are rejected. Lines are "key = value"; '#' starts a comment.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cascade import CascadeController, CascadeGains, build_cascade_controller, estimate_lipschitz, safety_virtual_law
from .certificates import (
    MIN_AUDIT_SAMPLES,
    CertificateSpec,
    Disc,
    Segment,
    eval_segment,
    exp_alpha_bar_for_level,
)
from .errors import ConfigError, DegenerateGeometryError, SafecascadeError
from .qcqp_safety import PlantBounds, RateSpec
from .reshaping import PositiveBasis, cbar_a, make_positive_basis
from .sim import IDENTIFIED_T2, IDENTIFIED_T3, IDENTIFIED_T4, IntegratorChain, PlantModel, VelocityLoop, VtolNonlinear

_SCALAR_KEYS = {
    "plant.kind": str,
    "plant.levels": int,
    "plant.block_dim": int,
    "plant.gravity_mps2": float,
    "certificate.level": float,
    "certificate.threshold": float,
    "rate.k_alpha": float,
    "nominal.preset": str,
    "reshape.directions": int,
    "reshape.k_phi": float,
    "reshape.c_a": float,
    "cascade.tau": float,
    "cascade.theta": float,
    "cascade.gamma_12_slope": float,
    "cascade.gamma_x2v_slope": float,
    "cascade.k1": str,
    "cascade.k1_grid": int,
    "sim.dt_s": float,
    "sim.horizon_s": float,
    "audit.samples": int,
    "audit.grid": int,
    "output.csv": str,
    "output.svg": str,
    "output.metrics": str,
    "seed": int,
}
_VECTOR_KEYS = {
    "plant.t2": 2,
    "plant.t3": 2,
    "plant.t4": 2,
    "nominal.value": 2,
    "cascade.k_tracking": None,   # variable length
    "sim.x1_0_m": 2,
    "sim.workspace_m": 4,
}
_OBSTACLE_KEYS = {
    "kind": str,
    "p1_m": 2,
    "p2_m": 2,
    "safe_distance_m": float,
    "center_m": 2,
    "radius_m": float,
}


@dataclass
class ScenarioConfig:
    """Parsed, validated scenario description plus its source hash."""

    raw: dict
    obstacles: list[dict]
    source_hash: str

    def get(self, key, default=None):
        return self.raw.get(key, default)


def _parse_value(key: str, text: str):
    if key in _SCALAR_KEYS:
        kind = _SCALAR_KEYS[key]
        try:
            return kind(text) if kind is not str else text
        except ValueError as exc:
            raise ConfigError(f"key {key}: cannot parse {text!r}") from exc
    if key in _VECTOR_KEYS:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        try:
            values = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"key {key}: cannot parse {text!r}") from exc
        want = _VECTOR_KEYS[key]
        if want is not None and len(values) != want:
            raise ConfigError(f"key {key}: expected {want} numbers, got {len(values)}")
        return values
    raise ConfigError(f"unknown key {key!r}")


def parse_config_text(text: str) -> ScenarioConfig:
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
            index, sub = int(obstacle.group(1)), obstacle.group(2)
            if sub not in _OBSTACLE_KEYS:
                raise ConfigError(f"line {lineno}: unknown obstacle key {sub!r}")
            entry = obstacles.setdefault(index, {})
            if sub in entry:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            kind = _OBSTACLE_KEYS[sub]
            try:
                if kind is str:
                    parsed = value
                elif kind is float:
                    parsed = float(value)
                else:
                    parsed = tuple(float(p) for p in value.split(",") if p.strip())
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: cannot parse {value!r}") from exc
            if isinstance(kind, int) and len(parsed) != kind:
                raise ConfigError(f"line {lineno}: expected {kind} numbers")
            entry[sub] = parsed
            continue
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = _parse_value(key, value)
    ordered = [obstacles[i] for i in sorted(obstacles)]
    for i, obs in enumerate(ordered):
        kind = obs.get("kind")
        if kind == "segment":
            missing = {"p1_m", "p2_m", "safe_distance_m"} - obs.keys()
        elif kind == "disc":
            missing = {"center_m", "radius_m"} - obs.keys()
        else:
            raise ConfigError(f"obstacle {i + 1}: kind must be segment or disc")
        if missing:
            raise ConfigError(f"obstacle {i + 1}: missing {sorted(missing)}")
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
    nominal: np.ndarray
    x0: np.ndarray
    dt: float
    horizon: float
    workspace: tuple[tuple[float, float], tuple[float, float]]
    k_phi: float
    threshold: float
    seed: int
    k1_estimated: bool


def _finite_positive(cfg: ScenarioConfig, key: str, default: float) -> float:
    """The value of a numeric key; ConfigError unless finite and positive."""
    value = cfg.get(key, default)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{key} must be finite and positive, got {value}")
    return value


def _at_least(cfg: ScenarioConfig, key: str, default: int, least: int) -> int:
    """The value of an integer key; ConfigError below least."""
    value = cfg.get(key, default)
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _finite_positive_entries(cfg: ScenarioConfig, key: str, default: tuple) -> tuple:
    """The value of a vector key; ConfigError unless every entry is finite
    and positive."""
    value = tuple(cfg.get(key, default))
    if not all(math.isfinite(v) and v > 0.0 for v in value):
        raise ConfigError(f"{key} entries must be finite and positive, got {value}")
    return value


def build_certificates(cfg: ScenarioConfig) -> list[CertificateSpec]:
    """One certificate per obstacle; a malformed obstacle is a ConfigError."""
    level = _finite_positive(cfg, "certificate.level", 1.0)
    certs = []
    for i, obs in enumerate(cfg.obstacles, start=1):
        numbers = np.hstack([v for k, v in obs.items() if k != "kind"])
        if not np.all(np.isfinite(numbers)):
            raise ConfigError(f"obstacle {i}: values must be finite")
        try:
            if obs["kind"] == "segment":
                certs.append(CertificateSpec(
                    geometry=Segment(np.array(obs["p1_m"]), np.array(obs["p2_m"])),
                    safe_distance=obs["safe_distance_m"],
                    level=level,
                ))
            else:
                certs.append(CertificateSpec(
                    geometry=Disc(np.array(obs["center_m"]), obs["radius_m"]),
                    level=level,
                ))
        except DegenerateGeometryError as exc:
            raise ConfigError(f"obstacle {i}: {exc}") from exc
    return certs


def check_time_grid(dt: float, horizon: float) -> None:
    """Raise ConfigError unless dt and horizon are finite and positive and
    the horizon holds at least one step.

    build_scenario leaves the grid unchecked: a run checks the values it
    uses, after any command-line override.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"step size must be finite and positive, got {dt}")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ConfigError(f"horizon must be finite and positive, got {horizon}")
    if round(horizon / dt) < 1:
        raise ConfigError(f"horizon {horizon} s holds no step of {dt} s")


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    kind = cfg.get("plant.kind", "integrator_chain")
    block_dim = cfg.get("plant.block_dim", 2)
    if block_dim != 2:
        raise ConfigError(f"plant.block_dim must be 2 (the outer law is planar), got {block_dim}")
    k_tracking = cfg.get("cascade.k_tracking", ())
    if not all(math.isfinite(k) and k > 0.0 for k in k_tracking):
        raise ConfigError(f"cascade.k_tracking entries must be finite and positive, got {k_tracking}")
    # Plant constants are checked whichever plant reads them.
    gravity = _finite_positive(cfg, "plant.gravity_mps2", 9.81)
    t2 = _finite_positive_entries(cfg, "plant.t2", IDENTIFIED_T2)
    t3 = _finite_positive_entries(cfg, "plant.t3", IDENTIFIED_T3)
    t4 = _finite_positive_entries(cfg, "plant.t4", IDENTIFIED_T4)
    if kind == "integrator_chain":
        levels = cfg.get("plant.levels", 4)
        if levels < 1:
            raise ConfigError(f"plant.levels must be at least 1, got {levels}")
        plant: PlantModel = IntegratorChain(m=levels, block_dim=block_dim)
        controller_levels = levels
    elif kind == "velocity_loop":
        plant = VelocityLoop(t2=t2, t3=t3, t4=t4)
        controller_levels = 1
    elif kind == "vtol_nonlinear":
        plant = VtolNonlinear(gravity=gravity)
        controller_levels = 4
    else:
        raise ConfigError(f"unknown plant.kind {kind!r}")
    if controller_levels > 1 and len(k_tracking) != controller_levels - 1:
        raise ConfigError(
            f"cascade.k_tracking needs {controller_levels - 1} entries for {controller_levels} levels"
        )
    if controller_levels == 1 and k_tracking:
        raise ConfigError("cascade.k_tracking given for a single-level plant")

    certs = build_certificates(cfg)
    level = cfg.get("certificate.level", 1.0)
    threshold = cfg.get("certificate.threshold", 1.4)
    if not (math.isfinite(threshold) and threshold > level):
        raise ConfigError(f"certificate.threshold must be finite and above the level {level}, "
                          f"got {threshold}")
    k_alpha = _finite_positive(cfg, "rate.k_alpha", 1.0)
    tau = _finite_positive(cfg, "cascade.tau", 1.001)
    theta = _finite_positive(cfg, "cascade.theta", 0.001)
    gamma_12 = _finite_positive(cfg, "cascade.gamma_12_slope", 4.0)
    gamma_x2v = _finite_positive(cfg, "cascade.gamma_x2v_slope", 0.25)
    bounds = PlantBounds(g_lower=1.0, g_upper=1.0, delta_upper=0.0)
    _, abar_inv = exp_alpha_bar_for_level(level)
    rate = RateSpec(base_slope=k_alpha, alpha_bar_inverse=abar_inv)

    preset = cfg.get("nominal.preset")
    if preset not in (None, "zero"):
        raise ConfigError(f"nominal.preset must be 'zero', got {preset!r}")
    if preset == "zero":
        nominal = np.zeros(2)
    else:
        value = cfg.get("nominal.value")
        if value is None:
            raise ConfigError("need nominal.value or nominal.preset")
        nominal = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(nominal)):
            raise ConfigError(f"nominal.value must be finite, got {value}")

    n_l = cfg.get("reshape.directions", 11)
    k_phi = cfg.get("reshape.k_phi", 2.0)
    if not (math.isfinite(k_phi) and k_phi >= 0.0):
        raise ConfigError(f"reshape.k_phi must be finite and nonnegative, got {k_phi}")
    try:
        basis = make_positive_basis(2, n_l) if certs else None
        if basis is not None and cfg.get("reshape.c_a") is not None:
            basis = PositiveBasis(basis.a_l, cfg.get("reshape.c_a"))
        if basis is not None:
            # The coverage condition every reshaping checks; a constant that
            # fails it would stop every run at its first step.
            cbar_a(bounds.norm_coefficient, basis.c_a)
    except (SafecascadeError, ValueError) as exc:
        raise ConfigError(f"reshape: {exc}") from exc

    box = cfg.get("sim.workspace_m", (-5.0, 5.0, -5.0, 5.0))
    x_lo, x_hi, y_lo, y_hi = box
    if not (all(math.isfinite(v) for v in box) and x_lo < x_hi and y_lo < y_hi):
        raise ConfigError("sim.workspace_m must be finite 'xmin, xmax, ymin, ymax' with "
                          f"xmin < xmax and ymin < ymax, got {box}")
    workspace = ((x_lo, x_hi), (y_lo, y_hi))
    # The audits' own minimum sample count, and both ends of the audited
    # interval of certificate values.
    _at_least(cfg, "audit.samples", 2000, MIN_AUDIT_SAMPLES)
    _at_least(cfg, "audit.grid", 200, 2)
    x1_0 = np.asarray(cfg.get("sim.x1_0_m", (0.0, 0.0)), dtype=float)
    if not np.all(np.isfinite(x1_0)):
        raise ConfigError(f"sim.x1_0_m must be finite, got {tuple(x1_0)}")
    dt = cfg.get("sim.dt_s", 1e-3)
    horizon = cfg.get("sim.horizon_s", 10.0)

    nominal_fn = lambda x: nominal
    # A grid of one point per axis has no slope to estimate.
    k1_grid = _at_least(cfg, "cascade.k1_grid", 200, 2)
    k1_text = cfg.get("cascade.k1", "estimate")
    k1_estimated = False
    if controller_levels > 1 or k_tracking:
        if k1_text == "estimate":
            law = safety_virtual_law(certs, nominal_fn, basis, bounds, rate, k_phi=k_phi) \
                if certs else (lambda x: nominal)
            k1 = estimate_safety_law_lipschitz(
                law, certs, workspace, grid=k1_grid)
            k1_estimated = True
        else:
            try:
                k1 = float(k1_text)
            except ValueError as exc:
                raise ConfigError("cascade.k1 must be a number or 'estimate'") from exc
            if not (math.isfinite(k1) and k1 > 0.0):
                raise ConfigError(f"cascade.k1 must be finite and positive, got {k1}")
        gains = CascadeGains(
            tracking_slopes=tuple(k_tracking),
            k1=k1,
            tau=tau,
            theta=theta,
            k_alpha=k_alpha,
            gamma_12_slope=gamma_12,
            gamma_x2v_slope=gamma_x2v,
        )
    else:
        gains = None

    if gains is not None and controller_levels > 1:
        controller = build_cascade_controller(
            certs, nominal_fn, basis, gains, bounds=bounds, rates=rate, k_phi=k_phi)
    else:
        rho1 = safety_virtual_law(certs, nominal_fn, basis, bounds, rate, k_phi=k_phi) \
            if certs else (lambda x: nominal)
        controller = CascadeController(rho1=rho1, tracking_laws=(), gains=gains)

    if isinstance(plant, IntegratorChain):
        x0 = np.zeros(plant.state_dim)
        x0[:block_dim] = x1_0
    elif isinstance(plant, VelocityLoop):
        x0 = np.zeros(8)
        x0[:2] = x1_0
    else:
        x0 = np.zeros(8)
        x0[:2] = x1_0
        x0[6] = gravity   # start at hover thrust

    return Scenario(
        config=cfg,
        plant=plant,
        certificates=certs,
        basis=basis,
        bounds=bounds,
        rate=rate,
        gains=gains,
        controller=controller,
        nominal=nominal,
        x0=x0,
        dt=dt,
        horizon=horizon,
        workspace=workspace,
        k_phi=k_phi,
        threshold=threshold,
        seed=_at_least(cfg, "seed", 0, 0),
        k1_estimated=k1_estimated,
    )


def estimate_safety_law_lipschitz(law, certs, workspace, grid: int = 200) -> float:
    """Grid Lipschitz lower bound of the outer safety law over the workspace.

    The law is evaluated on one grid row of states per call. States inside
    an inflated segment obstacle, and states where the law is undefined
    (NaN rows, or the whole row when the law raises a package error), are
    masked out; only adjacent safe-region points contribute slopes. Any
    other exception is a fault and propagates.
    """
    def masked(x):
        try:
            values = np.array(law(x), dtype=float)
        except SafecascadeError:
            return np.full(x.shape, math.nan)
        for cert in certs:
            if isinstance(cert.geometry, Segment):
                values[eval_segment(cert, x).h < 0] = math.nan
        return values
    return estimate_lipschitz(masked, workspace, grid=grid)
