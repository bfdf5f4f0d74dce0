"""Scenario configuration: a flat dotted-key text format, the builders that
turn a parsed config into certificates, basis, gains, controller and plant,
and DesignReport, the one record of every design check of a built scenario.

Key reference (suffixes document units: _m meters, _s seconds, _mps2 m/s^2).
Each key's parser, default and admissible range live in KEYS (obstacle keys
in OBSTACLE_KEYS); a value outside its range is rejected when parsed, whether
or not the chosen plant reads the key.

    plant.kind                integrator_chain | velocity_loop | vtol_nonlinear
    plant.levels              integrator_chain length m
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
    certificate.threshold     decay threshold above the level v
    rate.k_alpha              decay-rate slope
    nominal.value             constant nominal input "x, y" (required; each
                              at most MAX_NOMINAL in magnitude)
    reshape.directions        positive-basis count n_l
    reshape.k_phi             expansion weight
    cascade.k_tracking        "K_2, ..., K_m" (empty for m = 1)
    cascade.tau               small-gain constant
    cascade.theta             decay constant
    cascade.gamma_12_slope    error-to-certificate gain slope
    cascade.gamma_x2v_slope   safety-law-by-certificate slope
    cascade.k1                outer-law Lipschitz constant, or "estimate"
    cascade.k1_grid           grid points per axis for the estimate (at
                              most MAX_K1_GRID)
    sim.dt_s                  step size (checked by check_time_grid, after any
                              command-line override)
    sim.horizon_s             duration (checked likewise)
    sim.x1_0_m                initial output block "x, y"
    sim.workspace_m           "xmin, xmax, ymin, ymax" termination box
    output.csv                trajectory file name
    output.svg                scene plot file name
    output.metrics            metrics file name

Unknown keys are rejected. Lines are "key = value"; '#' starts a comment.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import cascade
from .cascade import (CascadeController, CascadeGains, LevelMargin, SafetyLaw, SmallGainReport,
                      estimate_lipschitz, k_selection_audit, small_gain_audit)
# eval_segment is unused here but stays importable: the benchmark's trace
# hooks (benchmarks/workloads.py) rebind scenario.eval_segment.
from .certificates import (  # noqa: F401
    CertificateSpec,
    DisjointnessReport,
    Disc,
    Segment,
    disjointness_audit,
    eval_segment,
)
from .errors import ConfigError, DegenerateGeometryError, SafecascadeError
from .qcqp_safety import RateConditionReport, rate_condition_audit
from .qp_solver import states_last
from .reshaping import MAX_DIRECTIONS, PositiveBasis, make_positive_basis
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


def _positive(default=None, most: float = math.inf) -> Key:
    rule = "finite and positive" if most == math.inf else f"positive, at most {most:g}"
    return Key(float, default, lambda v: 0.0 < v < math.inf and v <= most, rule)


def _between(default: float, least: float, most: float) -> Key:
    return Key(float, default, lambda v: least <= v <= most, f"{least:g} to {most:g}")


def _count(default: int, least: int, most: float = math.inf) -> Key:
    rule = f"at least {least}" if most == math.inf else f"{least} to {most}"
    return Key(int, default, lambda v: least <= v <= most, rule)


def _choice(default, *choices: str) -> Key:
    return Key(str, default, lambda v: v in choices, " | ".join(choices))


def _pair(default=None, positive=False, most: float = math.inf) -> Key:
    low = 0.0 if positive else -math.inf
    rule = "two finite positive numbers" if positive else "two finite numbers"
    return Key(_numbers, default, lambda v: len(v) == 2 and all(low < x < math.inf and abs(x) <= most for x in v),
               rule if most == math.inf else f"{rule} of magnitude at most {most:g}")


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


# The finest k1 grid per axis: the estimate holds all grid^2 states and
# their values at once, about 90 bytes a state at its peak, so 2,000 per axis
# is 4e6 states and about 350 MB.
MAX_K1_GRID = 2000

# The deepest a state reaches into an obstacle, -h: a segment's safe distance,
# a disc's R^2. V = exp(-h) is largest there and the rate audit runs up to that
# V, so it must be finite with room for the products taken with it:
# exp(700) is about 1e304.
MAX_CLEARANCE_DEPTH = 700.0

# The safety loop's small-gain slope is gamma_12^2 / tau: 1e150 squares to 1e300.
MAX_GAMMA_12_SLOPE = 1e150

# The rate audit runs V up to exp(MAX_CLEARANCE_DEPTH) or 1.01 thresholds,
# both at most 1.02e304, and a constraint offset takes the rate at such a V.
# Each bound keeps one product with that V finite:
# - certificate.level >= 1e-3: V / level <= 1.02e307 (the envelope inverse);
# - certificate.threshold <= 1e300: 1.01 thresholds stay below 1.02e304;
# - rate.k_alpha <= 1e300: k_alpha * log1p(V / level) <= 7.1e302;
# - cascade.theta <= 1e4 with cascade.gamma_12_slope >= 1e-3:
#   theta V + 2 V / gamma_12 <= 1.23e308.
MIN_CERTIFICATE_LEVEL = 1e-3
MAX_CERTIFICATE_THRESHOLD = 1e300
MAX_RATE_SLOPE = 1e300
MAX_THETA = 1e4
MIN_GAMMA_12_SLOPE = 1e-3

# The largest nominal component: the projection's edge point u0 - step * a,
# with step about |u0|, carries a rounding error of about eps |u0|, below
# its 1e-9 tolerance up to 1e6. At 1e16 a run on vtol_unsafe.cfg came to
# 0.011 m of a wall rather than 0.15 m, with no error.
MAX_NOMINAL = 1e6

KEYS: dict[str, Key] = {
    "plant.kind": _choice("integrator_chain", "integrator_chain", "velocity_loop", "vtol_nonlinear"),
    "plant.levels": _count(4, 1),
    "plant.gravity_mps2": _positive(9.81),
    "plant.t2": _pair(IDENTIFIED_T2, positive=True),
    "plant.t3": _pair(IDENTIFIED_T3, positive=True),
    "plant.t4": _pair(IDENTIFIED_T4, positive=True),
    # The level lies below the threshold.
    "certificate.level": _between(1.0, MIN_CERTIFICATE_LEVEL, MAX_CERTIFICATE_THRESHOLD),
    "certificate.threshold": _positive(1.4, MAX_CERTIFICATE_THRESHOLD),
    "rate.k_alpha": _positive(1.0, MAX_RATE_SLOPE),
    "nominal.value": _pair(most=MAX_NOMINAL),
    # Three rows at 120 degrees carry the coverage constant -1/2, which the
    # reshaping cannot use; regular polygons have cos(2 pi / n) > 0 from 5.
    "reshape.directions": Key(int, 11, lambda v: v % 2 == 1 and 5 <= v <= MAX_DIRECTIONS,
                              f"odd, 5 to {MAX_DIRECTIONS}"),
    "reshape.k_phi": Key(float, 2.0, lambda v: 0.0 <= v < math.inf, "finite and nonnegative"),
    "cascade.k_tracking": Key(_numbers, (), lambda v: all(0.0 < k < math.inf for k in v),
                              "finite positive numbers"),
    "cascade.tau": _positive(1.001),
    "cascade.theta": _positive(0.001, MAX_THETA),
    "cascade.gamma_12_slope": _between(4.0, MIN_GAMMA_12_SLOPE, MAX_GAMMA_12_SLOPE),
    "cascade.gamma_x2v_slope": _positive(0.25),
    "cascade.k1": Key(str, "estimate", _k1_ok, "a finite positive number or 'estimate'"),
    # A grid of one point per axis has no slope to estimate.
    "cascade.k1_grid": _count(200, 2, MAX_K1_GRID),
    "sim.dt_s": Key(float, 1e-3),
    "sim.horizon_s": Key(float, 10.0),
    "sim.x1_0_m": _pair((0.0, 0.0)),
    "sim.workspace_m": Key(
        _numbers, (-5.0, 5.0, -5.0, 5.0),
        lambda b: len(b) == 4 and all(map(math.isfinite, b)) and b[0] < b[1] and b[2] < b[3],
        "finite 'xmin, xmax, ymin, ymax' with xmin < xmax and ymin < ymax"),
    "output.csv": _file_name("trajectory.csv"),
    "output.svg": _file_name("path.svg"),
    "output.metrics": _file_name("metrics.json"),
}
OBSTACLE_KEYS: dict[str, Key] = {
    "kind": _choice(None, "segment", "disc"),
    "p1_m": _pair(),
    "p2_m": _pair(),
    "safe_distance_m": _positive(None, MAX_CLEARANCE_DEPTH),
    "center_m": _pair(),
    "radius_m": Key(float, None, lambda v: 0.0 < v and v * v <= MAX_CLEARANCE_DEPTH,
                    f"positive, its square at most {MAX_CLEARANCE_DEPTH:g}"),
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
    gains: CascadeGains | None
    controller: CascadeController
    x0: np.ndarray
    dt: float
    horizon: float
    workspace: tuple[tuple[float, float], tuple[float, float]]
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
    nominal = cfg["nominal.value"]
    if nominal is None:
        raise ConfigError("need nominal.value")

    # Every admitted direction count (odd, 5 to 101) builds a basis with
    # c_a = cos(2 pi / n_l) > 0, the one condition reshaping checks.
    basis = make_positive_basis(cfg["reshape.directions"]) if certs else None

    x_lo, x_hi, y_lo, y_hi = cfg["sim.workspace_m"]
    workspace = ((x_lo, x_hi), (y_lo, y_hi))
    # One law serves the k1 estimate and the controller.
    law = SafetyLaw(certs, nominal, basis, cfg["rate.k_alpha"], cfg["reshape.k_phi"])
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
        gains=gains,
        controller=CascadeController(law, gains),
        x0=plant.initial_state(np.asarray(cfg["sim.x1_0_m"], dtype=float)),
        dt=cfg["sim.dt_s"],
        horizon=cfg["sim.horizon_s"],
        workspace=workspace,
        k1_estimated=k1_estimated,
    )


def estimate_safety_law_lipschitz(law: SafetyLaw, workspace, grid: int) -> float:
    """Grid Lipschitz lower bound of the outer safety law over the workspace.

    The law runs on blocks of whole grid rows (estimate_lipschitz), and only
    adjacent states where it is defined, outside every inflated segment
    (h >= 0), contribute slopes. Each block builds its constraint set once,
    so each certificate is evaluated once per state, and reads the mask from
    that set's h: the filter gets the set with the masked states' offsets
    at +inf, which its inactive-state test passes through, and those states
    are then NaN. Every other state gets the law's bits (NaN where the law is
    undefined, and over the whole block when a stage raises a package error);
    both stages are called through cascade's names, and a law without
    certificates is its evaluate. Any other exception propagates.
    """
    segments = [j for j, cert in enumerate(law.certs) if isinstance(cert.geometry, Segment)]

    def masked(x):
        try:
            if not law.certs:
                return law.evaluate(x)[0]
            cs = cascade.build_constraint_set(x, law.certs, law.k_alpha)
            h, inside = states_last(cs.h), np.zeros(x.shape[0], dtype=bool)
            for j in segments:
                inside |= h[j] < 0
            values = cascade.reshaped_filter(law.nominal, cs.lifted(inside), law.basis, law.k_phi,
                                             nominal_dots=law.nominal_dots)
        except SafecascadeError:
            return np.full(x.shape, math.nan)
        values[inside] = math.nan
        return values
    return estimate_lipschitz(masked, workspace, grid=grid)


@dataclass(frozen=True)
class DesignReport:
    """Every design check of one scenario, each part computed on first read
    and kept. k1, its source, the kbar table, the gain-selection margins and
    the small-gain report are None without cascade gains; the basis (its
    report is its validation) and the disjointness and rate-condition audits
    are None without certificates. `run` records the margins, the small-gain
    report and the basis, and never computes the two audits of the sets."""

    scenario: Scenario

    @property
    def k1(self) -> float | None:
        return None if self.scenario.gains is None else self.scenario.gains.k1

    @property
    def k1_source(self) -> str | None:
        """Where k1 came from: "estimated" (cascade.k1 = estimate) or "configured"."""
        if self.scenario.gains is None:
            return None
        return "estimated" if self.scenario.k1_estimated else "configured"

    @cached_property
    def kbar_table(self) -> list[tuple[float, ...]] | None:
        """Row i - 1 holds kbar(1, i), ..., kbar(i, i) for each level i."""
        g = self.scenario.gains
        return None if g is None else [tuple(g.kbar(p, i) for p in range(1, i + 1))
                                       for i in range(1, g.m + 1)]

    @cached_property
    def gain_margins(self) -> list[LevelMargin] | None:
        return None if self.scenario.gains is None else k_selection_audit(self.scenario.gains)

    @cached_property
    def small_gain(self) -> SmallGainReport | None:
        return None if self.scenario.gains is None else small_gain_audit(self.scenario.gains)

    @property
    def basis(self) -> PositiveBasis | None:
        return self.scenario.controller.rho1.basis

    @cached_property
    def disjointness(self) -> DisjointnessReport | None:
        certs = self.scenario.controller.rho1.certs
        return disjointness_audit(certs) if certs else None

    @cached_property
    def rate_condition(self) -> RateConditionReport | None:
        s, law = self.scenario, self.scenario.controller.rho1
        if not law.certs:
            return None
        threshold = s.config["certificate.threshold"]
        # V = exp(-h) is largest where h is least: h >= -safe distance for
        # a segment, h >= -R^2 for a disc (both bounded in OBSTACLE_KEYS).
        v_max = max(math.exp(c.geometry.radius ** 2 if isinstance(c.geometry, Disc) else c.safe_distance)
                    for c in law.certs)
        return rate_condition_audit(law.k_alpha, law.certs[0].level, threshold, s.config["cascade.theta"],
                                    s.config["cascade.gamma_12_slope"], v_max=max(v_max, threshold * 1.01))
