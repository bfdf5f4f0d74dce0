"""Closed-loop simulation: integrator chains, the planar VTOL with dynamic
feedback linearization, and the identified velocity-loop plant.

Plant steppers use classical fixed-step RK4 with the input held over the
step. The closed-loop driver holds the safety-filter output over each step
but integrates the inner linear tracking levels of an integrator-chain
cascade by the exact LTI flow: with tracking gains in the 1e5 range the
sampled proportional loops are far outside any explicit integrator's
stability region at millisecond steps, while the exact flow is stable for
every step size and reproduces the continuous-time behavior the design
analysis is about.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.linalg import expm

from .cascade import CascadeController
from .certificates import CertificateSpec, certificate_value
from .errors import NonFiniteStateError, SafecascadeError, ThrustSingularityError

IDENTIFIED_T2 = (0.2928, 2.6711)
IDENTIFIED_T3 = (1.2231, 29.7555)
IDENTIFIED_T4 = (4.1709, 113.3872)


@dataclass(frozen=True)
class IntegratorChain:
    """Chain of m integrator blocks; block_dim states per block."""

    m: int
    block_dim: int = 2

    @property
    def state_dim(self) -> int:
        return self.m * self.block_dim


@dataclass(frozen=True)
class VtolNonlinear:
    """Planar VTOL with thrust dynamics appended for feedback linearization.

    State layout: [px, py, vx, vy, theta, omega, a1, a1_dot]. The commanded
    input is the fourth position derivative, mapped to (a1_ddot, a2) through
    the linearizing feedback; it needs a1 bounded away from zero.
    """

    gravity: float = 9.81
    thrust_floor: float = 1e-3

    @property
    def state_dim(self) -> int:
        return 8


@dataclass(frozen=True)
class VelocityLoop:
    """Identified inner velocity loop: three integrators plus a first-order
    stage dx4 = T4 (T3 (T2 (x2_ref - x2) - x3) - x4), diagonal per axis."""

    t2: tuple[float, float] = IDENTIFIED_T2
    t3: tuple[float, float] = IDENTIFIED_T3
    t4: tuple[float, float] = IDENTIFIED_T4

    @property
    def state_dim(self) -> int:
        return 8


PlantModel = Union[IntegratorChain, VtolNonlinear, VelocityLoop]


def _check_finite(state: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(state)):
        raise NonFiniteStateError("state became non-finite")
    return state


def _rk4(deriv: Callable[[np.ndarray], np.ndarray], state: np.ndarray, dt: float) -> np.ndarray:
    k1 = deriv(state)
    k2 = deriv(state + 0.5 * dt * k1)
    k3 = deriv(state + 0.5 * dt * k2)
    k4 = deriv(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_integrator_chain(plant: IntegratorChain, state: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step of the chain with u held constant over the step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    d = plant.block_dim

    def deriv(s):
        out = np.empty_like(s)
        out[:-d] = s[d:]
        out[-d:] = u
        return out

    return _check_finite(_rk4(deriv, state, dt))


def vtol_derivative(plant: VtolNonlinear, state: np.ndarray, u_snap: np.ndarray) -> np.ndarray:
    """Right-hand side of the VTOL with the linearizing feedback applied."""
    px, py, vx, vy, theta, omega, a1, a1d = state
    if abs(a1) < plant.thrust_floor:
        raise ThrustSingularityError(f"thrust magnitude {a1:.3e} below floor")
    r = np.array([-math.sin(theta), math.cos(theta)])
    rp = np.array([-math.cos(theta), -math.sin(theta)])
    a2 = -2.0 * omega * a1d / a1 + float(rp @ u_snap) / a1
    a1dd = omega * omega * a1 + float(r @ u_snap)
    acc = np.array([0.0, -plant.gravity]) + r * a1
    return np.array([vx, vy, acc[0], acc[1], omega, a2, a1d, a1dd])


def step_vtol_nonlinear(plant: VtolNonlinear, state: np.ndarray, u_snap: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step of the VTOL under a held fourth-derivative command."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float).ravel()
    u_snap = np.asarray(u_snap, dtype=float).ravel()
    return _check_finite(_rk4(lambda s: vtol_derivative(plant, s, u_snap), state, dt))


def step_velocity_loop(plant: VelocityLoop, state: np.ndarray, x2_ref: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step of the identified velocity-loop cascade under a held reference."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float).ravel()
    x2_ref = np.asarray(x2_ref, dtype=float).ravel()
    t2 = np.asarray(plant.t2)
    t3 = np.asarray(plant.t3)
    t4 = np.asarray(plant.t4)

    def deriv(s):
        x2, x3, x4 = s[2:4], s[4:6], s[6:8]
        return np.concatenate([
            x2, x3, x4,
            t4 * (t3 * (t2 * (x2_ref - x2) - x3) - x4),
        ])

    return _check_finite(_rk4(deriv, state, dt))


def flat_state_from_vtol(plant: VtolNonlinear, state: np.ndarray) -> np.ndarray:
    """Map the VTOL state to the flat chain state [p, v, acc, jerk]."""
    px, py, vx, vy, theta, omega, a1, a1d = np.asarray(state, dtype=float).ravel()
    r = np.array([-math.sin(theta), math.cos(theta)])
    rp = np.array([-math.cos(theta), -math.sin(theta)])
    acc = np.array([0.0, -plant.gravity]) + r * a1
    jerk = rp * (omega * a1) + r * a1d
    return np.concatenate([[px, py], [vx, vy], acc, jerk])


def vtol_state_from_flat(plant: VtolNonlinear, flat: np.ndarray) -> np.ndarray:
    """Invert the flat map; picks the positive-thrust branch."""
    flat = np.asarray(flat, dtype=float).ravel()
    p, v, acc, jerk = flat[0:2], flat[2:4], flat[4:6], flat[6:8]
    w = acc + np.array([0.0, plant.gravity])
    a1 = float(np.linalg.norm(w))
    if a1 < plant.thrust_floor:
        raise ThrustSingularityError("flat state needs zero thrust")
    theta = math.atan2(-w[0], w[1])
    r = w / a1
    rp = np.array([-math.cos(theta), -math.sin(theta)])
    a1d = float(r @ jerk)
    omega = float(rp @ jerk) / a1
    return np.concatenate([p, v, [theta, omega, a1, a1d]])


def exact_cascade_step_matrices(tracking_slopes: Sequence[float], dt: float):
    """Exact per-axis discrete map for the inner linear cascade levels.

    With the outer virtual control frozen over the step, the chain under the
    proportional tracking laws is LTI per axis: x' = A x + B x2*. Returns
    (E, F) with x+ = E x + F x2*, computed from one matrix exponential.
    Stable for any dt because the exact flow of a Hurwitz-plus-integrator
    system never amplifies.
    """
    m = 1 + len(tracking_slopes)
    coeffs = np.zeros(m)       # coefficient of x_i in u, i = 1..m (index 0 unused)
    star = 1.0                 # coefficient of the frozen x2*
    for level, big_k in enumerate(tracking_slopes, start=2):
        coeffs *= big_k
        star *= big_k
        coeffs[level - 1] -= big_k
    a = np.zeros((m, m))
    for i in range(m - 1):
        a[i, i + 1] = 1.0
    a[m - 1, :] = coeffs
    b = np.zeros(m)
    b[m - 1] = star
    if m == 1:
        # Single integrator: x+ = x + dt * x2*.
        return np.ones((1, 1)), np.array([dt])
    block = np.zeros((m + 1, m + 1))
    block[:m, :m] = a
    block[:m, m] = b
    e_full = expm(block * dt)
    return e_full[:m, :m], e_full[:m, m]


@dataclass
class Trajectory:
    """Uniform-grid record of a closed-loop run.

    margins_h[k, j] is the clearance of certificate j at step k, margins_v
    the certificate value; virtual_controls stacks x2*..x_{m+1}* per step.
    termination is "completed" or the reason the run stopped early. When
    the output block leaves the workspace the controller is not evaluated
    there, and on a controller error the law had no value: in both cases
    the final row keeps its state and margins but carries zero input.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    virtual_controls: np.ndarray
    margins_h: np.ndarray
    margins_v: np.ndarray
    termination: str

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1


def _controller_blocks(plant: PlantModel, state: np.ndarray, m: int) -> list[np.ndarray]:
    if isinstance(plant, IntegratorChain):
        return [state[i * plant.block_dim:(i + 1) * plant.block_dim] for i in range(plant.m)][:m]
    if isinstance(plant, VelocityLoop):
        return [state[0:2], state[2:4], state[4:6], state[6:8]][:m]
    if isinstance(plant, VtolNonlinear):
        flat = flat_state_from_vtol(plant, state)
        return [flat[2 * i:2 * i + 2] for i in range(4)][:m]
    raise TypeError(f"unknown plant {plant!r}")


def run_closed_loop(
    plant: PlantModel,
    controller: CascadeController,
    x0: np.ndarray,
    horizon: float,
    dt: float,
    certs: Sequence[CertificateSpec] = (),
    workspace: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> Trajectory:
    """Simulate the closed loop on a uniform grid, recording margins.

    Stops early with a descriptive termination flag on thrust singularity,
    non-finite state, the output block leaving the workspace box (checked
    before the controller is evaluated at a step), or a controller failure
    (certificate machinery raising); whatever was recorded up to that point
    is returned.
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    state = np.asarray(x0, dtype=float).ravel()
    if state.shape[0] != plant.state_dim:
        raise ValueError(f"x0 has dim {state.shape[0]}, plant needs {plant.state_dim}")
    n_steps = int(round(horizon / dt))
    m = controller.m
    if isinstance(plant, IntegratorChain):
        if plant.m != m:
            raise ValueError("controller levels must match the chain length")
        block_dim = plant.block_dim
    elif isinstance(plant, VelocityLoop):
        if m != 1:
            raise ValueError("velocity-loop plant takes the outer law only (m = 1)")
        block_dim = 2
    else:
        if m != 4:
            raise ValueError("the VTOL flat chain has four levels")
        block_dim = 2

    exact_step = None
    if isinstance(plant, IntegratorChain) and controller.gains is not None \
            and 1 + len(controller.gains.tracking_slopes) == plant.m:
        e_mat, f_vec = exact_cascade_step_matrices(controller.gains.tracking_slopes, dt)
        axes = [np.arange(ax, plant.state_dim, plant.block_dim) for ax in range(plant.block_dim)]

        def exact_step(s, x2_star):
            out = s.copy()
            for ax, idx in enumerate(axes):
                out[idx] = e_mat @ s[idx] + f_vec * x2_star[ax]
            return _check_finite(out)

    times = np.arange(n_steps + 1) * dt
    states = np.zeros((n_steps + 1, state.shape[0]))
    inputs = np.zeros((n_steps + 1, block_dim))
    stars = np.zeros((n_steps + 1, m * block_dim))
    margins_h = np.zeros((n_steps + 1, len(certs)))
    margins_v = np.zeros((n_steps + 1, len(certs)))
    termination = "completed"
    recorded = 0

    for k in range(n_steps + 1):
        x1 = _controller_blocks(plant, state, 1)[0]
        states[k] = state
        for j, cert in enumerate(certs):
            ev = certificate_value(cert, x1)
            margins_h[k, j], margins_v[k, j] = ev.h, ev.v
        recorded = k + 1
        if workspace is not None:
            (wx_lo, wx_hi), (wy_lo, wy_hi) = workspace
            if not (wx_lo <= x1[0] <= wx_hi and wy_lo <= x1[1] <= wy_hi):
                termination = "left_workspace"
                break
        try:
            ev = controller.evaluate(_controller_blocks(plant, state, m))
        except SafecascadeError as exc:
            termination = f"controller_error: {type(exc).__name__}"
            break
        inputs[k] = ev.u
        stars[k] = np.concatenate(ev.x_stars)
        if k == n_steps:
            break
        try:
            if exact_step is not None:
                state = exact_step(state, ev.x_stars[0])
            elif isinstance(plant, IntegratorChain):
                state = step_integrator_chain(plant, state, ev.u, dt)
            elif isinstance(plant, VelocityLoop):
                state = step_velocity_loop(plant, state, ev.u, dt)
            elif isinstance(plant, VtolNonlinear):
                state = step_vtol_nonlinear(plant, state, ev.u, dt)
            else:
                raise TypeError(f"unknown plant {plant!r}")
        except ThrustSingularityError:
            termination = "thrust_singularity"
            break
        except NonFiniteStateError:
            termination = "nonfinite_state"
            break

    return Trajectory(
        times=times[:recorded],
        states=states[:recorded],
        inputs=inputs[:recorded],
        virtual_controls=stars[:recorded],
        margins_h=margins_h[:recorded],
        margins_v=margins_v[:recorded],
        termination=termination,
    )


@dataclass(frozen=True)
class TrajectoryMetrics:
    """Summary numbers for one run; clearances are None with no certificates."""

    min_clearance: float | None
    min_clearance_per_certificate: tuple[float, ...]
    first_crossing_time: float | None
    time_below_zero: float
    max_virtual_speed: float
    max_input: float
    termination: str


def trajectory_metrics(traj: Trajectory, certs: Sequence[CertificateSpec]) -> TrajectoryMetrics:
    """Clearance minima, first zero crossing, and input/reference peaks."""
    if traj.times.shape[0] == 0:
        raise ValueError("empty trajectory")
    n_c = len(certs)
    if n_c:
        per_cert = tuple(float(np.min(traj.margins_h[:, j])) for j in range(n_c))
        worst = traj.margins_h.min(axis=1)
        below = worst < 0.0
        dt = float(traj.times[1] - traj.times[0]) if traj.times.shape[0] > 1 else 0.0
        first_crossing = float(traj.times[np.argmax(below)]) if bool(np.any(below)) else None
        metrics_min: float | None = float(np.min(per_cert))
        time_below = float(np.count_nonzero(below) * dt)
    else:
        per_cert = ()
        metrics_min = None
        first_crossing = None
        time_below = 0.0
    d = traj.inputs.shape[1]
    x2_star = traj.virtual_controls[:, :d] if traj.virtual_controls.size else np.zeros((0, d))
    max_star = float(np.max(np.linalg.norm(x2_star, axis=1))) if x2_star.shape[0] else 0.0
    max_u = float(np.max(np.linalg.norm(traj.inputs, axis=1))) if traj.inputs.shape[0] else 0.0
    return TrajectoryMetrics(
        min_clearance=metrics_min,
        min_clearance_per_certificate=per_cert,
        first_crossing_time=first_crossing,
        time_below_zero=time_below,
        max_virtual_speed=max_star,
        max_input=max_u,
        termination=traj.termination,
    )
