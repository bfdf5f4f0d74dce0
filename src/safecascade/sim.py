"""Closed-loop simulation: integrator chains, the planar VTOL with dynamic
feedback linearization, and the identified velocity-loop plant.

Every plant has the same interface, and the closed-loop driver reads a
plant through it alone:

    levels              how many controller levels the plant takes
    state_dim           length of its state vector
    blocks(state)       the planar blocks x_1, ..., x_levels the controller
                        reads, as the rows of a (levels, 2) array; the
                        VTOL's are those of its flat chain state
    step(state, u, dt)  one classical RK4 step with the input u held over
                        the step; NonFiniteStateError at the first
                        non-finite stage
    initial_state(x1)   at rest with output block x1 (the VTOL at hover
                        thrust)

The closed-loop driver holds the safety-filter output over each step
but integrates the inner linear tracking levels of an integrator-chain
cascade by the exact LTI flow: with tracking gains in the 1e5 range the
sampled proportional loops are far outside any explicit integrator's
stability region at millisecond steps, while the exact flow is stable for
every step size and reproduces the continuous-time behavior the design
analysis is about.

The recorded certificate margins are those of the outer law's
certificates, as the law computed them: it evaluates every certificate at
x_1 to build its constraint set and hands h and V back, so each
certificate is evaluated once per step. The simulator evaluates them
itself only on a final row where the controller was not evaluated or
raised, as a batch of one, which keeps h and V finite on a segment spine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from .cascade import CascadeController
from .certificates import CertificateSpec, certificate_value
from .errors import NonFiniteStateError, SafecascadeError, ThrustSingularityError

IDENTIFIED_T2 = (0.2928, 2.6711)
IDENTIFIED_T3 = (1.2231, 29.7555)
IDENTIFIED_T4 = (4.1709, 113.3872)


def _check_finite(state: np.ndarray) -> np.ndarray:
    if not all(map(math.isfinite, state.tolist())):
        raise NonFiniteStateError("state became non-finite")
    return state


class _PlanarPlant:
    """The plant interface's shared parts; a plant adds levels, state_dim
    and derivative(state, u)."""

    levels: int
    state_dim: int

    def blocks(self, state: np.ndarray) -> np.ndarray:
        """The planar blocks x_1, ..., x_levels the controller reads, as the
        rows of a (levels, 2) view of the state."""
        return state[:2 * self.levels].reshape(self.levels, 2)

    def initial_state(self, x1) -> np.ndarray:
        """At rest with output block x1."""
        x0 = np.zeros(self.state_dim)
        x0[:2] = x1
        return x0

    def step(self, state: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
        """Classical RK4 step with u held constant over the step.

        Overflow inside a stage is not warned about: a stage input that is
        not finite raises NonFiniteStateError before the derivative reads it.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        state = np.asarray(state, dtype=float).ravel()
        u = np.asarray(u, dtype=float).ravel()
        deriv = self.derivative
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = deriv(_check_finite(state), u)
            k2 = deriv(_check_finite(state + 0.5 * dt * k1), u)
            k3 = deriv(_check_finite(state + 0.5 * dt * k2), u)
            k4 = deriv(_check_finite(state + dt * k3), u)
            return _check_finite(state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


@dataclass(frozen=True)
class IntegratorChain(_PlanarPlant):
    """Chain of m planar integrator blocks; u drives the last block."""

    m: int

    @property
    def levels(self) -> int:
        return self.m

    @property
    def state_dim(self) -> int:
        return 2 * self.m

    def derivative(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.empty_like(state)
        out[:-2] = state[2:]
        out[-2:] = u
        return out


@dataclass(frozen=True)
class VtolNonlinear(_PlanarPlant):
    """Planar VTOL with thrust dynamics appended for feedback linearization.

    State layout: [px, py, vx, vy, theta, omega, a1, a1_dot]. The commanded
    input is the fourth position derivative, mapped to (a1_ddot, a2) through
    the linearizing feedback; it needs a1 bounded away from zero. The
    controller reads the four blocks of the flat state [p, v, acc, jerk].
    """

    gravity: float = 9.81
    thrust_floor: ClassVar[float] = 1e-3
    levels: ClassVar[int] = 4
    state_dim: ClassVar[int] = 8

    def blocks(self, state: np.ndarray) -> np.ndarray:
        return super().blocks(self.flat_state(state))

    def initial_state(self, x1) -> np.ndarray:
        """At rest with output block x1, at hover thrust."""
        x0 = super().initial_state(x1)
        x0[6] = self.gravity
        return x0

    def derivative(self, state: np.ndarray, u_snap: np.ndarray) -> np.ndarray:
        """Right-hand side of the VTOL with the linearizing feedback applied."""
        px, py, vx, vy, theta, omega, a1, a1d = state
        if abs(a1) < self.thrust_floor:
            raise ThrustSingularityError(f"thrust magnitude {a1:.3e} below floor")
        r = np.array([-math.sin(theta), math.cos(theta)])
        rp = np.array([-math.cos(theta), -math.sin(theta)])
        a2 = -2.0 * omega * a1d / a1 + float(rp @ u_snap) / a1
        a1dd = omega * omega * a1 + float(r @ u_snap)
        acc = np.array([0.0, -self.gravity]) + r * a1
        return np.array([vx, vy, acc[0], acc[1], omega, a2, a1d, a1dd])

    def flat_state(self, state: np.ndarray) -> np.ndarray:
        """Map the VTOL state to the flat chain state [p, v, acc, jerk]."""
        px, py, vx, vy, theta, omega, a1, a1d = np.asarray(state, dtype=float).ravel()
        r = np.array([-math.sin(theta), math.cos(theta)])
        rp = np.array([-math.cos(theta), -math.sin(theta)])
        acc = np.array([0.0, -self.gravity]) + r * a1
        jerk = rp * (omega * a1) + r * a1d
        return np.concatenate([[px, py], [vx, vy], acc, jerk])

    def state_from_flat(self, flat: np.ndarray) -> np.ndarray:
        """Invert the flat map; picks the positive-thrust branch."""
        flat = np.asarray(flat, dtype=float).ravel()
        p, v, acc, jerk = flat[0:2], flat[2:4], flat[4:6], flat[6:8]
        w = acc + np.array([0.0, self.gravity])
        a1 = float(np.linalg.norm(w))
        if a1 < self.thrust_floor:
            raise ThrustSingularityError("flat state needs zero thrust")
        theta = math.atan2(-w[0], w[1])
        r = w / a1
        rp = np.array([-math.cos(theta), -math.sin(theta)])
        a1d = float(r @ jerk)
        omega = float(rp @ jerk) / a1
        return np.concatenate([p, v, [theta, omega, a1, a1d]])


@dataclass(frozen=True)
class VelocityLoop(_PlanarPlant):
    """Identified inner velocity loop: three integrators plus a first-order
    stage dx4 = T4 (T3 (T2 (x2_ref - x2) - x3) - x4), diagonal per axis.
    It takes the outer law only: its input is the reference x2_ref."""

    t2: tuple[float, float] = IDENTIFIED_T2
    t3: tuple[float, float] = IDENTIFIED_T3
    t4: tuple[float, float] = IDENTIFIED_T4
    levels: ClassVar[int] = 1
    state_dim: ClassVar[int] = 8

    def derivative(self, state: np.ndarray, x2_ref: np.ndarray) -> np.ndarray:
        x2, x3, x4 = state[2:4], state[4:6], state[6:8]
        t2, t3, t4 = np.array((self.t2, self.t3, self.t4))
        return np.concatenate([
            x2, x3, x4,
            t4 * (t3 * (t2 * (x2_ref - x2) - x3) - x4),
        ])


PlantModel = Union[IntegratorChain, VtolNonlinear, VelocityLoop]


# Pade 13 numerator coefficients and the 1-norm up to which it is accurate
# to double precision without scaling (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _balance(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parlett-Reinsch balancing by powers of 2: returns (D^-1 A D, diag D).

    Each pass scales one index so its off-diagonal row and column sums
    meet; powers of 2 keep the similarity exact in floating point.
    """
    a = a.copy()
    d = np.ones(a.shape[0])
    done = False
    while not done:
        done = True
        for i in range(a.shape[0]):
            col = np.abs(a[:, i]).sum() - abs(a[i, i])
            row = np.abs(a[i, :]).sum() - abs(a[i, i])
            if col == 0.0 or row == 0.0:
                continue
            f = 2.0 ** round(0.5 * math.log2(row / col))
            if col * f + row / f < 0.95 * (col + row):
                a[:, i] *= f
                a[i, :] /= f
                d[i] *= f
                done = False
    return a, d


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: balancing, then Pade 13 with scaling and squaring
    (Higham 2005, "The scaling and squaring method for the matrix
    exponential revisited").

    The balancing matters for the cascade step blocks, whose entries span
    up to ten orders of magnitude: at the stock gains and dt = 1 ms it cuts
    the 1-norm from 1e6 to about 400, and the squarings, whose rounding the
    unbalanced form amplifies to 1e-7 of the largest entry, from 18 to 7.
    """
    a, d = _balance(np.asarray(a, dtype=float))
    norm = np.abs(a).sum(axis=0).max()
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
    a = a / 2.0 ** squarings
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r * d[:, None] / d[None, :]


def exact_cascade_step_matrices(tracking_slopes: Sequence[float], dt: float):
    """Exact per-axis discrete map for the inner linear cascade levels.

    With the outer virtual control frozen over the step, the chain under the
    proportional tracking laws is LTI per axis: x' = A x + B x2*. Returns
    (E, F) with x+ = E x + F x2*, computed from one matrix exponential of
    the input-augmented block (expm: balanced Pade 13 with scaling and
    squaring). Stable for any dt because the exact flow of a
    Hurwitz-plus-integrator system never amplifies. Gains whose products
    overflow give a non-finite block, and gains too large for the squarings
    give non-finite matrices: both raise NonFiniteStateError.
    """
    m = 1 + len(tracking_slopes)
    if m == 1:
        # Single integrator: x+ = x + dt * x2*.
        return np.ones((1, 1)), np.array([dt])
    block = np.zeros((m + 1, m + 1))   # [[A, B], [0, 0]]; row m-1 is u in x_1..x_m and x2*
    for i in range(m - 1):
        block[i, i + 1] = 1.0
    block[m - 1, m] = 1.0              # coefficient of the frozen x2*
    with np.errstate(over="ignore", invalid="ignore"):
        for level, big_k in enumerate(tracking_slopes, start=2):
            block[m - 1, :m + 1] *= big_k
            block[m - 1, level - 1] -= big_k
        block *= dt
    if not np.all(np.isfinite(block)):
        raise NonFiniteStateError(f"cascade step block is not finite for gains {tuple(tracking_slopes)}")
    with np.errstate(over="ignore", invalid="ignore"):
        e_full = expm(block)
    if not np.all(np.isfinite(e_full)):
        raise NonFiniteStateError(f"cascade step matrices are not finite for gains {tuple(tracking_slopes)}")
    return e_full[:m, :m], e_full[:m, m]


@dataclass
class Trajectory:
    """Uniform-grid record of a closed-loop run.

    margins_h[k, j] is the clearance of the outer law's certificate j at
    step k, margins_v its value, both as the law evaluated them (on a final
    row without a controller value, from certificate_value);
    virtual_controls stacks x2*..x_{m+1}* per step.
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


def run_closed_loop(
    plant: PlantModel,
    controller: CascadeController,
    x0: np.ndarray,
    horizon: float,
    dt: float,
    workspace: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> Trajectory:
    """Simulate the closed loop on a uniform grid, recording margins
    (see the module docstring for where they come from).

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
    if plant.levels != m:
        raise ValueError(f"{type(plant).__name__} takes {plant.levels} controller level(s), "
                         f"the controller has {m}")

    exact_step = None
    if isinstance(plant, IntegratorChain) and controller.gains is not None:
        e_mat, f_vec = exact_cascade_step_matrices(controller.gains.tracking_slopes, dt)
        f_col = f_vec[:, None]

        def exact_step(s, x2_star):
            # Row i of s.reshape(m, d) is block x_{i+1}; column ax is one axis.
            # ndarray.dot runs the BLAS product of @ at less cost per call.
            return _check_finite((e_mat.dot(s.reshape(m, 2)) + f_col * x2_star).ravel())

    certs = controller.rho1.certs
    times = np.arange(n_steps + 1) * dt
    states = np.zeros((n_steps + 1, state.shape[0]))
    inputs = np.zeros((n_steps + 1, 2))
    stars = np.zeros((n_steps + 1, 2 * m))
    star_blocks = stars.reshape(n_steps + 1, m, 2)      # row k's x2*, ..., x_{m+1}*
    margins_h = np.zeros((n_steps + 1, len(certs)))
    margins_v = np.zeros((n_steps + 1, len(certs)))
    termination = "completed"
    recorded = 0

    for k in range(n_steps + 1):
        blocks = plant.blocks(state)
        x1 = blocks[0]
        states[k] = state
        recorded = k + 1
        ev = None
        px, py = x1.tolist()
        if workspace is not None and not (workspace[0][0] <= px <= workspace[0][1]
                                          and workspace[1][0] <= py <= workspace[1][1]):
            termination = "left_workspace"
        else:
            try:
                ev = controller.evaluate(blocks)
            except SafecascadeError as exc:
                termination = f"controller_error: {type(exc).__name__}"
        if ev is None:
            # A batch of one: h and V stay finite on a segment spine, where
            # a single point raises.
            for j, cert in enumerate(certs):
                cev = certificate_value(cert, x1[None])
                margins_h[k, j], margins_v[k, j] = cev.h[0], cev.v[0]
            break
        margins_h[k], margins_v[k] = ev.h, ev.v
        inputs[k] = ev.u
        star_blocks[k] = ev.x_stars
        if k == n_steps:
            break
        try:
            if exact_step is not None:
                state = exact_step(state, ev.x_stars[0])
            else:
                state = plant.step(state, ev.u, dt)
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
