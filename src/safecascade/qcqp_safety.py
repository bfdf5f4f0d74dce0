"""Safety constraints for relative-degree-one plants with exact input gains.

The feasible input set at state x is {u : A u <= b} with one row per
certificate: the row direction is the normalized certificate gradient (the
outer level drives the plane directly), and the offset is the decay rate
at the certificate's value (decay_rate: slope k_alpha through the envelope
of the certificate's own level). The package treats exact input gains; the
paper's norm term c|u| for an uncertain gain is not modelled. The module
also provides the Lipschitz selection, a closed-form point of the set used
as the reshaping anchor, and the audit of the decay-rate condition above
the threshold.

The selection also returns the slack it verified (selection_with_slack),
so the reshaping does not evaluate the set at it a second time.
"""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Sequence

import numpy as np

from .certificates import CertificateSpec, Segment, eval_disc, eval_segment
from .errors import SelectionConditionError
from .qp_solver import DEFAULT_TOL, states_first, states_last, sum_last_axis


@dataclass(frozen=True)
class ConstraintSet:
    """Rows (a, b) of the system a @ u <= b with unit planar rows a.

    One state's set has a of shape (n_rows, 2) and b of shape (n_rows,); a
    batch of states adds leading axes to both: (..., n_rows, 2) and
    (..., n_rows). Rows of any other width are refused. A batch row whose
    state has no set carries NaN. A set built from certificates also
    carries each certificate's clearance h and value V at the state, shaped
    like b (keyword-only); otherwise both are None. One state's set made
    from floats (planar) keeps its rows and offsets as floats beside the
    arrays, for the selection to read.
    """

    a: np.ndarray
    b: np.ndarray
    _: KW_ONLY
    h: np.ndarray | None = None
    v: np.ndarray | None = None
    _floats = None                  # (rows, offsets) of a planar set, not a field

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim < 2:
            a = np.atleast_2d(a)
        b = np.asarray(self.b, dtype=float)
        if a.shape[:-1] != b.shape:
            raise ValueError("row count mismatch between a and b")
        if a.shape[-1] != 2:
            raise ValueError(f"constraint rows must have 2 columns (the package is planar), "
                             f"got {a.shape[-1]}")
        # NaN rows (states without a set) compare False and pass.
        dev = np.sqrt(sum_last_axis(np.square(states_last(a, 2)).transpose(0, 2, 1)))
        dev -= 1.0
        if (np.abs(dev, out=dev) > 1e-9).any():
            raise ValueError("constraint rows must be unit vectors")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def planar(cls, rows: list, b: list, h: list, v: list) -> ConstraintSet:
        """One planar state's set from floats: its rows as pairs, their
        offsets, and each certificate's h and V. The constructor's checks
        run on the floats, in the ufuncs' order, and the set is made
        without the constructor, whose checks would read the arrays back;
        it keeps the lists of rows and offsets it is given as its floats."""
        if len(rows) != len(b):
            raise ValueError("row count mismatch between a and b")
        for row in rows:
            try:
                p, q = row
            except ValueError:             # a row that is not a pair
                raise ValueError(f"constraint rows must have 2 columns (the package is planar), got {len(row)}")
            if abs(math.sqrt(p * p + q * q) - 1.0) > 1e-9:
                raise ValueError("constraint rows must be unit vectors")
        cs = object.__new__(cls)
        vars(cs).update(a=np.array(rows) if rows else np.zeros((0, 2)), b=np.array(b), h=np.array(h),
                        v=np.array(v), _floats=(rows, b))
        return cs

    @classmethod
    def _from_checked(cls, a: np.ndarray, b: np.ndarray) -> ConstraintSet:
        """The set of float arrays whose rows already passed the
        constructor's checks, made without it; without h and V."""
        cs = object.__new__(cls)
        vars(cs).update(a=a, b=b, h=None, v=None)
        return cs

    @property
    def n_rows(self) -> int:
        return self.a.shape[-2]

    @property
    def n_u(self) -> int:
        return self.a.shape[-1]

    @property
    def batched(self) -> bool:
        return self.b.ndim > 1

    def violations(self, u: np.ndarray) -> np.ndarray:
        """a u - b per row, for u of shape (..., n_u)."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 1 and self.b.ndim == 1:
            return self.a.dot(u) - self.b         # one state: its BLAS product a u
        # The per-state products a u on C-contiguous rows: numpy leaves BLAS
        # for other strides, and its own loop rounds otherwise.
        viol = (np.ascontiguousarray(self.a) @ u[..., None])[..., 0]
        viol -= self.b
        return viol

    def take(self, idx: np.ndarray) -> ConstraintSet:
        """The states idx (flat indices over the batch) of a batched set, as
        a set batched over (idx.size,), of rows already checked; without h
        and V."""
        rows, b = states_last(self.a, 2), states_last(self.b)
        return ConstraintSet._from_checked(states_first(rows.take(idx, axis=-1), idx.shape),
                                           states_first(b.take(idx, axis=-1), idx.shape))

    def lifted(self, states: np.ndarray) -> ConstraintSet:
        """The batched set with every offset of the flagged states at +inf,
        which every u meets (states: one flag a state, flat over the batch);
        the same rows, already checked, without h and V. With no state
        flagged, the set itself."""
        if not states.any():
            return self
        b = states_last(self.b).copy()
        np.copyto(b, np.inf, where=states)
        return ConstraintSet._from_checked(self.a, states_first(b, self.b.shape[:-1]))

    def contains(self, u: np.ndarray):
        """Whether u meets every row within DEFAULT_TOL; one flag per batch row."""
        return (self.violations(u) <= DEFAULT_TOL).all(axis=-1)


# Far from an obstacle V drops below the resolution of V - level (V < eps
# level, about 36 units of clearance): the offset rounds to -level and the
# envelope inverse would be -inf. decay_rate clamps it at log(eps) there,
# which only tightens the constraint.
ENVELOPE_FLOOR = -1.0 + float(np.finfo(float).eps)


def decay_rate(offset, level, k_alpha: float):
    """The decay rate alpha_j = k_alpha * alpha_bar_j^-1 at a certificate's
    offset V - level, on one float or elementwise on an array, with the same
    bits either way (numpy ufuncs on both, not math functions, which round
    differently). level may be an array that broadcasts against offset.

    Every certificate is V = exp(-h), so at its level v the envelope inverse
    is log1p((V - v)/v): V - v = v (e^s - 1) at signed distance s from
    {V = v}, and the rate is k_alpha s on both sides. It is odd in s, so
    rate(s) + rate(-s) = 0, which is what the Lipschitz selection needs to
    land inside the set.
    """
    s = offset / level
    if isinstance(s, float):
        return float(np.log1p(s if s > ENVELOPE_FLOOR or s != s else ENVELOPE_FLOOR)) * k_alpha
    return np.log1p(np.maximum(s, ENVELOPE_FLOOR)) * k_alpha


def build_constraint_set(
    x: np.ndarray,
    certs: Sequence[CertificateSpec],
    k_alpha: float,
) -> ConstraintSet:
    """Assemble the safety constraint set at x, one state (2,) or a batch (..., 2).

    Row j is the unit vector along dV_j/dx, which is -dh_j/dx normalised
    (V = exp(-h) only scales it), the offset is -alpha_j(V_j - level_j)
    with the decay rate of certificate j's own level (decay_rate). The set
    keeps each certificate's h and V, so a caller that needs them evaluates
    nothing again. Where a certificate's gradient is undefined (a segment
    spine, a disc center) a single state raises and a batch row is NaN.
    One state runs on floats, with the array code's values.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        # One planar state on floats, which the certificates take as a pair;
        # decay_rate keeps its ufuncs (np.log1p).
        point = tuple(x.tolist())
        rows, b, h, v = [], [], [], []
        for cert in certs:
            ev = (eval_segment if isinstance(cert.geometry, Segment) else eval_disc)(cert, point)
            g0, g1 = ev.grad_h.tolist()
            nrm = -math.sqrt(g0 * g0 + g1 * g1)      # a sum from 0: squares are never -0.0
            rows.append((g0 / nrm, g1 / nrm))
            b.append(-decay_rate(ev.v - cert.level, cert.level, k_alpha))
            h.append(ev.h)
            v.append(ev.v)
        return ConstraintSet.planar(rows, b, h, v)
    # Rows (n_c, 2, N), h and V (n_c, N), states last (qp_solver.states_last).
    batch = x.shape[:-1]
    rows = np.empty((len(certs), x.shape[-1], math.prod(batch)))
    h = np.empty((len(certs), rows.shape[-1]))
    v = np.empty(h.shape)
    for j, cert in enumerate(certs):
        # Called through this module's names, which benchmark tracing rebinds.
        ev = (eval_segment if isinstance(cert.geometry, Segment) else eval_disc)(cert, x)
        rows[j] = states_last(ev.grad_h)
        h[j] = ev.h.reshape(-1)
        v[j] = ev.v.reshape(-1)
    nrm = np.sqrt(sum_last_axis(np.square(rows).transpose(0, 2, 1)))
    rows /= np.negative(nrm, out=nrm)[:, None]              # the unit rows, in place
    levels = np.array([[cert.level] for cert in certs])         # a column, one per row
    b = -decay_rate(v - levels, levels, k_alpha)
    return ConstraintSet(states_first(rows, batch), states_first(b, batch),
                         h=states_first(h, batch), v=states_first(v, batch))


def disc_constraint_set(discs: Sequence[CertificateSpec], x: np.ndarray) -> ConstraintSet:
    """Quadratic-clearance rows for disc obstacles under velocity control.

    Row j is -grad h_j / |grad h_j| = -(x - o_j)/|x - o_j| with offset
    h_j / |grad h_j| = h_j / (2 |x - o_j|); the standard gap-crossing setup.
    """
    rows, offsets = [], []
    for cert in discs:
        ev = eval_disc(cert, x)
        nrm = np.sqrt(np.sum(ev.grad_h * ev.grad_h, axis=-1))
        rows.append(-ev.grad_h / nrm[..., None])
        offsets.append(ev.h / nrm)
    return ConstraintSet(np.stack(rows, axis=-2), np.stack(offsets, axis=-1))


def lipschitz_selection(cs: ConstraintSet) -> np.ndarray:
    """Lipschitz anchor point of the constraint set, (n_u,) or (..., n_u).

    Requires the pairwise offset condition b_j + b_k >= 0 for j != k,
    which guarantees at most one offset below -DEFAULT_TOL. Returns zero
    when all offsets are nonnegative, else the negative row's direction
    times b, summed over negative rows (a second one can only lie within
    DEFAULT_TOL of zero). The point is verified against every row; a
    violation means the certificates are not disjoint, or that offsets set
    by hand do not meet the condition. For a single state both failures
    raise SelectionConditionError; a batch gives NaN rows there and where
    the set itself is NaN.
    """
    return selection_with_slack(cs)[0]


def selection_with_slack(cs: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """lipschitz_selection and the slack b - a u of every row at it, shape
    (..., n_rows), from the one evaluation of the set that verifies the
    point (none at a zero point, where a u - b is 0.0 - b); NaN rows where
    the selection is undefined."""
    a, b = cs.a, cs.b
    if cs.n_rows == 0:
        return np.zeros(b.shape[:-1] + (cs.n_u,)), np.zeros(b.shape)
    if b.ndim == 1:
        u, slack = _one_selection_with_slack(cs)
        return np.array(u), np.array(slack)
    # In the batch layout (qp_solver.states_last): sums and maxima over the
    # rows run one row of states at a time, in numpy's reduction order
    # (sum_last_axis), so a batch keeps the reductions' bits.
    batch = b.shape[:-1]
    rows, b = states_last(a, 2), states_last(b)                 # (n_c, n_u, N), (n_c, N)
    failed = False
    if cs.n_rows >= 2:
        # The two smallest; with two rows that is both (their sum commutes).
        two = b if cs.n_rows == 2 else np.partition(b, 1, axis=0)[:2]
        failed = sum_last_axis(two.T) < -DEFAULT_TOL
    w = np.minimum(b, 0.0)
    u = np.zeros((cs.n_u, b.shape[1]))      # np.add.reduce starts at 0.0: -0.0 sums to 0.0
    for j in range(cs.n_rows):
        u += w[j] * rows[j]
    # Where u is exactly 0 (its rows then finite) a u is +-0 and the
    # violation is taken as 0.0 - b; the products a u run only on the
    # other states.
    viol = np.subtract(0.0, b)
    moved = np.flatnonzero((u != 0.0).any(axis=0))
    if moved.size:
        viol[:, moved] = cs.take(moved).violations(states_first(u.take(moved, axis=-1), moved.shape)).T
    worst = viol[0].copy()                  # np.maximum.reduce, up to the sign of a zero
    for j in range(1, cs.n_rows):
        np.maximum(worst, viol[j], out=worst)
    undefined = failed | ~(worst <= DEFAULT_TOL)
    np.copyto(u, np.nan, where=undefined)
    np.negative(viol, out=viol)
    np.copyto(viol, np.nan, where=undefined)
    return states_first(u, batch), states_first(viol, batch)


def _one_selection_with_slack(cs: ConstraintSet) -> tuple[list, list]:
    """selection_with_slack for one state's set of at least one row, as
    lists of floats, with the batch code's values (np.minimum and the row
    sum in its order, -0.0 and NaN included); the set evaluates itself at a
    nonzero point once, and not at all at a zero one. A planar set's kept
    floats are read, any other's arrays once. Plain loops, as a few rows
    would spend more on comprehensions than on their arithmetic."""
    rows, b = cs._floats or (cs.a.tolist(), cs.b.tolist())
    # The two smallest, NaN skipped (it compares False): with fewer than
    # two, the sum is NaN or +inf and passes.
    least = next_least = math.inf
    for q in b:
        if q < least:
            least, next_least = q, least
        elif q < next_least:
            next_least = q
    if least + next_least < -DEFAULT_TOL:
        # Their rows as a stable argsort orders them.
        lo, second = sorted(range(len(b)), key=lambda k: (b[k] != b[k], b[k]))[:2]
        raise SelectionConditionError(
            f"offset condition fails for rows ({lo}, {second}): "
            f"{b[lo]:.6g} + {b[second]:.6g} < 0",
            pair=(lo, second),
        )
    u0 = u1 = 0.0                       # np.add.reduce starts at 0.0: -0.0 sums to 0.0
    for q, (p0, p1) in zip(b, rows):
        w = q if q < 0.0 or q != q else 0.0
        u0 += w * p0
        u1 += w * p1
    # As in a batch, a zero u (its rows then finite) has the violations 0.0 - b.
    viols = cs.violations(np.array((u0, u1))).tolist() if u0 or u1 else [0.0 - q for q in b]
    # np.maximum.reduce: NaN if any row is NaN.
    worst, slack = -math.inf, []
    for q in viols:
        if q > worst or q != q:         # NaN, once met, stays
            worst = q
        slack.append(-q)
    if worst > DEFAULT_TOL:
        raise SelectionConditionError(f"selection violates a row by {worst:.3e}", pair=None)
    return [u0, u1], slack


@dataclass(frozen=True)
class RateConditionReport:
    """Audit of the threshold decay condition for one certificate."""

    threshold: float
    v_max: float
    min_margin: float
    argmin_v: float
    holds: bool


def rate_condition_audit(
    k_alpha: float,
    level: float,
    threshold: float,
    theta: float,
    gamma_w_slope: float,
    v_max: float,
) -> RateConditionReport:
    """Check alpha_j((t-v)/t * V) >= theta V + V/gw for V in [t, v_max]
    (alpha_j the decay rate of slope k_alpha at the level v, t the
    threshold) at its two endpoints: the rate's log1p is concave in V and
    the drift linear, so the margin is least at one. The report names the
    first; np.argmin takes a NaN first, which fails."""
    if threshold <= level:
        raise ValueError("threshold must exceed the certificate level")
    vs = np.array([threshold, max(v_max, threshold)])
    frac = (threshold - level) / threshold
    margins = decay_rate(frac * vs, level, k_alpha) - (theta * vs + vs / gamma_w_slope)
    k = int(np.argmin(margins))
    return RateConditionReport(
        threshold=threshold,
        v_max=v_max,
        min_margin=float(margins[k]),
        argmin_v=float(vs[k]),
        holds=bool(margins[k] >= 0.0),
    )
