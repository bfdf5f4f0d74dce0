"""Feasible-set reshaping onto a positive basis.

Replaces the feasible set {a u <= b} with an inner polyhedron
{A_L u <= b_L} built on a positive basis A_L, anchored at a Lipschitz
selection point. The polyhedral set inherits the selection's Lipschitz
regularity, so projecting a nominal input onto it produces a control law
with a constructive Lipschitz constant, which the raw projection does not
have.

The package is planar: a PositiveBasis is a fixed (read-only) set of rows
(n_l, 2), which keeps its polygon structure (row norms, edge-end tables)
for every exact polygon projection. Reshaping needs a positive coverage
constant c_a, and reshaped_filter hands the selection's verified slack to
reshape_b_l instead of evaluating the set at it a second time.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCountError, CoverageConditionError, SelectionNotFeasibleError
from .qcqp_safety import ConstraintSet, _one_selection_with_slack, selection_with_slack
# solve_projection_qp is unused here but stays importable: the benchmark's
# trace hooks (benchmarks/workloads.py) rebind reshaping.solve_projection_qp.
from .qp_solver import (DEFAULT_TOL, Polyhedron, PolygonRows, columns_product, row_product,  # noqa: F401
                        solve_projection_qp, states_first, states_last)


# The largest basis the configs and the command line accept: the plane's
# basis builds in milliseconds there, and a projection's vertex stage takes
# O(n_l^2) work and memory per state.
MAX_DIRECTIONS = 101

# Two gaps that differ by this much (radians) or less are equal in the
# coverage rule: a regular polygon's computed gap exceeds arccos of its own
# constant by about 1e-15.
GAP_TOL = 1e-12


@dataclass(frozen=True)
class BasisReport:
    """Exact validation summary: the largest deviation of a row norm from 1,
    the smallest singular value over all row pairs, and the number of
    angular gaps between adjacent rows that leave directions uncovered."""

    max_unit_norm_deviation: float
    min_subset_sigma: float
    uncovered_gaps: int


@dataclass(frozen=True)
class PositiveBasis:
    """Unit row directions (n_l, 2) positively spanning the plane.

    c_a is the coverage constant: every unit vector is a nonnegative
    combination of the rows whose inner product with it is at least c_a.
    Rows of any other shape are refused. The basis is fixed: a_l is a
    read-only copy of the rows, and the basis keeps their polygon structure
    (PolygonRows: row norms and edge-end tables), which every projection
    would otherwise rebuild, and its validation report once first read.
    """

    a_l: np.ndarray
    c_a: float
    polygon: PolygonRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a_l = np.array(self.a_l, dtype=float, ndmin=2)
        if a_l.ndim != 2 or a_l.shape[1] != 2:
            raise ValueError(f"basis rows must have shape (n_l, 2), got {a_l.shape}")
        norms = np.linalg.norm(a_l, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("basis rows must be unit vectors")
        # The minimal plane basis (three rows at 120 degrees) carries the
        # constant cos(2*pi/3) = -1/2; reshaping later insists on c_a > 0
        # (coverage_constant).
        if not (-1.0 < self.c_a < 1.0):
            raise ValueError("coverage constant must lie in (-1, 1)")
        a_l.flags.writeable = False     # the kept polygon structure reads these rows
        object.__setattr__(self, "a_l", a_l)
        object.__setattr__(self, "polygon", PolygonRows(a_l))

    @property
    def n_l(self) -> int:
        return self.a_l.shape[0]

    @functools.cached_property
    def report(self) -> BasisReport:
        """The exact report, computed on first use and kept: the basis
        cannot change.

        In the plane a direction is covered iff it lies in the cone of two
        rows within arccos(c_a) of it, one on each side and less than pi
        apart. So c_a covers iff every gap between adjacent rows (sorted by
        angle, the wrap-around gap included) is at most arccos(c_a), to
        GAP_TOL, and the report counts the other gaps. A gap of pi or more
        is always among them: c_a > -1 keeps arccos(c_a) below
        pi - 1e-8. The pair sigma comes from one batched SVD over all row
        pairs.
        """
        a_l = self.a_l
        angles = np.sort(np.arctan2(a_l[:, 1], a_l[:, 0]))
        gaps = np.diff(angles, append=angles[0] + 2.0 * math.pi)
        pairs = a_l[np.column_stack(np.triu_indices(self.n_l, 1))]     # (S, 2, 2)
        return BasisReport(
            max_unit_norm_deviation=float(np.max(np.abs(np.linalg.norm(a_l, axis=1) - 1.0))),
            min_subset_sigma=float(np.linalg.svd(pairs, compute_uv=False)[:, -1].min(initial=math.inf)),
            uncovered_gaps=int(np.count_nonzero(gaps > math.acos(self.c_a) + GAP_TOL)),
        )


def make_positive_basis(n_l: int) -> PositiveBasis:
    """Deterministic positive basis of the plane: regular polygon directions
    at angles 2*pi*i/n_l with coverage cos(2*pi/n_l), which every gap of
    2*pi/n_l meets; n_l must be odd and > 2 so no two rows are collinear.
    """
    if n_l <= 2:
        raise BadCountError("need more directions than dimensions")
    if n_l % 2 == 0:
        raise BadCountError("even polygon counts create collinear row pairs")
    idx = np.arange(1, n_l + 1)
    rows = np.column_stack([np.cos(2.0 * np.pi * idx / n_l),
                            np.sin(2.0 * np.pi * idx / n_l)])
    return PositiveBasis(rows, float(np.cos(2.0 * np.pi / n_l)))


def coverage_constant(basis: PositiveBasis) -> float:
    """The basis's coverage constant c_a, which reshaping needs positive
    (reshape_b_l weighs each slack by max(A_L a^T, c_a));
    CoverageConditionError otherwise."""
    if not basis.c_a > 0.0:
        raise CoverageConditionError(
            f"coverage constant {basis.c_a:.6g} must be positive for reshaping")
    return basis.c_a


def reshape_b_l(
    selection: np.ndarray,
    cs: ConstraintSet,
    basis: PositiveBasis,
    k_phi: float = 0.0,
    slack: np.ndarray | None = None,
) -> np.ndarray:
    """Offsets b_l of the reshaped polyhedron {A_L u <= b_l}, the inner
    approximation of cs around a feasible selection point.

    b_l = A_L s + rowwise-min over constraints of (phi1 + phi2) with
    phi1 = max(A_L a^T, c_a) * (b - a s)  (columnwise)
    phi2 = max(k_phi (c_a - A_L a^T), 0),
    where c_a > 0 is the basis's coverage constant (coverage_constant).
    Both terms are nonnegative, so the selection always remains inside, and
    the expansion stays within the original set. A batched set gives b_l of
    shape (..., n_l); a selection outside its set raises
    SelectionNotFeasibleError for a single state and gives a NaN row in a
    batch. slack, when given, must be b - a s at the selection (NaN rows
    where it is undefined), as selection_with_slack returns it, and saves
    evaluating the set again; given or computed, it is checked against
    -DEFAULT_TOL the same way. One state's selection and slack may also
    come as lists of floats, as the filter hands them over.
    """
    if k_phi < 0:
        raise ValueError("k_phi must be nonnegative")
    if cs.n_rows == 0:
        raise ValueError("reshaping needs at least one constraint row")
    if not cs.batched:
        if type(selection) is not list:
            selection = np.asarray(selection, dtype=float).tolist()
        if slack is None:
            slack = [-q for q in cs.violations(selection).tolist()]
        elif type(slack) is not list:
            slack = np.asarray(slack, dtype=float).tolist()
        return np.array(_one_b_l(selection, slack, cs, basis, k_phi))
    selection = np.asarray(selection, dtype=float)
    if slack is None:
        slack = -cs.violations(selection)                       # (..., n_c)
    # The batch layout (qp_solver.states_last): phi is (n_c, n_l, N), so the
    # min over the constraint rows is a chain of elementwise minima.
    batch = cs.b.shape[:-1]
    slack = states_last(slack)
    below = slack < -DEFAULT_TOL
    if below.any():
        slack = np.where(below.any(axis=0), np.nan, slack)
    c_a = coverage_constant(basis)
    a_l = basis.a_l
    scaled = np.maximum(slack, 0.0)                             # clip tolerance dust
    n_c, n_u = cs.a.shape[-2:]
    if scaled.shape[1] > 1 and n_c > 1:
        dots = columns_product(a_l, states_last(cs.a, 2))
    else:
        # numpy rounds a one-row product (vector path) unlike a matrix
        # product: one state or one row keeps the per-state product.
        dots = states_last(cs.a.reshape(-1, n_c, n_u) @ a_l.T, 2)
    # phi = max(dots, c_a) * scaled + max(k_phi * (c_a - dots), 0), in place.
    phi = np.maximum(dots, c_a)
    phi *= scaled[:, None]
    np.subtract(c_a, dots, out=dots)
    dots *= k_phi
    phi += np.maximum(dots, 0.0, out=dots)
    b_l = phi[0]
    for row in phi[1:]:
        np.minimum(b_l, row, out=b_l)
    b_l += columns_product(a_l, states_last(selection))
    return states_first(b_l, batch)


def _one_b_l(selection: list, slack: list, cs: ConstraintSet, basis: PositiveBasis,
             k_phi: float) -> list:
    """reshape_b_l for one state's set, on floats with the batch code's
    values (np.maximum, np.minimum, -0.0 and NaN included); the BLAS
    products cs.a @ A_L^T and selection @ A_L^T stay, the latter as a
    batch's matrix product rounds it (row_product). An exactly zero
    selection skips it: every b_l entry is >= +0.0 or NaN, so adding the
    product's +-0 changes no bit."""
    for q in slack:
        if q < -DEFAULT_TOL:
            raise SelectionNotFeasibleError("selection point violates the constraint set")
    c_a = coverage_constant(basis)
    # Each row's phi and the running minimum in one pass; from +inf, the
    # first row's phi passes unchanged.
    products = cs.a.dot(basis.a_l.T).tolist()
    b_l = [math.inf] * len(products[0])
    for q, dots in zip(slack, products):
        scaled = q if q > 0.0 or q != q else 0.0                    # clip tolerance dust
        b_l = [m if m < (p := (d if d > c_a or d != d else c_a) * scaled
                         + (e if (e := k_phi * (c_a - d)) > 0.0 or e != e else 0.0)) or m != m else p
               for m, d in zip(b_l, dots)]
    if not any(selection):                                          # NaN is true
        return b_l
    return list(map(operator.add, row_product(selection, basis.polygon.a_t).tolist(), b_l))


def reshaped_filter(
    nominal: np.ndarray,
    cs: ConstraintSet,
    basis: PositiveBasis,
    k_phi: float,
    *,
    nominal_dots: np.ndarray | None = None,
) -> np.ndarray:
    """Project the nominal input (2,) onto the reshaped set.

    The result never exceeds |selection| + |nominal| in norm and is a
    Lipschitz function of the constraint data. With no constraint rows the
    nominal passes through unchanged. The reshaping is anchored at the
    Lipschitz selection of cs, and the slack it verified is handed to
    reshape_b_l rather than evaluated again. The projection is the exact
    polygon projection on the basis's kept structure (project_one for one
    state, project for a set batched over (...)); in a batch only the
    active states (_active_states) run the selection, the reshaping and the
    projection and the others get the nominal, the bits those stages give
    them. A state without a result (no set, no selection) raises for a
    single state and gives a NaN row in a batch. nominal_dots, when given,
    must be row_product(nominal, basis.polygon.a_t), A_L nominal, which a
    SafetyLaw keeps; the projection reads it in place of the product, for
    one state as for a batch, and one state's may be its list of floats.
    One state's selection and slack go to reshape_b_l as lists of floats.
    """
    nominal = np.asarray(nominal, dtype=float)
    if nominal.shape != (cs.n_u,):
        raise ValueError(f"the nominal must be one input of shape ({cs.n_u},)")
    if cs.n_rows == 0:
        return np.array(np.broadcast_to(nominal, cs.b.shape[:-1] + (cs.n_u,)))
    # Not through lipschitz_selection: the benchmark's selection counter
    # wraps cascade.lipschitz_selection and cli.lipschitz_selection and
    # reads one state's selection.
    if not cs.batched:
        selection, slack = _one_selection_with_slack(cs)
        b_l = reshape_b_l(selection, cs, basis, k_phi, slack=slack)
        return basis.polygon.project_one(nominal, b_l, dots=nominal_dots)
    if k_phi < 0:
        raise ValueError("k_phi must be nonnegative")
    batch, active = cs.b.shape[:-1], _active_states(nominal, cs, basis)
    out = np.empty((2, math.prod(batch)))
    out[0], out[1] = nominal.tolist()
    if not active.size:
        return states_first(out, batch)
    cs = cs.take(active)
    selection, slack = selection_with_slack(cs)
    b_l = reshape_b_l(selection, cs, basis, k_phi, slack=slack)
    out[:, active] = states_last(basis.polygon.project(nominal, b_l, dots=nominal_dots))
    return states_first(out, batch)


def _active_states(nominal: np.ndarray, cs: ConstraintSet, basis: PositiveBasis) -> np.ndarray:
    """The flat indices of the states of a batched planar set at which the
    filter of the nominal u0 (2,) may not return u0.

    Every other state has finite rows and
    t = c_a * min_j b_j > max_l (A_L u0)_l + 4 eps |u0|_1.
    The right side is >= 0 (a basis row meets u0 at an acute angle), so
    every b_j > 0: the selection is exactly 0 and its slack is b. Rounding
    is monotone and each phi_jl = max(dots, c_a) * b_j + (a term >= 0)
    rounds as t does with larger operands, so b_l >= t (A_L 0 adds a
    zero). The projection's own A_L u0 rounds within 2 eps |u0|_1 of this
    one for unit rows, so no row is violated and it returns u0. A NaN b
    fails the test; a spine point has a finite b but a NaN row. A state
    whose finite rows all have b = +inf, which every u meets, passes it:
    t = +inf. The test needs c_a > 0 (with c_a <= 0 and every b_j < 0, t
    would pass it), so a basis without it raises CoverageConditionError
    here, before any state gets the nominal.
    """
    c_a = coverage_constant(basis)
    rows, b = states_last(cs.a, 2), states_last(cs.b)          # (n_c, 2, N), (n_c, N)
    low = np.minimum.reduce(b, axis=0)
    low *= c_a
    u0 = nominal.tolist()
    reach = float(np.max(basis.a_l.dot(nominal))) + 4.0 * math.ulp(1.0) * (abs(u0[0]) + abs(u0[1]))
    active = ~(low > reach)
    active |= np.isnan(rows).any(axis=(0, 1))
    return np.flatnonzero(active)


def polytope_vertices_2d(poly: Polyhedron) -> np.ndarray:
    """Vertices (m, 2) of a bounded 2-D polyhedron: the feasible ends of its
    rows' edges, so a vertex may appear twice."""
    if poly.n_u != 2:
        raise ValueError("vertex enumeration implemented for 2-D only")
    ends, ok = PolygonRows(poly.a).edge_ends(poly.b[:, None])
    return ends[:, ok[:, 0], 0].T


def sample_polytope_2d(poly: Polyhedron, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform rejection sample of a bounded 2-D polyhedron.

    Positive-basis polyhedra are always bounded; the bounding box comes from
    the vertex enumeration. Degenerate (single-point) sets return copies of
    that point.
    """
    verts = polytope_vertices_2d(poly)
    if verts.shape[0] == 0:
        raise ValueError("polyhedron has no vertices; unbounded or empty")
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    if np.all(hi - lo < 1e-12):
        return np.tile(verts[0], (count, 1))
    out = np.empty((count, 2))
    have = 0
    rounds = 0
    while have < count:
        rounds += 1
        if rounds > 1000:
            raise RuntimeError("rejection sampling stalled; polyhedron too thin")
        batch = rng.uniform(lo, hi, size=(4 * (count - have) + 16, 2))
        keep = batch[np.all(poly.a @ batch.T <= poly.b[:, None] + 1e-12, axis=0)]
        take = min(count - have, keep.shape[0])
        out[have:have + take] = keep[:take]
        have += take
    return out
