"""Feasible-set reshaping onto a positive basis.

Replaces the norm-augmented feasible set {a u + c|u| <= b} with an inner
polyhedron {A_L u <= b_L} built on a positive basis A_L, anchored at a
Lipschitz selection point. The polyhedral set inherits the selection's
Lipschitz regularity, so projecting a nominal input onto it produces a
control law with a constructive Lipschitz constant, which the raw
norm-augmented projection does not have.

The package is planar: a PositiveBasis is a fixed (read-only) set of rows
(n_l, 2), which keeps its polygon structure (row norms, pair-vertex table)
for every exact polygon projection. cbar_a is cached per (c_bar, c_a), and
reshaped_filter hands the selection's verified slack to reshape_b_l instead
of evaluating the set at it a second time.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCountError, CoverageConditionError, SelectionNotFeasibleError
from .qcqp_safety import ConstraintSet, selection_with_slack
# solve_projection_qp is unused here but stays importable: the benchmark's
# trace hooks (benchmarks/workloads.py) rebind reshaping.solve_projection_qp.
from .qp_solver import (DEFAULT_TOL, Polyhedron, PolygonRows, columns_product, row_product,  # noqa: F401
                        solve_projection_qp, states_first, states_last)


# The largest basis the configs and the command line accept: the plane's
# basis builds in milliseconds there, and a projection's vertex stage holds
# C(n_l, 2) vertices per state.
MAX_DIRECTIONS = 101

# A basis with a pair of rows this close to singular is refused.
MIN_SUBSET_SIGMA = 1e-8


def subset_stack(a_l: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """What coverage tests of the rows a_l (n_l, 2) at any c_a share, from
    one batched SVD over all row pairs: the smallest singular value over all
    pairs, and the row indices (S, 2) and inverse transposes (S, 2, 2) of
    the S nonsingular pairs (a pair's coefficients for a probe are
    inv_t @ probe)."""
    subsets = np.array(list(itertools.combinations(range(a_l.shape[0]), 2)), dtype=np.intp).reshape(-1, 2)
    stack = a_l[subsets]                                        # (S, 2, 2): each pair's rows
    sigma = np.linalg.svd(stack, compute_uv=False)[:, -1]
    nonsingular = sigma > 1e-12
    return (float(sigma.min(initial=math.inf)), subsets[nonsingular],
            np.linalg.inv(stack[nonsingular].transpose(0, 2, 1)))


@dataclass(frozen=True)
class PositiveBasis:
    """Unit row directions (n_l, 2) positively spanning the plane.

    c_a is the coverage constant: every unit vector is a nonnegative
    combination of the rows whose inner product with it is at least c_a.
    Rows of any other shape are refused. The basis is fixed: a_l is a
    read-only copy of the rows, and the basis keeps their subset stack,
    their polygon structure (PolygonRows: row norms, and the pair-vertex
    table once a projection or a SafetyLaw first needs it), which every
    projection would otherwise rebuild, and its 500-probe validation report
    once first read.
    """

    a_l: np.ndarray
    c_a: float
    subsets: tuple = field(init=False, repr=False, compare=False)
    polygon: PolygonRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a_l = np.array(self.a_l, dtype=float, ndmin=2)
        if a_l.ndim != 2 or a_l.shape[1] != 2:
            raise ValueError(f"basis rows must have shape (n_l, 2), got {a_l.shape}")
        norms = np.linalg.norm(a_l, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("basis rows must be unit vectors")
        # The minimal plane basis (three rows at 120 degrees) carries the
        # constant cos(2*pi/3) = -1/2; reshaping later insists on a positive
        # constant through its own cone-width condition.
        if not (-1.0 < self.c_a < 1.0):
            raise ValueError("coverage constant must lie in (-1, 1)")
        a_l.flags.writeable = False     # the kept polygon structure reads these rows
        object.__setattr__(self, "a_l", a_l)
        object.__setattr__(self, "subsets", subset_stack(a_l))
        object.__setattr__(self, "polygon", PolygonRows(a_l))

    @property
    def n_l(self) -> int:
        return self.a_l.shape[0]

    @functools.cached_property
    def report(self) -> BasisReport:
        """validate_positive_basis at 500 probes, computed on first use
        and kept: the basis cannot change."""
        return validate_positive_basis(self)


def make_positive_basis(n_l: int) -> PositiveBasis:
    """Deterministic positive basis of the plane: regular polygon directions
    at angles 2*pi*i/n_l with coverage cos(2*pi/n_l), verified at 500
    probes; n_l must be odd and > 2 so no two rows are collinear.
    """
    if n_l <= 2:
        raise BadCountError("need more directions than dimensions")
    if n_l % 2 == 0:
        raise BadCountError("even polygon counts create collinear row pairs")
    idx = np.arange(1, n_l + 1)
    rows = np.column_stack([np.cos(2.0 * np.pi * idx / n_l),
                            np.sin(2.0 * np.pi * idx / n_l)])
    basis = PositiveBasis(rows, float(np.cos(2.0 * np.pi / n_l)))
    report = basis.report
    if report.coverage_failures or report.min_subset_sigma <= MIN_SUBSET_SIGMA:
        raise CoverageConditionError(f"constructed basis failed validation: {report}")
    return basis


def _unit_probes(samples: int) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False) + 0.1234
    return np.column_stack([np.cos(angles), np.sin(angles)])


@dataclass(frozen=True)
class BasisReport:
    """Validation summary: unit norms, subset conditioning, coverage."""

    samples: int
    max_unit_norm_deviation: float
    min_subset_sigma: float
    coverage_failures: int
    first_failure: np.ndarray | None


def validate_positive_basis(basis: PositiveBasis, samples: int = 500) -> BasisReport:
    """Check the three positive-basis properties by direct computation.

    Unit rows and subset conditioning are exact, the latter from the
    basis's subset stack. Coverage is sampled, and for each probe direction
    the rows within the coverage cone must positively span it. That is
    decided exactly by Caratheodory's theorem for conic hulls: the probe
    lies in the cone of the chosen rows iff some two linearly independent
    chosen rows give it nonnegative coefficients, so the probes are solved
    against the inverses of the nonsingular pairs whose rows are both
    chosen. Report-only.
    """
    if samples < 100:
        raise ValueError("use at least 100 probe directions")
    a_l = basis.a_l
    max_dev = float(np.max(np.abs(np.linalg.norm(a_l, axis=1) - 1.0)))
    min_sigma, subsets, inv_t = basis.subsets
    probes = _unit_probes(samples)
    covered = np.zeros(samples, dtype=bool)
    step = max(1, (1 << 20) // max(1, subsets.size))            # bounds the (probe, subset) mask
    for lo in range(0, samples, step):
        chunk = probes[lo:lo + step]
        chosen = chunk @ a_l.T >= basis.c_a - 1e-12
        p_idx, s_idx = np.nonzero(chosen[:, subsets].all(axis=-1))
        coeffs = np.einsum("kij,kj->ki", inv_t[s_idx], chunk[p_idx])
        covered[lo + p_idx[np.all(coeffs >= -1e-12, axis=1)]] = True
    failures = np.flatnonzero(~covered)
    return BasisReport(
        samples=samples,
        max_unit_norm_deviation=max_dev,
        min_subset_sigma=min_sigma,
        coverage_failures=int(failures.size),
        first_failure=probes[failures[0]].copy() if failures.size else None,
    )


@functools.lru_cache(maxsize=64)
def cbar_a(c_bar: float, c_a: float) -> float:
    """Effective coverage constant after absorbing the norm coefficient.

    Requires c_a > cos(pi/2 - acos(sqrt(1 - c_bar^2))), i.e. the coverage
    cone must stay wider than the uncertainty cone; returns
    cos(acos(sqrt(1 - c_bar^2)) + acos(c_a)). Results are cached, since a
    law reshapes with the same pair at every step; a failed condition is
    not cached and raises on every call.
    """
    if not (0.0 <= c_bar < 1.0):
        raise ValueError("c_bar must lie in [0, 1)")
    opening = math.acos(math.sqrt(1.0 - c_bar * c_bar))
    if c_a <= math.cos(math.pi / 2.0 - opening):
        raise CoverageConditionError(
            f"coverage constant {c_a:.6g} too small for norm coefficient {c_bar:.6g}"
        )
    return math.cos(opening + math.acos(c_a))


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
    phi1 = max(A_L a^T, cbar_a) * (b - a s - c|s|)/(1 + c)  (columnwise)
    phi2 = max(k_phi (cbar_a - A_L a^T), 0),
    where c is the set's norm coefficient and cbar_a = cbar_a(c, c_a).
    Both terms are nonnegative, so the selection always remains inside, and
    the expansion stays within the original norm-augmented set. A batched
    set gives b_l of shape (..., n_l); a selection outside its set raises
    SelectionNotFeasibleError for a single state and gives a NaN row in a
    batch. slack, when given, must be b - a s - c|s| at the selection (NaN
    rows where it is undefined), as selection_with_slack returns it, and
    saves evaluating the set again; given or computed, it is checked
    against -DEFAULT_TOL the same way.
    """
    if k_phi < 0:
        raise ValueError("k_phi must be nonnegative")
    if cs.n_rows == 0:
        raise ValueError("reshaping needs at least one constraint row")
    selection = np.asarray(selection, dtype=float)
    if slack is None:
        slack = -cs.violations(selection)                       # (..., n_c)
    if not cs.batched:
        return _one_b_l(selection, slack.tolist(), cs, basis, k_phi)
    # The batch layout (qp_solver.states_last): phi is (n_c, n_l, N), so the
    # min over the constraint rows is a chain of elementwise minima.
    batch = cs.b.shape[:-1]
    slack = states_last(slack)
    below = slack < -DEFAULT_TOL
    if below.any():
        slack = np.where(below.any(axis=0), np.nan, slack)
    cbar_a_val = cbar_a(cs.c, basis.c_a)
    a_l = basis.a_l
    scaled = np.maximum(slack, 0.0)                             # clip tolerance dust
    scaled /= 1.0 + cs.c
    n_c, n_u = cs.a.shape[-2:]
    if scaled.shape[1] > 1 and n_c > 1:
        dots = columns_product(a_l, states_last(cs.a, 2))
    else:
        # numpy rounds a one-row product (vector path) unlike a matrix
        # product: one state or one row keeps the per-state product.
        dots = states_last(cs.a.reshape(-1, n_c, n_u) @ a_l.T, 2)
    # phi = max(dots, cbar_a) * scaled + max(k_phi * (cbar_a - dots), 0), in place.
    phi = np.maximum(dots, cbar_a_val)
    phi *= scaled[:, None]
    np.subtract(cbar_a_val, dots, out=dots)
    dots *= k_phi
    phi += np.maximum(dots, 0.0, out=dots)
    b_l = phi[0]
    for row in phi[1:]:
        np.minimum(b_l, row, out=b_l)
    b_l += columns_product(a_l, states_last(selection))
    return states_first(b_l, batch)


def _one_b_l(selection: np.ndarray, slack: list, cs: ConstraintSet, basis: PositiveBasis,
             k_phi: float) -> np.ndarray:
    """reshape_b_l for one state's set, on floats with the batch code's
    values (np.maximum, np.minimum, -0.0 and NaN included); the BLAS
    products cs.a @ A_L^T and selection @ A_L^T stay, the latter as a
    batch's matrix product rounds it (row_product). An exactly zero
    selection skips it: every b_l entry is >= +0.0 or NaN, so adding the
    product's +-0 changes no bit."""
    if any([q < -DEFAULT_TOL for q in slack]):
        raise SelectionNotFeasibleError("selection point violates the constraint set")
    c, cb = cs.c, cbar_a(cs.c, basis.c_a)
    a_t = basis.a_l.T
    b_l = None
    for q, dots in zip(slack, cs.a.dot(a_t).tolist()):
        scaled = (q if q > 0.0 or q != q else 0.0) / (1.0 + c)      # clip tolerance dust
        phi = [(d if d > cb or d != d else cb) * scaled
               + (e if (e := k_phi * (cb - d)) > 0.0 or e != e else 0.0) for d in dots]
        b_l = phi if b_l is None else [m if m < p or m != m else p for m, p in zip(b_l, phi)]
    if not any(selection.tolist()):                                # NaN is true
        return np.array(b_l)
    return np.array([p + m for p, m in zip(row_product(selection, basis.polygon.a_t).tolist(), b_l)])


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
    one state as for a batch.
    """
    nominal = np.asarray(nominal, dtype=float)
    if nominal.shape != (cs.n_u,):
        raise ValueError(f"the nominal must be one input of shape ({cs.n_u},)")
    if cs.n_rows == 0:
        return np.array(np.broadcast_to(nominal, cs.b.shape[:-1] + (cs.n_u,)))
    batched = cs.batched
    if batched:
        if k_phi < 0:
            raise ValueError("k_phi must be nonnegative")
        batch, active = cs.b.shape[:-1], _active_states(nominal, cs, basis)
        out = np.empty((2, math.prod(batch)))
        out[0], out[1] = nominal.tolist()
        if not active.size:
            return states_first(out, batch)
        cs = cs.take(active)
    # Not through lipschitz_selection: the benchmark's selection counter
    # wraps cascade.lipschitz_selection and cli.lipschitz_selection and
    # reads one state's selection.
    selection, slack = selection_with_slack(cs)
    b_l = reshape_b_l(selection, cs, basis, k_phi, slack=slack)
    if not batched:
        return basis.polygon.project_one(nominal, b_l, dots=nominal_dots)
    out[:, active] = states_last(basis.polygon.project(nominal, b_l, dots=nominal_dots))
    return states_first(out, batch)


def _active_states(nominal: np.ndarray, cs: ConstraintSet, basis: PositiveBasis) -> np.ndarray:
    """The flat indices of the states of a batched planar set at which the
    filter of the nominal u0 (2,) may not return u0.

    Every other state has finite rows and
    t = cbar_a * (min_j b_j / (1 + c)) > max_l (A_L u0)_l + 4 eps |u0|_1.
    The right side is >= 0 (a basis row meets u0 at an acute angle), so
    every b_j > 0: the selection is exactly 0 and its slack is b. Rounding
    is monotone and each phi_jl = max(dots, cbar_a) * (b_j/(1 + c)) + (a
    term >= 0) rounds as t does with larger operands, so b_l >= t (A_L 0
    adds a zero). The projection's own A_L u0 rounds within 2 eps |u0|_1 of
    this one for unit rows, so no row is violated and it returns u0. A NaN
    b fails the test; a spine point has a finite b but a NaN row. A state
    whose finite rows all have b = +inf, which every u meets, passes it:
    cbar_a > 0, so t = +inf.
    """
    rows, b = states_last(cs.a, 2), states_last(cs.b)          # (n_c, 2, N), (n_c, N)
    low = np.minimum.reduce(b, axis=0)
    low /= 1.0 + cs.c
    low *= cbar_a(cs.c, basis.c_a)
    u0 = nominal.tolist()
    reach = float(np.max(basis.a_l.dot(nominal))) + 4.0 * math.ulp(1.0) * (abs(u0[0]) + abs(u0[1]))
    active = ~(low > reach)
    active |= np.isnan(rows).any(axis=(0, 1))
    return np.flatnonzero(active)


def polytope_vertices_2d(poly: Polyhedron) -> np.ndarray:
    """Vertices of a bounded 2-D polyhedron by pairwise row intersection."""
    if poly.n_u != 2:
        raise ValueError("vertex enumeration implemented for 2-D only")
    verts = PolygonRows(poly.a).vertices(poly.b)
    return verts[np.all(verts @ poly.a.T <= poly.b + DEFAULT_TOL, axis=1)]


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
