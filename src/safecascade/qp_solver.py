"""Dense projection QP solver with active-set reporting.

Solves min |u - u0|^2 subject to A u <= b for small dense systems (a handful
of rows, 2-3 variables). The method is a dual active-set iteration: start at
the unconstrained optimum u0, repeatedly pick the lowest-index violated row,
and drive its multiplier up while keeping previously added rows tight,
dropping rows whose multiplier would go negative. Lowest-index selection on
both the add and drop side keeps the iteration from cycling on degenerate
instances. For two variables the projection also has an exact closed form
over candidate points, which PolygonRows.project evaluates for a whole
batch of problems sharing one row matrix. The PolygonRows keeps the
matrix's fixed structure (transpose, row norms, pair-vertex table), so a
caller with a fixed matrix builds it once and projects through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, MaxIterationsError

# The one feasibility tolerance of every projection and membership check.
DEFAULT_TOL = 1e-9


def sum_last_axis(m: np.ndarray) -> np.ndarray:
    """np.add.reduce(m, axis=-1) with the bits it gives a C-contiguous m,
    one add per column rather than a reduction loop per short row: numpy
    adds fewer than eight terms in order from +0.0 (-0.0 terms sum to +0.0)
    and sums longer rows pairwise, so those keep the reduction, on a
    C-contiguous copy (over a strided axis numpy may add in order)."""
    if m.shape[-1] >= 8:
        return np.add.reduce(np.ascontiguousarray(m), axis=-1)
    total = np.zeros(m.shape[:-1])
    for k in range(m.shape[-1]):
        total += m[..., k]
    return total


# numpy's vector product (gemv), which it takes for one vector or column,
# rounds otherwise than its matrix product (gemm), and a strided operand
# may too at some sizes. So one vector runs as one row of a two-row matrix
# product and a batch on C-contiguous columns, one column as two equal
# ones, every operand C-contiguous. The BLAS may still pick its kernel by
# size, so the tests check the bits at basis sizes up to 101 for batches
# of one, two and thousands of states.

def row_product(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m for one vector v and a C-contiguous m, as one row of a two-row
    matrix product."""
    return np.array((v, v)).dot(m)[0]


def columns_product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for columns m (..., k, N) as a matrix product on C-contiguous
    columns, one column as two equal ones."""
    if m.shape[-1] == 1:
        return (a @ np.repeat(m, 2, axis=-1))[..., :1]
    return a @ np.ascontiguousarray(m)


def states_last(m: np.ndarray, core: int = 1) -> np.ndarray:
    """The batch code's layout of m (..., *core): (*core, N) over its N
    states, on the last, contiguous memory axis, so that sums, maxima and
    minima over a short core axis (components, certificates, basis rows)
    run along contiguous stretches of states. The public (..., *core)
    shapes are states_first views of such buffers; a view of m wherever its
    memory allows, and always for such a view."""
    k = m.ndim - core
    n = math.prod(m.shape[:k])
    return m.transpose((*range(k, m.ndim), *range(k))).reshape(m.shape[k:] + (n,))


def states_first(buf: np.ndarray, batch: tuple) -> np.ndarray:
    """The public shape (*batch, *core) of a batch buffer (*core, N), as a view."""
    k = buf.ndim - 1
    return buf.transpose((k, *range(k))).reshape(batch + buf.shape[:k])


@dataclass(frozen=True)
class Polyhedron:
    """Constraint system {u : a @ u <= b}. Rows need not be normalized."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if a.size == 0:
            a = a.reshape(0, max(a.shape[-1], 1) if a.ndim else 1)
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"row mismatch: a has {a.shape[0]} rows, b has {b.shape[0]}")
        if a.shape[1] < 1:
            raise ValueError("polyhedron needs at least one variable")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class QpSolution:
    """Projection result with the tight rows and their multipliers."""

    point: np.ndarray
    active_indices: np.ndarray
    multipliers: np.ndarray
    iterations: int


def solve_projection_qp(u0: np.ndarray, poly: Polyhedron) -> QpSolution:
    """Euclidean projection of u0 onto {u : A u <= b}.

    Raises InfeasibleError when the constraints have empty intersection and
    MaxIterationsError when the anti-cycling budget (100 * (n_rows + 1)) runs
    out. On success the KKT conditions hold to within DEFAULT_TOL:
    A u <= b + DEFAULT_TOL, multipliers >= 0, and u = u0 - A_active^T lambda.
    """
    u0 = np.asarray(u0, dtype=float).ravel()
    if u0.shape[0] != poly.n_u:
        raise ValueError(f"u0 has dim {u0.shape[0]}, polyhedron has {poly.n_u}")
    a, b = poly.a, poly.b
    u = u0.copy()
    work: list[int] = []          # active rows, kept linearly independent
    lam: list[float] = []
    budget = 100 * (poly.n_rows + 1)
    iterations = 0

    while iterations < budget:
        iterations += 1
        viol = a @ u - b
        over = np.flatnonzero(viol > DEFAULT_TOL)
        if over.size == 0:
            return QpSolution(
                point=u,
                active_indices=np.asarray(work, dtype=int),
                multipliers=np.asarray(lam, dtype=float),
                iterations=iterations,
            )
        p = int(over[0])
        n_p = a[p]
        span_tol = 1e-11 * (1.0 + float(n_p @ n_p))
        lam_p = 0.0
        while True:
            if work:
                aw = a[work]
                gram = aw @ aw.T
                r = np.linalg.solve(gram, aw @ n_p)
                z = -(n_p - r @ aw)
            else:
                r = np.zeros(0)
                z = -n_p
            # |z|^2 equals n_p . (-z); zero means n_p is spanned by the
            # working set and only a dual adjustment is possible.
            znorm2 = float(n_p @ -z)
            viol_p = float(n_p @ u - b[p])
            if viol_p <= DEFAULT_TOL:
                # Driven tight by earlier partial steps.
                if lam_p > 0.0:
                    work.append(p)
                    lam.append(lam_p)
                break
            if znorm2 <= span_tol:
                z = np.zeros_like(z)     # pure dual step: do not drift u
                t_full = np.inf
            else:
                t_full = viol_p / znorm2
            t_dual = np.inf
            k_drop = -1
            for pos in range(len(work)):
                if r[pos] > 1e-12:
                    ratio = max(lam[pos], 0.0) / r[pos]
                    if ratio < t_dual:
                        t_dual, k_drop = ratio, pos
            if not np.isfinite(t_full) and not np.isfinite(t_dual):
                raise InfeasibleError(
                    f"constraint {p} cannot be satisfied: empty feasible set"
                )
            t = min(t_full, t_dual)
            u = u + t * z
            lam_p += t
            for pos in range(len(work)):
                lam[pos] -= t * r[pos]
            if t_full <= t_dual:
                work.append(p)
                lam.append(lam_p)
                break
            work.pop(k_drop)
            lam.pop(k_drop)
    raise MaxIterationsError(f"projection did not settle within {budget} iterations")


class PolygonRows:
    """A shared 2-D row matrix a (n, 2) with nonzero rows, and its fixed
    structure: the C-contiguous transpose (row_product's operand) and the
    row norms and their squares, built
    with it, and the table of independent row pairs i < j (determinant
    above 1e-12) with the entries Cramer's rule reads, built on first use
    and kept. vertices and project then do only the per-problem work; a
    PositiveBasis keeps its PolygonRows.
    """

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        self.a, self.a_t = a, np.ascontiguousarray(a.T)
        self.nrm = np.hypot(a[:, 0], a[:, 1])
        self.nrm_sq = self.nrm ** 2
        # The same values as floats, for a single problem.
        self.rows, self.nrm_list = a.tolist(), self.nrm.tolist()
        self.nrm_sq_list = self.nrm_sq.tolist()

    @cached_property
    def pairs(self) -> tuple[np.ndarray, ...]:
        """(i, j, det, a[j, 1], a[i, 1], a[i, 0], a[j, 0]) over the pairs."""
        a = self.a
        i, j = np.triu_indices(a.shape[0], 1)
        det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
        keep = np.abs(det) > 1e-12
        i, j, det = i[keep], j[keep], det[keep]
        return i, j, det, a[j, 1], a[i, 1], a[i, 0], a[j, 0]

    def vertices(self, b: np.ndarray) -> np.ndarray:
        """Intersection points of every independent row pair of a u = b.

        b is (..., n); the result is (..., pairs, 2) by Cramer's rule.
        Feasibility is left to the caller.
        """
        i, j, *coef = self.pairs
        det, aj1, ai1, ai0, aj0 = (p[:, None] for p in coef)
        bt = states_last(b)
        b_i, b_j = bt[i], bt[j]
        verts = np.stack([(aj1 * b_i - ai1 * b_j) / det, (ai0 * b_j - aj0 * b_i) / det], axis=1)
        return states_first(verts, b.shape[:-1])

    def project(self, u0: np.ndarray, b: np.ndarray, *, dots: np.ndarray | None = None) -> np.ndarray:
        """Exact Euclidean projection of u0 onto {u : a u <= b} in 2-D.

        u0 is (..., 2) and b is (..., n), broadcast together. In the plane
        the projection is piecewise affine. It is u0 when u0 is feasible.
        Otherwise it lies at least as far from u0 as every violated row's
        line, so only the farthest line's projection can be the answer, and
        it is whenever it is feasible. Otherwise the answer is the nearest
        feasible vertex over all row pairs (redundant rows break any
        adjacency shortcut); only batch rows that no edge resolves reach
        this stage. Feasibility is checked to within DEFAULT_TOL. Where u0
        or b is NaN the result is NaN, for a single problem as for a batch
        row; where no candidate is feasible a single problem raises
        InfeasibleError and a batch row is NaN. A single problem, u0 (2,)
        and b (n,), settles its feasible u0 or edge on floats, with the
        batch code's values (project_one), and goes straight to the vertex
        stage, as a batch of one, when neither is the answer. dots, when
        given, must be row_product(u0, self.a_t) for one u0 (2,), as
        project_one reads it; it is not checked, and the batch reads it in
        place of the product a u0, whose columns it matches bit for bit.
        """
        a, a_t = self.a, self.a_t
        u0, b = np.asarray(u0, dtype=float), np.asarray(b, dtype=float)
        if u0.ndim == 1 and b.ndim == 1:
            return self.project_one(u0, b, dots=dots)
        batch = u0.shape[:-1]
        if batch != b.shape[:-1]:
            batch = np.broadcast_shapes(batch, b.shape[:-1])
            u0 = np.broadcast_to(u0, batch + (2,))
            b = np.broadcast_to(b, batch + (a.shape[0],))
        u0, b = states_last(u0), states_last(b)                 # (2, N), (n, N)
        if dots is None:
            viol = columns_product(a, u0)
            viol -= b
        else:
            viol = np.subtract(dots[:, None], b)
        moved = (viol > DEFAULT_TOL).any(axis=0)
        out = u0.copy()
        if moved.any():
            # Edge stage, on the moved states: the projection onto the
            # farthest violated line.
            idx = np.flatnonzero(moved)
            v = viol[:, idx]
            far = (v / self.nrm[:, None]).argmax(axis=0)
            step = v[far, np.arange(idx.size)] / self.nrm_sq.take(far)
            edge = u0[:, idx] - a_t[:, far] * step
            edge_ok = (columns_product(a, edge) <= b[:, idx] + DEFAULT_TOL).all(axis=0)
            out[:, idx[edge_ok]] = edge[:, edge_ok]
            rest = idx[~edge_ok]
            if rest.size:
                out[:, rest] = self._nearest_vertices(u0[:, rest], b[:, rest])[0]
        np.copyto(out, np.nan, where=np.isnan(viol).any(axis=0))
        return states_first(out, batch)

    def project_one(self, u0: np.ndarray, b: np.ndarray, *,
                    dots: np.ndarray | None = None) -> np.ndarray:
        """project for one problem, u0 (2,) and b (n,) float arrays, on
        floats with the batch code's values. The BLAS products u0 @ a_t
        and edge @ a_t stay, as a batch's matrix product rounds them
        (row_product). dots, when given, must be row_product(u0, self.a_t),
        which a caller with a fixed u0 may keep; it is not checked. A NaN
        fails every test, and the batch code's farthest line (the first
        NaN) then gives NaN."""
        viol = ((row_product(u0, self.a_t) if dots is None else dots) - b).tolist()
        if any(map(math.isnan, viol)):
            return np.full(2, np.nan)      # as a batch row: no problem to solve
        if max(viol) <= DEFAULT_TOL:
            return u0.copy()
        far = [q / n for q, n in zip(viol, self.nrm_list)]
        far = far.index(max(far))          # the first largest, as argmax
        step = viol[far] / self.nrm_sq_list[far]
        edge = np.array([p - step * q for p, q in zip(u0.tolist(), self.rows[far])])
        if all([p <= q + DEFAULT_TOL for p, q in zip(row_product(edge, self.a_t).tolist(), b.tolist())]):
            return edge
        out, found = self._nearest_vertices(u0[:, None], b[:, None])
        if not found[0]:
            raise InfeasibleError("no point satisfies every row: empty feasible set")
        return out[:, 0]

    def _nearest_vertices(self, u0: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vertex stage, in the batch layout: for each problem of u0
        (2, k) and b (n, k), the nearest feasible intersection of two rows,
        NaN where none is feasible, and which problems had one."""
        verts = states_last(self.vertices(states_first(b, b.shape[1:])), 2)     # (pairs, 2, k)
        ok = (columns_product(self.a, verts) <= b + DEFAULT_TOL).all(axis=1)
        found = ok.any(axis=0)
        out = np.full(u0.shape, np.nan)
        if found.any():
            d2 = np.where(ok, sum_last_axis((verts - u0).transpose(0, 2, 1) ** 2), np.inf)
            out[:, found] = verts[d2[:, found].argmin(axis=0), :, found].T
        return out, found
