"""Dense projection QP solver with active-set reporting.

Solves min |u - u0|^2 subject to A u <= b for small dense systems (a handful
of rows, 2-3 variables). The method is a dual active-set iteration: start at
the unconstrained optimum u0, repeatedly pick the lowest-index violated row,
and drive its multiplier up while keeping previously added rows tight,
dropping rows whose multiplier would go negative. Lowest-index selection on
both the add and drop side keeps the iteration from cycling on degenerate
instances. In the plane the projection has an exact closed form, which
PolygonRows.project evaluates for a batch of problems sharing one row
matrix, whose fixed structure the PolygonRows keeps.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, MaxIterationsError

# The one feasibility tolerance of every projection and membership check.
DEFAULT_TOL = 1e-9

# Elements per block of states in PolygonRows.edge_ends: its largest
# temporaries, the (C, 2, n, k) key and the (n, 2n, k) test, hold about
# n^2 elements a state, so it works on as many states at once as keep them
# under this (8 MB of floats each), and on one state when one alone exceeds it.
EDGE_END_BLOCK_ELEMENTS = 1 << 20


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
    if k == 1:                                  # one batch axis: the transpose is the layout
        return m.T if core == 1 else m.transpose((*range(1, m.ndim), 0))
    n = math.prod(m.shape[:k])
    return m.transpose((*range(k, m.ndim), *range(k))).reshape(m.shape[k:] + (n,))


def states_first(buf: np.ndarray, batch: tuple) -> np.ndarray:
    """The public shape (*batch, *core) of a batch buffer (*core, N), as a view."""
    k = buf.ndim - 1
    if len(batch) == 1:
        return buf.T if k == 1 else buf.transpose((k, *range(k)))
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
    """A shared 2-D row matrix a (n, 2) with nonzero rows and its fixed
    structure, built with it: the C-contiguous transpose (row_product's
    operand), the row norms and their squares, and edge_ends' tables."""

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        self.a, self.a_t = a, np.ascontiguousarray(a.T)
        self.nrm = np.hypot(a[:, 0], a[:, 1])
        self.nrm_sq = self.nrm ** 2
        # The same values as floats, for a single problem.
        self.rows, self.nrm_list = a.tolist(), self.nrm.tolist()
        self.nrm_sq_list = self.nrm_sq.tolist()
        # edge_ends' tables: each end's candidates (C, 2, n), the rows that cut its line on its
        # side, last to first, padded with row 0 (p, q NaN); by slot c 2n + e, Cramer's entries
        # (5, 2nC) and the pair's rows (2, 2nC).
        n, line = a.shape[0], np.arange(a.shape[0])
        det = np.multiply.outer(a[:, 0], a[:, 1]) - np.multiply.outer(a[:, 1], a[:, 0])
        side = np.concatenate([det > 1e-12, det < -1e-12])
        cand = -np.sort(-np.where(side, line, -1), axis=1)[:, :max(side.sum(axis=1).max(initial=0), 1)]
        cuts = (cand >= 0).T.reshape(cand.shape[1], 2, n)
        self.cand = cand = np.maximum(cand, 0).T.reshape(cuts.shape)
        size = np.where(cuts, np.abs(det[line, cand]), np.nan)
        self.key_p, self.key_q = (self.nrm_sq / size)[..., None], ((a @ a.T)[line, cand] / size)[..., None]
        i, j = np.minimum(line, cand), np.maximum(line, cand)
        self.pair = np.stack([i, j]).reshape(2, -1)
        self.cramer = np.stack([a[j, 1], a[i, 0], a[i, 1], a[j, 0], np.where(cuts, det[i, j], np.nan)]).reshape(5, -1)
        self.state_elements = max(cand.size, 2 * n * n)      # the largest temporary's, per state
        self.slot_base = 2.0 * n * np.arange(cuts.shape[0]).reshape(-1, 1, 1, 1)   # c 2n, as a float
        self.end_slot = np.arange(2 * n).reshape(2, n, 1)

    def edge_ends(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both ends of each row line's edge for the problems b (n, k), in the
        batch layout (2, 2n, k), and which meet every row to within DEFAULT_TOL
        (2n, k). Row m cuts line l (a_l u = b_l) where det(l, m) = a_l x a_m
        exceeds 1e-12 in size, from above (det > 0) or below, at s = (b_m
        |a_l|^2 - b_l a_l . a_m) / det along a_l turned left. An end is the
        lowest row of least key s |det| / det = p b_m - q b_l on its side, by
        its pair's Cramer's rule (i < j); NaN where none cuts. Every vertex is an end.
        The states run in blocks small enough to keep the key and the test
        under EDGE_END_BLOCK_ELEMENTS elements each."""
        n, k = b.shape
        block = max(1, EDGE_END_BLOCK_ELEMENTS // self.state_elements)
        if k <= block:
            return self._edge_ends(b)
        ends, ok = np.empty((2, 2 * n, k)), np.empty((2 * n, k), dtype=bool)
        for lo in range(0, k, block):
            ends[:, :, lo:lo + block], ok[:, lo:lo + block] = self._edge_ends(b[:, lo:lo + block])
        return ends, ok

    def _edge_ends(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """edge_ends on one block of states b (n, k)."""
        n, k = b.shape
        key = b.take(self.cand, axis=0)                                   # (C, 2, n, k)
        key *= self.key_p
        key -= b * self.key_q
        # The last candidate of least key, on whole slabs of states: an
        # argmin over the candidates' axis would reorder the array.
        np.equal(key, np.fmin.reduce(key, axis=0), out=key)
        key *= self.slot_base
        slot = np.maximum.reduce(key, axis=0).astype(np.intp) + self.end_slot
        del key
        coef = self.cramer.take(slot, axis=1)
        b_ij = b[self.pair.take(slot, axis=1), np.arange(k)]
        ends = coef[:2] * b_ij
        ends -= coef[2:4] * b_ij[::-1]
        ends /= coef[4]
        ends = ends.reshape(2, 2 * n, k)
        ok = columns_product(self.a, ends.reshape(2, -1)).reshape(n, 2 * n, k) <= (b + DEFAULT_TOL)[:, None]
        return ends, ok.all(axis=0)

    def project(self, u0: np.ndarray, b: np.ndarray, *, dots: np.ndarray | None = None) -> np.ndarray:
        """Exact Euclidean projection of u0 onto {u : a u <= b} in 2-D.

        u0 is (..., 2) and b is (..., n), broadcast together. In the plane
        the projection is piecewise affine. It is u0 when u0 is feasible.
        Otherwise it lies at least as far from u0 as every violated row's
        line, so only the farthest line's projection can be the answer, and
        it is whenever it is feasible. Otherwise it is the nearest feasible
        vertex, which ends two rows' edges (edge_ends). Feasibility is
        checked to within DEFAULT_TOL. Where u0 or b is NaN the result is
        NaN, for a single problem as for a batch row; where no candidate is
        feasible a single problem raises InfeasibleError and a batch row is
        NaN. A single problem, u0 (2,) and b (n,), settles its feasible u0
        or edge on floats, with the batch code's values (project_one), and
        goes straight to the vertex stage, as a batch of one, when neither
        is the answer. dots, when given, must be row_product(u0, self.a_t)
        for one u0 (2,), as project_one reads it; it is not checked, and the
        batch reads it in place of the product a u0, whose columns it
        matches bit for bit.
        """
        a, a_t = self.a, self.a_t
        u0, b = np.asarray(u0, dtype=float), np.asarray(b, dtype=float)
        if u0.ndim == 1 and b.ndim == 1:
            return self.project_one(u0, b, dots=dots)
        if u0.ndim == 1:
            # One u0 for every problem: its column fills the result.
            batch, b = b.shape[:-1], states_last(b)             # (n, N)
            out = np.empty((2, b.shape[1]))
            out[0], out[1] = u0.tolist()
        else:
            batch = u0.shape[:-1]
            if batch != b.shape[:-1]:
                batch = np.broadcast_shapes(batch, b.shape[:-1])
                u0 = np.broadcast_to(u0, batch + (2,))
                b = np.broadcast_to(b, batch + (a.shape[0],))
            out, b = states_last(u0).copy(), states_last(b)      # (2, N) in C order, (n, N)
        # out holds u0 until a stage writes a state's result.
        if dots is None:
            viol = columns_product(a, out)
            viol -= b
        else:
            viol = np.subtract(dots[:, None], b)
        idx = (viol > DEFAULT_TOL).any(axis=0).nonzero()[0]
        if idx.size:
            # Edge stage, on the moved states: the projection onto the
            # farthest violated line, in place on new arrays (the same bits).
            v, start = viol[:, idx], out[:, idx]
            v /= self.nrm[:, None]
            far = v.argmax(axis=0)
            step = viol[far, idx] / self.nrm_sq.take(far)
            edge = a_t[:, far]
            edge *= step
            np.subtract(start, edge, out=edge)
            bound = b[:, idx]
            bound += DEFAULT_TOL
            edge_ok = (columns_product(a, edge) <= bound).all(axis=0)
            out[:, idx[edge_ok]] = edge[:, edge_ok]
            if not edge_ok.all():
                rest = ~edge_ok
                out[:, idx[rest]] = self._nearest_vertices(start[:, rest], b[:, idx[rest]])[0]
        np.copyto(out, np.nan, where=np.isnan(viol).any(axis=0))
        return states_first(out, batch)

    def project_one(self, u0: np.ndarray, b: np.ndarray, *,
                    dots: np.ndarray | None = None) -> np.ndarray:
        """project for one problem, u0 (2,) and b (n,) float arrays, on
        floats with the batch code's values. The BLAS products u0 @ a_t
        and edge @ a_t stay, as a batch's matrix product rounds them
        (row_product). dots, when given, must be row_product(u0, self.a_t)
        or its list of floats, which a caller with a fixed u0 may keep; it
        is not checked."""
        # Elementwise steps run through map, which makes no comprehension frame.
        bounds = b.tolist()
        if dots is None:
            dots = row_product(u0, self.a_t)
        viol = list(map(operator.sub, dots if type(dots) is list else dots.tolist(), bounds))
        if any(map(math.isnan, viol)):
            return np.full(2, np.nan)      # as a batch row: no problem to solve
        if max(viol) <= DEFAULT_TOL:
            return u0.copy()
        far = list(map(operator.truediv, viol, self.nrm_list))
        far = far.index(max(far))          # the first largest, as argmax
        step = viol[far] / self.nrm_sq_list[far]
        (p0, p1), (q0, q1) = u0.tolist(), self.rows[far]
        edge = np.array((p0 - step * q0, p1 - step * q1))
        # edge A^T <= b + DEFAULT_TOL in every row.
        if all(map(operator.le, row_product(edge, self.a_t).tolist(),
                   map(operator.add, bounds, itertools.repeat(DEFAULT_TOL)))):
            return edge
        out, found = self._nearest_vertices(u0[:, None], b[:, None])
        if not found[0]:
            raise InfeasibleError("no point satisfies every row: empty feasible set")
        return out[:, 0]

    def _nearest_vertices(self, u0: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vertex stage, in the batch layout: for u0 (2, k) and b (n, k),
        each problem's nearest feasible edge end, or NaN, and which had one."""
        ends, ok = self.edge_ends(b)
        found = ok.any(axis=0)
        d2 = ends - u0[:, None]
        d2 *= d2
        d2 = d2[0] + d2[1]                  # as sum() over the components: squares are never -0.0
        out = ends[:, np.where(ok, d2, np.inf).argmin(axis=0), np.arange(b.shape[1])]
        if not found.all():
            out[:, ~found] = np.nan
        return out, found
