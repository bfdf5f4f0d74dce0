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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, MaxIterationsError

# The one feasibility tolerance of every projection and membership check.
DEFAULT_TOL = 1e-9


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

    def violations(self, u: np.ndarray) -> np.ndarray:
        return self.a @ u - self.b


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
    structure: the transpose and the row norms and their squares, built
    with it, and the table of independent row pairs i < j (determinant
    above 1e-12) with the entries Cramer's rule reads, built on first use
    and kept. vertices and project then do only the per-problem work; a
    PositiveBasis keeps its PolygonRows.
    """

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        self.a, self.a_t = a, a.T
        self.nrm = np.hypot(a[:, 0], a[:, 1])
        self.nrm_sq = self.nrm ** 2

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
        i, j, det, aj1, ai1, ai0, aj0 = self.pairs
        b_i, b_j = b[..., i], b[..., j]
        return np.stack([(aj1 * b_i - ai1 * b_j) / det,
                         (ai0 * b_j - aj0 * b_i) / det], axis=-1)

    def project(self, u0: np.ndarray, b: np.ndarray) -> np.ndarray:
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
        and b (n,), settles its feasible u0 or edge on the 1-D arrays and
        runs as a batch of one only when it needs the vertex stage.
        """
        a, a_t = self.a, self.a_t
        u0, b = np.asarray(u0, dtype=float), np.asarray(b, dtype=float)
        single = u0.ndim == 1 and b.ndim == 1
        if single:
            # The batch code's arithmetic on one row; a NaN fails every test.
            viol = u0 @ a_t - b
            if (viol <= DEFAULT_TOL).all():
                return u0.copy()
            far = (viol / self.nrm).argmax()
            edge = u0 - viol[far] / self.nrm_sq[far] * a[far]
            if (edge @ a_t <= b + DEFAULT_TOL).all():
                return edge
            if np.isnan(viol).any():
                return np.full(2, np.nan)      # as a batch row: no problem to solve
            u0, b = u0[None], b[None]
        else:
            batch = u0.shape[:-1]
            if batch != b.shape[:-1]:
                batch = np.broadcast_shapes(batch, b.shape[:-1])
                u0 = np.broadcast_to(u0, batch + (2,))
                b = np.broadcast_to(b, batch + (a.shape[0],))
            u0 = u0.reshape(-1, 2)
            b = b.reshape(-1, a.shape[0])
        viol = u0 @ a_t - b
        over = viol > DEFAULT_TOL
        if over.any():
            # Edge stage: the projection onto the farthest violated line.
            far = (viol / self.nrm).argmax(axis=1)
            edge = u0 - (viol[np.arange(far.size), far] / self.nrm_sq[far])[:, None] * a[far]
            edge_ok = (edge @ a_t <= b + DEFAULT_TOL).all(axis=1)
            moved = over.any(axis=1)
            on_edge = moved & edge_ok
            out = np.where(on_edge[:, None], edge, u0)
            rest = np.flatnonzero(moved & ~on_edge)
            if rest.size:
                # Vertex stage: the nearest feasible intersection of two rows.
                verts = self.vertices(b[rest])
                ok = (verts @ a_t <= b[rest][:, None, :] + DEFAULT_TOL).all(axis=2)
                found = ok.any(axis=1)
                if single and not found[0]:
                    raise InfeasibleError("no point satisfies every row: empty feasible set")
                out[rest] = np.nan
                if found.any():
                    d2 = np.where(ok, ((verts - u0[rest][:, None, :]) ** 2).sum(axis=2), np.inf)
                    out[rest[found]] = verts[found, d2[found].argmin(axis=1)]
        else:
            out = u0.copy()
        if np.isnan(viol).any():
            out = np.where(np.isnan(viol).any(axis=1)[:, None], np.nan, out)
        return out[0] if single else out.reshape(batch + (2,))
