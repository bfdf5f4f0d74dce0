"""Independent reference computations used to cross-check the library.

Everything here is deliberately brute force and shares no code with the
package: face enumeration for projections, polar scans for the quadratic
feasible sets, dense sampling for distances, and plain-loop arithmetic for
the gain ledger.
"""
import itertools
import math

import numpy as np

INFEASIBLE = "infeasible"


def project_by_face_enumeration(u0, a, b, tol=1e-9):
    """Projection of u0 onto {u : a u <= b} in 2-D by checking every face.

    Candidates are u0 itself, the projection onto each constraint line, and
    every vertex formed by an independent pair of rows; the feasible
    candidate closest to u0 is the answer. Returns INFEASIBLE when no
    candidate is feasible (in 2-D every nonempty polyhedron exposes one).
    """
    u0 = np.asarray(u0, dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    n_rows = a.shape[0]
    candidates = [u0]
    for i in range(n_rows):
        ai, bi = a[i], b[i]
        nrm2 = ai @ ai
        if nrm2 > 0:
            candidates.append(u0 - (ai @ u0 - bi) / nrm2 * ai)
    for i, j in itertools.combinations(range(n_rows), 2):
        m = a[[i, j]]
        if abs(np.linalg.det(m)) > 1e-12:
            candidates.append(np.linalg.solve(m, b[[i, j]]))
    best = None
    best_d = np.inf
    for cand in candidates:
        if np.all(a @ cand <= b + tol) if n_rows else True:
            d = float(np.sum((cand - u0) ** 2))
            if d < best_d:
                best, best_d = cand, d
    return INFEASIBLE if best is None else best


def norm_constrained_membership(a, b, c, u, tol=1e-9):
    """Direct check of a u + c * |u| <= b for every row."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u = np.asarray(u, dtype=float)
    lhs = a @ u + np.asarray(c, dtype=float) * np.linalg.norm(u)
    return bool(np.all(lhs <= np.asarray(b, dtype=float) + tol))


def qcqp_polar_scan(u0, a, b, c, radii=None, angles=720):
    """Brute-force minimizer of |u - u0| over {a u + c |u| <= b} in 2-D.

    Scans a polar grid around the origin; used only to sanity-check that
    library solutions are not beaten by a large margin, so coarse is fine.
    """
    u0 = np.asarray(u0, dtype=float)
    if radii is None:
        radii = np.linspace(0.0, 2.0 * (1.0 + np.linalg.norm(u0)), 401)
    best, best_d = None, np.inf
    for r in radii:
        for th in np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False):
            u = np.array([r * np.cos(th), r * np.sin(th)])
            if norm_constrained_membership(a, b, c, u, tol=1e-12):
                d = float(np.sum((u - u0) ** 2))
                if d < best_d:
                    best, best_d = u, d
    return best


def segment_distance_by_sampling(p, o1, o2, samples=100_000):
    """min |p - q| over q on the segment, by dense parameter sampling."""
    p = np.asarray(p, dtype=float)
    o1 = np.asarray(o1, dtype=float)
    o2 = np.asarray(o2, dtype=float)
    ts = np.linspace(0.0, 1.0, samples)
    pts = o1[None, :] + ts[:, None] * (o2 - o1)[None, :]
    return float(np.min(np.linalg.norm(pts - p[None, :], axis=1)))


def signed_level_distance(value_fn, x, level, direction, span=5.0, iters=80):
    """Signed distance from x to the level set {value_fn = level}.

    Walks along +-direction with bisection; sign is positive when
    value_fn(x) exceeds the level. Test-time helper for checking that the
    certificate envelope alpha_bar maps distances to certificate offsets.
    """
    x = np.asarray(x, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    f0 = value_fn(x) - level
    if f0 == 0.0:
        return 0.0
    sign = 1.0 if f0 > 0 else -1.0
    # March away until the level is crossed, then bisect.
    step = None
    for s in np.linspace(1e-4, span, 2000):
        if (value_fn(x - sign * s * direction) - level) * f0 < 0:
            step = s
            break
    if step is None:
        return math.inf * sign
    lo, hi = 0.0, step
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (value_fn(x - sign * mid * direction) - level) * f0 < 0:
            hi = mid
        else:
            lo = mid
    return sign * 0.5 * (lo + hi)


def ledger_products(k_tracking, k1):
    """Plain-loop gain products kbar[(p, i)].

    k_tracking maps level -> K_level for levels 2..m; entries for level 1 use
    the supplied k1. Products over an empty index range are zero by
    convention.
    """
    m = max(k_tracking) if k_tracking else 1
    lip = {1: k1}
    for lvl, big_k in k_tracking.items():
        lip[lvl] = 2.0 * big_k
    kbar = {}
    for p in range(1, m + 1):
        for i in range(0, m + 1):
            if p > i:
                kbar[(p, i)] = 0.0
            else:
                prod = 1.0
                for j in range(p, i + 1):
                    prod *= lip[j]
                kbar[(p, i)] = prod
    return kbar


def _fmt9(value):
    return "nan" if value != value else "{:.9g}".format(float(value))


def trajectory_csv_text(traj):
    """The trajectory CSV as one string, built row by row and joined: the
    whole-file formula the streaming writer replaced."""
    block_dim = traj.inputs.shape[1]
    blocks = traj.states.shape[1] // block_dim
    n_certs = traj.margins_h.shape[1]
    cols = ["t"]
    for blk in range(1, blocks + 1):
        cols += [f"x{blk}_{i}" for i in range(block_dim)]
    cols += [f"u_{i}" for i in range(block_dim)]
    cols += [f"h_{j}" for j in range(n_certs)]
    cols += [f"V_{j}" for j in range(n_certs)]
    cols += [f"xs2_{i}" for i in range(block_dim)]
    lines = [",".join(cols)]
    for k in range(traj.times.shape[0]):
        row = [traj.times[k], *traj.states[k], *traj.inputs[k],
               *traj.margins_h[k], *traj.margins_v[k],
               *traj.virtual_controls[k][:block_dim]]
        lines.append(",".join(_fmt9(v) for v in row))
    return "\n".join(lines) + "\n"


def field_csv_text(xs, ys, norm_grid):
    """The x,y,norm field CSV as one string, a nested loop over the grid."""
    lines = ["x,y,norm"]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lines.append(f"{x:.9g},{y:.9g},{norm_grid[i, j]:.9g}")
    return "\n".join(lines) + "\n"
