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


# ---------------------------------------------- one-state outer law, on arrays
#
# The outer law's one-state arithmetic as numpy arrays, in the order the
# package evaluated it before it ran one state on floats: the reference that
# the float code must match bit for bit, raising the same exception types
# with the same messages. The error classes are the package's, so the types
# can be compared; the tolerances are its constants.

def _errors():
    from safecascade import errors
    return errors


TOL = 1e-9
SPINE_TOL = 1e-9
CENTER_TOL = 1e-12


def one_state_certificate(cert, x):
    """(h, grad_h, V) of a segment or disc certificate at one point x (2,)."""
    err = _errors()
    geo = cert.geometry
    if hasattr(geo, "o1"):
        base = geo.o2 - geo.o1
        base_sq = float(base @ base)
        if base_sq <= 1e-24:
            raise err.DegenerateGeometryError("segment endpoints coincide")
        rel = x - geo.o1
        t = float(rel @ base) / base_sq
        delta = rel - (0.0 if t <= 0.0 else 1.0 if t >= 1.0 else t) * base
        dist = np.hypot(delta[0], delta[1])
        if dist <= SPINE_TOL:
            raise err.ZeroGradientError("query point on segment spine")
        h = dist - cert.safe_distance
        return h, delta / dist[..., None], np.exp(-h)
    delta = x - geo.center
    r = np.hypot(delta[0], delta[1])
    if r <= CENTER_TOL:
        raise err.AtCenterError("query point at disc center")
    grad_h = np.where(np.isnan(r)[..., None], np.nan, 2.0 * delta)
    h = r * r - geo.radius ** 2
    return h, grad_h, np.exp(-h)


def one_state_set(x, certs, k_alpha, ratio, rate_level):
    """Rows a (n, 2), offsets b (n,), clearances h and values V at x, for
    the rate k_alpha * s (s >= 0; k_alpha * ratio * s below) of the inverse
    envelope s = log1p(max(offset / rate_level, -1 + eps))."""
    grad_h = np.empty((len(certs), 2))
    h = np.empty(len(certs))
    v = np.empty(len(certs))
    for j, cert in enumerate(certs):
        h[j], grad_h[j], v[j] = one_state_certificate(cert, x)
    nrm2 = np.add.reduce(grad_h * grad_h, axis=-1)
    offset = v - np.array([cert.level for cert in certs])
    s = np.log1p(np.maximum(offset / rate_level, -1.0 + np.finfo(float).eps))
    b = -(s * np.where(s >= 0.0, k_alpha, k_alpha * ratio))
    a = grad_h / -np.sqrt(nrm2)[..., None]
    if (np.abs(np.sqrt(np.add.reduce(a * a, axis=-1)) - 1.0) > 1e-9).any():
        raise ValueError("constraint rows must be unit vectors")
    return a, b, h, v


def one_state_violations(a, b, c, u):
    """a u + c |u| - b per row."""
    return (a @ u[..., None])[..., 0] + c * np.sqrt(np.add.reduce(u * u, axis=-1))[..., None] - b


def one_state_selection(a, b, c):
    """The Lipschitz selection of {a u + c|u| <= b} and the slack there."""
    err = _errors()
    scaled = b / (1.0 + np.sign(b) * c)
    if b.shape[0] >= 2:
        two = scaled if b.shape[0] == 2 else np.partition(scaled, 1)[:2]
        if np.add.reduce(two) < -TOL:
            lo, second = (int(k) for k in np.argsort(scaled, kind="stable")[:2])
            raise err.SelectionConditionError(
                f"offset condition fails for rows ({lo}, {second}): "
                f"{scaled[lo]:.6g} + {scaled[second]:.6g} < 0")
    u = np.add.reduce((np.minimum(b, 0.0) / (1.0 - c))[..., None] * a, axis=-2)
    viol = one_state_violations(a, b, c, u)
    worst = np.maximum.reduce(viol)
    if worst > TOL:
        raise err.SelectionConditionError(f"selection violates a row by {worst:.3e}")
    return u, -viol


def one_state_b_l(selection, slack, a, c, a_l, c_a, k_phi):
    """Offsets b_l of the reshaped polygon {a_l u <= b_l}."""
    err = _errors()
    if (slack < -TOL).any():
        raise err.SelectionNotFeasibleError("selection point violates the constraint set")
    opening = math.acos(math.sqrt(1.0 - c * c))
    if c_a <= math.cos(math.pi / 2.0 - opening):
        raise err.CoverageConditionError(
            f"coverage constant {c_a:.6g} too small for norm coefficient {c:.6g}")
    cbar = math.cos(opening + math.acos(c_a))
    a_t = a_l.T
    dots = a @ a_t
    phi1 = np.maximum(dots, cbar) * (np.maximum(slack, 0.0) / (1.0 + c))[..., None]
    phi2 = np.maximum(k_phi * (cbar - dots), 0.0)
    return selection @ a_t + np.minimum.reduce(phi1 + phi2, axis=0)


def one_state_projection(u0, a_l, b):
    """(point, stage) of the projection of u0 onto {a_l u <= b}: stage is
    "inside", "edge", "nan" or "vertex"."""
    a_t = a_l.T
    nrm = np.hypot(a_l[:, 0], a_l[:, 1])
    viol = u0 @ a_t - b
    if (viol <= TOL).all():
        return u0.copy(), "inside"
    far = (viol / nrm).argmax()
    edge = u0 - viol[far] / (nrm ** 2)[far] * a_l[far]
    if (edge @ a_t <= b + TOL).all():
        return edge, "edge"
    if np.isnan(viol).any():
        return np.full(2, np.nan), "nan"
    # Then as a batch of one, whose matrix products may round otherwise.
    u1, b1 = u0[None], b[None]
    viol = u1 @ a_t - b1
    if not (viol > TOL).any():
        return u0.copy(), "inside"
    far = (viol / nrm).argmax(axis=1)
    edge = u1 - (viol[[0], far] / (nrm ** 2)[far])[:, None] * a_l[far]
    if (edge @ a_t <= b1 + TOL).all():
        return edge[0], "edge"
    verts = []
    for i, j in itertools.combinations(range(a_l.shape[0]), 2):
        det = a_l[i, 0] * a_l[j, 1] - a_l[i, 1] * a_l[j, 0]
        if abs(det) > 1e-12:
            verts.append([(a_l[j, 1] * b[i] - a_l[i, 1] * b[j]) / det,
                          (a_l[i, 0] * b[j] - a_l[j, 0] * b[i]) / det])
    verts = np.array(verts)[None]
    ok = (verts @ a_t <= b[None, None, :] + TOL).all(axis=2)[0]
    if not ok.any():
        raise _errors().InfeasibleError("no point satisfies every row: empty feasible set")
    d2 = np.where(ok, ((verts[0] - u0) ** 2).sum(axis=1), np.inf)
    return verts[0, d2.argmin()], "vertex"


def one_state_law(x, certs, nominal, a_l, c_a, c, k_alpha, ratio, rate_level, k_phi):
    """(u, h, V, projection stage) of the reshaped outer law at one state."""
    a, b, h, v = one_state_set(x, certs, k_alpha, ratio, rate_level)
    selection, slack = one_state_selection(a, b, c)
    b_l = one_state_b_l(selection, slack, a, c, a_l, c_a, k_phi)
    u, stage = one_state_projection(nominal, a_l, b_l)
    return u, h, v, stage
