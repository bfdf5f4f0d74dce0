"""Independent reference computations used to cross-check the library.

Everything here is deliberately brute force and shares no code with the
package: face enumeration for projections, polar scans for the quadratic
feasible sets, dense sampling for distances, and plain-loop arithmetic for
the gain products and the rate-condition audit.
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


def spine_distance_by_sampling(a, b, samples=1000):
    """min |p - q| over p on spine a and q on spine b, each a segment (its
    two endpoints) or a point (one), by dense sampling of both: at most the
    half spacings of the two samplings above the exact distance."""
    def points(ends):
        ends = np.asarray(ends, dtype=float)
        ts = np.linspace(0.0, 1.0, samples if len(ends) == 2 else 1)
        return ends[0] + ts[:, None] * (ends[-1] - ends[0])
    diff = points(a)[:, None, :] - points(b)[None, :, :]
    return float(np.sqrt(np.min(np.sum(diff * diff, axis=-1))))


def signed_level_distance(value_fn, x, level, direction, span=5.0, iters=80):
    """Signed distance from x to the level set {value_fn = level}.

    Walks along +-direction with bisection; sign is positive when
    value_fn(x) exceeds the level. Test-time helper for checking that the
    certificate envelope's inverse maps certificate offsets to distances.
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


def rate_condition_by_loop(k_alpha, level, threshold, theta, gamma_w_slope, c, v_max, grid):
    """The rate-condition audit one grid point at a time: (least margin, its V)
    for the first strict minimum over the grid, with the rate of
    one_state_set at the level. A NaN margin never compares below another,
    so the loop skips it, and a grid of NaN margins gives (inf, threshold)."""
    vs = np.linspace(threshold, max(v_max, threshold), grid)
    frac = (threshold - level) / threshold
    min_margin, argmin_v = math.inf, threshold
    for v in vs:
        lhs = -_offsets(frac * v, level, k_alpha, c)
        margin = lhs - (theta * v + (1.0 + c) * (v / gamma_w_slope))
        if margin < min_margin:
            min_margin, argmin_v = margin, float(v)
    return min_margin, argmin_v


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


def one_state_set(x, certs, k_alpha, c):
    """Rows a (n, 2), offsets b (n,), clearances h and values V at x, for
    the rate k_alpha * s (s >= 0; k_alpha * (1 + c)/(1 - c) * s below) of
    each certificate's inverse envelope s = log1p(max(offset / level,
    -1 + eps)), offset = V - level."""
    grad_h = np.empty((len(certs), 2))
    h = np.empty(len(certs))
    v = np.empty(len(certs))
    for j, cert in enumerate(certs):
        h[j], grad_h[j], v[j] = one_state_certificate(cert, x)
    nrm2 = np.add.reduce(grad_h * grad_h, axis=-1)
    levels = np.array([cert.level for cert in certs])
    a = grad_h / -np.sqrt(nrm2)[..., None]
    _check_unit_rows(a)
    return a, _offsets(v - levels, levels, k_alpha, c), h, v


def _offsets(offset, level, k_alpha, c):
    """-rate(offset) elementwise, for the rate of one_state_set."""
    s = np.log1p(np.maximum(offset / level, -1.0 + np.finfo(float).eps))
    return -(s * np.where(s >= 0.0, k_alpha, k_alpha * ((1.0 + c) / (1.0 - c))))


def _check_unit_rows(a):
    if (np.abs(np.sqrt(np.add.reduce(a * a, axis=-1)) - 1.0) > 1e-9).any():
        raise ValueError("constraint rows must be unit vectors")


def set_violations(a, b, c, u):
    """a u + c |u| - b per row, for one set or a batch."""
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
    viol = set_violations(a, b, c, u)
    worst = np.maximum.reduce(viol)
    if worst > TOL:
        raise err.SelectionConditionError(f"selection violates a row by {worst:.3e}")
    return u, -viol


def _as_batch_row(v, m):
    """v @ m as a row of a matrix product over two equal rows: numpy's
    vector product, which it takes for one row, rounds otherwise, and a
    state must round as it does in a batch."""
    return (np.stack([v, v]) @ m)[0]


def one_state_b_l(selection, slack, a, c, a_l, c_a, k_phi):
    """Offsets b_l of the reshaped polygon {a_l u <= b_l}."""
    if (slack < -TOL).any():
        raise _errors().SelectionNotFeasibleError("selection point violates the constraint set")
    cbar = _cbar(c, c_a)
    a_t = a_l.T
    dots = a @ a_t
    phi1 = np.maximum(dots, cbar) * (np.maximum(slack, 0.0) / (1.0 + c))[..., None]
    phi2 = np.maximum(k_phi * (cbar - dots), 0.0)
    return _as_batch_row(selection, a_t) + np.minimum.reduce(phi1 + phi2, axis=0)


def _cbar(c, c_a):
    """The coverage constant the rows are weighed with, for exact input
    gains (c = 0): c_a itself, which must be positive. The former effective
    constant cos(acos(sqrt(1 - c^2)) + acos(c_a)) is cos(acos(c_a)) there,
    which equals c_a at every basis make_positive_basis builds but rounds
    off a stated one such as 0.05."""
    assert c == 0.0, "the package treats exact input gains only"
    if not c_a > 0.0:
        raise _errors().CoverageConditionError(f"coverage constant {c_a:.6g} must be positive for reshaping")
    return c_a


def one_state_projection(u0, a_l, b):
    """(point, stage) of the projection of u0 onto {a_l u <= b}: stage is
    "inside", "edge", "nan" or "vertex"."""
    a_t = a_l.T
    nrm = np.hypot(a_l[:, 0], a_l[:, 1])
    viol = _as_batch_row(u0, a_t) - b
    if (viol <= TOL).all():
        return u0.copy(), "inside"
    far = (viol / nrm).argmax()
    edge = u0 - viol[far] / (nrm ** 2)[far] * a_l[far]
    if (_as_batch_row(edge, a_t) <= b + TOL).all():
        return edge, "edge"
    if np.isnan(viol).any():
        return np.full(2, np.nan), "nan"
    point, found = nearest_edge_end(u0[None], a_l, b[None])
    if not found[0]:
        raise _errors().InfeasibleError("no point satisfies every row: empty feasible set")
    return point[0], "vertex"


def _cramer(a_l, i, j, b_i, b_j):
    """The intersection (..., 2) of rows i < j of a_l at offsets b_i, b_j."""
    det = a_l[i, 0] * a_l[j, 1] - a_l[i, 1] * a_l[j, 0]
    return np.stack([(a_l[j, 1] * b_i - a_l[i, 1] * b_j) / det,
                     (a_l[i, 0] * b_j - a_l[j, 0] * b_i) / det], axis=-1)


def _nearest_feasible(u0, a_l, b, points):
    """The nearest of points (N, P, 2) to u0 (N, 2) that satisfies every row
    of a_l u <= b (N, n) to within TOL, the first of equal distance, NaN
    where none does, and which states had one."""
    ok = (points @ a_l.T <= b[:, None, :] + TOL).all(axis=2)
    found = ok.any(axis=1)
    out = np.full(u0.shape, np.nan)
    if found.any():
        d2 = np.where(ok, ((points - u0[:, None, :]) ** 2).sum(axis=2), np.inf)
        out[found] = points[found, d2[found].argmin(axis=1)]
    return out, found


def nearest_pair_vertex(u0, a_l, b):
    """The vertex stage by every row pair i < j with a determinant above
    1e-12 in size, for u0 (N, 2) and b (N, n): the nearest feasible pair
    vertex, NaN where none is feasible, and which states had one."""
    i, j = np.triu_indices(a_l.shape[0], 1)
    det = a_l[i, 0] * a_l[j, 1] - a_l[i, 1] * a_l[j, 0]
    keep = np.abs(det) > 1e-12
    i, j = i[keep], j[keep]
    return _nearest_feasible(u0, a_l, b, _cramer(a_l, i, j, b[:, i], b[:, j]))


def nearest_edge_end(u0, a_l, b):
    """The vertex stage by the ends of each row line's edge, for u0 (N, 2)
    and b (N, n). Row m cuts line l where det(l, m) = a_l x a_m exceeds
    1e-12 in size, bounding it from above (det > 0) or below (det < 0).
    On each side the end is the cut of least key b_m p - b_l q, p =
    |a_l|^2 / |det| and q = a_l . a_m / |det| (the lowest such row), by its
    pair's Cramer's rule; a side that no row cuts has no end. The ends run
    side by side, line by line."""
    n = a_l.shape[0]
    det = np.multiply.outer(a_l[:, 0], a_l[:, 1]) - np.multiply.outer(a_l[:, 1], a_l[:, 0])
    nrm_sq = np.hypot(a_l[:, 0], a_l[:, 1]) ** 2
    gram = a_l @ a_l.T
    ends = np.full((b.shape[0], 2, n, 2), np.nan)
    for s, side in enumerate((det > 1e-12, det < -1e-12)):
        for l in range(n):
            rows = np.flatnonzero(side[l])
            if rows.size:
                size = np.abs(det[l, rows])
                key = b[:, rows] * (nrm_sq[l] / size) - b[:, [l]] * (gram[l, rows] / size)
                m = rows[key.argmin(axis=1)]
                i, j = np.minimum(l, m), np.maximum(l, m)
                cols = np.arange(b.shape[0])
                ends[:, s, l] = _cramer(a_l, i, j, b[cols, i], b[cols, j])
    return _nearest_feasible(u0, a_l, b, ends.reshape(b.shape[0], 2 * n, 2))


def one_state_law(x, certs, nominal, a_l, c_a, c, k_alpha, k_phi):
    """(u, h, V, projection stage) of the reshaped outer law at one state."""
    a, b, h, v = one_state_set(x, certs, k_alpha, c)
    selection, slack = one_state_selection(a, b, c)
    b_l = one_state_b_l(selection, slack, a, c, a_l, c_a, k_phi)
    u, stage = one_state_projection(nominal, a_l, b_l)
    return u, h, v, stage


def one_state_controller(blocks, law_args, scale, slopes):
    """(x_stars, h, V) of the cascade at the blocks [x_1, ..., x_m]: the
    reshaped outer law one_state_law(x_1, *law_args), then one tracking
    level per slope K, in order, as the vector formula
    -(e / |e|) * scale * K * |e| of e = x_i - x*_{i-1} with np.linalg.norm,
    zero for |e| <= 1e-15."""
    u, h, v, _ = one_state_law(blocks[0], *law_args)
    stars = [u]
    for block, slope in zip(blocks[1:], slopes):
        e = np.asarray(block, dtype=float) - stars[-1]
        nrm = np.linalg.norm(e)
        stars.append(np.zeros(2) if nrm <= 1e-15 else -(e / nrm) * scale * slope * nrm)
    return tuple(stars), h, v


# ------------------------------------------------- batched outer law, on arrays
#
# The outer law's batch arithmetic as the package evaluated it before its
# reductions over short axes became column sums and its elementwise steps
# went in place: np.add.reduce, np.maximum.reduce and np.minimum.reduce over
# the rows' axes, and every temporary a new array, and before the filter
# skipped the states far from every constraint: batch_filter runs the
# selection, the reshaping and the projection at every state. The BLAS
# products are the same, a batch of one's as one row of a matrix product.
# The batch code must match it bit for bit, NaN rows included.

def batch_certificate(cert, x):
    """(h, grad_h, V) of a certificate at points x (N, 2); the gradient is
    NaN where it is undefined (a segment spine, a disc center)."""
    geo = cert.geometry
    if hasattr(geo, "o1"):
        base = geo.o2 - geo.o1
        rel = x - geo.o1
        t = np.minimum(np.maximum(rel @ base / float(base @ base), 0.0), 1.0)
        delta = rel - np.multiply.outer(t, base)
        dist = np.hypot(delta[..., 0], delta[..., 1])
        h = dist - cert.safe_distance
        return h, delta / np.where(dist <= SPINE_TOL, np.nan, dist)[..., None], np.exp(-h)
    delta = x - geo.center
    r = np.hypot(delta[..., 0], delta[..., 1])
    r = np.where(r <= CENTER_TOL, np.nan, r)
    h = r * r - geo.radius ** 2
    return h, np.where(np.isnan(r)[..., None], np.nan, 2.0 * delta), np.exp(-h)


def batch_set(x, certs, k_alpha, c):
    """Rows a (N, n, 2), offsets b, clearances h and values V (N, n) at the
    states x (N, 2), for the rate of one_state_set."""
    grad_h = np.empty(x.shape[:-1] + (len(certs), 2))
    h = np.empty(x.shape[:-1] + (len(certs),))
    v = np.empty(h.shape)
    for j, cert in enumerate(certs):
        h[..., j], grad_h[..., j, :], v[..., j] = batch_certificate(cert, x)
    nrm2 = np.add.reduce(grad_h * grad_h, axis=-1)
    a = grad_h / -np.sqrt(nrm2)[..., None]
    _check_unit_rows(a)
    levels = np.array([cert.level for cert in certs])
    return a, _offsets(v - levels, levels, k_alpha, c), h, v


def batch_selection(a, b, c):
    """The Lipschitz selection of a batch of sets {a u + c|u| <= b} and the
    slack there, NaN rows where it is undefined."""
    scaled = b / (1.0 + np.sign(b) * c)
    failed = False
    if b.shape[-1] >= 2:
        two = scaled if b.shape[-1] == 2 else np.partition(scaled, 1, axis=-1)[..., :2]
        failed = np.add.reduce(two, axis=-1) < -TOL
    u = np.add.reduce((np.minimum(b, 0.0) / (1.0 - c))[..., None] * a, axis=-2)
    viol = set_violations(a, b, c, u)
    undefined = (failed | ~(np.maximum.reduce(viol, axis=-1) <= TOL))[..., None]
    return np.where(undefined, np.nan, u), np.where(undefined, np.nan, -viol)


def batch_b_l(selection, slack, a, c, a_l, c_a, k_phi):
    """Offsets b_l (N, n_l) of the reshaped polygons of a batch of sets."""
    below = slack < -TOL
    if below.any():
        slack = np.where(below.any(axis=-1)[..., None], np.nan, slack)
    cbar = _cbar(c, c_a)
    a_t = a_l.T
    scaled = np.maximum(slack, 0.0) / (1.0 + c)
    n_c, n_u = a.shape[-2:]
    rows = a.reshape(-1, n_c, n_u)
    if rows.shape[0] > 1 and n_c > 1:
        rows = rows.transpose(1, 0, 2)
    dots = (rows @ a_t).reshape((n_c,) + a.shape[:-2] + (a_l.shape[0],))
    scaled = np.moveaxis(scaled, -1, 0)
    phi1 = np.maximum(dots, cbar) * scaled[..., None]
    phi2 = np.maximum(k_phi * (cbar - dots), 0.0)
    return _batch_rows(selection, a_t) + np.minimum.reduce(phi1 + phi2, axis=0)


def _batch_rows(m, a_t):
    """m @ a_t for the rows of m (N, 2), a batch of one as one row of two."""
    return m @ a_t if m.shape[0] > 1 else _as_batch_row(m[0], a_t)[None]


def batch_projection(u0, a_l, b):
    """Projections of the rows of u0 (N, 2) onto {a_l u <= b} for the rows
    of b (N, n); NaN where u0 or b is NaN or no candidate is feasible."""
    a_t = a_l.T
    nrm = np.hypot(a_l[:, 0], a_l[:, 1])
    viol = _batch_rows(u0, a_t) - b
    over = viol > TOL
    out = u0.copy()
    if over.any():
        far = (viol / nrm).argmax(axis=1)
        edge = u0 - (viol[np.arange(far.size), far] / (nrm ** 2)[far])[:, None] * a_l[far]
        edge_ok = (_batch_rows(edge, a_t) <= b + TOL).all(axis=1)
        moved = over.any(axis=1)
        out = np.where((moved & edge_ok)[:, None], edge, u0)
        rest = np.flatnonzero(moved & ~edge_ok)
        if rest.size:
            out[rest] = nearest_edge_end(u0[rest], a_l, b[rest])[0]
    return np.where(np.isnan(viol).any(axis=1)[:, None], np.nan, out)


def batch_filter(nominal, a, b, c, a_l, c_a, k_phi):
    """The reshaped filter of one nominal (2,) on a batch of sets (N, n):
    the selection, the reshaping and the projection at every state."""
    selection, slack = batch_selection(a, b, c)
    b_l = batch_b_l(selection, slack, a, c, a_l, c_a, k_phi)
    return batch_projection(np.broadcast_to(nominal, b.shape[:-1] + (2,)), a_l, b_l)


def batch_law(x, certs, nominal, a_l, c_a, c, k_alpha, k_phi):
    """(u, h, V) of the reshaped outer law at the states x (N, 2)."""
    a, b, h, v = batch_set(x, certs, k_alpha, c)
    return batch_filter(nominal, a, b, c, a_l, c_a, k_phi), h, v


def grid_lipschitz(values, xs, ys):
    """Largest finite slope between axis-adjacent values (nx, ny, d) of a
    map on the grid xs by ys, with np.linalg.norm."""
    best = 0.0
    for axis, ticks in enumerate((xs, ys)):
        if ticks.shape[0] > 1:
            slopes = np.linalg.norm(np.diff(values, axis=axis), axis=2) / (ticks[1] - ticks[0])
            finite = slopes[np.isfinite(slopes)]
            if finite.size:
                best = max(best, float(np.max(finite)))
    return best
