"""Planar geometry primitives: hulls, diameters, areas, rotations, and
the one ray cast and polar-angle formula (ray_exit, polar_angles).

Conventions used throughout the package:
  * a point is a length-2 float array (or anything array-like),
  * a polygon / region boundary is an (n, 2) array of vertices in
    counterclockwise order, closed implicitly (last vertex connects
    back to the first),
  * all lengths are O(1) since bodies are normalized to unit area,
  * functions take and return (n, 2) arrays, but element-wise kernels
    compute on separate x and y columns (1-D or (k, n)), which is faster
    than on (..., 2) views; convex_hull, polygon_area's np.dot, rotate's
    matmul, SymmetricBody.boundary and make_reuleaux's einsum keep their
    interleaved inputs, since another summation order or FMA could
    change their bits.
"""

import itertools
import math

import numpy as np

EPS = 1e-9


class DegenerateGeometryError(ValueError):
    """Input geometry is degenerate (collinear points, zero area, ...)."""


def rotate(pt, angle):
    """Rotate a point (or an (n, 2) array of points) about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    pt = np.asarray(pt, dtype=float)
    rot = np.array([[c, -s], [s, c]])
    return pt @ rot.T


def polar_angles(x, y):
    """The one polar-angle formula: for rows (..., n) of the coordinates
    of a CCW polygon's points about a point inside it, rows (..., n + 1)
    of the first point's angle a0 plus mod(a - a0, 2pi) for each point's
    angle a, closed by a0 + 2pi; a row never decreases.  As
    |a - a0| < 2pi, the mod adds 2pi to a negative difference.  The
    steps run in place in the result, so the peak memory is one array."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    a = np.arctan2(y, x, out=out[..., :-1])
    a0 = a[..., :1].copy()
    a -= a0
    np.add(a, 2.0 * math.pi, out=a, where=a < 0.0)
    a += a0
    out[..., -1:] = a0 + 2.0 * math.pi
    return out


def ray_exit(pts, rows, theta, c=None, ci=0):
    """The one ray cast: where rays at the angles theta from the points
    c[ci] (ci broadcast against theta; the origin if c is None) leave
    the closed polygon pts (n, 2), whose polar angles about c[k] rise
    along rows[k] from its first and close 2pi above it (polar_angles'
    layout).  pts may instead be a stack (k, n, 2) of one polygon per
    row of rows, about the origin.  A ray leaves through the chord from
    point i to i + 1 (mod n), the last that starts at or below its angle
    in that range, at p_i + s (p_i+1 - p_i), s clamped to [0, 1]; an
    exactly zero denominator reads as 1.  Returns i, s and the exit's
    x, y about c[ci]."""
    first = rows[ci, 0]
    # np.mod's remainder but for the sign of a zero, which the search
    # does not see, at about half its cost
    q = np.fmod(theta - first, 2.0 * math.pi)
    q += 2.0 * math.pi * (q < 0.0)
    i = _row_search(rows[:, 1:-1], ci, first + q, "right")
    a, b = i, i + 1
    if pts.ndim == 3:  # flat indices into the rows, b wrapped at n
        n = pts.shape[1]
        a = i + ci * n
        b = a + 1 - n * (i == n - 1)
        pts = pts.reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    xi, yi = x.take(a), y.take(a)
    ex, ey = x.take(b, mode="wrap") - xi, y.take(b, mode="wrap") - yi
    x1, y1 = (xi, yi) if c is None else (xi - c[ci, 0], yi - c[ci, 1])
    dx, dy = np.cos(theta), np.sin(theta)
    den = dx * ey - dy * ex
    s = np.clip((dy * x1 - dx * y1) / np.where(den == 0.0, 1.0, den), 0.0, 1.0)
    return i, s, x1 + s * ex, y1 + s * ey


def _row_search(rows, ci, x, side):
    """np.searchsorted(rows[ci], x, side) for each element of x and its
    row index in ci (broadcast against x), in one search over all rows:
    complex numbers sort by real part, then by imaginary part, so the
    sorted rows, keyed by their indices, are one sorted array."""
    if len(rows) == 1:  # a one-point walk needs no keys
        return np.searchsorted(rows[0], x, side=side)
    k, m = rows.shape
    key = np.empty((k, m), dtype=complex)
    key.real = np.arange(k)[:, None]
    key.imag = rows
    q = np.empty(np.shape(x), dtype=complex)
    q.real = ci
    q.imag = x
    return np.searchsorted(key.ravel(), q, side=side) - ci * m


def _finite_points(points, what):
    """points as a float array; DegenerateGeometryError on NaN or inf."""
    p = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(p)):
        raise DegenerateGeometryError(f"{what} has NaN or infinite coordinates")
    return p


def convex_hull(points):
    """Counterclockwise convex hull of a point set (monotone chain).

    The points are sorted by x, then y, in one stable lexsort, and repeated
    rows are dropped.  A point is popped only when the turn into the next
    point is not strictly left (cross product <= 0).  After the sort a point
    collinear with its chain neighbours lies between them, so popping it
    loses no extreme point; rounding may keep a few nearly collinear ones,
    which changes no diameter.  A positive threshold is not safe: on an
    edge whose x values differ only in the last bits the sort does not
    follow the edge, and a true corner's left turn can have a tiny cross
    product.  Raises DegenerateGeometryError if the input is all collinear
    or has NaN or infinite coordinates.
    """
    pts = _finite_points(points, "point set")
    pts = pts.reshape(len(pts), 2)  # an empty input has shape (0,)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    pts = pts[fresh]
    if len(pts) < 3:
        raise DegenerateGeometryError("need at least 3 distinct points")
    # Python floats: the same double arithmetic as numpy scalars, faster
    pts = pts.tolist()

    def half_hull(seq):
        chain = []
        for p in seq:
            px, py = p
            while len(chain) > 1:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0.0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = half_hull(pts)
    upper = half_hull(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateGeometryError("points are collinear")
    return np.array(hull)


def polygon_area(boundary):
    """Absolute shoelace area of a closed (implicitly) boundary."""
    b = np.asarray(boundary, dtype=float)
    x, y = b[:, 0], b[:, 1]
    return 0.5 * abs(np.dot(x, np.concatenate((y[1:], y[:1])))
                     - np.dot(y, np.concatenate((x[1:], x[:1]))))


def polygon_diameter(poly):
    """Diameter of a convex CCW polygon by rotating calipers, O(n).

    Not on the d_M route (that ends in points_diameter); the tests keep it
    as an independent check of the pruned kernel.
    """
    p = np.asarray(poly, dtype=float)
    n = len(p)
    if n == 2:
        return float(np.hypot(*(p[1] - p[0])))
    best = 0.0
    j = 1
    for i in range(n):
        ni = (i + 1) % n
        ex, ey = p[ni, 0] - p[i, 0], p[ni, 1] - p[i, 1]
        # advance the opposite vertex while the supporting distance grows
        while True:
            nj = (j + 1) % n
            if ex * (p[nj, 1] - p[j, 1]) - ey * (p[nj, 0] - p[j, 0]) > 0.0:
                j = nj
            else:
                break
        for q in (j, (j + 1) % n):
            for k in (i, ni):
                d = math.hypot(p[q, 0] - p[k, 0], p[q, 1] - p[k, 1])
                if d > best:
                    best = d
    return best


# Fixed support directions of points_diameter's pruning bound, one per
# row: any vector lies within pi/_K of one of them.
_K = 64
_DIRS = np.column_stack((np.cos(np.arange(_K) * 2.0 * math.pi / _K),
                         np.sin(np.arange(_K) * 2.0 * math.pi / _K)))
_COS = math.cos(math.pi / _K)


def points_diameter(points):
    """Max pairwise distance of a point set; exact, equal bit for bit to
    the all-pairs maximum of dx*dx + dy*dy.

    All pairs are run only on the points that can reach the diameter
    (_candidates).  Raises DegenerateGeometryError on NaN or infinite
    coordinates; squared distances that overflow give inf.
    """
    return math.sqrt(_pairs_max_sq(_candidates(
        _finite_points(points, "point set"))))


def _candidates(p):
    """The points of the finite set p that can end a diameter pair.

    With support values h_k = max_q q.u_k over the unit directions u_k,
    every q - p lies within pi/K of some u_k, so
    |q - p| cos(pi/K) <= (q - p).u_k <= h_k - p.u_k, and
    ub(p) = max_k (h_k - p.u_k) / cos(pi/K) bounds p's farthest distance.
    The pairs of points extreme in opposite directions give a distance L
    that the diameter reaches, so both ends of a diameter pair have
    ub >= L; a point with ub < L cannot be one.  The test keeps a slack of
    1e-9 of L plus the coordinate scale for rounding.  The survivors'
    all-pairs maximum evaluates the same expression on the same winning
    pair, so it does not depend on the pruning.  Sets of at most K points
    are returned whole; all pairs is cheaper there.
    """
    if len(p) > _K:
        proj = _DIRS @ p.T
        ext = np.argmax(proj, axis=1)
        h = proj[np.arange(_K), ext]
        a, b = p[ext[:_K // 2]], p[ext[_K // 2:]]
        dx, dy = a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]
        low = math.sqrt(float(np.max(dx * dx + dy * dy)))
        # projections or squared distances overflow: plain all pairs
        if math.isfinite(low) and np.all(np.isfinite(h)):
            slack = 1e-9 * (low + float(np.max(np.abs(p))))
            # in place: a second (K, n) array would double the peak memory
            reach = np.max(np.subtract(h[:, None], proj, out=proj), axis=0)
            p = p[reach >= (low - slack) * _COS]
    return p


def _pairs_max_sq(p):
    """All-pairs maximum of dx*dx + dy*dy over the points p, 0 for fewer
    than two."""
    d2 = 0.0
    # chunk rows so a block of the distance matrix holds at most
    # 2,000,000 elements, 16 MB
    step = max(1, 2_000_000 // max(len(p), 1))
    for i in range(0, len(p), step):
        block = p[i:i + step]
        dx = block[:, None, 0] - p[None, :, 0]
        dy = block[:, None, 1] - p[None, :, 1]
        # dx * dx + dy * dy, in place to keep two blocks live, not five
        dx *= dx
        dy *= dy
        dx += dy
        d2 = max(d2, float(np.max(dx)))
    return d2


# Elements per block of cell_bounds_sq's common-point rows and of
# region_diameters_sq's pairs (64 kB of floats; larger blocks run slower,
# on cache misses and page faults).
_CHUNK = 8_192


def cell_bounds_sq(pts, verts):
    """Lower bounds of the cells' squared d_M: for each cell of curve
    vertices verts (k, 3, V, 2) cut on the boundary pts, the larger of
      * the largest squared distance from its common point verts[:, 0, 0]
        to any point of pts, and
      * the largest between two vertices of one of its regions.

    Each is the largest dx*dx + dy*dy over the cell's pairs of a common
    point and a run point, or of two vertices of one region, bit for bit:
    a point of pts lies in one of the cell's runs (_BoundaryWalk.arc_run
    partitions the boundary) or is an endpoint, at an integer position,
    where point_at gives that point itself, and the vertex pair of the
    common point and an endpoint evaluates the same expression on negated
    differences.  So a bound is never above its cell's largest
    region_diameters_sq.  Consecutive cells with equal common points share
    one row of squared distances to pts, made a block of rows at a time.
    """
    c = verts[:, 0, 0]
    new = np.ones(len(c), dtype=bool)
    new[1:] = np.any(c[1:] != c[:-1], axis=1)
    points = c[new]
    far = np.empty(len(points))
    step = max(1, _CHUNK // len(pts))
    for g in range(0, len(points), step):
        dx = pts[:, 0] - points[g:g + step, 0, None]
        dy = pts[:, 1] - points[g:g + step, 1, None]
        dx *= dx
        dy *= dy
        dx += dy
        far[g:g + step] = dx.max(axis=1)
    pairs = np.zeros(verts.shape[:2])
    vx, vy = np.moveaxis(verts, (3, 2), (0, 1)).copy()  # (V, k, 3) each
    for a, b in itertools.combinations(range(verts.shape[2]), 2):
        dx, dy = vx[a] - vx[b], vy[a] - vy[b]
        pairs = np.maximum(pairs, dx * dx + dy * dy)
    return np.maximum(far[np.cumsum(new) - 1], pairs.max(axis=1))


def region_diameters_sq(pts, verts, start, length):
    """Squared diameters of many regions that share the points pts: region
    r is the point set of its vertices verts[r] (an (R, V, 2) array) and
    the cyclic run pts[start[r] : start[r] + length[r]].

    Each is the all-pairs maximum of dx*dx + dy*dy over the points of the
    region that _candidates keeps, as in points_diameter, so its square
    root equals points_diameter of the region bit for bit.  A region of
    more than _K points goes alone, as its vertices then its run, an order
    no diameter depends on.  _candidates keeps the others whole,
    and they go together, as padded blocks of all pairs: each run is
    padded with its region's common point verts[r, 0], a point of the
    region, never with a run point, since an empty run has none.
    """
    n, V = len(pts), verts.shape[1]
    out = np.zeros(len(start))
    for r in np.flatnonzero(V + length > _K):
        out[r] = _pairs_max_sq(_candidates(np.concatenate(
            (verts[r], pts[(start[r] + np.arange(length[r])) % n]))))
    small = np.flatnonzero(V + length <= _K)
    top = int(length[small].max(initial=0))
    idx = (start[small, None] + np.arange(top)) % n
    pad = np.arange(top) >= length[small, None]
    # a row per region: its vertices, then its padded run
    x, y = (np.concatenate((verts[small, :, c], np.where(
        pad, verts[small, 0, c, None], pts[idx, c])), axis=1) for c in (0, 1))
    step = max(1, _CHUNK // (V + top) ** 2)
    for i in range(0, len(small), step):
        dx = x[i:i + step, :, None] - x[i:i + step, None, :]
        dy = y[i:i + step, :, None] - y[i:i + step, None, :]
        dx *= dx
        dy *= dy
        dx += dy
        out[small[i:i + step]] = dx.max(axis=(1, 2))
    return out


def resample_boundary(boundary, sample_count):
    """Densify a closed polyline to >= sample_count points, keeping vertices.

    Edge i gets pieces_i = max(1, ceil(sample_count * len_i / perimeter))
    points b_i + (k / pieces_i) (b_{i+1} - b_i), k = 0 .. pieces_i - 1.
    Raises DegenerateGeometryError on a zero or non-finite perimeter and on
    NaN or infinite coordinates.
    """
    b = _finite_points(boundary, "boundary")
    edge = np.concatenate((b[1:], b[:1])) - b
    seg_len = np.hypot(edge[:, 0], edge[:, 1])
    perim = seg_len.sum()
    if perim <= EPS:
        raise DegenerateGeometryError("zero-length boundary")
    if not math.isfinite(perim):
        raise DegenerateGeometryError("boundary length overflows")
    pieces = np.maximum(1, np.ceil(sample_count * seg_len / perim))
    pieces = pieces.astype(np.intp)
    seg = np.repeat(np.arange(len(b)), pieces)
    # k: each sample's index within its edge
    k = np.arange(len(seg)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    t = k / pieces[seg]
    return b[seg] + t[:, None] * edge[seg]


def region_diameter(region):
    """Diameter of a region given by its closed boundary polyline.

    Samples the boundary at 4096 points (all stored vertices kept), takes
    the convex hull and measures it with the exact points_diameter kernel;
    valid for non-convex regions because the diameter is hull-invariant.
    The samples lie on the polygon's edges, so they cannot change its
    diameter.  Raises DegenerateGeometryError on zero area and on NaN or
    infinite coordinates.
    """
    b = _finite_points(region, "region")
    if polygon_area(b) <= EPS:
        raise DegenerateGeometryError("region has zero area")
    samples = resample_boundary(b, 4096)
    return points_diameter(convex_hull(samples))

