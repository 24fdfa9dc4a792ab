"""Planar geometry primitives: hulls, diameters, areas, rotations.

Conventions used throughout the package:
  * a point is a length-2 float array (or anything array-like),
  * a polygon / region boundary is an (n, 2) array of vertices in
    counterclockwise order, closed implicitly (last vertex connects
    back to the first),
  * all lengths are O(1) since bodies are normalized to unit area.
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
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


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

    All pairs are run only on the points that can reach the diameter.
    With support values h_k = max_q q.u_k over the unit directions u_k,
    every q - p lies within pi/K of some u_k, so
    |q - p| cos(pi/K) <= (q - p).u_k <= h_k - p.u_k, and
    ub(p) = max_k (h_k - p.u_k) / cos(pi/K) bounds p's farthest distance.
    The pairs of points extreme in opposite directions give a distance L
    that the diameter reaches, so both ends of a diameter pair have
    ub >= L; a point with ub < L cannot be one.  The test keeps a slack of
    1e-9 of L plus the coordinate scale for rounding.  The survivors'
    all-pairs maximum evaluates the same expression on the same winning
    pair, so the result does not depend on the pruning.  Sets of at most
    K points skip the bound; all pairs is cheaper there.  Raises
    DegenerateGeometryError on NaN or infinite coordinates; squared
    distances that overflow give inf.
    """
    p = _finite_points(points, "point set")
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
    d2 = 0.0
    # chunk rows so the distance matrix never exceeds a few MB
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
    return math.sqrt(d2)


# Blocks of region_diameters_sq: elements per padded array or per block of
# common-point rows (64 kB of floats; larger blocks run slower, on cache
# misses and page faults), and run lengths whose new pairs one step
# computes.
_CHUNK = 8_192
_BLOCK = 8


def _run_diameters_sq(pts, start, length):
    """Largest squared distance between two points of each cyclic run
    pts[start : start + length], for all runs in one pass over the run
    length L.  row[i] holds the value for the run of length L from i, and
    row[i] <- max(row[i], row[i + 1], |p_i - p_(i+L-1)|^2) lengthens every
    run by one point, since a pair of a run lies in one of its two runs
    one point shorter or is its two ends; after step L the runs of length
    L are read off.  The pass needs O(n) memory.  (A sweep region's arc is
    such a run of a convex chain: Shamos 1978; Preparata and Shamos 1985,
    ch. 4.)
    """
    n = len(pts)
    out = np.zeros(len(start))
    top = int(length.max(initial=0))
    order = np.argsort(length, kind="stable")
    # the runs of length L are order[bounds[L]:bounds[L + 1]]
    bounds = np.searchsorted(length[order], np.arange(top + 2)).tolist()
    x, y = pts[:, 0], pts[:, 1]
    # row k of these views is the boundary shifted by k
    xs = np.lib.stride_tricks.sliding_window_view(np.concatenate((x, x)), n)
    ys = np.lib.stride_tricks.sliding_window_view(np.concatenate((y, y)), n)
    row, nxt = np.zeros(n), np.empty(n)
    for L0 in range(2, top + 1, _BLOCK):
        dx = x - xs[L0 - 1:min(L0 - 1 + _BLOCK, top)]
        dy = y - ys[L0 - 1:min(L0 - 1 + _BLOCK, top)]
        dx *= dx
        dy *= dy
        dx += dy
        for L, d2 in enumerate(dx, start=L0):
            np.maximum(row[:-1], row[1:], out=nxt[:-1])
            nxt[-1] = row[-1] if row[-1] > row[0] else row[0]
            np.maximum(nxt, d2, out=nxt)
            row, nxt = nxt, row
            if bounds[L + 1] > bounds[L]:
                q = order[bounds[L]:bounds[L + 1]]
                out[q] = row[start[q]]
    return out


def _centre_runs_sq(pts, centres, start, length, centre):
    """Largest squared distance from each region's common point
    centres[r] to its run pts[start[r] : start[r] + length[r]], 0 for an
    empty run.  Regions with equal centre[r] share their common point, and
    one row of its squared distances to pts, doubled so that no run
    wraps, gives all their runs' maxima by np.maximum.reduceat.  The rows
    are made for a block of common points at a time, and the runs are
    taken in order of where they start in the block's rows, so the spans
    between them, which reduceat also reduces, add up to one pass over
    the rows."""
    n = len(pts)
    _, first, slot = np.unique(centre, return_index=True, return_inverse=True)
    points = centres[first]
    order = np.lexsort((start, slot))
    slot, start, length = slot[order], start[order], length[order]
    out = np.zeros(len(order))
    step = max(1, _CHUNK // (2 * n))
    for g in range(0, len(points), step):
        a, b = np.searchsorted(slot, [g, g + step])
        dx = pts[:, 0] - points[g:g + step, 0, None]
        dy = pts[:, 1] - points[g:g + step, 1, None]
        dx *= dx
        dy *= dy
        dx += dy
        rows = np.concatenate((dx, dx), axis=1).ravel()
        lo = (slot[a:b] - g) * (2 * n) + start[a:b]
        far = np.maximum.reduceat(rows, np.column_stack(
            (lo, lo + length[a:b])).ravel())[::2]
        out[order[a:b]] = np.where(length[a:b] > 0, far, 0.0)
    return out


def region_diameters_sq(pts, verts, start, length, centre):
    """Squared diameters of many regions that share the points pts: region
    r is the point set of its vertices verts[r] (an (R, V, 2) array) and
    the cyclic run pts[start[r] : start[r] + length[r]].  verts[r, 0] is
    the region's common point, the same for all regions with equal
    centre[r].

    Each is the largest of four terms: pairs within the run (one pass
    for all regions), common point to run (one row of distances per
    common point), the other vertices to run (padded blocks of regions
    sorted by run length) and vertex to vertex.  Every term evaluates
    points_diameter's dx*dx + dy*dy on the same pairs, so the square root
    equals points_diameter of the region bit for bit.
    """
    n, V = len(pts), verts.shape[1]
    best = _run_diameters_sq(pts, start, length)
    for a, b in itertools.combinations(range(V), 2):
        d = verts[:, a] - verts[:, b]
        best = np.maximum(best, d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    best = np.maximum(best, _centre_runs_sq(pts, verts[:, 0], start, length,
                                            centre))
    order = np.argsort(length, kind="stable")
    step = max(1, _CHUNK // max(1, int(length.max(initial=0))))
    for i in range(0, len(order), step):
        rows = order[i:i + step]
        # pad each run to the block's longest by repeating its last point
        last = np.maximum(length[rows] - 1, 0)
        idx = (start[rows, None]
               + np.minimum(np.arange(last.max() + 1), last[:, None])) % n
        px, py = pts[idx, 0], pts[idx, 1]
        far = np.zeros(len(rows))
        for v in range(1, V):
            dx = px - verts[rows, v, 0, None]
            dy = py - verts[rows, v, 1, None]
            dx *= dx
            dy *= dy
            dx += dy
            far = np.maximum(far, dx.max(axis=1))
        # an empty run has no points: its padding is not in the region
        best[rows] = np.maximum(best[rows],
                                np.where(length[rows] > 0, far, 0.0))
    return best


def resample_boundary(boundary, sample_count):
    """Densify a closed polyline to >= sample_count points, keeping vertices.

    Edge i gets pieces_i = max(1, ceil(sample_count * len_i / perimeter))
    points b_i + (k / pieces_i) (b_{i+1} - b_i), k = 0 .. pieces_i - 1.
    Raises DegenerateGeometryError on a zero or non-finite perimeter and on
    NaN or infinite coordinates.
    """
    b = _finite_points(boundary, "boundary")
    edge = np.roll(b, -1, axis=0) - b
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


def is_ccw_convex(boundary, tol=EPS):
    """True if every turn of the closed boundary is a left turn (>= -tol)."""
    b = np.asarray(boundary, dtype=float)
    prv = np.roll(b, 1, axis=0)
    nxt = np.roll(b, -1, axis=0)
    cr = ((b[:, 0] - prv[:, 0]) * (nxt[:, 1] - b[:, 1])
          - (b[:, 1] - prv[:, 1]) * (nxt[:, 0] - b[:, 0]))
    return bool(np.all(cr >= -tol))
