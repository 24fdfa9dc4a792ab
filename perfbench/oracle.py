"""Reference values the benchmark checks program outputs against.

Nothing here calls trisect's diameter, hull, resampling or equal-area code:
the diameter oracle is a plain all-pairs maximum, the inradius is the
distance to the nearest boundary edge, and the constants are the ones
acceptance criterion 1 takes from the paper.
"""

import math

import numpy as np

SQRT3 = math.sqrt(3.0)

# Criterion 1 of the acceptance gate: (value, tolerance).
PAPER_DM = {
    "triangle": (0.877383, 1e-5),
    "reuleaux": (0.872002, 1e-4),
    "h_tilde": (0.769262, 1e-4),
}
H_TILDE_QUOTIENT = (0.591764, 2e-4)

# Criterion 2's tolerance between the geometric and the closed-form d_M.
DM_TOL = 2e-4
# Slack below the closed form before a trisection counts as beating it
# (criterion 3 and the sweep's own violation threshold).
BEAT_TOL = 1e-3
# Slack of the lemma floors max(R, sqrt(3) rho) (criterion 4).
FLOOR_TOL = 1e-6


def diameter(points):
    """Largest distance between two of the given points, all pairs."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    best = 0.0
    step = max(1, 1_000_000 // max(len(p), 1))
    for i in range(0, len(p), step):
        dx = x[i:i + step, None] - x[None, :]
        dy = y[i:i + step, None] - y[None, :]
        best = max(best, float(np.max(dx * dx + dy * dy)))
    return math.sqrt(best)


def shoelace_area(points):
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1))
                           - np.dot(y, np.roll(x, -1))))


def inradius(boundary):
    """Distance from the origin to the nearest edge of a closed polygon."""
    a = np.asarray(boundary, dtype=float)
    e = np.roll(a, -1, axis=0) - a
    t = np.clip(-np.sum(a * e, axis=1) / np.sum(e * e, axis=1), 0.0, 1.0)
    return float(np.min(np.hypot(*(a + t[:, None] * e).T)))


def closed_form_dm(boundary):
    """The paper's d_M of the standard trisection, max(R, sqrt(3) rho),
    measured on the body's boundary polygon."""
    big_r = float(np.max(np.hypot(*np.asarray(boundary, dtype=float).T)))
    return max(big_r, SQRT3 * inradius(boundary))


def hexagon_dm():
    """sqrt(3) * apothem of the unit-area regular hexagon, i.e. 3/2 * side."""
    return 1.5 * math.sqrt(2.0 / (3.0 * SQRT3))


def paper_dm(preset):
    """Expected standard d_M of a named preset with its tolerance, or None."""
    if preset == "hexagon":
        return hexagon_dm(), 1e-9
    return PAPER_DM.get(preset)


def region_between(boundary, c, w0, w1):
    """Vertices of the region bounded by segments c-w0, c-w1 and the
    boundary arc from w0 counterclockwise to w1, as seen from c."""
    pts = np.asarray(boundary, dtype=float)
    c = np.asarray(c, dtype=float)
    rel = pts - c
    a0 = math.atan2(w0[1] - c[1], w0[0] - c[0])
    span = (math.atan2(w1[1] - c[1], w1[0] - c[0]) - a0) % (2.0 * math.pi)
    ang = (np.arctan2(rel[:, 1], rel[:, 0]) - a0) % (2.0 * math.pi)
    inside = (ang > 0.0) & (ang < span)
    return np.vstack([c, w0, pts[inside], w1])
