"""Deterministic SVG rendering of bodies, triangles, and trisections."""

import math

import numpy as np

from .bodies import SECTOR


def _fmt(x):
    return f"{x:.4f}"


def _enclosing_triangle_corners(body):
    """Corners of the smallest equilateral triangle containing the body,
    one edge tangent at the boundary point nearest the center."""
    m, rho = body.nearest_point
    angles = math.atan2(m[1], m[0]) + math.pi / 3.0 + SECTOR * np.arange(3)
    return 2.0 * rho * np.column_stack((np.cos(angles), np.sin(angles)))


class _View:
    """World -> viewport transform (y flipped, fixed scale)."""

    def __init__(self, size, world_radius):
        self.size = size
        self.scale = size / (2.0 * world_radius)

    def xy(self, p):
        x = self.size / 2.0 + self.scale * p[0]
        y = self.size / 2.0 - self.scale * p[1]
        return _fmt(x), _fmt(y)


def _body_path(body, view):
    segs = body.outline_hint
    if not segs:
        # a polygon's corners, or a profile thinned to under 1,024 points
        pts = (body.boundary[::max(1, len(body.boundary) // 512)]
               if body.corners is None else body.corners)
        x0, y0 = view.xy(pts[0])
        d = [f"M {x0} {y0}"]
        d += ["L {} {}".format(*view.xy(p)) for p in pts[1:]]
    else:
        d = []
        for seg in segs:
            kind = seg[0]
            if kind == "M":
                d.append("M {} {}".format(*view.xy(seg[1:])))
            elif kind == "L":
                d.append("L {} {}".format(*view.xy(seg[1:])))
            elif kind == "A":
                r = _fmt(seg[1] * view.scale)
                x, y = view.xy(seg[2:])
                # CCW in world coordinates; the y-flip makes sweep-flag 1
                d.append(f"A {r} {r} 0 0 1 {x} {y}")
    d.append("Z")
    return " ".join(d)


def render_svg(body, what="body", trisection=None):
    """Render a body (optionally with its enclosing triangle, inscribed
    ball, or a trisection) as a standalone 420 x 420 SVG document."""
    size = 420
    view = _View(size=size, world_radius=1.15 * body.max_radius())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<path class="body" d="{_body_path(body, view)}" '
        'fill="#dce9f5" stroke="#23486d" stroke-width="1.5"/>',
    ]

    if what == "triangle":
        corners = _enclosing_triangle_corners(body)
        for k in range(3):
            x1, y1 = view.xy(corners[k])
            x2, y2 = view.xy(corners[(k + 1) % 3])
            parts.append(f'<line class="triangle-edge" x1="{x1}" y1="{y1}" '
                         f'x2="{x2}" y2="{y2}" stroke="#c0392b" stroke-width="1"/>')

    if what in ("standard", "sweep_argmin"):
        cx, cy = view.xy(np.zeros(2))
        rho = body.nearest_point[1]
        parts.append(f'<circle class="inscribed-ball" cx="{cx}" cy="{cy}" '
                     f'r="{_fmt(rho * view.scale)}" fill="none" '
                     'stroke="#999999" stroke-dasharray="4 3" stroke-width="0.8"/>')
        if trisection is not None:
            for curve in trisection.curves:
                pts = " ".join(",".join(view.xy(p)) for p in curve)
                parts.append(f'<polyline class="curve" points="{pts}" '
                             'fill="none" stroke="#1b7837" stroke-width="1.5"/>')
            for i, w in enumerate(trisection.endpoints, start=1):
                x, y = view.xy(w)
                parts.append(f'<text class="endpoint-label" x="{x}" y="{y}" '
                             f'font-size="12">v{i}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
