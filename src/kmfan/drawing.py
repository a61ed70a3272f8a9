"""Deterministic SVG pictures of KM fans of free rank at most two.

The picture follows the usual convention for drawing these objects: lattice
points of the free quotient are open circles, points of the fine support are
filled, cones are shaded, and each torsion element of N gets its own layer
(a separate copy of the free picture), since the cones extend through all
torsion directions.
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional, Tuple

from .errors import RankTooHigh
from .fans import KmFan, _support_holder
from .intlinalg import LinearSystem

SCALE = 36
MARGIN = 30
LAYER_GAP = 40
POINT_RADIUS = 5

#: the largest window drawn: a layer holds up to (2 * window + 1)^2 points
MAX_WINDOW = 32
#: the most layers drawn, one per torsion element of N
MAX_LAYERS = 16


def _fmt(num: int, den: int) -> str:
    """num/den rounded half up to two decimals, in integers: the rounded
    hundredths are floor(100 num/den + 1/2) = (200 num + den) // (2 den),
    for den > 0."""
    n = (200 * num + den) // (2 * den)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 100}.{n % 100:02d}"


def draw_fan_svg(fan: KmFan, window: int = 5) -> str:
    """Render the fan as an SVG string; deterministic for fixed input.

    A window above MAX_WINDOW, or a torsion subgroup of order above
    MAX_LAYERS, raises OverflowError before any point or layer is listed.

    The layers differ only in their horizontal offset and in which points
    are filled, so the cones are clipped, and the one layer filled over each
    grid point is found (_filled_layers), once per picture.
    """
    r = fan.group.free_rank
    if r > 2:
        raise RankTooHigh("drawing supports free rank at most 2")
    if window < 1:
        raise ValueError("window must be positive")
    if window > MAX_WINDOW:
        raise OverflowError(f"window {window} exceeds drawing.MAX_WINDOW = {MAX_WINDOW}")
    order = fan.group.torsion_order()
    if order > MAX_LAYERS:
        raise OverflowError(
            f"{order} torsion layers exceed drawing.MAX_LAYERS = {MAX_LAYERS}"
        )
    torsion_elements = fan.group.torsion_elements()
    layers = [t[fan.group.free_rank:] for t in torsion_elements]

    span = 2 * window * SCALE
    layer_w = span + 2 * MARGIN
    layer_h = (span if r == 2 else 2 * SCALE) + 2 * MARGIN
    width = layer_w * len(layers) + LAYER_GAP * (len(layers) - 1)
    height = layer_h + 20
    oy = MARGIN + (span // 2 if r == 2 else SCALE)

    # per picture: each shape as (tag, den, [(x numerator, y string)]), the
    # picture point of a vertex (x, y)/den being (ox + x/den, oy - y/den)
    shapes = []
    if r:
        for cone in fan.cones:
            if cone.dim() == 0:
                continue
            # a clipped ray has 2 vertices, a clipped 2d cone at least 3
            den, clipped = _clip_cone(cone, window, r)
            tag = "polygon" if cone.dim() == 2 else "line"
            shapes.append((tag, den, [(SCALE * x, _fmt(oy * den - SCALE * y, den)) for x, y in clipped]))
    grid = _grid(window, r)
    filled_layer = _filled_layers(fan, grid)
    circles = [(SCALE * x, _fmt(oy - SCALE * y, 1)) for x, y in ((point + (0, 0))[:2] for point in grid)]

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    parts.append('<rect width="100%" height="100%" fill="white"/>')

    for li, torsion in enumerate(layers):
        ox = li * (layer_w + LAYER_GAP) + MARGIN + span // 2
        label = ",".join(str(t) for t in torsion) if torsion else "0"
        parts.append(
            f'<text x="{ox - span // 2}" y="{height - 6}" font-size="12" '
            f'font-family="monospace">torsion ({label})</text>'
        )
        # shaded cones (2d cones as wedges, rays as thick segments)
        for tag, den, vertices in shapes:
            xy = [(_fmt(ox * den + x, den), y) for x, y in vertices]
            if tag == "polygon":
                pts = " ".join(f"{x},{y}" for x, y in xy)
                parts.append(f'<polygon points="{pts}" fill="#c8d8f0" stroke="none"/>')
            else:
                (x1, y1), (x2, y2) = xy
                parts.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="#7090c0" stroke-width="4"/>'
                )
        # lattice points
        for layer, (dx, cy) in zip(filled_layer, circles):
            fill = "#303030" if layer == torsion else "white"
            parts.append(
                f'<circle cx="{_fmt(ox + dx, 1)}" cy="{cy}" r="{POINT_RADIUS}" fill="{fill}" '
                f'stroke="#303030" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _filled_layers(fan: KmFan, grid: List[Tuple[int, ...]]) -> List[Optional[Tuple[int, ...]]]:
    """For each grid point p of the free quotient, the torsion part of the
    one element of the fine support over p, or None when there is none.

    The maximal cone that holds p decides the support over it
    (fans._support_holder): the elements over p in the support are those of
    F_holder.  A datum meets the torsion subgroup in 0, so its free
    projection is injective, and at most one of them has free part p: the
    element basis x for the integer solution x of free_basis x = p, one
    solve per point on the holder's free basis, which is set up once per
    holder.
    """
    group = fan.group
    r = group.free_rank
    systems = {}
    out: List[Optional[Tuple[int, ...]]] = []
    for point in grid:
        holder = _support_holder(fan, point)
        if holder is None:
            out.append(None)
            continue
        datum = fan.data[holder]
        system = systems.get(holder)
        if system is None:
            system = systems[holder] = LinearSystem(datum.free_basis())
        x = system.integer(point)
        out.append(None if x is None else group.reduce(datum.basis().apply(x))[r:])
    return out


def _grid(window: int, rank: int) -> List[Tuple[int, ...]]:
    if rank == 0:
        return [()]
    if rank == 1:
        return [(x,) for x in range(-window, window + 1)]
    return [(x, y) for x in range(-window, window + 1) for y in range(-window, window + 1)]


def _clip_cone(cone, window: int, rank: int) -> Tuple[int, List[Tuple[int, int]]]:
    """The cone clipped to the window box, as a denominator den and integer
    vertices (x, y), the points (x, y)/den, ordered around the boundary (the
    intersection of a sharp cone with the box is convex).

    A ray v leaves the box at window/m(v) times v, m(v) = max(|v_0|, |v_1|),
    so den is the product of the rays' max-norms.
    """
    if rank == 1:
        ray = cone.rays[0]
        return 1, [(0, 0), (window if ray[0] > 0 else -window, 0)]
    norms = [max(abs(ray[0]), abs(ray[1])) for ray in cone.rays]
    den = math.prod(norms)
    vertices = [(0, 0)] + [
        (window * den // m * ray[0], window * den // m * ray[1]) for ray, m in zip(cone.rays, norms)
    ]
    if cone.dim() == 1:
        return den, vertices
    for corner in ((window, window), (-window, window), (-window, -window), (window, -window)):
        if cone.contains_point(corner):
            vertices.append((corner[0] * den, corner[1] * den))
    return den, _sort_ccw(vertices)


def _sort_ccw(points: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Order the vertices of a convex polygon counterclockwise, exactly.

    The angles are read around the centroid (sx, sy)/n, compared through
    n p - (sx, sy), which has the sign pattern of p - centroid.
    """
    points = sorted(set(points))
    n = len(points)
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)

    def half(p) -> int:
        dx, dy = n * p[0] - sx, n * p[1] - sy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(a, b) -> int:
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = (n * a[0] - sx) * (n * b[1] - sy) - (n * a[1] - sy) * (n * b[0] - sx)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(points, key=functools.cmp_to_key(compare))
