"""The SVG drawing code that kmfan.drawing replaced, kept as a reference.

Exact rationals throughout: every picture coordinate is a Fraction rounded
half up to hundredths, every cone is clipped once per torsion layer, and a
grid point is filled when any cone of the fan, maximal or not, holds its
free part with the point in that cone's datum.  tests/test_drawing.py
compares the library's bytes against draw_fan_svg_reference.
"""

import functools
from fractions import Fraction
from typing import List, Sequence, Tuple

from kmfan.errors import RankTooHigh
from kmfan.fans import KmFan

SCALE = 36
MARGIN = 30
LAYER_GAP = 40
POINT_RADIUS = 5

#: the largest window drawn: a layer holds up to (2 * window + 1)^2 points
MAX_WINDOW = 32
#: the most layers drawn, one per torsion element of N
MAX_LAYERS = 16


def _fmt(x: Fraction) -> str:
    """Fixed two-decimal rendering of an exact rational, without floats."""
    scaled = x * 100
    n = scaled.numerator // scaled.denominator
    if scaled - n >= Fraction(1, 2):
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 100}.{n % 100:02d}"


def draw_fan_svg_reference(fan: KmFan, window: int = 5) -> str:
    """Render the fan as an SVG string; deterministic for fixed input.

    A window above MAX_WINDOW, or a torsion subgroup of order above
    MAX_LAYERS, raises OverflowError before any point or layer is listed.
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

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    parts.append('<rect width="100%" height="100%" fill="white"/>')

    for li, torsion in enumerate(layers):
        ox = li * (layer_w + LAYER_GAP) + MARGIN + span // 2
        oy = MARGIN + (span // 2 if r == 2 else SCALE)

        def px(v: Sequence[Fraction]) -> Tuple[str, str]:
            x = Fraction(ox) + Fraction(v[0]) * SCALE if r >= 1 else Fraction(ox)
            y = Fraction(oy) - (Fraction(v[1]) * SCALE if r == 2 else 0)
            return _fmt(x), _fmt(y)

        label = ",".join(str(t) for t in torsion) if torsion else "0"
        parts.append(
            f'<text x="{ox - span // 2}" y="{height - 6}" font-size="12" '
            f'font-family="monospace">torsion ({label})</text>'
        )
        # shaded cones (2d cones as wedges, rays as thick segments)
        for cone in fan.cones:
            if cone.dim() == 0:
                continue
            if r == 0:
                continue
            clipped = _clip_cone(cone, window, r)
            if cone.dim() >= 2 and len(clipped) >= 3:
                pts = " ".join(",".join(px(p)) for p in clipped)
                parts.append(f'<polygon points="{pts}" fill="#c8d8f0" stroke="none"/>')
            elif cone.dim() == 1 and len(clipped) == 2:
                (x1, y1), (x2, y2) = (px(clipped[0]), px(clipped[1]))
                parts.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="#7090c0" stroke-width="4"/>'
                )
        # lattice points
        grid = _grid(window, r)
        for point in grid:
            coords = tuple(point) + tuple(torsion)
            filled = support_contains_reference(fan, coords)
            cx, cy = px([Fraction(x) for x in (list(point) + [0, 0])[:2]])
            fill = "#303030" if filled else "white"
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{POINT_RADIUS}" fill="{fill}" '
                f'stroke="#303030" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def support_contains_reference(fan: KmFan, element: Sequence[int]) -> bool:
    """Membership in the fine support, read off every cone of the fan."""
    n = fan.group.reduce(element)
    free = n[: fan.group.free_rank]
    for c in fan.cones:
        if c.contains_point(free) and fan.data[c].contains(n):
            return True
    return False


def _grid(window: int, rank: int) -> List[Tuple[int, ...]]:
    if rank == 0:
        return [()]
    if rank == 1:
        return [(x,) for x in range(-window, window + 1)]
    return [(x, y) for x in range(-window, window + 1) for y in range(-window, window + 1)]


def _clip_cone(cone, window: int, rank: int) -> List[List[Fraction]]:
    """Vertices of the cone clipped to the window box, ordered around the
    boundary (the intersection of a sharp cone with the box is convex)."""
    w = Fraction(window)
    if rank == 1:
        ray = cone.rays[0]
        end = w if ray[0] > 0 else -w
        return [[Fraction(0), Fraction(0)], [end, Fraction(0)]]
    if cone.dim() == 1:
        ray = cone.rays[0]
        t = _box_exit(ray, w)
        return [[Fraction(0), Fraction(0)], [t * ray[0], t * ray[1]]]
    vertices: List[Tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    for ray in cone.rays:
        t = _box_exit(ray, w)
        vertices.append((t * ray[0], t * ray[1]))
    for corner in ((w, w), (-w, w), (-w, -w), (w, -w)):
        if cone.contains_point(corner):
            vertices.append((Fraction(corner[0]), Fraction(corner[1])))
    return [list(p) for p in _sort_ccw(vertices)]


def _sort_ccw(points: List[Tuple[Fraction, Fraction]]) -> List[Tuple[Fraction, Fraction]]:
    """Order the vertices of a convex polygon counterclockwise, exactly."""
    points = sorted(set(points))
    n = len(points)
    cx = sum(p[0] for p in points) / n
    cy = sum(p[1] for p in points) / n

    def half(p) -> int:
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def compare(a, b) -> int:
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = (a[0] - cx) * (b[1] - cy) - (a[1] - cy) * (b[0] - cx)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(points, key=functools.cmp_to_key(compare))


def _box_exit(ray: Sequence[int], w: Fraction) -> Fraction:
    m = max(abs(ray[0]), abs(ray[1]))
    return w / m
