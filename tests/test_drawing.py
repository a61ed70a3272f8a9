"""SVG rendering: fill semantics, determinism and size bounds."""

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kmfan import drawing
from kmfan.cli import run
from kmfan.documents import dumps, fan_to_obj
from kmfan.drawing import MAX_LAYERS, MAX_WINDOW, draw_fan_svg
from kmfan.errors import RankTooHigh
from kmfan.fans import KmFan, LatticeDatum, dilate, from_classical, is_smooth, roots, support_contains
from kmfan.abelian import FgaGroup
from kmfan.cones import Cone
from kmfan.intlinalg import primitive_vector

from conftest import build_p22, line_fan
from drawing_oracle import draw_fan_svg_reference, support_contains_reference


def fill_counts(svg: str):
    filled = svg.count('fill="#303030" stroke=')
    open_ = svg.count('fill="white" stroke=')
    return filled, open_


class TestFillSemantics:
    def test_line_fan_fills_nonnegatives(self):
        # window 4: points -4..4; the support is the nonnegative integers
        svg = draw_fan_svg(line_fan(), window=4)
        filled, open_ = fill_counts(svg)
        assert (filled, open_) == (5, 4)

    def test_rooted_line_fills_even_points_only(self):
        svg = draw_fan_svg(roots(line_fan(), [2])[0], window=4)
        filled, open_ = fill_counts(svg)
        # 0, 2, 4 filled
        assert (filled, open_) == (3, 6)

    def test_p22_layers(self):
        # torsion 0 layer: all a <= 0 (the minus marking) plus even a >= 0;
        # torsion 1 layer: odd a >= 1.  window 3 => {-3..0, 2} and {1, 3}.
        svg = draw_fan_svg(build_p22(), window=3)
        filled, open_ = fill_counts(svg)
        assert filled + open_ == 14  # two layers of 7 points
        assert filled == 7
        assert svg.count("torsion (") == 2

    def test_deterministic_bytes(self):
        a = draw_fan_svg(build_p22(), window=3)
        b = draw_fan_svg(build_p22(), window=3)
        assert a == b

    def test_rank_limit(self):
        fan = from_classical(FgaGroup(3), [Cone.from_generators([(1, 0, 0)], 3)])
        with pytest.raises(RankTooHigh):
            draw_fan_svg(fan)

    def test_two_dimensional_picture(self):
        fan = dilate(from_classical(FgaGroup(2), [Cone.from_generators([(1, 0), (0, 1)], 2)]), 2)[0]
        svg = draw_fan_svg(fan, window=2)
        filled, open_ = fill_counts(svg)
        # 5x5 grid; support = quadrant points of the doubled lattice:
        # (0,0),(2,0),(0,2),(2,2)
        assert filled + open_ == 25
        assert filled == 4
        assert "<polygon" in svg


def torsion_line_fan(order: int) -> KmFan:
    """The rank-1 fan on the ray (1) over Z + Z/order."""
    group = FgaGroup(1, (order,))
    zero, ray = Cone.zero(1), Cone.from_generators([(1,)], 1)
    return KmFan(group, [zero, ray], {
        zero: LatticeDatum.from_generators(group, []),
        ray: LatticeDatum.from_generators(group, [(1, 0)]),
    })


def _graph_fan(classical: KmFan, torsion, phi, k: int) -> KmFan:
    """A fan over Z^r + T on the cones of a classical fan over Z^r: F_sigma
    is the graph {(k v, phi(v)) : v in Span(sigma) cap Z^r}, which is
    torsion-free and compatible with faces, as phi is one map for all cones."""
    r = classical.group.free_rank
    group = FgaGroup(r, torsion)

    def lift(v):
        return tuple(k * x for x in v) + tuple(
            sum(a * x for a, x in zip(row, v)) % d for row, d in zip(phi, torsion)
        )

    return KmFan(group, classical.cones, {
        c: LatticeDatum.from_generators(group, [lift(b) for b in c.span_lattice_basis().columns()])
        for c in classical.cones
    })


class TestSizeBounds:
    def test_largest_picture_is_drawn(self):
        svg = draw_fan_svg(torsion_line_fan(MAX_LAYERS), window=MAX_WINDOW)
        assert svg.count("torsion (") == MAX_LAYERS
        assert sum(fill_counts(svg)) == MAX_LAYERS * (2 * MAX_WINDOW + 1)

    def test_largest_rank_two_picture_draws_fast(self):
        """A complete fan on 31 rays over Z^2 + Z/16 at window MAX_WINDOW:
        16 layers of 65^2 points, every point held by one of 31 maximal cones."""
        rays = [
            primitive_vector((round(10 * math.cos(2 * math.pi * k / 31)), round(10 * math.sin(2 * math.pi * k / 31))))
            for k in range(31)
        ]
        polygon = from_classical(FgaGroup(2), [Cone.from_generators([u, v], 2) for u, v in zip(rays, rays[1:] + rays[:1])])
        fan = _graph_fan(polygon, (MAX_LAYERS,), [[3, 5]], 2)
        start = time.perf_counter()
        svg = draw_fan_svg(fan, window=MAX_WINDOW)
        assert time.perf_counter() - start < 3
        assert svg.count("torsion (") == MAX_LAYERS
        assert svg.count("<polygon") == 31 * MAX_LAYERS
        assert sum(fill_counts(svg)) == MAX_LAYERS * (2 * MAX_WINDOW + 1) ** 2

    def test_one_solve_per_grid_point(self, monkeypatch):
        """The layer filled over a point comes from one integer solve on
        its holder's free basis, with one linear system per holder and no
        datum membership test per layer: 8 maximal cones over Z^2 + Z/8,
        81 points, each held by a cone."""
        rays = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
        polygon = from_classical(FgaGroup(2), [Cone.from_generators([u, v], 2) for u, v in zip(rays, rays[1:] + rays[:1])])
        fan = _graph_fan(polygon, (8,), [[3, 5]], 2)
        systems, solves, tests = [], [], []

        class Counting(drawing.LinearSystem):
            def __init__(self, m):
                systems.append(m)
                super().__init__(m)

            def integer(self, b):
                solves.append(b)
                return super().integer(b)

        monkeypatch.setattr(drawing, "LinearSystem", Counting)
        monkeypatch.setattr(LatticeDatum, "contains", lambda self, v: tests.append(v))
        svg = draw_fan_svg(fan, window=4)
        assert (len(systems), len(solves), tests) == (8, 81, [])
        assert sum(fill_counts(svg)) == 8 * 81
        assert fill_counts(svg)[0] == 25

    @pytest.mark.parametrize("order,window,bound", [
        (1, MAX_WINDOW + 1, "MAX_WINDOW"),
        (MAX_LAYERS + 1, 1, "MAX_LAYERS"),
        (10 ** 30, 1, "MAX_LAYERS"),
    ])
    def test_library_refuses_and_names_the_bound(self, order, window, bound):
        fan = line_fan() if order == 1 else torsion_line_fan(order)
        with pytest.raises(OverflowError, match=bound):
            draw_fan_svg(fan, window=window)

    @pytest.mark.parametrize("order,window", [(1, 10 ** 12), (100000, 1), (10 ** 30, 5)])
    def test_cli_refuses_with_one_json_object(self, tmp_path, monkeypatch, order, window):
        fan = line_fan() if order == 1 else torsion_line_fan(order)
        (tmp_path / "big.json").write_text(dumps(fan_to_obj(fan)), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["draw", "--fan", "big.json", "--window", str(window), "--out", "big.svg"])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.getvalue() == ""
        assert out.getvalue().count("\n") == 1
        assert json.loads(out.getvalue())["error"] == "too-large"
        assert not (tmp_path / "big.svg").exists()


# -- byte equality with the reference drawing code ---------------------------

def _polygon_subfan(rng, box: int) -> KmFan:
    """A random subfan of a complete fan in Z^2 on 2 to 7 primitive rays in
    [-box, box]^2, now and then with a ray of largest |coordinate| 32, whose
    clipped end can sit on an exact half-hundredth of the picture."""
    vectors = set()
    while len(vectors) < rng.randint(2, 7):
        if rng.random() < 0.15:
            v = (32, rng.randrange(-31, 32, 2))
            v = v if rng.random() < 0.5 else (v[1], -v[0])
        else:
            v = (rng.randint(-box, box), rng.randint(-box, box))
        if any(v):
            vectors.add(primitive_vector(v))
    rays = sorted(vectors, key=lambda v: math.atan2(v[1], v[0]))
    walls = [
        Cone.from_generators([u, v], 2)
        for u, v in zip(rays, rays[1:] + rays[:1])
        if u[0] * v[1] - u[1] * v[0] > 0
    ]
    cones = walls + [Cone.ray(v) for v in rays]
    return from_classical(FgaGroup(2), rng.sample(cones, rng.randint(1, len(cones))))


def _line_subfan(rng) -> KmFan:
    cones = [Cone.ray((1,)), Cone.ray((-1,))]
    return from_classical(FgaGroup(1), rng.sample(cones, rng.randint(0, 2)))


#: torsion parts up to MAX_LAYERS elements
TORSIONS = [(), (2,), (3,), (2, 2), (5,), (2, 4), (2, 6), (16,), (2, 2, 2, 2), (4, 4)]


def _random_drawable_fan(rng, rank: int) -> KmFan:
    if rank == 0:
        group = FgaGroup(0, rng.choice(TORSIONS))
        zero = Cone.zero(0)
        return KmFan(group, [zero], {zero: LatticeDatum.from_generators(group, [])})
    fan = _line_subfan(rng) if rank == 1 else _polygon_subfan(rng, 60)
    style = rng.choice(["classical", "dilate", "roots", "graph"])
    if style == "dilate":
        return dilate(fan, rng.randint(2, 4))[0]
    if style == "roots":
        if is_smooth(fan):
            return roots(fan, [rng.randint(1, 4) for _ in fan.ray_cones()])[0]
        return fan
    if style == "graph":
        torsion = rng.choice(TORSIONS)
        phi = [[rng.randrange(d) for _ in range(rank)] for d in torsion]
        return _graph_fan(fan, torsion, phi, rng.randint(1, 3))
    return fan


def _window(rng, fan: KmFan) -> int:
    """Mostly small windows; up to MAX_WINDOW where the reference is quick."""
    layers = fan.group.torsion_order()
    if fan.group.free_rank < 2 or (layers == 1 and rng.random() < 0.1):
        return rng.randint(1, MAX_WINDOW)
    return rng.randint(1, 6)


class TestAgainstReference:
    def test_bytes_equal_the_reference(self):
        """Seeded fans of free rank 0-2 with up to MAX_LAYERS torsion layers:
        classical, dilated, rooted and graph data on non-complete subfans of
        polygon fans with rays in [-60, 60]^2, at windows 1 to MAX_WINDOW."""
        rng = random.Random(2323)
        seen = {"rank0": 0, "rank1": 0, "rank2": 0, "torsion": 0, "max-layers": 0,
                "half": 0, "big-window": 0}
        for t in range(300):
            rank = (0, 1, 2, 2, 2, 2)[t % 6]
            fan = _random_drawable_fan(rng, rank)
            window = _window(rng, fan)
            if t == 5:
                window = MAX_WINDOW
            svg = draw_fan_svg(fan, window=window)
            assert svg == draw_fan_svg_reference(fan, window=window), (fan.cones, window)
            seen[f"rank{rank}"] += 1
            seen["torsion"] += fan.group.torsion_order() > 1
            seen["max-layers"] += fan.group.torsion_order() == MAX_LAYERS
            seen["big-window"] += window > 16
            seen["half"] += rank == 2 and any(
                36 * window * abs(x) % 32 == 16 and max(map(abs, c.rays[0])) == 32
                for c in fan.ray_cones() for x in c.rays[0]
            )
        assert min(seen.values()) >= 5, seen

    def test_support_contains_equals_the_all_cones_reading(self):
        """support_contains reads one maximal cone; the reference reads
        every cone.  Seeded fans as above, elements with unreduced torsion
        coordinates."""
        rng = random.Random(2424)
        filled = 0
        for t in range(150):
            fan = _random_drawable_fan(rng, (0, 1, 2)[t % 3])
            for _ in range(20):
                element = [rng.randint(-8, 8) for _ in range(fan.group.ncoords)]
                expected = support_contains_reference(fan, element)
                assert support_contains(fan, element) == expected, (fan.cones, element)
                filled += expected
        assert filled >= 300, filled
