"""SVG rendering: fill semantics, determinism and size bounds."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kmfan.cli import run
from kmfan.documents import dumps, fan_to_obj
from kmfan.drawing import MAX_LAYERS, MAX_WINDOW, draw_fan_svg
from kmfan.errors import RankTooHigh
from kmfan.fans import KmFan, LatticeDatum, dilate, from_classical, roots
from kmfan.abelian import FgaGroup
from kmfan.cones import Cone

from conftest import build_p22, line_fan


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


class TestSizeBounds:
    def test_largest_picture_is_drawn(self):
        svg = draw_fan_svg(torsion_line_fan(MAX_LAYERS), window=MAX_WINDOW)
        assert svg.count("torsion (") == MAX_LAYERS
        assert sum(fill_counts(svg)) == MAX_LAYERS * (2 * MAX_WINDOW + 1)

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
