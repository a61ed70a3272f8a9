"""The demos that print to stdout run cleanly and print their pinned output,
which tests/make_goldens.py writes to tests/golden/demos/; the drawing demo
runs cleanly and writes the same pictures every time."""

import pytest

from golden_cases import DEMOS, ROOT, run_demo

EXPECTED = ROOT / "tests" / "golden" / "demos"


def test_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == (EXPECTED / (demo.stem + ".out")).read_text(encoding="utf-8")


def test_drawing_demo_writes_the_same_pictures():
    """demos/06_drawing.py writes four SVG files into the git-ignored
    demos/output/.  Its stdout names them by absolute path, so only the
    files are compared, across two runs."""
    demo = ROOT / "demos" / "06_drawing.py"
    names = ["line.svg", "line_root2.svg", "p22.svg", "plane_dilated.svg"]
    runs = []
    for _ in range(2):
        for name in names:
            (ROOT / "demos" / "output" / name).unlink(missing_ok=True)
        result = run_demo(demo)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        runs.append([(ROOT / "demos" / "output" / name).read_bytes() for name in names])
    assert runs[0] == runs[1]
    assert all(svg.startswith(b"<svg") for svg in runs[0])
