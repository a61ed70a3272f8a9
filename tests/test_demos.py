"""The demos that print to stdout run cleanly and print their pinned output,
which tests/make_goldens.py writes to tests/golden/demos/."""

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
