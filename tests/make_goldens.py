"""Regenerate the committed golden files for the CLI suite and the demos.

Run from the repository root:  python3 tests/make_goldens.py
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from golden_cases import ARTIFACTS, CASES, DEMOS, extra_documents, input_documents, run_demo  # noqa: E402

from kmfan.cli import run  # noqa: E402


def main() -> None:
    golden = os.path.join(HERE, "golden")
    inputs = os.path.join(golden, "inputs")
    expected = os.path.join(golden, "expected")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(expected, exist_ok=True)

    docs = dict(input_documents())
    docs.update(extra_documents())
    for name, text in docs.items():
        with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    cwd = os.getcwd()
    try:
        os.chdir(inputs)
        for name, argv, expect_code in CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run(argv)
            if code != expect_code:
                raise SystemExit(f"{name}: exit {code}, expected {expect_code}")
            with open(os.path.join(expected, name + ".out"), "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
            if name in ARTIFACTS:
                artifact = ARTIFACTS[name]
                with open(artifact, "rb") as src:
                    data = src.read()
                with open(os.path.join(expected, artifact), "wb") as dst:
                    dst.write(data)
                os.unlink(artifact)
    finally:
        os.chdir(cwd)
    demos = os.path.join(golden, "demos")
    os.makedirs(demos, exist_ok=True)
    for path in DEMOS:
        with open(os.path.join(demos, path.stem + ".out"), "w", encoding="utf-8") as fh:
            fh.write(run_demo(path).stdout)
    print(f"wrote {len(docs)} inputs, {len(CASES)} expected outputs and {len(DEMOS)} demo outputs")


if __name__ == "__main__":
    main()
