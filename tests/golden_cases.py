"""Input documents, the golden CLI invocation list and the demo runner
(shared by the test suite and the regeneration entry point in
make_goldens.py)."""

import os
import subprocess
import sys
from pathlib import Path

from kmfan.abelian import FgaGroup, GroupHom
from kmfan.cones import Cone
from kmfan.documents import dumps, fan_to_obj, gsfan_to_obj, hom_to_obj
from kmfan.fans import KmFan, LatticeDatum, from_classical
from kmfan.gsfans import GsFan
from kmfan.intlinalg import IntMatrix

ROOT = Path(__file__).resolve().parent.parent
# demo 06 writes SVG files into demos/output/; the drawing goldens cover it
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """Run one demo from the repository root against the source tree."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def input_documents():
    """filename -> document text for every golden input."""
    Z = FgaGroup(1)
    Z2 = FgaGroup(2)
    Z3 = FgaGroup(3)
    N22 = FgaGroup(1, (2,))

    zero1 = Cone.zero(1)
    plus = Cone.from_generators([(1,)], 1)
    minus = Cone.from_generators([(-1,)], 1)

    p22 = KmFan(N22, [zero1, plus, minus], {
        zero1: LatticeDatum.from_generators(N22, []),
        plus: LatticeDatum.from_generators(N22, [(1, 1)]),
        minus: LatticeDatum.from_generators(N22, [(-1, 0)]),
    })
    ftilde = from_classical(Z2, [
        Cone.from_generators([(1, 0)], 2),
        Cone.from_generators([(0, 1)], 2),
    ])
    a1 = from_classical(Z, [plus])
    p1 = from_classical(Z, [plus, minus])
    point = KmFan(FgaGroup(0), [Cone.zero(0)], {
        Cone.zero(0): LatticeDatum.from_generators(FgaGroup(0), [])
    })
    sing = from_classical(Z2, [Cone.from_generators([(1, 0), (1, 2)], 2)])
    nonsat_cones = [
        Cone.from_generators([(1, 2), (1, -2)], 2),
        Cone.from_generators([(1, -2), (-1, 0)], 2),
        Cone.from_generators([(1, 2), (-1, 0)], 2),
    ]
    base = from_classical(Z2, nonsat_cones)
    data = dict(base.data)
    data[nonsat_cones[0]] = LatticeDatum.from_generators(Z2, [(1, 2), (1, -2)])
    data[Cone.from_generators([(1, 2)], 2)] = LatticeDatum.from_generators(Z2, [(1, 2)])
    data[Cone.from_generators([(1, -2)], 2)] = LatticeDatum.from_generators(Z2, [(1, -2)])
    nonsat = KmFan(Z2, base.cones, data)
    # rays whose largest |coordinate| does not divide drawing.SCALE = 36, so
    # the clipped vertices need rounding; at window 3 the ray (32, -9) leaves
    # the box at y = -27/32, whose picture coordinate is an exact half-hundredth
    wedges = from_classical(Z2, [
        Cone.from_generators([(7, 3), (-2, 5)], 2),
        Cone.from_generators([(-2, 5), (-3, -1)], 2),
        Cone.from_generators([(32, -9)], 2),
    ])

    # the cone on (+-1, 0, 1) and (0, +-1, 1), which is not simplicial, with its faces
    square = from_classical(Z3, [
        Cone.from_generators([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], 3),
    ])

    # a deliberately broken document: the positive ray is missing the zero cone
    broken = {
        "schema_version": "1",
        "group": {"free_rank": 1, "torsion_invariants": []},
        "cones": [{"rays": [[1]]}],
        "lattice_data": [{"cone_index": 0, "generators": [[1]]}],
    }

    gs = GsFan(a1, GroupHom(Z, Z, IntMatrix([[2]])))

    docs = {
        "p22.json": dumps(fan_to_obj(p22)),
        "ftilde.json": dumps(fan_to_obj(ftilde)),
        "a1.json": dumps(fan_to_obj(a1)),
        "p1.json": dumps(fan_to_obj(p1)),
        "point.json": dumps(fan_to_obj(point)),
        "sing.json": dumps(fan_to_obj(sing)),
        "nonsat.json": dumps(fan_to_obj(nonsat)),
        "wedges.json": dumps(fan_to_obj(wedges)),
        "square.json": dumps(fan_to_obj(square)),
        "broken.json": dumps(broken),
        "gs2.json": dumps(gsfan_to_obj(gs)),
        "p22hom.json": dumps(hom_to_obj(
            GroupHom(Z2, N22, IntMatrix([[1, -1], [1, 0]])), "ftilde.json", "p22.json")),
        "righom.json": dumps(hom_to_obj(
            GroupHom(N22, Z, IntMatrix([[1, 0]])), "p22.json", "p1.json")),
        "p22topt.json": dumps(hom_to_obj(
            GroupHom(N22, FgaGroup(0), IntMatrix.zero(0, 2)), "p22.json", "point.json")),
        "a1topt.json": dumps(hom_to_obj(
            GroupHom(Z, FgaGroup(0), IntMatrix.zero(0, 1)), "a1.json", "point.json")),
        "x2hom.json": dumps(hom_to_obj(
            GroupHom(Z, Z, IntMatrix([[2]])), "a1.json", "a1.json")),
        # an inclusion of index 2 that shears the square cone
        "square2hom.json": dumps(hom_to_obj(
            GroupHom(Z3, Z3, IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 2]])), "square.json", "square.json")),
    }
    return docs


#: (name, argv, expected exit code); at least one case per subcommand
CASES = [
    ("validate_p22", ["validate", "--fan", "p22.json"], 0),
    ("validate_broken", ["validate", "--fan", "broken.json"], 1),
    ("info_p22", ["info", "--fan", "p22.json"], 0),
    ("info_nonsat", ["info", "--fan", "nonsat.json"], 0),
    ("coarse_p22", ["coarse", "--fan", "p22.json"], 0),
    ("rigidify_p22", ["rigidify", "--fan", "p22.json"], 0),
    ("star_p22_1", ["star", "--fan", "p22.json", "--cone", "1"], 0),
    ("product_a1_a1", ["product", "--fan", "a1.json", "--fan2", "a1.json"], 0),
    ("roots_a1_2", ["roots", "--fan", "a1.json", "--point", "2"], 0),
    ("dilate_a1_3", ["dilate", "--fan", "a1.json", "--point", "3"], 0),
    ("inflate_a1", ["inflate", "--fan", "a1.json", "--hom", "x2hom.json"], 0),
    ("contract_a1", ["contract", "--fan", "a1.json", "--hom", "x2hom.json"], 0),
    ("inflate_square", ["inflate", "--fan", "square.json", "--hom", "square2hom.json"], 0),
    ("contract_square", ["contract", "--fan", "square.json", "--hom", "square2hom.json"], 0),
    ("resolve_sing", ["resolve", "--fan", "sing.json"], 0),
    ("support_in", ["support", "--fan", "p22.json", "--point", "1,1"], 0),
    ("support_out", ["support", "--fan", "p22.json", "--point", "1,0"], 0),
    ("proper_p22", ["proper", "--hom", "p22topt.json"], 0),
    ("proper_a1", ["proper", "--hom", "a1topt.json"], 0),
    ("tame_p22", ["tame", "--hom", "p22hom.json"], 0),
    ("tame_x2", ["tame", "--hom", "x2hom.json"], 0),
    ("tame_rig", ["tame", "--hom", "righom.json"], 0),
    ("representable_p22", ["representable", "--hom", "p22hom.json"], 0),
    ("equidim_x2", ["equidim", "--hom", "x2hom.json"], 0),
    ("pi1_p22", ["pi1", "--fan", "p22.json"], 0),
    ("pi1_a1", ["pi1", "--fan", "a1.json"], 0),
    ("isotropy_p22_1", ["isotropy", "--fan", "p22.json", "--cone", "1"], 0),
    ("strata_p22", ["strata", "--fan", "p22.json"], 0),
    ("local_p22_1", ["local", "--fan", "p22.json", "--cone", "1"], 0),
    ("fold_gs2", ["fold", "--fan", "gs2.json"], 0),
    ("unfold_p22", ["unfold", "--fan", "p22.json"], 0),
    ("unfoldrig_nonsat", ["unfold-rig", "--fan", "nonsat.json"], 0),
    ("gscheck_nonsat", ["gs-check", "--fan", "nonsat.json"], 0),
    ("gscheck_p1", ["gs-check", "--fan", "p1.json"], 0),
    ("roundtrip_p1", ["roundtrip", "--fan", "p1.json"], 0),
    ("draw_p22", ["draw", "--fan", "p22.json", "--window", "3", "--out", "p22.svg"], 0),
    ("draw_roots", ["draw", "--fan", "a1root2.json", "--window", "4", "--out", "a1root2.svg"], 0),
    ("draw_nonsat", ["draw", "--fan", "nonsat.json", "--window", "3", "--out", "nonsat.svg"], 0),
    ("draw_wedges", ["draw", "--fan", "wedges.json", "--window", "3", "--out", "wedges.svg"], 0),
]

#: files written by draw cases, compared byte-for-byte
ARTIFACTS = {
    "draw_p22": "p22.svg",
    "draw_roots": "a1root2.svg",
    "draw_nonsat": "nonsat.svg",
    "draw_wedges": "wedges.svg",
}


def extra_documents():
    """Inputs derived through the library (kept separate for clarity)."""
    from kmfan.fans import roots, from_classical

    Z = FgaGroup(1)
    plus = Cone.from_generators([(1,)], 1)
    a1 = from_classical(Z, [plus])
    rooted, _ = roots(a1, [2])
    return {"a1root2.json": dumps(fan_to_obj(rooted))}
