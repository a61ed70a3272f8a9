"""CLI golden suite: determinism and agreement with committed outputs."""

import collections
import contextlib
import io
import itertools
import json
import os
import shutil
import time

import pytest

from kmfan import abelian, cli, fans
from kmfan.cli import SUBCOMMANDS, run
from kmfan.cones import Cone
from kmfan.documents import (
    MAX_FREE_RANK,
    MAX_TORSION_INVARIANTS,
    DocumentError,
    dumps,
    fan_from_obj,
    fan_to_obj,
    gsfan_from_obj,
    hom_matrix_from_obj,
    loads,
)

from golden_cases import ARTIFACTS, CASES

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
# a UTF-16 byte-order mark: not valid UTF-8
NOT_UTF8 = b"\xff\xfe{}"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in os.listdir(os.path.join(GOLDEN, "inputs")):
        shutil.copy(os.path.join(GOLDEN, "inputs", name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_case(workdir, name, argv, expected_code):
    code1, out1 = invoke(argv)
    code2, out2 = invoke(argv)
    assert code1 == code2 == expected_code
    assert out1 == out2, "output is not deterministic"
    with open(os.path.join(GOLDEN, "expected", name + ".out"), "r", encoding="utf-8") as fh:
        assert out1 == fh.read()
    if name in ARTIFACTS:
        artifact = ARTIFACTS[name]
        with open(workdir / artifact, "rb") as fh:
            produced = fh.read()
        with open(os.path.join(GOLDEN, "expected", artifact), "rb") as fh:
            assert produced == fh.read()


def test_every_subcommand_has_a_golden_case():
    assert {argv[0] for _, argv, _ in CASES} == set(SUBCOMMANDS)


def test_subcommands_keep_their_order():
    """The usage message lists the names in this order, and the seeded fuzz
    draws from this list by index."""
    assert SUBCOMMANDS == [
        "validate", "info", "coarse", "rigidify", "star", "product", "roots",
        "dilate", "inflate", "contract", "resolve", "support", "proper", "tame",
        "representable", "equidim", "pi1", "isotropy", "strata", "local", "fold",
        "unfold", "unfold-rig", "gs-check", "roundtrip", "draw",
    ]


@pytest.mark.parametrize("name", ["tame_p22", "tame_rig"])
def test_tame_evaluates_each_predicate_once(workdir, monkeypatch, name):
    """tame reads semi-tameness once, and tameness and the torsor group from
    one derived dual, which computes the group map's kernel and cokernel
    once each, with the golden bytes."""
    calls = collections.Counter()

    def spy(fn):
        return lambda *a: calls.update([fn.__name__]) or fn(*a)

    monkeypatch.setattr(fans, "is_semi_tame", spy(fans.is_semi_tame))
    # the derived dual and the tameness predicates call these by name in abelian
    for fn in (abelian.kernel_subgroup, abelian._cokernel_group):
        monkeypatch.setattr(abelian, fn.__name__, spy(fn))
    argv, expected_code = next((c[1], c[2]) for c in CASES if c[0] == name)
    code, out = invoke(argv)
    assert code == expected_code
    with open(os.path.join(GOLDEN, "expected", name + ".out"), "r", encoding="utf-8") as fh:
        assert out == fh.read()
    assert calls["is_semi_tame"] == 1
    assert calls["kernel_subgroup"] == 1
    assert calls["_cokernel_group"] == 1


def test_info_on_a_deep_singular_cone_is_fast(workdir, capsys):
    """sing.json with the ray (1, 2) moved to (1, 10001): smoothness is read
    off the rays, with no Hilbert basis of the cone's |det| = 10001 points."""
    with open("sing.json", "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("[1,2]") == 3
    with open("deep.json", "w", encoding="utf-8") as fh:
        fh.write(text.replace("[1,2]", "[1,10001]"))
    start = time.perf_counter()
    code = run(["info", "--fan", "deep.json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["smooth"] is False
    assert elapsed < 1.0


def test_local_on_a_deep_singular_cone_is_fast(workdir, capsys):
    """sing.json with the rays (1, 0) and (1, 2) moved to (0, 1) and
    (10001, -1): the maximal cone's dual has the rays (1, 0) and
    (1, 10001), and its Hilbert basis is the 10002 points (1, k).  They all
    have one grade, so the reduction tries no pair."""
    with open("sing.json", "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("[[1,0]]") == 2 and text.count("[[1,2]]") == 2
    text = text.replace("[[1,0]]", "[[0,1]]").replace("[[1,2]]", "[[10001,-1]]")
    with open("deep.json", "w", encoding="utf-8") as fh:
        fh.write(text.replace("[[1,0],[1,2]]", "[[0,1],[10001,-1]]"))
    start = time.perf_counter()
    code = run(["local", "--fan", "deep.json", "--cone", "3"])
    elapsed = time.perf_counter() - start
    assert code == 0
    generators = json.loads(capsys.readouterr().out)["monoid_generators"]
    assert len(generators) == 10002
    assert elapsed < 1.0


def _face_lattice_document(d: int, faces: bool) -> dict:
    """The cone on the unit vectors of Z^d with classical data: with all of
    its 2^d faces, or alone."""
    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    sizes = range(d + 1) if faces else [d]
    cones = [[unit[i] for i in sub] for k in sizes for sub in itertools.combinations(range(d), k)]
    return {
        "schema_version": "1",
        "group": {"free_rank": d, "torsion_invariants": []},
        "cones": [{"rays": rays} for rays in cones],
        "lattice_data": [{"cone_index": i, "generators": rays} for i, rays in enumerate(cones)],
    }


@pytest.mark.parametrize("d", [14, 20, 24])
def test_one_cone_document_reports_its_missing_facets(workdir, d):
    """The closure report names the d missing facets, not the 2^d - 1
    missing faces."""
    with open("cone.json", "w", encoding="utf-8") as fh:
        fh.write(dumps(_face_lattice_document(d, faces=False)))
    start = time.perf_counter()
    code, out = invoke(["validate", "--fan", "cone.json"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert elapsed < 1.0
    assert len(out.encode("utf-8")) < 1 << 20
    violations = json.loads(out)["violations"]
    assert len(violations) == d and all(v["kind"] == "missing-face" for v in violations)


def test_face_lattice_of_a_twelve_dimensional_cone_loads_fast():
    """4096 cones: the descent builds no face set, as no pair descends."""
    obj = _face_lattice_document(12, faces=True)
    start = time.perf_counter()
    fan = fan_from_obj(obj)
    elapsed = time.perf_counter() - start
    assert len(fan.cones) == 4096 and len(fan.maximal_cones()) == 1
    assert elapsed < 4.0


def test_run_builds_no_parser(workdir, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a parser was built")

    monkeypatch.setattr(cli._Parser, "__init__", refuse)
    name, argv, expected_code = next(c for c in CASES if c[0] == "info_p22")
    assert invoke(argv)[0] == expected_code


def test_equidim_case_builds_no_image_cone(workdir, monkeypatch):
    """equidim reads f(sigma) off the cone map: no Cone.linear_image."""
    calls = []
    real = Cone.linear_image
    monkeypatch.setattr(Cone, "linear_image", lambda *a: calls.append(1) or real(*a))
    name, argv, expected_code = next(c for c in CASES if c[0] == "equidim_x2")
    code, out = invoke(argv)
    assert code == expected_code
    with open(os.path.join(GOLDEN, "expected", name + ".out"), "r", encoding="utf-8") as fh:
        assert out == fh.read()
    assert calls == []


class TestDocumentRoundTrip:
    def test_serialize_parse_identity_on_goldens(self):
        for name in os.listdir(os.path.join(GOLDEN, "inputs")):
            if name in ("broken.json", "gs2.json") or "hom" in name or "topt" in name:
                continue
            with open(os.path.join(GOLDEN, "inputs", name), "r", encoding="utf-8") as fh:
                text = fh.read()
            fan = fan_from_obj(loads(text))
            assert dumps(fan_to_obj(fan)) == text

    def test_big_integers_survive(self):
        big = 2 ** 80
        obj = {
            "schema_version": "1",
            "group": {"free_rank": 1, "torsion_invariants": []},
            "cones": [{"rays": []}, {"rays": [[1]]}],
            "lattice_data": [
                {"cone_index": 0, "generators": []},
                {"cone_index": 1, "generators": [[str(big)]]},
            ],
        }
        fan = fan_from_obj(obj)
        ray = fan.cones[1]
        assert fan.data[ray].generators() == [(big,)]
        out = fan_to_obj(fan)
        assert out["lattice_data"][1]["generators"] == [[str(big)]]

    def test_malformed_json_rejected(self):
        with pytest.raises(DocumentError):
            loads("{not json")

    def test_schema_violations_rejected(self):
        with pytest.raises(DocumentError):
            fan_from_obj({"schema_version": "0"})
        with pytest.raises(DocumentError):
            fan_from_obj({
                "schema_version": "1",
                "group": {"free_rank": 1},
                "cones": [{"rays": [[1]]}],
                "lattice_data": [],
            })
        # the same cone twice, once on a non-primitive ray
        with pytest.raises(DocumentError, match="duplicate cone in document"):
            fan_from_obj({
                "schema_version": "1",
                "group": {"free_rank": 1},
                "cones": [{"rays": []}, {"rays": [[1]]}, {"rays": [[2]]}],
                "lattice_data": [],
            })

    V1, LINE = {"schema_version": "1"}, {"free_rank": 1}
    GS = {"schema_version": "1", "lattice": LINE, "group": {"free_rank": 0}}

    @pytest.mark.parametrize("decode, obj, message", [
        (fan_from_obj, [], "fan document must be an object"),
        (hom_matrix_from_obj, "x", "hom document must be an object"),
        (gsfan_from_obj, None, "GS fan document must be an object"),
        (fan_from_obj, {"schema_version": 1}, "unsupported schema_version 1"),
        (hom_matrix_from_obj, {}, "unsupported schema_version None"),
        (gsfan_from_obj, {"schema_version": "2"}, "unsupported schema_version '2'"),
        (fan_from_obj, {**V1, "group": LINE}, "cones must be a list"),
        (gsfan_from_obj, GS, "cones must be a list"),
        (fan_from_obj, {**V1, "group": LINE, "cones": [[]]}, "each cone needs a rays field"),
        (gsfan_from_obj, {**GS, "cones": [{}]}, "each cone needs a rays field"),
        (fan_from_obj, {**V1, "group": LINE, "cones": [{"rays": [[0]]}]}, "a cone ray must be nonzero"),
        (gsfan_from_obj, {**GS, "cones": [{"rays": [[0]]}]}, "a cone ray must be nonzero"),
        # cones are read in order: a duplicate is reported before a later bad entry
        (fan_from_obj, {**V1, "group": LINE, "cones": [{"rays": [[1]]}, {"rays": [[3]]}, {}]},
         "duplicate cone in document"),
        (gsfan_from_obj, {**GS, "lattice": {"free_rank": 1, "torsion_invariants": [2]}},
         "the fan lattice of a GS fan must be torsion-free"),
        (gsfan_from_obj, {**GS, "cones": [], "beta": [[1]]}, "beta has the wrong number of rows"),
    ])
    def test_decoder_messages(self, decode, obj, message):
        with pytest.raises(DocumentError) as info:
            decode(obj)
        assert str(info.value) == message


class TestExitCodes:
    def test_missing_file_is_exit_two(self, workdir):
        code, out = invoke(["pi1", "--fan", "missing.json"])
        assert code == 2
        assert json.loads(out)["error"] == "io"

    def test_wrong_schema_kind_is_exit_two(self, workdir):
        code, out = invoke(["fold", "--fan", "p22.json"])
        assert code == 2

    def test_precondition_failure_is_exit_one(self, workdir):
        code, out = invoke(["roundtrip", "--fan", "p22.json"])
        assert code == 1
        assert json.loads(out)["error"] == "precondition"

    @pytest.mark.parametrize("argv", [
        ["draw", "--fan", "p22.json", "--window", "-3"],
        ["draw", "--fan", "p22.json", "--window", "0"],
        ["no-such-command", "--fan", "p22.json"],
    ], ids=["window_negative", "window_zero", "unknown_subcommand"])
    def test_usage_error_is_exit_two_json(self, workdir, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(argv)
        assert code == 2
        assert json.loads(out)["error"] == "usage"
        assert err.getvalue() == ""

    @pytest.mark.parametrize("subcommand", ["inflate", "contract", "tame"])
    @pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 0, 0]]], ids=["ragged", "mis_sized"])
    def test_malformed_hom_matrix_is_exit_two_schema(self, workdir, subcommand, matrix):
        doc = {"matrix": matrix, "schema_version": "1", "source_fan": "a1.json", "target_fan": "a1.json"}
        with open("bad_hom.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code, out = invoke([subcommand, "--fan", "a1.json", "--hom", "bad_hom.json"])
        assert code == 2
        assert json.loads(out)["error"] == "schema"

    @pytest.mark.parametrize("key", ["source_fan", "target_fan"])
    @pytest.mark.parametrize("path", [5, None, ["a1.json"], "a1.json\0"], ids=["int", "null", "list", "nul"])
    def test_non_string_fan_path_is_exit_two_schema(self, workdir, capsys, key, path):
        """Such a path once raised out of the CLI: TypeError from os.path.join,
        or for a NUL byte ValueError from open."""
        doc = {"matrix": [[1]], "schema_version": "1", "source_fan": "a1.json", "target_fan": "a1.json"}
        doc[key] = path
        with open("bad.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code = run(["proper", "--hom", "bad.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "schema"

    # without the check, [[0]] loads as the zero cone and [[1], [0]] as the ray (1)
    ZERO_RAY_CONES = [
        ([[[0]]], [[]]),
        ([[], [[1], [0]]], [[], [[1]]]),
    ]

    @pytest.mark.parametrize("rays,generators", ZERO_RAY_CONES, ids=["zero", "ray_and_zero"])
    def test_zero_ray_in_fan_is_exit_two_schema(self, workdir, rays, generators):
        doc = {
            "schema_version": "1",
            "group": {"free_rank": 1, "torsion_invariants": []},
            "cones": [{"rays": r} for r in rays],
            "lattice_data": [{"cone_index": i, "generators": g} for i, g in enumerate(generators)],
        }
        with open("zero_ray.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code, out = invoke(["validate", "--fan", "zero_ray.json"])
        assert code == 2
        assert json.loads(out)["error"] == "schema"

    @pytest.mark.parametrize("rays,generators", ZERO_RAY_CONES, ids=["zero", "ray_and_zero"])
    def test_zero_ray_in_gs_fan_is_exit_two_schema(self, workdir, rays, generators):
        doc = {
            "schema_version": "1",
            "lattice": {"free_rank": 1, "torsion_invariants": []},
            "cones": [{"rays": r} for r in rays],
            "group": {"free_rank": 1, "torsion_invariants": []},
            "beta": [[2]],
        }
        with open("zero_ray_gs.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code, out = invoke(["fold", "--fan", "zero_ray_gs.json"])
        assert code == 2
        assert json.loads(out)["error"] == "schema"

    # "2" once loaded as [2]; true and 7 raised a TypeError out of the CLI
    BAD_TORSION = ["2", True, 7]

    @pytest.mark.parametrize("torsion", BAD_TORSION, ids=["string", "boolean", "integer"])
    def test_non_list_torsion_in_fan_is_exit_two_schema(self, workdir, torsion):
        doc = {
            "schema_version": "1",
            "group": {"free_rank": 1, "torsion_invariants": torsion},
            "cones": [{"rays": []}],
            "lattice_data": [{"cone_index": 0, "generators": []}],
        }
        with open("bad_torsion.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code, out = invoke(["info", "--fan", "bad_torsion.json"])
        assert code == 2
        assert json.loads(out)["error"] == "schema"

    @pytest.mark.parametrize("torsion", BAD_TORSION, ids=["string", "boolean", "integer"])
    def test_non_list_torsion_in_gs_fan_lattice_is_exit_two_schema(self, workdir, torsion):
        doc = {
            "schema_version": "1",
            "lattice": {"free_rank": 1, "torsion_invariants": torsion},
            "cones": [{"rays": [[1]]}],
            "group": {"free_rank": 1, "torsion_invariants": []},
            "beta": [[2]],
        }
        with open("bad_torsion_gs.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code, out = invoke(["fold", "--fan", "bad_torsion_gs.json"])
        assert code == 2
        assert json.loads(out)["error"] == "schema"

    @pytest.mark.parametrize("reader", ["fan", "fan2", "hom", "source_fan", "target_fan", "gs_fan"])
    def test_non_utf8_document_is_exit_two_malformed(self, workdir, capsys, reader):
        """Such a document once raised UnicodeDecodeError out of the CLI."""
        with open("bad.json", "wb") as fh:
            fh.write(NOT_UTF8)
        hom = {"matrix": [[1]], "schema_version": "1", "source_fan": "a1.json", "target_fan": "a1.json"}
        if reader in hom:
            hom[reader] = "bad.json"
        with open("hom.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(hom))
        argv = {
            "fan": ["validate", "--fan", "bad.json"],
            "fan2": ["product", "--fan", "a1.json", "--fan2", "bad.json"],
            "hom": ["proper", "--hom", "bad.json"],
            "source_fan": ["proper", "--hom", "hom.json"],
            "target_fan": ["tame", "--hom", "hom.json"],
            "gs_fan": ["fold", "--fan", "bad.json"],
        }[reader]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "malformed"

    def test_fold_of_overlapping_cones_is_an_invalid_fan(self, workdir):
        """The fan of a GS document is validated as it loads; its report is
        the invalid-fan object of every reader, where it once was the repr
        of the violations in a precondition object."""
        plane = {"free_rank": 2, "torsion_invariants": []}
        doc = {"schema_version": "1", "lattice": plane, "group": plane, "beta": [[1, 0], [0, 1]],
               "cones": [{"rays": [[1, 0], [1, 2]]}, {"rays": [[1, 1], [0, 1]]}]}
        with open("overlap.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code, out = invoke(["fold", "--fan", "overlap.json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "invalid-fan"
        assert [v["kind"] for v in payload["violations"]] == ["bad-intersection"]

    def test_a_collapsing_beta_is_not_foldable(self, workdir):
        plane = {"free_rank": 2, "torsion_invariants": []}
        doc = {"schema_version": "1", "lattice": plane, "group": {"free_rank": 1, "torsion_invariants": []},
               "beta": [[1, 1]], "cones": [{"rays": [[1, 0], [0, 1]]}]}
        with open("collapse.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code, out = invoke(["fold", "--fan", "collapse.json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "not-foldable"
        assert "collapsed-cone" in {v["kind"] for v in payload["violations"]}

    def test_a_map_that_is_no_fan_morphism_is_an_invalid_hom(self, workdir):
        """-1 sends the ray of A^1 off the fan."""
        doc = {"matrix": [[-1]], "schema_version": "1", "source_fan": "a1.json", "target_fan": "a1.json"}
        with open("flip.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code, out = invoke(["proper", "--hom", "flip.json"])
        assert code == 1
        assert json.loads(out) == {
            "error": "invalid-hom",
            "cone": [[1]],
            "detail": "image of the cone is not contained in any target cone",
        }

    @pytest.mark.parametrize("point", ["1,x", "1.5,0", "1,,1"])
    def test_a_bad_point_list_is_exit_two_usage(self, workdir, point):
        code, out = invoke(["support", "--fan", "p22.json", "--point", point])
        assert code == 2
        assert json.loads(out) == {"error": "usage", "detail": f"bad integer list {point!r}"}

    @pytest.mark.parametrize("out", [os.path.join("missing", "x.svg"), "."], ids=["missing_dir", "directory"])
    def test_unwritable_draw_output_is_exit_two_io(self, workdir, capsys, out):
        """Such a path once raised FileNotFoundError or IsADirectoryError out
        of the CLI."""
        code = run(["draw", "--fan", "p22.json", "--out", out])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "io"

    def test_rank_too_high_draw(self, workdir):
        from kmfan.abelian import FgaGroup
        from kmfan.cones import Cone
        from kmfan.fans import from_classical

        big = from_classical(FgaGroup(3), [Cone.from_generators([(1, 0, 0)], 3)])
        with open("big.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(fan_to_obj(big)))
        code, out = invoke(["draw", "--fan", "big.json"])
        assert code == 1


class TestHugeInputs:
    @pytest.mark.parametrize("subcommand", ["validate", "info"])
    def test_huge_free_rank_is_exit_two_schema(self, workdir, capsys, subcommand):
        """A declared rank of 10**30 once raised OverflowError out of the CLI
        (and before that hung); it is now refused while loading."""
        doc = {
            "schema_version": "1",
            "group": {"free_rank": 10 ** 30, "torsion_invariants": []},
            "cones": [{"rays": []}],
            "lattice_data": [{"cone_index": 0, "generators": []}],
        }
        with open("huge_rank.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        code = run([subcommand, "--fan", "huge_rank.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "schema"

    def test_largest_free_rank_loads(self):
        doc = {
            "schema_version": "1",
            "group": {"free_rank": MAX_FREE_RANK, "torsion_invariants": []},
            "cones": [{"rays": []}],
            "lattice_data": [{"cone_index": 0, "generators": []}],
        }
        assert fan_from_obj(doc).group.free_rank == MAX_FREE_RANK
        doc["group"]["free_rank"] = MAX_FREE_RANK + 1
        with pytest.raises(DocumentError):
            fan_from_obj(doc)

    @staticmethod
    def one_ray_doc(invariants: int) -> dict:
        """Z + (Z/2)^invariants with the zero cone and one ray."""
        return {
            "schema_version": "1",
            "group": {"free_rank": 1, "torsion_invariants": [2] * invariants},
            "cones": [{"rays": []}, {"rays": [[1]]}],
            "lattice_data": [
                {"cone_index": 0, "generators": []},
                {"cone_index": 1, "generators": [[1] + [0] * invariants]},
            ],
        }

    def test_most_torsion_invariants_load(self):
        fan = fan_from_obj(self.one_ray_doc(MAX_TORSION_INVARIANTS))
        assert fan.group.torsion == (2,) * MAX_TORSION_INVARIANTS
        with pytest.raises(DocumentError):
            fan_from_obj(self.one_ray_doc(MAX_TORSION_INVARIANTS + 1))

    @pytest.mark.parametrize("subcommand", ["validate", "strata", "pi1"])
    def test_many_torsion_invariants_are_exit_two_schema(self, workdir, capsys, subcommand):
        """1024 invariants of 2 once took strata over a minute; the document
        is now refused while loading."""
        with open("many_torsion.json", "w", encoding="utf-8") as fh:
            fh.write(dumps(self.one_ray_doc(1024)))
        code = run([subcommand, "--fan", "many_torsion.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "schema"

    @pytest.mark.parametrize("error", [OverflowError("int too large"), MemoryError()])
    def test_overflow_and_memory_errors_are_one_json_object(self, workdir, capsys, monkeypatch, error):
        def fail(args):
            raise error

        monkeypatch.setattr("kmfan.cli._dispatch", fail)
        code = run(["validate", "--fan", "p22.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "too-large"


class TestFailureContract:
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    @pytest.mark.parametrize("flags", [[], ["--fan", "bad.json"]], ids=["no_flags", "non_utf8_fan"])
    def test_every_subcommand_fails_with_one_json_object(self, workdir, capsys, subcommand, flags):
        with open("bad.json", "wb") as fh:
            fh.write(NOT_UTF8)
        code = run([subcommand] + flags)
        captured = capsys.readouterr()
        assert code in (1, 2)
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert isinstance(json.loads(captured.out), dict)

    @pytest.mark.parametrize("argv, flag", [
        (["product", "--fan", "a1.json"], "--fan2"),
        (["inflate", "--fan", "a1.json"], "--hom"),
        (["contract", "--fan", "a1.json"], "--hom"),
        (["star", "--fan", "a1.json"], "--cone"),
        (["roots", "--fan", "a1.json"], "--point"),
    ], ids=["product", "inflate", "contract", "star", "roots"])
    def test_a_missing_second_flag_is_one_usage_object(self, workdir, capsys, argv, flag):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out) == {"error": "usage", "detail": f"{flag} is required"}

    @pytest.mark.parametrize("argv, detail", [
        (["-h"], "the following arguments are required: subcommand"),
        (["--help"], "the following arguments are required: subcommand"),
        (["info", "-h"], "unrecognized arguments: -h"),
        (["info", "--fan", "p22.json", "--help"], "unrecognized arguments: --help"),
    ], ids=["h", "help", "info_h", "info_fan_help"])
    def test_a_help_flag_is_one_usage_object(self, workdir, capsys, argv, detail):
        """There is no help text: a help flag is an unknown argument."""
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out) == {"error": "usage", "detail": detail}
