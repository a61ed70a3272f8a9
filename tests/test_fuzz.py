"""Bulk malformed documents: a seeded fuzz over the golden input documents.

Each mutant changes keys, list lengths, value types (huge integers,
integers written as strings, booleans, null, nested lists), integers
(negative and out-of-range indices) or a hom document's fan paths, and is
run through one subcommand.  Every run must keep the CLI's failure
contract: exit 0, 1 or 2, exactly one JSON object on stdout, nothing on
stderr.

Amplification mutants are small edits of large valid documents, the face
lattice of the cone on the unit vectors of Z^d: a datum scaled, a face
dropped, or the top cone left alone.  Their reports must stay bounded by
the document, not by its face lattice.
"""

import contextlib
import copy
import io
import json
import os
import random
import shutil
import time

from kmfan.cli import SUBCOMMANDS, run

from test_cli import _face_lattice_document

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "golden", "inputs")
SEED = 271828
MUTANTS = 1200

HOM_COMMANDS = {"proper", "tame", "representable", "equidim"}
# values that replace a field: wrong types, huge and negative integers,
# integers as strings, nested lists
ODD_VALUES = [
    None, True, False, 0, -1, 1, 7, 2 ** 64, 10 ** 30, -10 ** 30, str(10 ** 30), "3", "-2", "x", "",
    1.5, [], [0], [[1]], [[[0]]], [None], {}, {"rays": []},
]
# what a hom document's fan path may become
FAN_PATHS = ["missing.json", ".", "", "p22hom.json", "gs2.json", "mutant.json", "../p1.json"]


def _kind(doc) -> str:
    if isinstance(doc, dict) and "matrix" in doc:
        return "hom"
    if isinstance(doc, dict) and "beta" in doc:
        return "gs"
    return "fan"


def _paths(node, path=()):
    """Every position in a JSON tree, as a key path from the root."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate_once(rng: random.Random, doc):
    path = rng.choice(list(_paths(doc))[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    op = rng.randrange(6)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    elif op == 1:
        del parent[key]
    elif op == 2:
        if isinstance(parent, list):
            parent.insert(key, copy.deepcopy(value))
        else:
            parent[rng.choice(["x" + key, key.upper(), "extra"])] = parent.pop(key)
    elif op == 3 and isinstance(value, int) and not isinstance(value, bool):
        parent[key] = rng.choice([value + 1, value - 1, -value, -1, 99, value * 10 ** 20])
    elif op == 4 and isinstance(value, list):
        if value and rng.random() < 0.5:
            del value[rng.randrange(len(value)):]
        else:
            value.append(copy.deepcopy(rng.choice(value)) if value else rng.choice([0, [0], []]))
    elif op == 5 and _kind(doc) == "hom":
        doc[rng.choice(["source_fan", "target_fan"])] = rng.choice(FAN_PATHS + [3, None, ["a1.json"]])
    else:
        parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))


def mutant(rng: random.Random, doc):
    """A copy of the document with one to three mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        if not doc:
            break
        _mutate_once(rng, doc)
    return doc


def argv_for(rng: random.Random, command: str, kind: str, fans, homs) -> list:
    """One invocation of the subcommand, with the mutant where its kind fits
    (and now and then where it does not), golden inputs elsewhere."""
    anywhere = rng.random() < 0.2
    fan = "mutant.json" if kind in ("fan", "gs") or anywhere else rng.choice(fans)
    hom = "mutant.json" if kind == "hom" or anywhere else rng.choice(homs)
    if command in HOM_COMMANDS:
        argv = [command, "--hom", hom]
    elif command in ("inflate", "contract"):
        argv = [command, "--fan", fan, "--hom", hom]
    else:
        argv = [command, "--fan", fan]
    if command in ("star", "isotropy", "local"):
        argv += ["--cone", str(rng.randint(-1, 4))]
    if command == "product":
        argv += ["--fan2", rng.choice(fans + ["mutant.json"])]
    if command in ("roots", "dilate", "support"):
        argv += ["--point", ",".join(str(rng.randint(-2, 3)) for _ in range(rng.randint(0, 3)))]
    if command == "draw":
        argv += ["--window", str(rng.randint(-1, 3))]
    return argv


def test_mutated_documents_keep_the_failure_contract(tmp_path, monkeypatch):
    names = sorted(os.listdir(INPUTS))
    docs = {}
    for name in names:
        shutil.copy(os.path.join(INPUTS, name), tmp_path / name)
        with open(os.path.join(INPUTS, name), "r", encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    monkeypatch.chdir(tmp_path)
    fans = [name for name in names if _kind(docs[name]) == "fan"]
    homs = [name for name in names if _kind(docs[name]) == "hom"]
    rng = random.Random(SEED)
    codes = {0: 0, 1: 0, 2: 0}
    commands = set()
    start = time.perf_counter()
    for _ in range(MUTANTS):
        doc = mutant(rng, docs[rng.choice(names)])
        with open("mutant.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        command = rng.choice(SUBCOMMANDS)
        argv = argv_for(rng, command, _kind(doc), fans, homs)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        text = out.getvalue()
        assert code in codes, (argv, doc, text)
        assert err.getvalue() == "", (argv, doc)
        assert text.count("\n") == 1 and text.endswith("\n"), (argv, doc, text)
        assert isinstance(json.loads(text), dict), (argv, doc, text)
        codes[code] += 1
        commands.add(command)
    assert time.perf_counter() - start < 10
    assert commands == set(SUBCOMMANDS)
    # the mutants reach past loading as well as failing in it
    assert min(codes.values()) >= 50, codes


def _amplification_mutant(rng: random.Random, kind: str, d: int) -> dict:
    """The face lattice of the cone on the unit vectors of Z^d with one
    datum scaled by 2 or 3, or with one proper face dropped; or that cone
    alone, without its faces."""
    if kind == "top-cone":
        return _face_lattice_document(d, faces=False)
    doc = _face_lattice_document(d, faces=True)
    if kind == "scaled-datum":
        # any cone but {0}, the first, which has no generator to scale
        victim = rng.randrange(1, len(doc["cones"]))
        factor = rng.choice([2, 3])
        datum = doc["lattice_data"][victim]
        datum["generators"] = [[factor * x for x in g] for g in datum["generators"]]
    else:
        # any cone but the top one, the last, whose removal leaves a valid fan
        victim = rng.randrange(len(doc["cones"]) - 1)
        del doc["cones"][victim]
        data = [datum for datum in doc["lattice_data"] if datum["cone_index"] != victim]
        for datum in data:
            datum["cone_index"] -= datum["cone_index"] > victim
        doc["lattice_data"] = data
    return doc


def test_amplification_mutants_keep_the_failure_contract(tmp_path, monkeypatch):
    """Face lattices at d = 9 and 10, and the top cone alone at d up to 21:
    each mutant is invalid, and validate reports it with exit 1, one JSON
    object under 64 KB and nothing on stderr, in under 2 s."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    runs = [(kind, d) for d in (9, 10) for kind in ("scaled-datum", "dropped-face") for _ in range(2)]
    # d missing facets of d - 1 rays each: 57.8 KB at d = 21, 85.5 KB at
    # d = 24, which test_cli bounds by 1 MB
    runs += [("top-cone", rng.randint(9, 21)) for _ in range(3)] + [("top-cone", 21)]
    for kind, d in runs:
        doc = _amplification_mutant(rng, kind, d)
        with open("mutant.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["validate", "--fan", "mutant.json"])
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        assert code == 1, (kind, d, text[:500])
        assert err.getvalue() == "", (kind, d)
        assert text.count("\n") == 1 and text.endswith("\n"), (kind, d)
        assert isinstance(json.loads(text), dict), (kind, d)
        assert len(text.encode("utf-8")) < 1 << 16, (kind, d, len(text))
        assert elapsed < 2.0, (kind, d, elapsed)
