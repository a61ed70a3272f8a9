"""The four benchmark workloads: seeded inputs, the library work of one item,
and the check of that item's output.

Inputs are plain Python data (tuples, lists, JSON text) made from the seed
alone, without calling kmfan, so no library or test edit can change them.
A workload is a list of rounds; every round has the same item kinds in the
same order and differs from the others only in its seeded draws, so a run
that stops at a round boundary always measures the same mix.

`run(item)` does the library work of one item and returns plain data.
`check(item, result)` compares that data with oracles computed here in pure
Python and returns an error message or None.  Checks never call kmfan, so a
traced run charges no check time to a library layer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import shutil
from itertools import combinations

#: how many distinct rounds each workload draws; runs cycle through them
ROUNDS = 8


# -- pure-Python integer helpers used by generators and oracles ------------


def primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def det(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def matmul(a, b):
    cols = list(zip(*b))
    return [tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a]


def apply(rows, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in rows)


def invariant_factors(square):
    """Nontrivial invariant factors of a small nonsingular square matrix, from
    its determinantal divisors (gcd of all k x k minors)."""
    n = len(square)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = math.gcd(g, det([[square[i][j] for j in cols] for i in rows]))
        divisors.append(g)
    factors = [divisors[k] // divisors[k - 1] for k in range(1, n + 1)]
    return tuple(d for d in factors if d != 1)


def nonsingular(rng, n, lo, hi):
    while True:
        m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if det(m):
            return m


def angular_order(rays):
    """Rays of Z^2 sorted counterclockwise from the positive x-axis (exact)."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def compare(a, b):
        if half(a) != half(b):
            return -1 if half(a) < half(b) else 1
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(set(rays), key=functools.cmp_to_key(compare))


def polygon_rays(rng, count, box):
    """`count` distinct primitive rays of Z^2, always including (1,0), (0,1)
    and (-1,-1) so that consecutive rays are less than a half turn apart."""
    rays = {(1, 0), (0, 1), (-1, -1)}
    while len(rays) < count:
        v = primitive((rng.randint(-box, box), rng.randint(-box, box)))
        if any(v):
            rays.add(v)
    return angular_order(rays)


def polygon_cones(rays):
    """Maximal cones of the complete fan on cyclically ordered rays."""
    return [[rays[i], rays[(i + 1) % len(rays)]] for i in range(len(rays))]


# -- items -----------------------------------------------------------------


class Item:
    """One timed unit of work: a kind, plain inputs, and a stable id."""

    __slots__ = ("id", "kind", "data")

    def __init__(self, kind, data):
        self.id = -1
        self.kind = kind
        self.data = data

    def canonical(self):
        return json.dumps([self.kind, self.data], sort_keys=True, separators=(",", ":"))


# -- roundtrip: criterion-07 families of foldable GS fans ------------------

#: the criterion-07 families in a fixed cycle; two cheap families and two
#: costly ones, weighted so that the median and the p70 tail fall inside the
#: band of costly items instead of on the gap between the two groups
ROUNDTRIP_ORDER = ["p1", "poly", "cone3", "cone2", "poly", "cone3"] * 2
ROUNDTRIP_EXTRA_RAYS = (1, 2, 3, 2)


def roundtrip_round(rng):
    items = []
    extra = iter(ROUNDTRIP_EXTRA_RAYS)
    for family in ROUNDTRIP_ORDER:
        if family == "p1":
            d, cones = 1, [[(1,)], [(-1,)]]
        elif family == "poly":
            d = 2
            want = next(extra)
            fixed = {(1, 0), (0, 1), (-1, -1)}
            new = set()
            while len(new) < want:
                v = primitive((rng.randint(-3, 3), rng.randint(-3, 3)))
                if any(v) and v not in fixed:
                    new.add(v)
            cones = polygon_cones(angular_order(fixed | new))
        elif family == "cone3":
            d = 3
            cones = [[tuple(r) for r in nonsingular(rng, 3, -2, 2)]]
        else:
            d = 2
            cones = [[tuple(r) for r in nonsingular(rng, 2, -3, 3)]]
        beta = nonsingular(rng, d, -2, 2)
        items.append(Item(family, {"d": d, "cones": cones, "beta": beta}))
    return items


def roundtrip_run(item, km):
    d = item.data["d"]
    lattice = km.FgaGroup(d)
    fan = km.from_classical(lattice, [km.Cone.from_generators(c, d) for c in item.data["cones"]])
    beta = km.GroupHom(lattice, km.FgaGroup(d), km.IntMatrix(item.data["beta"]))
    folded, hom = km.fold(km.GsFan(fan, beta))
    valid = folded.validate() == []
    tame = km.is_tame(hom)
    torsor = km.torsor_group(hom)
    _, cok, _ = km.hom_kernel_cokernel(km.dual_hom(beta))
    return {
        "cones": len(folded.cones),
        "valid": valid,
        "tame": tame,
        "torsor": [torsor.free_rank, list(torsor.torsion)],
        "coker_dual_beta": [cok.free_rank, list(cok.torsion)],
        "gs_representable": km.is_gs_representable(folded),
        "roundtrip": km.fold_unfold_roundtrip(folded),
    }


def roundtrip_check(item, res):
    data = item.data
    if item.kind == "p1":
        faces = 3
    elif item.kind == "poly":
        faces = 2 * len(data["cones"]) + 1
    else:
        faces = 2 ** len(data["cones"][0])
    expected_torsor = [0, list(invariant_factors(data["beta"]))]
    for key in ("valid", "tame", "gs_representable", "roundtrip"):
        if res[key] is not True:
            return f"{key} is {res[key]!r}"
    if res["cones"] != faces:
        return f"folded fan has {res['cones']} cones, expected {faces}"
    if res["torsor"] != expected_torsor or res["coker_dual_beta"] != expected_torsor:
        return f"torsor {res['torsor']} / coker {res['coker_dual_beta']}, expected {expected_torsor}"
    return None


# -- ladder: large classical polygons and products of P^1 and P(2,2) ------

LADDER_ORDER = [
    ("poly", 8), ("prod", ("p1", 2)), ("poly", 10), ("prod", ("p22", 2)),
    ("poly", 12), ("prod", ("p1", 3)), ("poly", 14), ("poly", 16),
    ("prod", ("p22", 3)), ("poly", 31),
]


def ladder_round(rng):
    items = []
    for kind, arg in LADDER_ORDER:
        if kind == "poly":
            rays = polygon_rays(rng, arg, 9)
            items.append(Item("poly%d" % arg, {"cones": polygon_cones(rays)}))
        else:
            base, k = arg
            items.append(Item("%s^%d" % (base, k), {"base": base, "k": k}))
    return items


def _base_fan(name, km):
    if name == "p1":
        return km.from_classical(km.FgaGroup(1), [
            km.Cone.from_generators([(1,)], 1), km.Cone.from_generators([(-1,)], 1)])
    group = km.FgaGroup(1, (2,))
    zero, plus, minus = km.Cone.zero(1), km.Cone.from_generators([(1,)], 1), km.Cone.from_generators([(-1,)], 1)
    return km.KmFan(group, [zero, plus, minus], {
        zero: km.LatticeDatum.from_generators(group, []),
        plus: km.LatticeDatum.from_generators(group, [(1, 1)]),
        minus: km.LatticeDatum.from_generators(group, [(-1, 0)]),
    })


def ladder_run(item, km):
    if "cones" in item.data:
        fan = km.from_classical(km.FgaGroup(2), [km.Cone.from_generators(c, 2) for c in item.data["cones"]])
    else:
        base = _base_fan(item.data["base"], km)
        fan = base
        for _ in range(item.data["k"] - 1):
            fan, _, _ = km.product(fan, base)
    pi1 = km.fundamental_group(fan)
    lattice = fan.group.is_lattice()
    return {
        "cones": len(fan.cones),
        "torsion": list(fan.group.torsion),
        "valid": fan.validate() == [],
        "strata": len(km.strata(fan)),
        "pi1": [pi1.free_rank, list(pi1.torsion)],
        "gs_representable": km.is_gs_representable(fan) if lattice else None,
    }


def ladder_check(item, res):
    data = item.data
    if "cones" in data:
        cones, torsion = 2 * len(data["cones"]) + 1, []
    else:
        cones = 3 ** data["k"]
        torsion = [2] * data["k"] if data["base"] == "p22" else []
    if not res["valid"]:
        return "validate() reported violations"
    if res["cones"] != cones or res["strata"] != cones:
        return f"{res['cones']} cones and {res['strata']} strata, expected {cones}"
    if res["torsion"] != torsion:
        return f"group torsion {res['torsion']}, expected {torsion}"
    if res["pi1"] != [0, []]:
        return f"fundamental group {res['pi1']} is not trivial"
    if not torsion and res["gs_representable"] is not True:
        return "lattice fan is not GS-representable"
    return None


# -- algebra: exact integer linear algebra without fans --------------------

#: one round: every size n = 8..19 once, three n = 20 matrices, and cheap
#: derived-dual and Hilbert-basis problems between them.  rank's entry growth
#: makes its time at n = 20 vary fourfold between matrices (0.64-2.39 s over
#: 40 draws), so a run's few n = 20 draws would make throughput and tail
#: depend on the seed.  The n = 20 matrices therefore come from a fixed panel
#: drawn once from its own stream (never picked by cost) and recur in every
#: round; all other inputs follow the seed.  They are the top 12% of a round,
#: so the p90 tail falls inside their band.
ALGEBRA_ORDER = [
    8, "dd", "panel", 9, "hilbert", 10, "dd", 11, "hilbert", 12, "dd", "panel", 13,
    "hilbert", 14, "dd", 15, 16, "hilbert", 17, "dd", "panel", 18, "hilbert", 19, "dd",
]
PANEL_SIZE = 3


def _matrix_item(rng, n):
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n + 2)]
    x = [rng.randint(-3, 3) for _ in range(n)]
    return Item("matrix%d" % n, {"rows": rows, "rhs": list(apply(rows, x))})


def algebra_rounds(rng, rounds):
    panel_rng = random.Random("kmfan-perfbench:algebra:n20-panel")
    panel = [_matrix_item(panel_rng, 20) for _ in range(PANEL_SIZE)]
    out = []
    for _ in range(rounds):
        items, next_panel = [], iter(panel)
        for step in ALGEBRA_ORDER:
            if step == "dd":
                items.append(Item("dd", _tame_hom(rng, sum(i.kind == "dd" for i in items))))
            elif step == "hilbert":
                items.append(Item("hilbert", {"gens": nonsingular(rng, 3, -2, 2)}))
            elif step == "panel":
                fixed = next(next_panel)
                items.append(Item(fixed.kind, fixed.data))
            else:
                items.append(_matrix_item(rng, step))
        out.append(items)
    return out


def _tame_hom(rng, salt):
    """A tame hom by construction: finite cokernel, torsion-free kernel.

    Styles cycle: an injective map of lattices, a full-rank map of a lattice
    onto a group with torsion, and a map whose source torsion injects.
    """
    style = salt % 3
    r = rng.randint(1, 3)
    if style == 0:
        return {"style": "lattice", "src": [r, []], "tgt": [r, []], "cols": nonsingular(rng, r, -3, 3)}
    d = rng.choice([2, 3, 4])
    if style == 1:
        n = r + rng.randint(0, 2)
        free = nonsingular(rng, r, -3, 3)
        cols = [list(c) + [rng.randrange(d)] for c in free]
        cols += [[rng.randint(-3, 3) for _ in range(r)] + [rng.randrange(d)] for _ in range(n - r)]
        return {"style": "onto-torsion", "src": [n, []], "tgt": [r, [d]], "cols": cols}
    m = rng.choice([1, 2])
    unit = rng.choice([u for u in range(1, d) if math.gcd(u, d) == 1])
    free = nonsingular(rng, r, -3, 3)
    cols = [list(c) + [rng.randrange(d * m)] for c in free]
    cols.append([0] * r + [m * unit])
    return {"style": "torsion-injective", "src": [r, [d]], "tgt": [r, [d * m]], "cols": cols}


def algebra_run(item, km):
    data = item.data
    if item.kind == "hilbert":
        cone = km.Cone.from_generators([tuple(g) for g in data["gens"]], 3)
        return {"basis": [list(p) for p in km.AffineMonoid(cone).hilbert_basis()]}
    if item.kind == "dd":
        src, tgt = km.FgaGroup(*data["src"]), km.FgaGroup(*data["tgt"])
        f = km.GroupHom(src, tgt, km.IntMatrix.from_columns(data["cols"], rows=tgt.ncoords))
        dd = km.dd_of_hom(f)
        ker, cok, _ = km.hom_kernel_cokernel(f)
        comp = dd.from_ext_cok.then(dd.to_ker_dual)
        comp2 = dd.from_source_dual.then(dd.to_ext_target)
        return {
            "group": [dd.group.free_rank, list(dd.group.torsion)],
            "ker_rank": ker.rank(),
            "cok_torsion_order": cok.torsion_order(),
            "exact": [
                not km.kernel_subgroup(dd.from_ext_cok).generators(),
                km.hom_kernel_cokernel(dd.to_ker_dual)[1].is_trivial(),
                comp == km.GroupHom.zero(comp.source, comp.target),
                km.image_subgroup(dd.from_ext_cok) == km.kernel_subgroup(dd.to_ker_dual),
                comp2 == km.GroupHom.zero(comp2.source, comp2.target),
                km.image_subgroup(dd.from_source_dual) == km.kernel_subgroup(dd.to_ext_target),
            ],
        }
    m = km.IntMatrix(data["rows"])
    s = km.smith_decomposition(m)
    herm = km.hermite_column_basis(m)
    ker = km.kernel_basis(m)
    return {
        "u": s.u.entries, "d": s.d.entries, "v": s.v.entries,
        "hermite": herm.entries, "hermite_cols": herm.cols,
        "rank": km.rank(m),
        "kernel": ker.entries, "kernel_cols": ker.cols,
        "solution": km.solve_integer(m, data["rhs"]),
    }


def algebra_check(item, res):
    if item.kind == "hilbert":
        want = _hilbert_oracle(tuple(tuple(g) for g in item.data["gens"]))
        got = sorted(tuple(p) for p in res["basis"] if max(map(abs, p)) <= 4)
        return None if got == want else f"Hilbert basis {got} differs from brute force {want}"
    if item.kind == "dd":
        if not all(res["exact"]):
            return f"exactness witnesses failed: {res['exact']}"
        if res["group"][0] != res["ker_rank"]:
            return f"D(f) free rank {res['group'][0]} != rank Ker f {res['ker_rank']}"
        if math.prod(res["group"][1]) != res["cok_torsion_order"]:
            return "torsion of D(f) does not match the torsion of Cok f"
        if item.data["style"] == "lattice":
            square = [list(r) for r in zip(*item.data["cols"])]
            if res["group"] != [0, list(invariant_factors(square))]:
                return f"D(f) = {res['group']} is not Cok of the dual"
        return None
    rows = item.data["rows"]
    n = len(rows[0])
    u, d, v = res["u"], res["d"], res["v"]
    if [list(r) for r in matmul(matmul(u, rows), v)] != [list(r) for r in d]:
        return "U M V != D"
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "Smith transforms are not unimodular"
    diag = [d[i][i] for i in range(n)]
    if any(d[i][j] for i in range(len(d)) for j in range(n) if i != j) or any(x < 0 for x in diag):
        return "D is not a nonnegative diagonal"
    nonzero = [x for x in diag if x]
    if diag[: len(nonzero)] != nonzero or any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return f"diagonal {diag} is not a divisibility chain"
    if res["rank"] != len(nonzero):
        return f"rank {res['rank']} != Smith rank {len(nonzero)}"
    if res["hermite_cols"] != len(nonzero):
        return "Hermite basis has the wrong number of columns"
    if res["kernel_cols"] != n - len(nonzero):
        return "kernel basis has the wrong number of columns"
    if res["kernel_cols"] and any(any(col) for col in zip(*matmul(rows, res["kernel"]))):
        return "M K != 0"
    if res["solution"] is None or apply(rows, res["solution"]) != tuple(item.data["rhs"]):
        return "solve_integer did not solve M x = b"
    return None


@functools.lru_cache(maxsize=None)
def _hilbert_oracle(gens, radius=6, inner=4):
    """Irreducible lattice points of the simplicial cone on `gens` within the
    inner box, by brute force over the outer box."""
    normals = []
    for i in range(3):
        a, b = gens[(i + 1) % 3], gens[(i + 2) % 3]
        n = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        if sum(x * y for x, y in zip(n, gens[i])) < 0:
            n = tuple(-x for x in n)
        normals.append(n)
    span = range(-radius, radius + 1)
    points = [
        (x, y, z) for x in span for y in span for z in span
        if any((x, y, z)) and all(n[0] * x + n[1] * y + n[2] * z >= 0 for n in normals)
    ]
    pset = set(points)
    out = []
    for p in points:
        if max(map(abs, p)) > inner:
            continue
        if not any(q != p and tuple(a - b for a, b in zip(p, q)) in pset for q in points):
            out.append(p)
    return sorted(out)


# -- cli: the command-line front end, in process ---------------------------

#: (name, argv, expected exit code) of every golden case
GOLDEN_CASES = [
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
]
GOLDEN_ARTIFACTS = {"draw_p22": "p22.svg", "draw_roots": "a1root2.svg"}


def _doc(free_rank, cones, data, torsion=()):
    return {
        "schema_version": "1",
        "group": {"free_rank": free_rank, "torsion_invariants": list(torsion)},
        "cones": [{"rays": rays} for rays in cones],
        "lattice_data": [{"cone_index": i, "generators": g} for i, g in enumerate(data)],
    }


#: malformed inputs from the failure contract: each must exit 1 or 2 with one
#: JSON object on stdout and nothing on stderr.  Documents are written into
#: the work directory under the case name.
MALFORMED_CASES = [
    ("draw_window_negative", ["draw", "--fan", "p22.json", "--window", "-3"], None),
    ("draw_window_zero", ["draw", "--fan", "p22.json", "--window", "0"], None),
    ("unknown_subcommand", ["no-such-command", "--fan", "p22.json"], None),
    ("missing_cones", ["validate", "--fan", "missing_cones.json"],
     {"schema_version": "1", "group": {"free_rank": 1, "torsion_invariants": []}, "lattice_data": []}),
    ("wrong_vector_length", ["info", "--fan", "wrong_vector_length.json"],
     _doc(1, [[], [[1, 0]]], [[], [[1]]])),
    ("non_integer_entry", ["validate", "--fan", "non_integer_entry.json"],
     _doc(1, [[], [[1.5]]], [[], [[1]]])),
    ("negative_rank", ["pi1", "--fan", "negative_rank.json"], _doc(-1, [], [])),
    ("cone_index_out_of_range", ["strata", "--fan", "cone_index_out_of_range.json"],
     {"schema_version": "1", "group": {"free_rank": 1, "torsion_invariants": []},
      "cones": [{"rays": []}], "lattice_data": [{"cone_index": 5, "generators": []}]}),
    ("torsion_below_two", ["info", "--fan", "torsion_below_two.json"], _doc(1, [[]], [[]], torsion=[1])),
    ("document_not_object", ["validate", "--fan", "document_not_object.json"], [1, 2, 3]),
    ("invalid_json", ["validate", "--fan", "invalid_json.json"], "{not json"),
    ("missing_file", ["validate", "--fan", "no_such_file.json"], None),
    ("cone_flag_out_of_range", ["star", "--fan", "p22.json", "--cone", "99"], None),
    ("point_not_integers", ["support", "--fan", "p22.json", "--point", "1,x"], None),
    ("dilate_by_zero", ["dilate", "--fan", "a1.json", "--point", "0"], None),
    ("product_without_fan2", ["product", "--fan", "p22.json"], None),
    ("hom_missing_source", ["tame", "--hom", "p22.json"], None),
]

CLI_DOC_RAYS = (8, 12)
CLI_DOC_COMMANDS = ("validate", "info", "strata", "pi1", "gs-check", "draw")


def cli_rounds(rng, rounds):
    """Golden cases, generated polygon documents and malformed cases, with the
    documents each round needs (file name -> text)."""
    out = []
    for r in range(rounds):
        items, files = [], {}
        for name, argv, code in GOLDEN_CASES:
            items.append(Item("golden", {"case": name, "argv": argv, "code": code}))
        for nrays in CLI_DOC_RAYS:
            rays = polygon_rays(rng, nrays, 9)
            fname = "poly_r%d_%d.json" % (r, nrays)
            files[fname] = json.dumps(_classical_doc(rays), sort_keys=True, separators=(",", ":"))
            for cmd in CLI_DOC_COMMANDS:
                argv = [cmd, "--fan", fname]
                if cmd == "draw":
                    argv += ["--window", "4", "--out", fname[:-5] + ".svg"]
                items.append(Item("doc-" + cmd, {"argv": argv, "rays": [list(v) for v in rays]}))
        for name, argv, doc in MALFORMED_CASES:
            if doc is not None:
                files[name + ".json"] = doc if isinstance(doc, str) else json.dumps(doc)
            items.append(Item("malformed", {"case": name, "argv": argv}))
        out.append((items, files))
    return out


def _classical_doc(rays):
    """The document of the complete classical fan on cyclically ordered rays:
    every cone with the primitive generators of its span lattice."""
    cones, data = [[]], [[]]
    for v in rays:
        cones.append([list(v)])
        data.append([list(v)])
    for a, b in polygon_cones(rays):
        cones.append([list(a), list(b)])
        data.append([[1, 0], [0, 1]])
    return _doc(2, cones, data)


class CliContext:
    """A private work directory with the golden inputs and generated documents.

    The CLI resolves relative paths against the working directory and the
    golden outputs name files relatively, so the process works inside it
    until `close()`.
    """

    def __init__(self, root, rounds_files):
        self.golden = os.path.join(root, "tests", "golden")
        self.expected = {}
        for name, _, _ in GOLDEN_CASES:
            with open(os.path.join(self.golden, "expected", name + ".out"), "rb") as fh:
                self.expected[name] = fh.read()
        for name, artifact in GOLDEN_ARTIFACTS.items():
            with open(os.path.join(self.golden, "expected", artifact), "rb") as fh:
                self.expected[artifact] = fh.read()
        self.work = os.path.join(root, ".perfbench", "work-%d" % os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(os.path.join(self.golden, "inputs"), self.work)
        for files in rounds_files:
            for fname, text in files.items():
                with open(os.path.join(self.work, fname), "w", encoding="utf-8") as fh:
                    fh.write(text)
        self.old_cwd = os.getcwd()
        os.chdir(self.work)

    def close(self):
        os.chdir(self.old_cwd)
        shutil.rmtree(self.work, ignore_errors=True)


def cli_run(item, km):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = km.cli_run(item.data["argv"])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_check(item, res, ctx):
    """An error message, or None.  Raises ContractViolation for a malformed
    input that does not get a JSON error."""
    if item.kind == "malformed":
        if res.get("raised"):
            raise ContractViolation(f"raised {res['raised']}")
        if res["code"] not in (1, 2) or res["stderr"]:
            raise ContractViolation(f"exit {res['code']}, {len(res['stderr'])} bytes on stderr")
        try:
            payload = json.loads(res["stdout"])
        except ValueError:
            raise ContractViolation("stdout is not one JSON object") from None
        if not isinstance(payload, dict):
            raise ContractViolation("stdout is not one JSON object")
        return None
    if item.kind == "golden":
        name = item.data["case"]
        if res["code"] != item.data["code"]:
            return f"exit {res['code']}, expected {item.data['code']}"
        if res["stdout"].encode() != ctx.expected[name]:
            return "stdout differs from the golden file"
        if name in GOLDEN_ARTIFACTS:
            artifact = GOLDEN_ARTIFACTS[name]
            with open(os.path.join(ctx.work, artifact), "rb") as fh:
                if fh.read() != ctx.expected[artifact]:
                    return f"{artifact} differs from the golden file"
        return None
    if res["code"] != 0:
        return f"exit {res['code']}: {res['stdout'][:200]}"
    payload = json.loads(res["stdout"])
    rays = [tuple(v) for v in item.data["rays"]]
    ncones = 2 * len(rays) + 1
    cmd = item.kind[len("doc-"):]
    if cmd == "validate":
        ok = payload == {"ok": True, "violations": []}
    elif cmd == "info":
        pairs = polygon_cones(rays)
        ok = (payload["cones"] == ncones and payload["rays"] == len(rays)
              and payload["maximal_cones"] == len(pairs) and payload["classical"] is True
              and payload["simplicial"] is True and payload["atoroidal"] is True
              and payload["smooth"] == all(abs(a[0] * b[1] - a[1] * b[0]) == 1 for a, b in pairs))
    elif cmd == "strata":
        ok = len(payload["strata"]) == ncones and all(not s["isotropy"] for s in payload["strata"])
    elif cmd == "pi1":
        ok = payload == {"free_rank": 0, "torsion": []}
    elif cmd == "gs-check":
        ok = payload == {"gs_representable": True}
    else:
        target = item.data["argv"][-1]
        with open(os.path.join(ctx.work, target), "rb") as fh:
            svg = fh.read()
        ok = payload == {"written": target, "bytes": len(svg)} and svg.startswith(b"<svg")
    return None if ok else f"unexpected {cmd} output {res['stdout'][:200]}"


class ContractViolation(Exception):
    """A malformed input that did not get exit 1 or 2 with one JSON object."""


# -- registry --------------------------------------------------------------


class Workload:
    """Seeded rounds of items, plus the functions that run and check them."""

    def __init__(self, name, rounds, run, check, ctx=None):
        self.name = name
        self.rounds = rounds
        self.items = [item for rnd in rounds for item in rnd]
        for i, item in enumerate(self.items):
            item.id = i
        self.round_len = len(rounds[0])
        self._run = run
        self._check = check
        self.ctx = ctx

    def run(self, item, km):
        return self._run(item, km)

    def check(self, item, result):
        if "raised" in result and item.kind != "malformed":
            return "raised " + result["raised"]
        if self.ctx is not None:
            return self._check(item, result, self.ctx)
        return self._check(item, result)

    def digest(self):
        h = hashlib.sha256()
        for item in self.items:
            h.update(item.canonical().encode())
            h.update(b"\n")
        return h.hexdigest()[:16]

    def close(self):
        if self.ctx is not None:
            self.ctx.close()


WORKLOADS = ("roundtrip", "ladder", "algebra", "cli")


def make_workload(name, seed, root):
    """Build a workload's inputs from the seed; `root` is the checkout root."""
    rng = random.Random("kmfan-perfbench:%s:%d" % (name, seed))
    if name == "roundtrip":
        return Workload(name, [roundtrip_round(rng) for _ in range(ROUNDS)], roundtrip_run, roundtrip_check)
    if name == "ladder":
        return Workload(name, [ladder_round(rng) for _ in range(ROUNDS)], ladder_run, ladder_check)
    if name == "algebra":
        return Workload(name, algebra_rounds(rng, ROUNDS), algebra_run, algebra_check)
    if name == "cli":
        rounds = cli_rounds(rng, ROUNDS)
        ctx = CliContext(root, [files for _, files in rounds])
        return Workload(name, [items for items, _ in rounds], cli_run, cli_check, ctx)
    raise ValueError("unknown workload %r" % name)
