"""Cones: duality, faces, membership, intersections, covering."""

import itertools
import random
from fractions import Fraction

import pytest

from kmfan import cones as cones_module
from kmfan.cones import (
    Cone,
    _first_nonzero,
    _h_description,
    _reduce_mod_lattice,
    _saturated_lattice_basis,
    _simplicial_h_description,
    union_covers,
)
from kmfan.errors import DimensionMismatch, PieceOutsideTarget
from kmfan.intlinalg import IntMatrix, is_saturated, rank, saturate, smith_decomposition


QUAD = Cone.from_generators([(1, 0), (0, 1)], 2)


def _count_derivations(monkeypatch):
    """Count the cones module's double descriptions and its H-derivations
    (the single entry point a cone derives its facets through)."""
    import kmfan.cones as cones

    calls = {}
    for name in ("_derive_h", "_halfspace_intersection"):
        real = getattr(cones, name)
        calls[name] = 0

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cones, name, counted)
    return calls


class TestDual:
    def test_quadrant_self_dual(self):
        assert QUAD.dual() == QUAD

    def test_skew_cone(self):
        c = Cone.from_generators([(1, 0), (1, 2)], 2)
        assert c.dual().rays == ((0, 1), (2, -1))

    def test_ray_dualizes_to_halfplane(self):
        d = Cone.ray((1, 0)).dual()
        assert d.rays == ((1, 0),)
        assert d.lineality == ((0, 1),)

    def test_double_dual_random(self):
        rng = random.Random(10)
        for _ in range(300):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            c = Cone.from_generators(gens, n)
            assert c.dual().dual() == c

    def test_zero_and_full(self):
        assert Cone.zero(3).dual() == Cone.full(3)
        assert Cone.full(3).dual() == Cone.zero(3)


class TestFaces:
    def test_quadrant_faces(self):
        fs = QUAD.faces()
        assert len(fs) == 4
        assert fs[0].is_zero()
        assert {f.rays for f in fs} == {(), ((1, 0),), ((0, 1),), ((0, 1), (1, 0))}

    def test_ray_faces(self):
        fs = Cone.ray((1, 0)).faces()
        assert [f.dim() for f in fs] == [0, 1]

    def test_simplicial_3d_count(self):
        c = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert len(c.faces()) == 8

    def test_face_complement_is_ideal(self):
        # spot-check the monoid-face property on sampled lattice points
        c = Cone.from_generators([(1, 0), (1, 3)], 2)
        for face in c.faces():
            pts = [
                p
                for p in itertools.product(range(-4, 5), repeat=2)
                if c.contains_point(p)
            ]
            for p in pts:
                for q in pts:
                    s = (p[0] + q[0], p[1] + q[1])
                    if face.contains_point(s):
                        # a sum lands in the face only if both parts do
                        assert face.contains_point(p) and face.contains_point(q)

    def test_faces_by_incidence_defer_double_description(self, monkeypatch):
        c = Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)], 3)
        calls = _count_derivations(monkeypatch)
        faces = c.faces()
        assert c.classify_point((1, 0, 0))[1] in faces
        assert all(f.is_face_of(c) for f in faces)
        assert calls == {"_derive_h": 0, "_halfspace_intersection": 0}
        # a face's own H-description is derived once, when first read; the
        # face is simplicial, so that takes no double description
        assert faces[-2].facets == faces[-2].facets
        assert calls == {"_derive_h": 1, "_halfspace_intersection": 0}

    def test_intersection_and_validation_run_one_conversion_each(self, monkeypatch):
        from kmfan.abelian import FgaGroup
        from kmfan.fans import from_classical

        a = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        b = Cone.from_generators([(1, 1, 0), (0, 0, 1), (-1, 2, 1)], 3)
        rays = [(1, 0), (2, 1), (1, 1), (1, 2)]
        for _ in range(3):  # rotate by a quarter turn
            rays += [(-y, x) for x, y in rays[-4:]]
        fan = from_classical(
            FgaGroup(2),
            [Cone.from_generators([rays[i], rays[(i + 1) % 16]], 2) for i in range(16)],
        )
        calls = _count_derivations(monkeypatch)
        # one double description, after reading the operands' facets
        meet = a.intersect(b)
        assert calls == {"_derive_h": 2, "_halfspace_intersection": 1}
        # the meet's facets are derived once, when first read; the meet is
        # simplicial, so that takes no double description
        assert meet.facets == meet.facets
        assert calls == {"_derive_h": 3, "_halfspace_intersection": 1}
        calls.update(dict.fromkeys(calls, 0))
        assert len(fan.maximal_cones()) == 16
        assert fan.validate() == []
        # the cones are simplicial: no pair needs a double description
        assert calls["_halfspace_intersection"] == 0

    def test_representability_and_compatibility_skip_redundant_work(self, monkeypatch):
        import kmfan.fans as fans
        import kmfan.gsfans as gsfans
        from kmfan.abelian import FgaGroup
        from kmfan.fans import KmFan, from_classical, product

        rays = [(1, 0), (2, 1), (1, 1)]
        for _ in range(3):  # rotate by a quarter turn
            rays += [(-y, x) for x, y in rays[-3:]]
        polygon = from_classical(
            FgaGroup(2),
            [Cone.from_generators([rays[i], rays[(i + 1) % 12]], 2) for i in range(12)],
        )
        p1 = from_classical(FgaGroup(1), [Cone.from_generators([(1,)], 1), Cone.from_generators([(-1,)], 1)])
        square = product(p1, p1)[0]
        calls = []

        def count(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))

        count(KmFan, "__init__")
        count(KmFan, "_make")
        count(fans, "product")
        count(fans, "validate_hom")
        assert gsfans.is_gs_representable(polygon)
        assert gsfans.is_gs_representable(square)
        assert calls == []
        count(fans, "present_quotient")
        assert polygon.validate() == [] and square.validate() == []
        assert calls.count("present_quotient") <= len(polygon.cones) + len(square.cones)


def _generator_sets(seed, count):
    """Seeded generator sets in ambient ranks 0-5: zero cones, independent
    sets, repeated generators, positive multiples and dependent sets."""
    rng = random.Random(seed)
    kinds = ["zero", "independent", "repeated", "multiple", "dependent"]
    for t in range(count):
        r = t % 6
        kind = kinds[(t // 6) % len(kinds)]

        def vec():
            return tuple(rng.randint(-3, 3) for _ in range(r))

        if kind == "zero":
            gens = [(0,) * r] * rng.randint(0, 2)
        elif kind == "dependent":
            gens = [vec() for _ in range(r + rng.randint(1, 2))]
            if gens and rng.random() < 0.5:
                gens.append(tuple(-x for x in gens[0]))
        else:
            gens = [vec() for _ in range(rng.randint(1, r))] if r else []
            if gens and kind == "repeated":
                gens.append(rng.choice(gens))
            elif gens and kind == "multiple":
                gens.append(tuple(rng.randint(2, 5) * x for x in rng.choice(gens)))
            rng.shuffle(gens)
        yield r, gens


def _dd_reference(gens, r):
    """V-data, H-description and faces of cone(gens), all by double
    description: the facets and equations from the dual cone's DD, the
    V-data from a DD of those constraints, each face cut out by facets and
    given its own DD-derived H-description."""
    facets, equations = _h_description(gens, r)
    cone = Cone.from_halfspaces(facets, equations, r)
    found = {cone.rays}
    frontier = [cone.rays]
    while frontier:
        cut = [tuple(x for x in rays if sum(a * b for a, b in zip(h, x)) == 0)
               for rays in frontier for h in facets]
        frontier = [rays for rays in dict.fromkeys(cut) if rays not in found]
        found.update(frontier)
    faces = []
    for rays in found:
        face_gens = list(rays) + list(cone.lineality) + [tuple(-x for x in l) for l in cone.lineality]
        dim = rank(IntMatrix(list(rays) + list(cone.lineality), cols=r)) if face_gens else 0
        faces.append((dim, rays, cone.lineality, _h_description(face_gens, r)))
    return cone.rays, cone.lineality, (facets, equations), sorted(faces)


class TestSimplicialClosedForms:
    def test_agree_with_double_description(self):
        simplicial = 0
        for r, gens in _generator_sets(20, 2000):
            c = Cone.from_generators(gens, r)
            rays, lineality, h, faces = _dd_reference(gens, r)
            assert (c.rays, c.lineality) == (rays, lineality), gens
            assert (c.facets, c.equations) == h, gens
            assert [
                (f.dim(), f.rays, f.lineality, (f.facets, f.equations)) for f in c.faces()
            ] == faces, gens
            simplicial += c.is_simplicial()
        # both paths are exercised
        assert 1000 < simplicial < 2000


def simplicial_h_description_by_smith(rays, ambient):
    """The simplicial H-description as it was before the row echelon form:
    one Smith decomposition U R^T V = D of the k x ambient ray matrix, the
    equations from the columns of V past k, facet i = V y with
    y_j = (d_k / d_j) U[j][i]."""
    k = len(rays)
    s = smith_decomposition(IntMatrix._make(tuple(rays), ambient), transforms=("u", "v"))
    diag = s.diagonal()
    equations = _saturated_lattice_basis(s.v.columns()[k:], ambient)
    facets = []
    for i in range(k):
        y = [diag[k - 1] // diag[j] * s.u.entries[j][i] for j in range(k)]
        facets.append(s.v.apply(y + [0] * (ambient - k)))
    return tuple(_reduce_mod_lattice(facets, equations, ambient)), tuple(equations)


class TestSimplicialEchelon:
    def test_agrees_with_the_smith_oracle(self):
        """Seeded simplicial cones on r = 1..5 rays in every ambient rank
        r..6, small and large entries: facets and equations byte-equal."""
        rng = random.Random(1616)
        seen = set()
        for _ in range(1500):
            r = rng.randint(1, 5)
            ambient = rng.randint(r, 6)
            bound = rng.choice([1, 3, 9, 60])
            rays = [tuple(rng.randint(-bound, bound) for _ in range(ambient)) for _ in range(r)]
            if rank(IntMatrix(rays, cols=ambient)) < r:
                continue
            cone = Cone.from_generators(rays, ambient)
            assert cone.is_simplicial()
            want = simplicial_h_description_by_smith(cone.rays, ambient)
            assert _simplicial_h_description(cone.rays, ambient) == want, cone
            assert (cone.facets, cone.equations) == want
            seen.add((r, ambient))
        assert seen == {(r, a) for r in range(1, 6) for a in range(r, 7)}

    def test_zero_cone(self):
        for ambient in range(4):
            assert _simplicial_h_description((), ambient) == simplicial_h_description_by_smith((), ambient)


class TestSpan:
    def test_ray_span(self):
        assert Cone.from_generators([(2, 4)], 2).span_lattice_basis().columns() == ((1, 2),)

    def test_full_span(self):
        assert QUAD.span_lattice_basis() == IntMatrix.identity(2)

    def test_zero_span(self):
        assert Cone.zero(2).span_lattice_basis().cols == 0

    def test_full_dimensional_cones_of_one_rank_share_the_identity(self):
        """One immutable identity per rank, not one per cone; a cone with a
        lineality space and a cone of another rank included."""
        third = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        other = Cone.from_generators([(1, 2, 0), (-1, 0, 0), (0, -1, 3), (0, 0, -1)], 3)
        halfspace = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], 3)
        basis = third.span_lattice_basis()
        assert basis == IntMatrix.identity(3)
        assert other.span_lattice_basis() is basis and halfspace.span_lattice_basis() is basis
        assert QUAD.span_lattice_basis() == IntMatrix.identity(2)

    def test_closed_forms_agree_with_saturate(self, monkeypatch):
        """Seeded cones in r = 1..4: full-dimensional (sharp or not), single
        rays (many with a negative leading entry), lines, intermediate cones
        and cones on u + v and u - v.  The first two kinds run no saturate,
        and neither does a cone whose rays and lineality are a basis of a
        saturated lattice."""
        rng = random.Random(1515)
        kinds = {"full": 0, "ray": 0, "negative-ray": 0, "saturated": 0, "other": 0}
        cases = []
        for t in range(500):
            r = 1 + t % 4

            def vec():
                return tuple(rng.randint(-4, 4) for _ in range(r))

            kind = rng.choice(["full", "ray", "line", "intermediate", "coarse"])
            if kind == "full":
                gens = [vec() for _ in range(r + rng.randint(0, 2))]
            elif kind == "ray":
                gens = [tuple(rng.choice([1, 2, 3]) * x for x in vec())]
            elif kind == "line":
                v = vec()
                gens = [v, tuple(-x for x in v)]
            elif kind == "coarse":
                # u + v and u - v span a sublattice of index 2 when u, v
                # are a basis of a saturated lattice
                u, v = vec(), vec()
                gens = [tuple(a + b for a, b in zip(u, v)), tuple(a - b for a, b in zip(u, v))]
            else:
                gens = [vec() for _ in range(rng.randint(1, r))]
            cases.append((r, [g for g in gens if any(g)] or [(0,) * (r - 1) + (-2,)]))
        saturated = []
        monkeypatch.setattr(cones_module, "saturate", lambda m: saturated.append(m) or saturate(m))
        for r, gens in cases:
            c = Cone.from_generators(gens, r)
            before = len(saturated)
            span = c.span_lattice_basis()
            m = IntMatrix.from_columns(list(c.rays) + list(c.lineality), rows=r)
            expected = saturate(m)
            assert span == expected, gens
            closed_form = c.dim() == r or (len(c.rays) == 1 and not c.lineality)
            assert (len(saturated) == before) == (closed_form or is_saturated(m)), gens
            if c.dim() == r:
                kinds["full"] += 1
            elif closed_form:
                kinds["negative-ray" if c.rays[0][_first_nonzero(c.rays[0])] < 0 else "ray"] += 1
            else:
                kinds["saturated" if is_saturated(m) else "other"] += 1
        assert min(kinds.values()) >= 30, kinds


class TestMembership:
    def test_interior(self):
        assert QUAD.classify_point((1, 1)) == ("interior", None)

    def test_boundary_names_the_face(self):
        kind, face = QUAD.classify_point((1, 0))
        assert kind == "boundary"
        assert face.rays == ((1, 0),)

    def test_outside(self):
        assert QUAD.classify_point((-1, 0))[0] == "outside"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            QUAD.classify_point((1, 0, 0))

    def test_contains_point_equals_the_generator_form(self):
        """contains_point, one loop over the equations and then the facets,
        against all() over each, on seeded cones with lineality or of lower
        dimension: at points of every face, their negations, points moved
        along the lineality, halves of them as fractions, and random
        points."""
        rng = random.Random(4242)
        seen = {"lineality": 0, "lower": 0, "in": 0, "out": 0, "face": 0}
        for r, gens in _generator_sets(4242, 300):
            cone = Cone.from_generators(gens, r)
            if cone.is_sharp() and cone.dim() == r:
                continue
            seen["lineality" if cone.lineality else "lower"] += 1
            faces = [face.relative_interior_point() for face in cone.faces()]
            points = faces + [tuple(-x for x in p) for p in faces]
            points += [tuple(a + 2 * b for a, b in zip(p, l)) for p in faces[-2:] for l in cone.lineality]
            points += [tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(4)]
            points += [tuple(Fraction(x, 2) for x in p) for p in points[::3]]
            for p in points:
                want = all(sum(a * b for a, b in zip(e, p)) == 0 for e in cone.equations) and all(
                    sum(a * b for a, b in zip(h, p)) >= 0 for h in cone.facets)
                assert cone.contains_point(p) == want, (cone, p)
                seen["in" if want else "out"] += 1
                seen["face"] += want and any(sum(a * b for a, b in zip(h, p)) == 0 for h in cone.facets)
            with pytest.raises(DimensionMismatch):
                cone.contains_point((0,) * (r + 1))
        assert min(seen.values()) >= 30, seen


class TestIntersect:
    def test_halfplane_meet(self):
        other = Cone.from_generators([(0, 1), (-1, 0)], 2)
        assert QUAD.intersect(other).rays == ((0, 1),)

    def test_idempotent(self):
        assert QUAD.intersect(QUAD) == QUAD

    def test_opposite_quadrants(self):
        opposite = Cone.from_generators([(-1, 0), (0, -1)], 2)
        assert QUAD.intersect(opposite).is_zero()

    def test_faces_intersect_in_faces(self):
        c = Cone.from_generators([(1, 0, 0), (1, 2, 0), (0, 0, 1), (1, 1, 1)], 3)
        fs = c.faces()
        for a in fs:
            for b in fs:
                meet = a.intersect(b)
                assert meet.is_face_of(a) and meet.is_face_of(b)


class TestUnionCovers:
    def test_line_by_halves(self):
        line = Cone.from_generators([(1,), (-1,)], 1)
        pos = Cone.from_generators([(1,)], 1)
        neg = Cone.from_generators([(-1,)], 1)
        assert union_covers(line, [neg, pos])
        assert not union_covers(line, [pos])

    def test_quadrant_subdivision(self):
        a = Cone.from_generators([(1, 0), (1, 1)], 2)
        b = Cone.from_generators([(1, 1), (0, 1)], 2)
        assert union_covers(QUAD, [a, b])
        assert not union_covers(QUAD, [a])

    def test_piece_outside_rejected(self):
        with pytest.raises(PieceOutsideTarget):
            union_covers(QUAD, [Cone.from_generators([(-1, 0)], 2)])

    def test_monotone(self):
        rng = random.Random(11)
        for _ in range(25):
            # take a random subdivision of the quadrant by rays, drop pieces
            cuts = sorted(
                {(1, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))}
            )
            rays = [(1, 0)] + cuts + [(0, 1)]
            pieces = [
                Cone.from_generators([rays[i], rays[i + 1]], 2)
                for i in range(len(rays) - 1)
            ]
            assert union_covers(QUAD, pieces)
            smaller = pieces[:-1]
            if smaller:
                covered = union_covers(QUAD, smaller)
                assert not covered
                # adding pieces never flips a true to false
                assert union_covers(QUAD, smaller + pieces[-1:])


class TestLinearMaps:
    def test_image_and_preimage(self):
        proj = IntMatrix([[1, 0]])
        img = QUAD.linear_image(proj)
        assert img.rays == ((1,),)
        pre = Cone.from_generators([(1,)], 1).preimage(proj)
        assert pre.lineality == ((0, 1),)
        assert pre.rays == ((1, 0),)
