"""Cones: duality, faces, membership, intersections, covering."""

import itertools
import random

import pytest

from kmfan.cones import Cone, union_covers
from kmfan.errors import DimensionMismatch, PieceOutsideTarget
from kmfan.intlinalg import IntMatrix


QUAD = Cone.from_generators([(1, 0), (0, 1)], 2)


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
        import kmfan.cones as cones

        c = Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)], 3)
        calls = []
        real = cones._halfspace_intersection
        monkeypatch.setattr(
            cones, "_halfspace_intersection", lambda *args: calls.append(args) or real(*args)
        )
        faces = c.faces()
        assert c.classify_point((1, 0, 0))[1] in faces
        assert all(f.is_face_of(c) for f in faces)
        assert calls == []
        # a face's own H-description is derived when first read
        assert faces[-2].facets
        assert len(calls) == 1

    def test_intersection_and_validation_run_one_conversion_each(self, monkeypatch):
        import kmfan.cones as cones
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
        calls = []
        real = cones._halfspace_intersection
        monkeypatch.setattr(
            cones, "_halfspace_intersection", lambda *args: calls.append(args) or real(*args)
        )
        meet = a.intersect(b)
        assert len(calls) == 1
        # the meet's facets are derived once, when first read
        assert meet.facets == meet.facets
        assert len(calls) == 2
        calls.clear()
        assert len(fan.maximal_cones()) == 16
        assert fan.validate() == []
        assert len(calls) <= 16 * 15 // 2

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


class TestSpan:
    def test_ray_span(self):
        assert Cone.from_generators([(2, 4)], 2).span_lattice_basis().columns() == ((1, 2),)

    def test_full_span(self):
        assert QUAD.span_lattice_basis() == IntMatrix.identity(2)

    def test_zero_span(self):
        assert Cone.zero(2).span_lattice_basis().cols == 0


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
