"""Deeper cross-checks: independent oracles for cones and chart data.

These tests re-derive facts through routes independent of the production
code paths: rational Fourier-Motzkin feasibility for cone membership, index
counts for stabilizers, and element-wise exactness of the chart character
sequence.
"""

import itertools
import math
import random
from fractions import Fraction

from kmfan.abelian import (
    FgaGroup,
    GroupHom,
    Subgroup,
    image_subgroup,
    kernel_subgroup,
    quotient,
)
from kmfan import cones
from kmfan.cones import Cone
from kmfan.fans import KmFan, LatticeDatum, construct_lifting, local_presentation, zero_fan
from kmfan.gsfans import unfold
from kmfan.intlinalg import IntMatrix, primitive_vector

from conftest import random_simplicial_km_fan, unchecked_fan


def feasible_nonneg_combination(generators, point):
    """Is point a nonnegative rational combination of the generators?

    Decided by Fourier-Motzkin elimination on the system G l = p, l >= 0,
    entirely independent of the cone machinery.
    """
    n = len(point)
    k = len(generators)
    # inequalities in l: each row (a, b) encodes a . l >= b
    rows = []
    for i in range(k):
        coeff = [Fraction(0)] * k
        coeff[i] = Fraction(1)
        rows.append((coeff, Fraction(0)))
    # equalities G l = p as two inequalities
    for i in range(n):
        coeff = [Fraction(g[i]) for g in generators]
        rows.append((coeff, Fraction(point[i])))
        rows.append(([-c for c in coeff], -Fraction(point[i])))
    # eliminate variables one by one
    for var in range(k):
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        zero = [r for r in rows if r[0][var] == 0]
        new_rows = list(zero)
        for cp, bp in pos:
            for cn, bn in neg:
                s, t = cp[var], -cn[var]
                coeff = [t * a + s * b for a, b in zip(cp, cn)]
                new_rows.append((coeff, t * bp + s * bn))
        rows = new_rows
    # all variables eliminated: rows are constraints 0 >= b
    return all(b <= 0 for _, b in rows)


class TestMembershipOracle:
    def test_facet_membership_matches_fourier_motzkin(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            cone = Cone.from_generators(gens, n)
            gens_nonzero = [g for g in gens if any(g)] or [(0,) * n]
            for _ in range(12):
                p = tuple(rng.randint(-4, 4) for _ in range(n))
                expected = feasible_nonneg_combination(gens_nonzero, p)
                assert cone.contains_point(p) == expected, (gens, p)

    def test_dual_cone_against_pairing(self):
        # m is in the dual iff it pairs nonnegatively with every generator;
        # check the facet description of the dual directly on sample points
        rng = random.Random(32)
        for _ in range(25):
            n = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            cone = Cone.from_generators(gens, n)
            dual = cone.dual()
            for _ in range(12):
                m = tuple(rng.randint(-4, 4) for _ in range(n))
                expected = all(
                    sum(a * b for a, b in zip(m, g)) >= 0 for g in gens
                )
                assert dual.contains_point(m) == expected


def _random_cone(rng, n):
    """A cone in Z^n, possibly lower-dimensional and possibly with lineality."""
    span = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, n))]

    def in_span():
        return tuple(sum(rng.randint(-2, 2) * b[i] for b in span) for i in range(n))

    gens = [in_span() for _ in range(rng.randint(0, 5))]
    if span and rng.random() < 0.3:
        line = in_span()
        gens += [line, tuple(-x for x in line)]
    return Cone.from_generators(gens, n)


def _rebuilt(cone, rng):
    """The cone rebuilt by double description from scaled, shuffled and
    padded generators."""
    gens = [tuple(k * x for x in g) for g in cone.generators() for k in [rng.randint(1, 3)]]
    gens += [tuple(a + b for a, b in zip(g, h)) for g, h in zip(gens, gens[1:])]
    rng.shuffle(gens)
    return Cone.from_generators(gens, cone.ambient_rank)


def _vanishes(functional, vectors):
    return all(sum(a * b for a, b in zip(functional, v)) == 0 for v in vectors)


def _reference_is_face_of(tau, sigma):
    """The supporting-hyperplane face test with the face rebuilt by
    double description."""
    if tau == sigma:
        return True
    if not sigma.contains_cone(tau):
        return False
    active = [h for h in sigma.facets if _vanishes(h, tau.generators())]
    keep = [r for r in sigma.rays if all(_vanishes(h, [r]) for h in active)]
    lin = list(sigma.lineality) + [tuple(-x for x in l) for l in sigma.lineality]
    return Cone.from_generators(keep + lin, sigma.ambient_rank) == tau


class TestFacesByIncidence:
    """Faces cut out by incidence equal the faces rebuilt by double
    description, and the incidence face test agrees with the rebuilt one."""

    def assert_same_cone(self, face, rng):
        for ref in (Cone.from_generators(face.generators(), face.ambient_rank), _rebuilt(face, rng)):
            assert face.rays == ref.rays, face
            assert face.lineality == ref.lineality, face
            assert face.facets == ref.facets, face
            assert face.equations == ref.equations, face
            assert hash(face) == hash(ref)

    def test_faces_and_face_tests_match_double_description(self):
        rng = random.Random(37)
        outcomes = {True: 0, False: 0}
        kinds = set()
        for _ in range(200):
            n = rng.randint(1, 4)
            sigma = _random_cone(rng, n)
            kinds.add((sigma.is_sharp(), sigma.dim() == n))
            faces = sigma.faces()
            for face in faces:
                self.assert_same_cone(face, rng)
            for _ in range(6):
                coeffs = [rng.randint(0, 2) for _ in sigma.rays]
                point = tuple(sum(c * r[i] for c, r in zip(coeffs, sigma.rays)) for i in range(n))
                where, face = sigma.classify_point(point)
                if where == "boundary":
                    self.assert_same_cone(face, rng)
                    assert face in faces
            others = list(faces)
            other = _random_cone(rng, n)
            others += [other, sigma.intersect(other), other.intersect(faces[0])]
            some = [r for r in sigma.rays if rng.random() < 0.5]
            others.append(Cone.from_generators(some + [sigma.relative_interior_point()], n))
            for tau in others:
                expected = _reference_is_face_of(tau, sigma)
                assert tau.is_face_of(sigma) == expected, (tau, sigma)
                outcomes[expected] += 1
        assert min(outcomes.values()) >= 200, outcomes
        assert len(kinds) == 4, kinds


def _constraint_kind(cone):
    if cone.is_zero():
        return "zero"
    if not cone.is_sharp():
        return "non-sharp"
    return "full" if cone.dim() == cone.ambient_rank else "lower-dimensional"


class TestHalfspaceConversion:
    """A cone given by constraints, canonicalised from its one double
    description, equals the cone rebuilt from the generators that double
    description found; intersections and preimages hold exactly the right
    lattice points."""

    def test_from_halfspaces_matches_from_generators(self):
        rng = random.Random(43)
        kinds = {"zero": 0, "non-sharp": 0, "lower-dimensional": 0, "full": 0}
        for _ in range(1200):
            n = rng.randint(1, 4)
            ineqs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 2 * n))]
            eqs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.choice([0, 0, 1, 2]))]
            cone = Cone.from_halfspaces(ineqs, eqs, n)
            constraints = ineqs + [s for e in eqs for s in (e, tuple(-x for x in e))]
            rays, lin = cones._halfspace_intersection(n, constraints)
            ref = Cone.from_generators(rays + lin + [tuple(-x for x in l) for l in lin], n)
            assert cone.rays == ref.rays, (ineqs, eqs)
            assert cone.lineality == ref.lineality, (ineqs, eqs)
            assert cone.facets == ref.facets, (ineqs, eqs)
            assert cone.equations == ref.equations, (ineqs, eqs)
            assert hash(cone) == hash(ref)
            kinds[_constraint_kind(cone)] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_intersect_and_preimage_membership_on_a_box(self):
        rng = random.Random(47)
        for _ in range(150):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            a, b = _random_cone(rng, n), _random_cone(rng, n)
            matrix = IntMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)], cols=m)
            meet, pre = a.intersect(b), a.preimage(matrix)
            for p in itertools.product(range(-2, 3), repeat=n):
                assert meet.contains_point(p) == (a.contains_point(p) and b.contains_point(p)), (a, b, p)
            for p in itertools.product(range(-2, 3), repeat=m):
                assert pre.contains_point(p) == a.contains_point(matrix.apply(p)), (a, matrix, p)


class TestChartCharacterSequence:
    def test_kernel_of_action_is_restriction_image(self):
        # the chart character L^v -> E(N/L) continues the restriction
        # N^v -> L^v exactly: its kernel is the image of the restriction
        rng = random.Random(33)
        for _ in range(8):
            fan = random_simplicial_km_fan(rng)
            for sigma in fan.cones:
                lp = local_presentation(fan, sigma)
                lifting = lp.lifting
                basis = lifting.lattice_basis()
                # restriction N^v -> L^v: transpose of the free part
                free = IntMatrix(
                    [basis.entries[i] for i in range(fan.group.free_rank)],
                    cols=basis.cols,
                )
                restrict = GroupHom(
                    FgaGroup(fan.group.free_rank),
                    FgaGroup(basis.cols),
                    free.transpose(),
                )
                assert image_subgroup(restrict) == kernel_subgroup(lp.action)

    def test_stabilizer_order_is_lifting_index(self):
        rng = random.Random(34)
        for _ in range(8):
            fan = random_simplicial_km_fan(rng)
            for sigma in fan.cones:
                lifting = construct_lifting(fan, sigma)
                q, _ = quotient(fan.group, lifting)
                lp = local_presentation(fan, sigma)
                assert lp.stabilizer.order() == q.order()


class TestCoarseChartEqualizer:
    def test_character_kernel_is_coarse_chart_monoid(self):
        # the submonoid of the chart monoid killed by the chart character is
        # exactly the chart monoid of the coarse fan, transported through the
        # dual of the lifting inclusion
        rng = random.Random(36)
        fans = [random_simplicial_km_fan(rng) for _ in range(5)]
        from conftest import build_p22, line_fan
        from kmfan.fans import dilate
        from kmfan.monoids import AffineMonoid, dual_monoid, kernel_submonoid

        fans += [build_p22(), dilate(line_fan(), 2)[0]]
        for fan in fans:
            n = fan.group
            for sigma in fan.cones:
                lp = local_presentation(fan, sigma)
                basis = lp.lifting.lattice_basis()
                fb = IntMatrix(
                    [basis.entries[i] for i in range(n.free_rank)], cols=basis.cols
                )
                rays_l = [
                    _rational_coords(fb, r) for r in sigma.rays
                ]
                chart = AffineMonoid(
                    Cone.from_generators(rays_l, basis.cols).dual()
                )
                killed = kernel_submonoid(chart, lp.action)
                coarse_chart = dual_monoid(sigma, n.free_rank)
                transported = [
                    tuple(fb.transpose().apply(h)) for h in coarse_chart.hilbert_basis()
                ]
                # both sides are sets of lattice points of cones, and both
                # generator lists generate their sets, so mutual set
                # membership of the generators proves equality
                from kmfan.intlinalg import solve_integer

                for gen in killed:
                    m = solve_integer(fb.transpose(), gen)
                    assert m is not None, (sigma, gen)
                    assert coarse_chart.cone.contains_point(m), (sigma, gen)
                for gen in transported:
                    assert chart.cone.contains_point(gen), (sigma, gen)
                    assert lp.action.apply(gen) == lp.stabilizer.zero(), (sigma, gen)


def _rational_coords(matrix, vector):
    from linalg_oracles import fraction_vector_to_primitive, solve_rational

    sol = solve_rational(matrix, [Fraction(x) for x in vector])
    assert sol is not None
    return fraction_vector_to_primitive(sol)


class TestUnfoldDegenerate:
    def test_zero_fan_over_lattice(self):
        fan = zero_fan(FgaGroup(2))
        unfolded, hom, unf = unfold(fan)
        assert unf.colimit.is_trivial()
        assert len(unfolded.cones) == 1
        from kmfan.fans import is_semi_tame

        assert is_semi_tame(hom)

    def test_zero_fan_over_torsion(self):
        fan = zero_fan(FgaGroup(0, (4,)))
        unfolded, hom, unf = unfold(fan)
        assert unf.colimit.is_trivial()
        from kmfan.fans import is_semi_tame, is_tame

        assert is_semi_tame(hom)
        # the cover is the point over a gerbe: group map 0 -> Z/4 is tame
        assert is_tame(hom)


class TestValidationFuzz:
    def test_random_fans_validate_and_corruptions_fail(self):
        rng = random.Random(35)
        for _ in range(10):
            fan = random_simplicial_km_fan(rng)
            assert fan.validate() == []
            rays = fan.ray_cones()
            if not rays or not fan.group.free_rank:
                continue
            # corrupt one ray datum by doubling it: face compatibility with
            # any larger cone must now fail (or the datum itself if isolated)
            victim = rng.choice(rays)
            data = dict(fan.data)
            doubled = [
                fan.group.reduce(tuple(2 * x for x in g))
                for g in data[victim].generators()
            ]
            data[victim] = LatticeDatum.from_generators(fan.group, doubled)
            corrupted = unchecked_fan(fan.group, fan.cones, data)
            problems = corrupted.validate()
            bigger = [c for c in fan.cones if c != victim and c.contains_cone(victim)]
            if bigger:
                assert any(p["kind"] == "incompatible-data" for p in problems)
            else:
                # the ray is maximal: doubling its datum still yields a fan
                assert problems == [] or all(
                    p["kind"] == "incompatible-data" for p in problems
                )

    @staticmethod
    def all_pairs_oracle(cone_list):
        """The geometric fan conditions with the pair check run over every
        pair of cones, the reference for the validator, which intersects
        maximal cones only: (non-sharp cones and missing faces, bad pairs)."""
        cone_set = set(cone_list)
        faults = [c for c in cone_list if not c.is_sharp()]
        faults += [f for c in cone_list for f in c.faces() if f not in cone_set]
        bad_pairs = []
        ordered = sorted(cone_set, key=lambda c: (c.dim(), c.rays))
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                meet = a if b.contains_cone(a) else a.intersect(b)
                if meet not in cone_set or not meet.is_face_of(a) or not meet.is_face_of(b):
                    bad_pairs.append((a, b))
        return faults, bad_pairs

    @staticmethod
    def random_maximal_cones(rng):
        """Maximal cones of a valid fan with at least one ray: a 2-D polygon
        fan or a set of octants of Z^3."""
        if rng.random() < 0.6:
            drawn = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
            vectors = {(1, 0)} | {primitive_vector(v) for v in drawn if any(v)}
            rays = sorted(vectors, key=lambda v: math.atan2(v[1], v[0]))
            pairs = zip(rays, rays[1:] + rays[:1]) if len(rays) > 2 else zip(rays, rays[1:])
            # consecutive rays less than a half turn apart span a cone
            out = [Cone.from_generators([u, v], 2) for u, v in pairs if u[0] * v[1] - u[1] * v[0] > 0]
            return out or [Cone.ray(rays[0])]
        octants = rng.sample(list(itertools.product((1, -1), repeat=3)), rng.randint(1, 8))
        return [Cone.from_generators([(x, 0, 0), (0, y, 0), (0, 0, z)], 3) for x, y, z in octants]

    def test_maximal_pair_check_agrees_with_all_pairs_oracle(self):
        rng = random.Random(53)
        outcomes = {"valid": 0, "pairs-only": 0, "other": 0}
        for _ in range(160):
            maximal = self.random_maximal_cones(rng)
            n = maximal[0].ambient_rank
            cone_list = {f for c in maximal for f in c.faces()}
            corruption = rng.choice(["none", "overlap", "dropped-face", "crossing-ray"])
            if corruption == "overlap":
                gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n))]
                cone_list |= set(Cone.from_generators(gens, n).faces())
            elif corruption == "dropped-face":
                proper = {f for c in maximal for f in c.faces() if f != c}
                cone_list.discard(rng.choice(sorted(proper, key=repr)))
            elif corruption == "crossing-ray":
                old = rng.choice(sorted({r for c in maximal for r in c.rays}))
                new = tuple(rng.randint(-3, 3) for _ in range(n))
                moved = [Cone.from_generators([new if r == old else r for r in c.rays], n) for c in maximal]
                cone_list = {f for c in moved for f in c.faces()}
            group = FgaGroup(n)
            data = {c: LatticeDatum.from_generators(group, c.span_lattice_basis().columns()) for c in cone_list}
            fan = unchecked_fan(group, cone_list, data)
            problems = fan.validate()
            faults, bad_pairs = self.all_pairs_oracle(list(cone_list))
            assert (problems == []) == (not faults and not bad_pairs), (corruption, fan.cones, problems)
            if bad_pairs and not faults:
                named = {
                    f"{a!r} and {b!r} do not intersect in a common face"
                    for a in fan.maximal_cones() for b in fan.maximal_cones()
                }
                assert all(p["kind"] == "bad-intersection" and p["detail"] in named for p in problems)
            if faults:
                assert all(p["kind"] != "bad-intersection" for p in problems)
            outcomes["other" if faults else "pairs-only" if bad_pairs else "valid"] += 1
        assert min(outcomes.values()) >= 25, outcomes
