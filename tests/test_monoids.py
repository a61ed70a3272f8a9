"""Affine monoids: Hilbert bases, faces, kernel submonoids, freeness."""

import itertools
import random
from fractions import Fraction
from math import floor

import pytest

from kmfan.abelian import FgaGroup, GroupHom, present_quotient
from kmfan.cones import Cone
from kmfan.errors import NotAFace, NotSharp
from kmfan.intlinalg import (
    IntMatrix,
    LinearSystem,
    is_saturated,
    saturate,
    smith_decomposition,
    solve_integer,
)
from kmfan.monoids import (
    AffineMonoid,
    _parallelepiped_points,
    _pulling_triangulation,
    dual_monoid,
    face_of_monoid,
    is_free_monoid,
    kernel_submonoid,
)
from linalg_oracles import solve_rational

QUAD = Cone.from_generators([(1, 0), (0, 1)], 2)


def brute_cone_points(cone, radius):
    return [
        p
        for p in itertools.product(range(-radius, radius + 1), repeat=cone.ambient_rank)
        if cone.contains_point(p)
    ]


def brute_irreducibles(cone, radius):
    pts = [p for p in brute_cone_points(cone, radius) if any(p)]
    ptset = set(pts)
    out = []
    for p in pts:
        if not any(
            tuple(a - b for a, b in zip(p, q)) in ptset and any(a - b for a, b in zip(p, q))
            for q in pts
        ):
            out.append(p)
    return sorted(out)


class TestDualMonoid:
    def test_quadrant(self):
        m = dual_monoid(QUAD, 2)
        assert sorted(m.hilbert_basis()) == [(0, 1), (1, 0)]

    def test_skew_cone(self):
        m = dual_monoid(Cone.from_generators([(1, 0), (1, 2)], 2), 2)
        assert sorted(m.hilbert_basis()) == [(0, 1), (1, 0), (2, -1)]

    def test_zero_cone_gives_units(self):
        m = dual_monoid(Cone.zero(1), 1)
        assert m.unit_basis == ((1,),)
        assert sorted(m.hilbert_basis()) == [(-1,), (1,)]


class TestHilbertBasis:
    def test_a1_singularity(self):
        m = AffineMonoid(Cone.from_generators([(2, -1), (0, 1)], 2))
        assert sorted(m.hilbert_basis()) == [(0, 1), (1, 0), (2, -1)]

    def test_contains_reads_the_cone(self):
        m = AffineMonoid(Cone.from_generators([(2, -1), (0, 1)], 2))
        points = [(1, 0), (2, -1), (0, 0), (2, -2), (-1, 0)]
        assert [m.contains(p) for p in points] == [True, True, True, False, False]

    def test_halfplane_units_split(self):
        m = AffineMonoid(Cone.from_generators([(1, 0), (0, 1), (0, -1)], 2))
        hb = m.hilbert_basis()
        assert (1, 0) in hb and (0, 1) in hb and (0, -1) in hb
        assert len(hb) == 3

    def test_matches_brute_force(self):
        rng = random.Random(12)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            cone = Cone.from_generators(gens, n)
            if not cone.is_sharp():
                continue
            checked += 1
            hb = AffineMonoid(cone).hilbert_basis()
            oracle = brute_irreducibles(cone, 6)
            in4 = lambda p: all(abs(x) <= 4 for x in p)
            assert {p for p in hb if in4(p)} == {p for p in oracle if in4(p)}
            # completeness: every sampled point decomposes over the basis
            for p in brute_cone_points(cone, 4):
                cur = p
                steps = 0
                while any(cur) and steps < 500:
                    for h in hb:
                        d = tuple(a - b for a, b in zip(cur, h))
                        if cone.contains_point(d):
                            cur = d
                            break
                    else:
                        break
                    steps += 1
                assert not any(cur), (gens, p, hb)

    def test_sharp_group_recovery(self):
        # for sharp sigma the dual monoid generates the full dual lattice
        from kmfan.intlinalg import hermite_column_basis, IntMatrix as IM

        rng = random.Random(13)
        checked = 0
        while checked < 20:
            n = rng.randint(1, 3)
            gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n))]
            cone = Cone.from_generators(gens, n)
            if not cone.is_sharp():
                continue
            checked += 1
            hb = dual_monoid(cone, n).hilbert_basis()
            lattice = hermite_column_basis(IM.from_columns(hb, rows=n))
            assert lattice == IM.identity(n)


class TestFaceOfMonoid:
    def test_face_at_ray(self):
        m = dual_monoid(QUAD, 2)
        f = face_of_monoid(m, Cone.ray((1, 0)))
        assert sorted(f.hilbert_basis()) == [(0, 1)]

    def test_face_at_zero_is_whole(self):
        m = dual_monoid(QUAD, 2)
        assert face_of_monoid(m, Cone.zero(2)) == m

    def test_face_at_top_is_units(self):
        m = dual_monoid(QUAD, 2)
        f = face_of_monoid(m, QUAD)
        assert f.cone.is_zero()

    def test_not_a_face_rejected(self):
        m = dual_monoid(QUAD, 2)
        with pytest.raises(NotAFace):
            face_of_monoid(m, Cone.ray((1, 1)))


class TestKernelSubmonoid:
    def test_doubling(self):
        m = AffineMonoid(Cone.from_generators([(1,)], 1))
        a = GroupHom(FgaGroup(1), FgaGroup(0, (2,)), IntMatrix([[1]]))
        assert kernel_submonoid(m, a) == [(2,)]

    def test_zero_character(self):
        m = AffineMonoid(Cone.from_generators([(1,)], 1))
        a = GroupHom.zero(FgaGroup(1), FgaGroup(0, (2,)))
        assert kernel_submonoid(m, a) == [(1,)]

    def test_zero_cone_of_the_zero_lattice(self):
        m = AffineMonoid(Cone.zero(0))
        assert kernel_submonoid(m, GroupHom.zero(FgaGroup(0), FgaGroup(0, (2,)))) == []

    def test_parity_on_quadrant(self):
        m = AffineMonoid(QUAD)
        a = GroupHom(FgaGroup(2), FgaGroup(0, (2,)), IntMatrix([[1, 1]]))
        assert sorted(kernel_submonoid(m, a)) == [(0, 2), (1, 1), (2, 0)]

    def test_generators_satisfy_contract(self):
        rng = random.Random(14)
        for _ in range(15):
            n = rng.randint(1, 2)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2)]
            cone = Cone.from_generators(gens, n)
            if not cone.is_sharp() or cone.is_zero():
                continue
            m = AffineMonoid(cone)
            t = m.gp_rank()
            e = FgaGroup(0, (rng.choice([2, 3, 4]),))
            a = GroupHom(
                FgaGroup(t), e,
                IntMatrix([[rng.randrange(e.torsion[0]) for _ in range(t)]]),
            )
            gens_q = kernel_submonoid(m, a)
            gp = m.gp_basis()
            order = e.order()
            from kmfan.intlinalg import solve_integer

            for g in gens_q:
                coords = solve_integer(gp, g)
                assert coords is not None
                assert a.apply(coords) == e.zero()
            # |E| . h lies in the generated submonoid for each basis element h
            qset = gens_q
            for h in m.hilbert_basis():
                target = tuple(order * x for x in h)
                assert _in_submonoid(target, qset, cone)


def _in_submonoid(target, gens, cone):
    seen = set()

    def search(t):
        if not any(t):
            return True
        if t in seen:
            return False
        seen.add(t)
        for g in gens:
            d = tuple(a - b for a, b in zip(t, g))
            if cone.contains_point(d) and search(d):
                return True
        return False

    return search(target)


class TestFreeness:
    def test_free_cases(self):
        assert is_free_monoid(AffineMonoid(QUAD))
        assert is_free_monoid(AffineMonoid(Cone.from_generators([(1,)], 1)))
        assert is_free_monoid(AffineMonoid(Cone.zero(2)))

    def test_singularity_not_free(self):
        assert not is_free_monoid(AffineMonoid(Cone.from_generators([(2, -1), (0, 1)], 2)))

    def test_not_sharp_rejected(self):
        with pytest.raises(NotSharp):
            is_free_monoid(AffineMonoid(Cone.full(1)))

    def test_matches_the_hilbert_basis_test(self):
        cones = seeded_sharp_cones(5151, 1000)
        verdicts = []
        for cone in cones:
            free = is_free_monoid(AffineMonoid(cone))
            assert free == is_free_by_hilbert_basis(AffineMonoid(cone)), cone
            verdicts.append(free)
        assert verdicts.count(True) >= 300 and verdicts.count(False) >= 300


def is_free_by_hilbert_basis(monoid):
    """Freeness read off the Hilbert basis: as many elements as the rank of
    the group, forming a basis of it.  The library's former body, kept as
    the oracle of is_free_monoid."""
    hb = monoid.hilbert_basis()
    t = monoid.gp_rank()
    if len(hb) != t:
        return False
    if t == 0:
        return True
    in_gp = LinearSystem(monoid.gp_basis())
    cols = [in_gp.integer(v) for v in hb]
    return None not in cols and is_saturated(IntMatrix._from_columns(cols, t))


def seeded_sharp_cones(seed, count):
    """Sharp cones in Z^1 .. Z^4 on one to n + 1 generators with entries in
    [-3, 3]: nearly all simplicial, about a third of them not free."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 1))]
        cone = Cone.from_generators(gens, n)
        if cone.is_sharp():
            out.append(cone)
    return out


def rational_parallelepiped_points(simplex, ambient):
    """The half-open parallelepiped's lattice points by the rational formula
    vs frac(vs^{-1} z), z = U^{-1} rep, in Fractions: the oracle for the
    integer computation."""
    vmat = IntMatrix.from_columns(simplex)
    span = saturate(vmat)
    vs = IntMatrix.from_columns([solve_integer(span, c) for c in vmat.columns()], span.cols)
    s = smith_decomposition(vs, transforms=("u_inv",))
    reps = [()]
    for di in s.diagonal():
        reps = [r + (t,) for r in reps for t in range(di)]
    points = []
    for rep in reps:
        t = solve_rational(vs, [Fraction(x) for x in s.u_inv.apply(rep)])
        frac = [x - floor(x) for x in t]
        inside = [sum(Fraction(e) * f for e, f in zip(row, frac)) for row in vs.entries]
        assert all(x.denominator == 1 for x in inside)
        points.append(span.apply([int(x) for x in inside]))
    return points


def seeded_saturated_lattices(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)], cols=k)
        out.append((saturate(m), n))
    return out


class TestIntegerSplitting:
    def test_complement_coordinates_kill_the_lattice(self):
        """For a saturated L, the quotient's projection and section are
        complement coordinates: coords L = 0 and coords comp = I, with
        L | comp unimodular."""
        for lattice, n in seeded_saturated_lattices(3131, 200):
            pres = present_quotient(n, lattice)
            assert pres.group == FgaGroup(n - lattice.cols)
            comp, coords = pres.section, pres.proj
            assert comp.rows == n and lattice.cols + comp.cols == n
            assert coords @ lattice == IntMatrix.zero(comp.cols, lattice.cols)
            assert coords @ comp == IntMatrix.identity(comp.cols)
            full = lattice.hstack(comp)
            assert all(d == 1 for d in smith_decomposition(full, transforms=()).diagonal())

    def test_parallelepiped_points_match_the_rational_formula(self):
        rng = random.Random(4141)
        checked = nontrivial = 0
        while checked < 150:
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            simplex = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
            vmat = IntMatrix.from_columns(simplex)
            if smith_decomposition(vmat, transforms=()).rank() != k:
                continue
            want = rational_parallelepiped_points(simplex, n)
            if len(want) > 400:
                continue
            assert sorted(_parallelepiped_points(simplex, n)) == sorted(want), simplex
            checked += 1
            nontrivial += len(want) > 1
        assert nontrivial >= 50


def seeded_cones(seed, count):
    """Cones in Z^1 .. Z^4 on zero to n + 2 generators with entries in
    [-3, 3], about a quarter with a line added: sharp and not,
    full-dimensional and lower-dimensional."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n + 2))]
        if rng.random() < 0.25:
            line = tuple(rng.randint(-2, 2) for _ in range(n))
            gens += [line, tuple(-x for x in line)]
        out.append(Cone.from_generators(gens, n))
    return out


def lattice_complement_by_smith(lattice, ambient):
    """(comp, coords) for a saturated lattice, from U L V = [I; 0]: comp is
    U^{-1} and coords is U past the rank.  The library's former
    cones._lattice_complement, kept as an oracle."""
    s = smith_decomposition(IntMatrix.from_columns(lattice, rows=ambient), transforms=("u", "u_inv"))
    rest = range(s.rank(), ambient)
    return s.u_inv.select_columns(rest), s.u.select_rows(rest)


def parallelepiped_points_by_smith(simplex, ambient):
    """The parallelepiped's lattice points from a saturation, the simplex in
    span coordinates and its Smith form: the library's former body."""
    vmat = IntMatrix.from_columns(simplex, rows=ambient)
    span = saturate(vmat)
    d = span.cols
    in_span = LinearSystem(span)
    vs = IntMatrix.from_columns([in_span.integer(col) for col in vmat.columns()], rows=d)
    s = smith_decomposition(vs, transforms=("v",))
    diag = s.diagonal()
    delta = diag[-1]
    reps = [()]
    for di in diag:
        reps = [r + (t * (delta // di),) for r in reps for t in range(di)]
    points = []
    for rep in reps:
        scaled = vs.apply([x % delta for x in s.v.apply(rep)])
        assert not any(x % delta for x in scaled)
        points.append(span.apply([x // delta for x in scaled]))
    return points


def sharp_hilbert_basis_by_dual_grading(cone):
    """The former reduction: graded by the sum of the dual cone's rays, each
    candidate tried against every kept element."""
    if not cone.rays:
        return []
    candidates = set(cone.rays)
    for simplex in _pulling_triangulation(cone):
        candidates.update(parallelepiped_points_by_smith(simplex, cone.ambient_rank))
    candidates.discard((0,) * cone.ambient_rank)
    dual = cone.dual()
    weight = tuple(sum(r[i] for r in dual.rays) for i in range(cone.ambient_rank))

    def grade(v):
        return sum(w * x for w, x in zip(weight, v))

    kept = []
    for v in sorted(candidates, key=lambda v: (grade(v), v)):
        if not any(
            any(a - b for a, b in zip(v, h)) and cone.contains_point(tuple(a - b for a, b in zip(v, h)))
            for h in kept
        ):
            kept.append(v)
    return kept


def hilbert_basis_by_smith(cone):
    """AffineMonoid.hilbert_basis as the library computed it before it read
    the echelon form, the facets and the quotient presentation."""
    units = list(cone.lineality)
    if not cone.rays:
        sharp = []
    elif units:
        comp, coords = lattice_complement_by_smith(units, cone.ambient_rank)
        image = Cone.from_generators([coords.apply(r) for r in cone.rays], coords.rows)
        sharp = [comp.apply(v) for v in sharp_hilbert_basis_by_dual_grading(image)]
    else:
        sharp = sharp_hilbert_basis_by_dual_grading(cone)
    out = sorted(sharp)
    for u in units:
        out += [u, tuple(-x for x in u)]
    return out


def face_of_monoid_by_intersection(monoid, tau):
    """The face as the intersection of the monoid's cone with tau^perp,
    by two double descriptions: the library's former body."""
    ortho = Cone.from_halfspaces([], list(tau.rays) + list(tau.lineality), monoid.ambient_lattice_rank)
    return AffineMonoid(monoid.cone.intersect(ortho))


class TestAgainstTheFormerBodies:
    def test_hilbert_bases_match(self):
        cones = seeded_cones(6161, 700)
        for cone in cones:
            assert AffineMonoid(cone).hilbert_basis() == hilbert_basis_by_smith(cone), cone
        assert sum(not c.is_sharp() for c in cones) >= 100
        assert sum(c.dim() < c.ambient_rank for c in cones) >= 100
        assert sum(len(hilbert_basis_by_smith(c)) > len(c.rays) + 2 * len(c.lineality) for c in cones) >= 100

    def test_faces_match(self):
        pairs = non_sharp = 0
        for primal in seeded_cones(7171, 500):
            monoid = dual_monoid(primal, primal.ambient_rank)
            for tau in primal.faces():
                face = face_of_monoid(monoid, tau)
                want = face_of_monoid_by_intersection(monoid, tau)
                assert face == want, (primal, tau)
                assert face.cone.rays == want.cone.rays and face.cone.lineality == want.cone.lineality
                pairs += 1
                non_sharp += not primal.is_sharp()
        assert pairs >= 2000 and non_sharp >= 50
