"""Shared builders for the test suite."""

import random

import pytest

from kmfan.abelian import FgaGroup, GroupHom, is_tame_hom
from kmfan.cones import Cone
from kmfan import fans
from kmfan.fans import KmFan, KmFanHom, LatticeDatum, from_classical, is_semi_tame, validate_hom
from kmfan.intlinalg import IntMatrix, primitive_vector

_trusted_make = KmFan._make
_trusted_hom_init = KmFanHom.__init__
_trusted_semi_tame = KmFanHom._semi_tame
_cone_faces = Cone.faces


@pytest.fixture(autouse=True, scope="session")
def trusted_construction_oracle():
    """Check every trusted construction against the validating paths: a fan
    built by KmFan._make must validate, both phases, on a copy that computes
    its own verdict (unchecked_fan), and the maximal cones handed over must
    be the cones that are no proper face of another, read off every face
    (maximal_cones_by_faces); the fan is then built with the verdict; a
    KmFanHom must carry the cone map that validate_hom derives for its
    group map, and one handed a semi-tame verdict (KmFanHom._semi_tame)
    must be judged semi-tame by is_semi_tame as a fresh morphism.  The
    guard keeps the KmFanHom built inside validate_hom from checking
    itself."""
    init = KmFanHom.__init__
    active = []

    def checked_make(group, cones, data, maximal):
        fan = unchecked_fan(group, cones, data)
        problems = fan.validate()
        assert problems == [], problems
        assert list(maximal) == maximal_cones_by_faces(fan.cones) == fan.maximal_cones(), maximal
        return _trusted_make(group, cones, data, maximal)

    def checked_init(self, source, target, hom, cone_images):
        init(self, source, target, hom, cone_images)
        if active:
            return
        active.append(self)
        try:
            derived = validate_hom(hom, source, target)
        finally:
            active.pop()
        assert isinstance(derived, KmFanHom), derived
        assert self.cone_images == derived.cone_images

    def checked_semi_tame(source, target, hom, cone_images):
        assert is_semi_tame(KmFanHom(source, target, hom, cone_images))
        return _trusted_semi_tame(source, target, hom, cone_images)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KmFan, "_make", staticmethod(checked_make))
        mp.setattr(KmFanHom, "__init__", checked_init)
        mp.setattr(KmFanHom, "_semi_tame", staticmethod(checked_semi_tame))
        yield


def unchecked_fan(group, cones, data) -> KmFan:
    """A KmFan that keeps the verdict of validation instead of raising it,
    for tests of validate() itself: its face index is filled with
    fans._verdict, the one place a fan's index holds violations."""
    cones = fans._canonical(cones)
    return fans._fill(object.__new__(KmFan), group, cones, dict(data), *fans._verdict(group, cones, data))


def maximal_cones_by_faces(cones) -> list:
    """The cones that are no proper face of another, from every face
    (Cone.faces as defined, unseen by a test's spy on it)."""
    proper = {f for c in cones for f in _cone_faces(c) if f != c}
    return [c for c in cones if c not in proper]


def without_construction_oracle(monkeypatch) -> None:
    """Turn trusted_construction_oracle off for the rest of one test, so that
    a count of a construction's calls leaves out those of the checks."""
    monkeypatch.setattr(KmFan, "_make", staticmethod(_trusted_make))
    monkeypatch.setattr(KmFanHom, "__init__", _trusted_hom_init)
    monkeypatch.setattr(KmFanHom, "_semi_tame", staticmethod(_trusted_semi_tame))


@pytest.fixture
def p22_fan():
    return build_p22()


def build_p22() -> KmFan:
    """The weighted-projective-line example: N = Z + Z/2, two rays, markings
    (1,1) and (-1,0)."""
    group = FgaGroup(1, (2,))
    zero = Cone.zero(1)
    plus = Cone.from_generators([(1,)], 1)
    minus = Cone.from_generators([(-1,)], 1)
    return KmFan(group, [zero, plus, minus], {
        zero: LatticeDatum.from_generators(group, []),
        plus: LatticeDatum.from_generators(group, [(1, 1)]),
        minus: LatticeDatum.from_generators(group, [(-1, 0)]),
    })


def build_p22_source():
    """The classical fan upstairs: cones {0}, R>=0 e1, R>=0 e2 in Z^2."""
    return from_classical(
        FgaGroup(2),
        [Cone.from_generators([(1, 0)], 2), Cone.from_generators([(0, 1)], 2)],
    )


def p22_hom_matrix() -> IntMatrix:
    return IntMatrix([[1, -1], [1, 0]])


def line_fan() -> KmFan:
    """A^1: cones {0} and R>=0 in Z."""
    return from_classical(FgaGroup(1), [Cone.from_generators([(1,)], 1)])


def projective_line_fan() -> KmFan:
    return from_classical(
        FgaGroup(1),
        [Cone.from_generators([(1,)], 1), Cone.from_generators([(-1,)], 1)],
    )


def plane_fan() -> KmFan:
    """A^2: the first quadrant and its faces in Z^2."""
    return from_classical(FgaGroup(2), [Cone.from_generators([(1, 0), (0, 1)], 2)])


def random_group(rng: random.Random, max_rank=3, max_order=8) -> FgaGroup:
    free = rng.randint(0, max_rank)
    torsion = []
    if rng.random() < 0.6:
        d = rng.randint(2, max_order)
        torsion.append(d)
        if rng.random() < 0.3 and 2 * d <= max_order:
            torsion.append(d * rng.randint(1, max_order // d))
    return FgaGroup(free, torsion)


def random_element_of_order_dividing(rng: random.Random, group: FgaGroup, order: int):
    """A random element x with order*x = 0."""
    coords = [0] * group.free_rank
    for d in group.torsion:
        step = d // __import__("math").gcd(d, order)
        coords.append(step * rng.randrange(0, d // step))
    return tuple(coords)


def random_hom(rng: random.Random, source: FgaGroup, target: FgaGroup) -> GroupHom:
    cols = []
    for _ in range(source.free_rank):
        cols.append(tuple(rng.randint(-3, 3) for _ in range(target.free_rank))
                    + tuple(rng.randrange(0, d) for d in target.torsion))
    for d in source.torsion:
        cols.append(random_element_of_order_dividing(rng, target, d))
    return GroupHom(source, target, IntMatrix.from_columns(cols, rows=target.ncoords))


def random_tame_homs(seed: int, count: int):
    """A mixed family of tame homomorphisms: generic, surjective-flavored,
    injective-flavored, and lattice-to-lattice."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        style = rng.randrange(4)
        if style == 0:
            src = random_group(rng)
            tgt = random_group(rng)
            f = random_hom(rng, src, tgt)
        elif style == 1:
            # quotient-like: surjection Z^n -> Z^k + torsion via a projection stack
            tgt = random_group(rng, max_rank=2)
            n = tgt.ncoords + rng.randint(0, 2)
            src = FgaGroup(n)
            cols = [random_element(rng, tgt) for _ in range(n)]
            f = GroupHom(src, tgt, IntMatrix.from_columns(cols, rows=tgt.ncoords))
        elif style == 2:
            # injective-flavored: multiply a lattice into itself or a bigger group
            r = rng.randint(1, 3)
            src = FgaGroup(r)
            tgt = FgaGroup(r, (rng.choice([2, 3, 4]),) if rng.random() < 0.5 else ())
            m = _random_nonsingular(rng, r)
            cols = [tuple(m.column(j)) + (0,) * len(tgt.torsion) for j in range(r)]
            f = GroupHom(src, tgt, IntMatrix.from_columns(cols, rows=tgt.ncoords))
        else:
            r = rng.randint(1, 3)
            src = FgaGroup(r)
            tgt = FgaGroup(r)
            f = GroupHom(src, tgt, _random_nonsingular(rng, r))
        if is_tame_hom(f):
            out.append(f)
    return out


def random_element(rng: random.Random, group: FgaGroup):
    return tuple(rng.randint(-3, 3) for _ in range(group.free_rank)) + tuple(
        rng.randrange(0, d) for d in group.torsion
    )


def _random_nonsingular(rng: random.Random, n: int) -> IntMatrix:
    from kmfan.intlinalg import rank as matrix_rank

    while True:
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if matrix_rank(m) == n:
            return m


def random_simplicial_km_fan(rng: random.Random) -> KmFan:
    """A random simplicial KM fan with random ray markings (possibly torsion).

    Families: complete rank-1 fans, single 2-dimensional cones, pairs of
    2-dimensional cones glued along a ray, and zero fans.
    """
    torsion = rng.choice([(), (), (2,), (4,), (2, 2)])
    style = rng.randrange(4)
    if style == 0:
        group = FgaGroup(1, torsion)
        cones = [Cone.from_generators([(1,)], 1), Cone.from_generators([(-1,)], 1)]
    elif style == 3:
        group = FgaGroup(rng.randint(0, 2), torsion)
        return KmFan(group, [Cone.zero(group.free_rank)], {
            Cone.zero(group.free_rank): LatticeDatum.from_generators(group, [])
        })
    else:
        group = FgaGroup(2, torsion)
        rays = _angular_rays(rng, 2 if style == 1 else 3)
        cones = [
            Cone.from_generators([rays[i], rays[i + 1]], 2) for i in range(len(rays) - 1)
        ]
    # face closure
    all_cones = set()
    for c in cones:
        all_cones.update(c.faces())
    # ray markings: a positive multiple of the primitive point plus torsion
    data = {}
    marking = {}
    for c in sorted(all_cones, key=lambda c: (c.dim(), c.rays)):
        if c.dim() == 0:
            data[c] = LatticeDatum.from_generators(group, [])
        elif c.dim() == 1:
            a = rng.choice([1, 1, 2, 3])
            prim = c.rays[0]
            tor = tuple(rng.randrange(0, d) for d in group.torsion)
            gen = tuple(a * x for x in prim) + tor
            marking[c] = gen
            data[c] = LatticeDatum.from_generators(group, [gen])
        else:
            gens = [marking[ray] for ray in all_cones
                    if ray.dim() == 1 and c.contains_cone(ray)]
            data[c] = LatticeDatum.from_generators(group, gens)
    return KmFan(group, all_cones, data)


def _angular_rays(rng: random.Random, count: int):
    """Distinct primitive rays in Z^2 sorted by angle within a halfplane."""
    from fractions import Fraction

    rays = set()
    while len(rays) < count:
        v = (rng.randint(1, 4), rng.randint(-4, 4))
        rays.add(primitive_vector(v))
    return sorted(rays, key=lambda v: Fraction(v[1], v[0]))
