"""The library's immutable values: every write from outside is refused, the
caches they keep hold their first value, a cone's kept hash is the hash of
its V-data, and the records the library returns are tuples that compare
and hash by value."""

import random

import pytest

from kmfan import intlinalg
from kmfan.abelian import FgaGroup, GroupHom, Subgroup, dd_of_hom, present_quotient
from kmfan.cones import Cone
from kmfan.fans import (
    KmFan,
    KmFanHom,
    LatticeDatum,
    _carried,
    _ray_images,
    is_tame,
    product,
    strata,
    validate_hom,
)
from kmfan.gsfans import GsFan
from kmfan.intlinalg import IntMatrix, smith_decomposition
from kmfan.monoids import AffineMonoid

from conftest import build_p22, line_fan, projective_line_fan, unchecked_fan
from test_cones import _generator_sets
from test_gsfans import square_cone_gsfan

SQUARE = Cone.from_generators([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], 3)


def _values():
    """One built value of each immutable class, through its public
    constructor and, where it has one, its trusted one."""
    fan, proj, _ = product(build_p22(), projective_line_fan())
    group = FgaGroup(1, (2,))
    return {
        "IntMatrix": IntMatrix([[1, 2], [3, 4]]),
        "IntMatrix._make": IntMatrix._make(((1, 2),), 2),
        "Cone": SQUARE,
        "FgaGroup": group,
        "GroupHom": GroupHom.identity(group),
        "Subgroup": Subgroup.from_generators(group, [(2, 1)]),
        "LatticeDatum": LatticeDatum.from_generators(group, [(1, 1)]),
        "KmFan": build_p22(),
        "KmFan._make": fan,
        "KmFanHom": proj,
        "GsFan": square_cone_gsfan(),
        "AffineMonoid": AffineMonoid(SQUARE),
    }


VALUES = _values()


def test_value_classes_share_one_base():
    assert {type(value) for value in VALUES.values()} == {
        IntMatrix, Cone, FgaGroup, GroupHom, Subgroup, LatticeDatum, KmFan, KmFanHom, GsFan, AffineMonoid}
    for value in VALUES.values():
        assert isinstance(value, intlinalg._Value)
        assert "__setattr__" not in vars(type(value)) and "__delattr__" not in vars(type(value))


@pytest.mark.parametrize("name", sorted(VALUES))
def test_writes_from_outside_raise(name):
    """Setting or deleting any slot, or adding or deleting an attribute,
    raises AttributeError after construction and leaves the value as it
    was."""
    value = VALUES[name]
    slots = type(value).__slots__
    before = {slot: getattr(value, slot) for slot in slots}
    for slot in slots:
        with pytest.raises(AttributeError):
            setattr(value, slot, None)
        with pytest.raises(AttributeError):
            delattr(value, slot)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        del value.extra
    assert {slot: getattr(value, slot) for slot in slots} == before
    assert not hasattr(value, "extra")


def test_caches_keep_their_first_value():
    """Each cache, once filled, is the same object through later reads,
    refused writes and the reads that fill the caches beside it."""
    cone = Cone.from_generators(SQUARE.rays, 3)  # a fresh cone, not SQUARE
    cone.facets, cone.faces(), cone.dim(), cone.span_lattice_basis()
    first = {slot: getattr(cone, slot) for slot in ("_hash", "_h", "_dim", "_span")}
    assert None not in first.values()
    for _ in range(2):
        hash(cone), cone.equations, cone.facet_cones(), cone.contains_point((0, 0, 1))
        cone.faces(), cone.dim(), cone.span_lattice_basis()
        for slot in first:
            with pytest.raises(AttributeError):
                setattr(cone, slot, None)
    assert all(getattr(cone, slot) is value for slot, value in first.items() if slot != "_hash")
    assert cone._hash == first["_hash"]

    group = FgaGroup(2, (2,))
    datum = LatticeDatum.from_generators(group, [(1, 0, 1), (0, 2, 0)])
    basis = datum.basis()
    datum.coordinates((1, 2, 1)), datum.coordinate_matrix([(2, 0, 0)]), datum.generators()
    assert datum.basis() is basis and datum._basis is basis

    sub = datum.subgroup
    sub.contains((1, 0, 1))
    system = sub._system
    assert system is not None
    sub.contains((1, 1, 1)), sub.contains_subgroup(sub), datum.coordinates((0, 2, 0))
    assert sub._system is system

    fan = build_p22()  # validated: the verdict is in the face index
    index = fan._index
    fan.validate(), fan.maximal_cones(), fan.validate()
    assert fan._index is index and index[1] == ()
    trusted = KmFan._make(fan.group, fan.cones, fan.data, fan.maximal_cones())  # verdict handed over
    verdict = trusted._index
    assert verdict == index and verdict[1] == ()
    trusted.validate(), trusted.maximal_cones()
    assert trusted._index is verdict
    plus = fan.ray_cones()[0]
    invalid = unchecked_fan(fan.group, fan.cones, {**fan.data, plus: LatticeDatum.from_generators(fan.group, [])})
    verdict = invalid._index
    assert verdict[0] == index[0] and verdict[1]
    invalid.validate(), invalid.maximal_cones()
    assert invalid._index is verdict

    _, proj, _ = product(projective_line_fan(), projective_line_fan())
    f = KmFanHom(proj.source, proj.target, proj.hom, proj.cone_images)
    assert f._tame is None
    tame = is_tame(f)
    verdict = f._tame
    assert is_tame(f) == tame and f._tame is verdict


def test_cone_hash_is_that_of_its_v_data():
    """hash(c) is hash((ambient rank, rays, lineality)) for the cones of every
    way the library builds one."""
    rng = random.Random(5151)
    built = {name: [] for name in ("from_generators", "from_halfspaces", "faces",
                                   "facet_cones", "_face", "product", "_carried")}
    for r, gens in _generator_sets(5151, 90):
        cone = Cone.from_generators(gens, r)
        built["from_generators"].append(cone)
        built["from_halfspaces"].append(Cone.from_halfspaces(cone.facets, cone.equations, r))
        built["faces"] += cone.faces()
        built["facet_cones"] += cone.facet_cones()
        built["_face"] += [cone._face(rng.sample(cone.facets, k)) for k in range(min(2, len(cone.facets)) + 1)]
    fan, _, _ = product(product(build_p22(), projective_line_fan())[0], projective_line_fan())
    built["product"] += fan.cones
    m = IntMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])  # invertible over Q
    built["_carried"] += _carried(fan.cones, _ray_images(m, fan), 3).values()
    for name, cones in built.items():
        assert cones, name
        for c in cones:
            assert hash(c) == hash((c.ambient_rank, c.rays, c.lineality)), (name, c)


def _records():
    """Each record the library returns, built twice from equal inputs."""
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    group = FgaGroup(1, (2,))
    tame = GroupHom(FgaGroup(2), group, IntMatrix([[1, 1], [1, 0]]))
    a1 = line_fan()
    flip = GroupHom(a1.group, a1.group, IntMatrix([[-1]]))
    return {
        "SmithDecomposition": lambda: smith_decomposition(IntMatrix(m)),
        "QuotientPresentation": lambda: present_quotient(3, IntMatrix(m)),
        "DerivedDual": lambda: dd_of_hom(tame),
        "HomRefusal": lambda: validate_hom(flip, a1, a1),
        "StratumInfo": lambda: strata(build_p22())[1],
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_values(name):
    """A record is a named tuple: setting or deleting a field raises, and
    two records with equal fields, built apart, are equal and hash equal."""
    first, second = RECORDS[name](), RECORDS[name]()
    assert type(first).__name__ == name and isinstance(first, tuple)
    assert first is not second and first == second and hash(first) == hash(second)
    for field in type(first)._fields:
        with pytest.raises(AttributeError):
            setattr(first, field, None)
        with pytest.raises(AttributeError):
            delattr(first, field)
    with pytest.raises(AttributeError):
        first.extra = 1
    assert first == second
