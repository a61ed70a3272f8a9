"""KM fans: validation, constructions, morphisms, invariants."""

import collections
import itertools
import json
import math
import pathlib
import random
import re
import sys
import time

import pytest

from kmfan.abelian import (
    FgaGroup,
    GroupHom,
    Subgroup,
    _quotient_presentation,
    is_isomorphism,
    kernel_subgroup,
    present_quotient,
    quotient,
)
from kmfan.cones import Cone, _separating_facet
from kmfan.errors import (
    ConeNotInFan,
    DimensionMismatch,
    InfiniteCokernel,
    InvalidFan,
    KmFanError,
    NotSimplicial,
    NotSmooth,
    NotTame,
    PreconditionsFail,
    TorsionAmbient,
)
from kmfan.fans import (
    HomRefusal,
    KmFan,
    KmFanHom,
    LatticeDatum,
    atoroidal_split,
    canonical_resolution,
    coarse_fan,
    compatible_lifting,
    cone_monoid,
    construct_lifting,
    contract,
    dilate,
    fan_from_monoids,
    from_classical,
    fundamental_group,
    has_reduced_fibers,
    inflate,
    is_atoroidal,
    is_classical,
    is_equidimensional,
    is_nondegenerate,
    is_proper,
    is_representable,
    is_semi_tame,
    is_simplicial,
    is_smooth,
    is_tame,
    isotropy,
    lifting_violations,
    local_presentation,
    monoid_presentation,
    product,
    rigidify,
    roots,
    star,
    strata,
    support_contains,
    torsor_group,
    validate_hom,
    zero_fan,
    zero_fan_unit,
)
from kmfan import abelian, intlinalg
from kmfan import cli as cli_module
from kmfan import cones as cones_module
from kmfan import fans as fans_module
from kmfan import gsfans as gsfans_module
from kmfan.fans import _certified_complete_simplicial, _cone_phase
from kmfan.gsfans import GsFan, fold, rigidified_unfold, unfold
from kmfan.monoids import AffineMonoid, is_free_monoid
from kmfan.intlinalg import (
    IntMatrix,
    LinearSystem,
    _dot,
    hermite_column_basis,
    is_saturated,
    kernel_basis,
    primitive_vector,
    rank as matrix_rank,
    saturate,
)

import carry_oracle
import test_properties
from test_gsfans import (
    polygon_fan,
    random_foldable_gsfan,
    random_polygon_km_fan,
    seeded_lattice_fans,
    square_cone_gsfan,
)
from test_monoids import _in_submonoid
from conftest import (
    build_p22,
    build_p22_source,
    line_fan,
    maximal_cones_by_faces,
    p22_hom_matrix,
    plane_fan,
    projective_line_fan,
    random_group,
    random_hom,
    random_simplicial_km_fan,
    unchecked_fan,
    without_construction_oracle,
)

Z = FgaGroup(1)
Z2 = FgaGroup(2)
Z3 = FgaGroup(3)
N22 = FgaGroup(1, (2,))


def p22_morphism() -> KmFanHom:
    hom = validate_hom(
        GroupHom(Z2, N22, p22_hom_matrix()), build_p22_source(), build_p22()
    )
    assert isinstance(hom, KmFanHom)
    return hom


def point_fan() -> KmFan:
    return zero_fan(FgaGroup(0))


def to_point(fan: KmFan) -> KmFanHom:
    hom = validate_hom(
        GroupHom(fan.group, FgaGroup(0), IntMatrix.zero(0, fan.group.ncoords)),
        fan,
        point_fan(),
    )
    assert isinstance(hom, KmFanHom)
    return hom


class TestValidation:
    def test_p22_is_valid(self, p22_fan):
        assert p22_fan.validate() == []

    def test_dependent_datum_rejected(self):
        plus = Cone.from_generators([(1,)], 1)
        with pytest.raises(InvalidFan) as err:
            KmFan(N22, [Cone.zero(1), plus], {
                Cone.zero(1): LatticeDatum.from_generators(N22, []),
                plus: LatticeDatum.from_generators(N22, [(1, 1), (0, 1)]),
            })
        assert any(v["kind"] == "invalid-datum" for v in err.value.violations)

    def test_interior_overlap_rejected(self):
        c1 = Cone.from_generators([(1, 0), (0, 1)], 2)
        c2 = Cone.from_generators([(1, 1), (-1, 1)], 2)
        cones = set(c1.faces()) | set(c2.faces())
        data = {
            c: LatticeDatum.from_generators(Z2, c.span_lattice_basis().columns())
            for c in cones
        }
        with pytest.raises(InvalidFan) as err:
            KmFan(Z2, cones, data)
        assert any(v["kind"] == "bad-intersection" for v in err.value.violations)

    def test_missing_face_reported(self):
        plus = Cone.from_generators([(1,)], 1)
        fan = unchecked_fan(Z, [plus], {plus: LatticeDatum.from_generators(Z, [(1,)])})
        assert any(v["kind"] == "missing-face" for v in fan.validate())

    def test_missing_datum_reported(self):
        plus = Cone.from_generators([(1,)], 1)
        with pytest.raises(InvalidFan) as err:
            KmFan(Z, [Cone.zero(1), plus], {Cone.zero(1): LatticeDatum.from_generators(Z, [])})
        assert err.value.violations == [{"kind": "missing-datum", "detail": f"no lattice datum for {plus!r}"}]

    def test_datum_in_another_group_reported(self):
        plus = Cone.from_generators([(1,)], 1)
        with pytest.raises(InvalidFan) as err:
            KmFan(Z, [Cone.zero(1), plus], {
                Cone.zero(1): LatticeDatum.from_generators(Z, []),
                plus: LatticeDatum.from_generators(N22, [(1, 0)]),
            })
        assert [v["kind"] for v in err.value.violations] == ["wrong-datum-group"]

    def test_classical_overlap_rejected(self):
        with pytest.raises(InvalidFan) as err:
            from_classical(Z2, [Cone.from_generators([(1, 0), (1, 2)], 2), Cone.from_generators([(1, 1), (0, 1)], 2)])
        assert [v["kind"] for v in err.value.violations] == ["bad-intersection"]

    def test_data_of_other_cones_are_dropped(self):
        """A datum handed over for a cone outside the fan is not kept: the
        fan answers for its own cones only."""
        plus, minus = Cone.from_generators([(1,)], 1), Cone.from_generators([(-1,)], 1)
        data = {c: LatticeDatum.from_generators(Z, c.rays) for c in (Cone.zero(1), plus, minus)}
        fan = KmFan(Z, [Cone.zero(1), plus], data)
        assert set(fan.data) == set(fan.cones) == {Cone.zero(1), plus}
        for ask in (fan.datum, lambda c: isotropy(fan, c), lambda c: star(fan, c)):
            with pytest.raises(ConeNotInFan):
                ask(minus)


class TestClassical:
    def test_line_fan_is_classical(self):
        fan = line_fan()
        assert is_classical(fan)
        assert fan.validate() == []

    def test_p22_not_classical(self, p22_fan):
        assert not is_classical(p22_fan)

    def test_unsaturated_datum_not_classical(self):
        plus = Cone.from_generators([(1,)], 1)
        fan, _ = dilate(line_fan(), 2)
        assert not is_classical(fan)

    def test_torsion_ambient_rejected(self):
        with pytest.raises(TorsionAmbient):
            from_classical(N22, [Cone.from_generators([(1,)], 1)])

    def test_face_closure_enumerates_uncovered_cones_only(self, monkeypatch):
        """Given a cone with all its faces, in any order, from_classical
        builds the fan of the cone alone, and enumerates the faces of the
        cone only: every other given cone is in the closure by then."""
        rng = random.Random(7171)
        for cone in (
            Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
            Cone.from_generators([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], 3),
        ):
            expected = from_classical(FgaGroup(3), [cone])
            given = cone.faces()
            rng.shuffle(given)
            calls = []
            real = Cone.faces
            monkeypatch.setattr(Cone, "faces", lambda c: calls.append(c) or real(c))
            fan = from_classical(FgaGroup(3), given)
            monkeypatch.undo()
            assert fan == expected
            assert calls == [cone]

    def test_maximal_cones_decide_as_all_cones_do(self):
        """is_classical reads the maximal cones only; on valid fans that is
        the all-cones reading, every datum saturated in a lattice.  Seeded
        simplicial fans (some over torsion), their rigidifications, some of
        them times P^1, and dilations of classical fans, whose every
        datum but the zero cone's is unsaturated."""
        rng = random.Random(6161)
        p1 = projective_line_fan()
        readings = collections.Counter()
        for i in range(240):
            fan = random_simplicial_km_fan(rng)
            if i % 2:
                fan, _ = rigidify(fan)
            if i % 3 == 0:
                fan = product(fan, p1)[0]
            for case in (fan, dilate(fan, 2)[0]) if is_classical(fan) else (fan,):
                everywhere = case.group.is_lattice() and all(
                    is_saturated(case.data[c].basis()) for c in case.cones
                )
                assert is_classical(case) == everywhere, (i, case.cones)
                readings[everywhere, bool(case.group.torsion)] += 1
        assert readings[True, False] >= 30
        assert readings[False, False] >= 30
        assert readings[False, True] >= 30


class TestCoarseAndRigidify:
    def test_p22_coarse_is_p1(self, p22_fan):
        coarse, pi = coarse_fan(p22_fan)
        assert coarse == projective_line_fan()
        assert isinstance(pi, KmFanHom)

    def test_classical_coarse_is_identity(self):
        fan = plane_fan()
        coarse, _ = coarse_fan(fan)
        assert coarse == fan

    def test_zero_fan_coarse(self):
        coarse, _ = coarse_fan(zero_fan(FgaGroup(1, (2,))))
        assert coarse == zero_fan(Z)

    def test_p22_rigidify_is_p1(self, p22_fan):
        rig, q = rigidify(p22_fan)
        assert rig == projective_line_fan()
        assert is_semi_tame(q)
        assert not is_tame(q)

    def test_rigidify_idempotent_and_coarse_agree(self, p22_fan):
        rig, _ = rigidify(p22_fan)
        assert rigidify(rig)[0] == rig
        assert coarse_fan(p22_fan)[0] == coarse_fan(rig)[0]

    def test_rigidify_zero_torsion_fan(self):
        rig, _ = rigidify(zero_fan(FgaGroup(0, (2,))))
        assert rig == point_fan()

    def test_maps_to_lattice_fans_factor(self, p22_fan):
        # initiality: the coarse map factors through the rigidification
        rig, q = rigidify(p22_fan)
        coarse, pi = coarse_fan(p22_fan)
        factor = validate_hom(
            GroupHom(rig.group, coarse.group, IntMatrix.identity(1)), rig, coarse
        )
        assert isinstance(factor, KmFanHom)
        assert q.then(factor).hom == pi.hom


class TestZeroFan:
    def test_unit_map(self, p22_fan):
        unit = zero_fan_unit(p22_fan)
        assert unit.source == zero_fan(N22)

    def test_terminal_point(self):
        assert zero_fan(FgaGroup(0)).cones[0].ambient_rank == 0

    def test_torsion_zero_fan_isotropy(self):
        fan = zero_fan(FgaGroup(0, (2,)))
        assert isotropy(fan, fan.cones[0]) == FgaGroup(0, (2,))


class TestRootsDilationInflation:
    def test_roots_of_line(self):
        rooted, hom = roots(line_fan(), [2])
        ray = Cone.from_generators([(1,)], 1)
        assert rooted.data[ray].generators() == [(2,)]
        assert is_smooth(rooted)

    def test_all_ones_is_identity(self):
        fan = plane_fan()
        rooted, _ = roots(fan, [1, 1])
        assert rooted == fan

    def test_plane_roots(self):
        # rays come in canonical order: the (0,1) ray precedes the (1,0) ray
        rooted, _ = roots(plane_fan(), [3, 2])
        quad = Cone.from_generators([(1, 0), (0, 1)], 2)
        gens = rooted.data[quad].generators()
        assert sorted(gens) == [(0, 3), (2, 0)]

    def test_roots_requires_smooth(self):
        fan = from_classical(Z2, [Cone.from_generators([(1, 0), (1, 2)], 2)])
        with pytest.raises(NotSmooth):
            roots(fan, [1, 1])

    def test_dilation_equals_roots_on_line(self):
        assert dilate(line_fan(), 2)[0] == roots(line_fan(), [2])[0]

    def test_inflation_is_tame_with_expected_torsor(self):
        # index-two inclusion Z -> Z given by multiplication by 2 regarded
        # backwards: inflate along x2 means N' contains N with index 2
        inc = GroupHom(Z, Z, IntMatrix([[2]]))
        inflated, hom = inflate(line_fan(), inc)
        assert is_tame(hom)
        assert torsor_group(hom) == FgaGroup(0, (2,))

    def test_contract_by_identity(self):
        fan = line_fan()
        contracted, hom = contract(fan, GroupHom.identity(Z))
        assert contracted == fan

    def test_contract_intersects_data(self):
        contracted, hom = contract(line_fan(), GroupHom(Z, Z, IntMatrix([[2]])))
        ray = Cone.from_generators([(1,)], 1)
        # N' = 2Z inside Z; in N' coordinates the datum Z cap N' is generated
        # by the primitive vector, so the contraction is again classical
        assert contracted.data[ray].generators() == [(1,)]
        assert is_classical(contracted)

    def test_infinite_index_inclusions_rejected(self):
        from kmfan.errors import NotFiniteIndex

        fan = plane_fan()
        embed = GroupHom(Z, Z2, IntMatrix([[1], [0]]))
        with pytest.raises(NotFiniteIndex):
            inflate(line_fan(), embed)
        with pytest.raises(NotFiniteIndex):
            contract(fan, embed)
        collapse = GroupHom(Z2, Z2, IntMatrix([[1, 0], [0, 0]]))
        with pytest.raises(NotFiniteIndex):
            inflate(plane_fan(), collapse)


class TestCanonicalResolution:
    def test_smooth_fan_is_unchanged(self):
        fan = plane_fan()
        assert canonical_resolution(fan)[0] == fan

    def test_a1_singularity_resolves(self):
        cone = Cone.from_generators([(1, 0), (1, 2)], 2)
        fan = from_classical(Z2, [cone])
        resolved, _ = canonical_resolution(fan)
        assert is_smooth(resolved)
        assert resolved.data[cone].subgroup == Subgroup.from_generators(
            Z2, [(1, 0), (1, 2)]
        )

    def test_smooth_fans_resolve_as_roots_of_order_one(self):
        """On a smooth fan the resolution is roots with every order 1: the
        same fan and the same identity map."""
        for fan in (line_fan(), plane_fan(), roots(plane_fan(), [3, 2])[0], dilate(line_fan(), 2)[0]):
            resolved, hom = canonical_resolution(fan)
            rooted, rooted_hom = roots(fan, [1] * len(fan.ray_cones()))
            assert resolved == rooted
            assert (hom.source, hom.target, hom.hom, hom.cone_images) == (
                rooted_hom.source, rooted_hom.target, rooted_hom.hom, rooted_hom.cone_images)

    def test_non_simplicial_rejected(self):
        cone = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
        fan = from_classical(FgaGroup(3), [cone])
        with pytest.raises(NotSimplicial):
            canonical_resolution(fan)


class TestStar:
    def test_star_at_zero_is_identity(self, p22_fan):
        assert star(p22_fan, p22_fan.zero_cone()) == p22_fan

    def test_star_of_plane_at_ray(self):
        fan = plane_fan()
        st = star(fan, Cone.from_generators([(1, 0)], 2))
        assert st.group == Z
        assert len(st.cones) == 2

    def test_star_of_p22_at_max_is_gerbe_point(self, p22_fan):
        st = star(p22_fan, Cone.from_generators([(1,)], 1))
        assert st.group == FgaGroup(0, (2,))
        assert len(st.cones) == 1

    def test_star_of_max_cone_has_only_zero(self):
        fan = plane_fan()
        st = star(fan, Cone.from_generators([(1, 0), (0, 1)], 2))
        assert [c.dim() for c in st.cones] == [0]

    def test_cone_not_in_fan(self, p22_fan):
        with pytest.raises(ConeNotInFan):
            star(p22_fan, Cone.from_generators([(1, 1)], 2))


class TestStrata:
    def test_line_fan(self):
        ss = strata(line_fan())
        assert [(s.torus_rank, s.isotropy.is_trivial()) for s in ss] == [(1, True), (0, True)]

    def test_p22(self, p22_fan):
        ss = strata(p22_fan)
        assert [s.torus_rank for s in ss] == [1, 0, 0]
        assert all(s.isotropy == FgaGroup(0, (2,)) for s in ss)
        assert all(s.band == FgaGroup(0, (2,)) for s in ss)

    def test_zero_fan_z4(self):
        ss = strata(zero_fan(FgaGroup(0, (4,))))
        assert len(ss) == 1
        assert ss[0].torus_rank == 0
        assert ss[0].isotropy == FgaGroup(0, (4,))


class TestIsotropy:
    def test_classical_trivial(self):
        fan = plane_fan()
        for c in fan.cones:
            assert isotropy(fan, c).is_trivial()

    def test_p22_values(self, p22_fan):
        for c in p22_fan.cones:
            assert isotropy(p22_fan, c) == FgaGroup(0, (2,))


class TestFundamentalGroup:
    def test_torus(self):
        assert fundamental_group(zero_fan(Z)) == Z

    def test_affine_line(self):
        assert fundamental_group(line_fan()).is_trivial()

    def test_p22(self, p22_fan):
        assert fundamental_group(p22_fan).is_trivial()


class TestProductAndSplitting:
    def test_product_of_lines_is_plane(self):
        prod, _, _ = product(line_fan(), line_fan())
        assert prod == plane_fan()

    def test_product_with_point(self, p22_fan):
        prod, _, _ = product(p22_fan, point_fan())
        assert prod == p22_fan

    def test_support_of_product(self):
        rng = random.Random(15)
        for _ in range(10):
            a = random_simplicial_km_fan(rng)
            b = random_simplicial_km_fan(rng)
            prod, p1, p2 = product(a, b)
            for _ in range(10):
                x = tuple(rng.randint(-3, 3) for _ in range(a.group.free_rank)) + tuple(
                    rng.randrange(d) for d in a.group.torsion
                )
                y = tuple(rng.randint(-3, 3) for _ in range(b.group.free_rank)) + tuple(
                    rng.randrange(d) for d in b.group.torsion
                )
                # assemble the product element through the inclusions
                from kmfan.abelian import direct_sum

                grp, i1, i2, _, _ = direct_sum(a.group, b.group)
                assert grp == prod.group
                xy = grp.reduce(
                    tuple(p + q for p, q in zip(i1.apply(x), i2.apply(y)))
                )
                assert support_contains(prod, xy) == (
                    support_contains(a, x) and support_contains(b, y)
                )

    def test_split_single_ray(self):
        fan = from_classical(Z2, [Cone.from_generators([(1, 0)], 2)])
        g, b, iso = atoroidal_split(fan)
        assert b == Z
        assert g.group == Z
        assert is_atoroidal(g)
        assert is_isomorphism(iso.hom)

    def test_split_complete_fan_has_no_torus(self, p22_fan):
        g, b, _ = atoroidal_split(p22_fan)
        assert b.is_trivial()

    def test_split_zero_fan(self):
        g, b, _ = atoroidal_split(zero_fan(Z2))
        assert b == Z2
        assert g.group.is_trivial()

    def test_product_pairing(self):
        # two maps out of a common fan pair into the product
        from kmfan.fans import _matrix_add

        line = line_fan()
        prod, p1, p2 = product(line, line)
        diag_matrix = IntMatrix([[1], [1]])
        pairing = validate_hom(GroupHom(Z, prod.group, diag_matrix), line, prod)
        assert isinstance(pairing, KmFanHom)
        assert pairing.then(p1).hom == GroupHom.identity(Z)
        assert pairing.then(p2).hom == GroupHom.identity(Z)


class TestSupport:
    def test_p22_values(self, p22_fan):
        assert support_contains(p22_fan, (1, 1))
        assert not support_contains(p22_fan, (1, 0))
        assert support_contains(p22_fan, (0, 0))
        assert not support_contains(p22_fan, (0, 1))

    def test_zero_always_in_support(self):
        rng = random.Random(16)
        for _ in range(5):
            fan = random_simplicial_km_fan(rng)
            assert support_contains(fan, fan.group.zero())

    def test_torsion_not_in_zero_fan_support(self):
        # the fine support of a zero fan is the zero lattice datum alone
        gerbe = zero_fan(FgaGroup(0, (2,)))
        assert support_contains(gerbe, (0,))
        assert not support_contains(gerbe, (1,))

    def test_classical_fine_equals_coarse(self):
        from kmfan.fans import coarse_support_contains

        fan = plane_fan()
        rng = random.Random(17)
        for _ in range(30):
            p = (rng.randint(-4, 4), rng.randint(-4, 4))
            assert support_contains(fan, p) == coarse_support_contains(fan, p)

    def test_coarse_support_reads_the_maximal_cones(self, monkeypatch):
        """coarse_support_contains against a scan of every cone, on seeded
        fans, most of them not complete, at points inside maximal cones, on
        walls (relative interiors of the other cones of positive dimension)
        and outside the support; it tests a point against maximal cones
        only."""
        from kmfan.fans import coarse_support_contains

        rng = random.Random(1919)
        fans = [random_simplicial_km_fan(rng) for _ in range(60)] + list(seeded_lattice_fans(60))
        calls = []
        real = Cone.contains_point
        monkeypatch.setattr(Cone, "contains_point", lambda c, p: calls.append(c) or real(c, p))
        kinds = collections.Counter()
        for fan in fans:
            maximal = set(fan.maximal_cones())
            points = [(c.relative_interior_point(), "inside" if c in maximal else "wall")
                      for c in fan.cones if c.dim()]
            points += [(tuple(rng.randint(-6, 6) for _ in range(fan.group.free_rank)), "random")
                       for _ in range(6)]
            points += [(tuple(-x for x in p), "mirrored") for p, _ in points[:4]]
            for p, kind in points:
                want = any(real(c, p) for c in fan.cones)
                calls.clear()
                assert coarse_support_contains(fan, p) == want, (fan, p)
                assert set(calls) <= maximal
                kinds[kind if want else "outside"] += 1
        assert kinds["inside"] >= 100 and kinds["wall"] >= 100 and kinds["outside"] >= 100, kinds

    def test_extension_equivalence(self):
        # n is in the fine support iff Z -> N, 1 -> n, maps the affine-line
        # fan into F
        rng = random.Random(18)
        fan_count = 0
        while fan_count < 8:
            fan = random_simplicial_km_fan(rng)
            fan_count += 1
            for _ in range(25):
                n = tuple(rng.randint(-4, 4) for _ in range(fan.group.free_rank)) + tuple(
                    rng.randrange(d) for d in fan.group.torsion
                )
                hom = GroupHom(
                    Z, fan.group, IntMatrix.from_columns([n], rows=fan.group.ncoords)
                )
                verdict = validate_hom(hom, line_fan(), fan)
                assert support_contains(fan, n) == isinstance(verdict, KmFanHom)


class TestLiftings:
    def test_p22_lifting_is_datum(self, p22_fan):
        plus = Cone.from_generators([(1,)], 1)
        lift = construct_lifting(p22_fan, plus)
        assert lift == p22_fan.data[plus].subgroup
        q, _ = quotient(N22, lift)
        assert q == FgaGroup(0, (2,))

    def test_classical_lifting(self):
        fan = plane_fan()
        quad = Cone.from_generators([(1, 0), (0, 1)], 2)
        lift = construct_lifting(fan, quad)
        assert lifting_violations(fan, quad, lift) == []

    def test_full_span_dilated(self):
        fan, _ = dilate(line_fan(), 2)
        ray = Cone.from_generators([(1,)], 1)
        lift = construct_lifting(fan, ray)
        assert lift == Subgroup.from_generators(Z, [(2,)])

    def test_torsion_isomorphism_property(self, p22_fan):
        # N/F_sigma -> N/L is an isomorphism on torsion subgroups
        rng = random.Random(19)
        for _ in range(6):
            fan = random_simplicial_km_fan(rng)
            for sigma in fan.cones:
                lift = construct_lifting(fan, sigma)
                qf, _ = quotient(fan.group, fan.data[sigma].subgroup)
                ql, _ = quotient(fan.group, lift)
                assert qf.torsion == ql.torsion

    def test_compatible_lifting_p22(self):
        hom = p22_morphism()
        e1 = Cone.from_generators([(1, 0)], 2)
        target_lift = construct_lifting(hom.target, hom.cone_images[e1])
        lift = compatible_lifting(hom, e1, target_lift)
        assert lifting_violations(hom.source, e1, lift) == []
        # tests f(L) <= L'
        for g in lift.generators():
            assert target_lift.contains(hom.hom.apply(g))

    def test_compatible_lifting_identity(self, p22_fan):
        ident = validate_hom(GroupHom.identity(N22), p22_fan, p22_fan)
        plus = Cone.from_generators([(1,)], 1)
        target_lift = construct_lifting(p22_fan, plus)
        assert compatible_lifting(ident, plus, target_lift) == target_lift

    def test_compatible_lifting_torsion_failure_fallback(self):
        source = zero_fan(N22)
        target = zero_fan(Z)
        hom = validate_hom(GroupHom(N22, Z, IntMatrix([[1, 0]])), source, target)
        zero = Cone.zero(1)
        target_lift = construct_lifting(target, zero)
        lift = compatible_lifting(hom, zero, target_lift)
        assert lifting_violations(source, zero, lift) == []
        for g in lift.generators():
            assert target_lift.contains(hom.hom.apply(g))

    def test_lifting_independence(self):
        # at the zero cone every finite-index lattice is a lifting; two
        # different choices give different stabilizers but the intersection
        # orders multiply along the index
        fan = build_p22()
        zero = Cone.zero(1)
        l1 = construct_lifting(fan, zero)
        l2 = Subgroup.from_generators(N22, [(2, 1)])
        assert lifting_violations(fan, zero, l2) == []
        q1, _ = quotient(N22, l1)
        q2, _ = quotient(N22, l2)
        l12 = l1.intersection(l2)
        q12, _ = quotient(N22, l12)
        # |E(N/L12)| = |E(N/Li)| * |Li/(L1 cap L2)| for both sides
        assert q12.torsion_order() == q1.torsion_order() * _subgroup_index(l1, l12)
        assert q12.torsion_order() == q2.torsion_order() * _subgroup_index(l2, l12)

    def test_lifting_independence_randomized(self):
        # build liftings from randomized complements of N_sigma (twist each
        # complement generator by datum and torsion elements): every choice
        # is a lifting, and the intersection order bookkeeping holds
        rng = random.Random(26)
        fans_checked = 0
        while fans_checked < 6:
            fan = random_simplicial_km_fan(rng)
            n = fan.group
            for sigma in fan.cones:
                l1 = construct_lifting(fan, sigma)
                l2 = _random_lifting(fan, sigma, rng)
                if lifting_violations(fan, sigma, l2):
                    pytest.fail("twisted complement is not a lifting")
                q1, _ = quotient(n, l1)
                q2, _ = quotient(n, l2)
                l12 = l1.intersection(l2)
                q12, _ = quotient(n, l12)
                assert q12.torsion_order() == q1.torsion_order() * _subgroup_index(l1, l12)
                assert q12.torsion_order() == q2.torsion_order() * _subgroup_index(l2, l12)
            fans_checked += 1


def _random_lifting(fan, sigma, rng) -> Subgroup:
    """A lifting of F_sigma built from a randomly twisted complement of
    N_sigma: complement generators are shifted by datum combinations and
    torsion elements, which preserves the lifting conditions."""
    from kmfan.abelian import present_quotient

    n = fan.group
    span = sigma.span_lattice_basis()
    nsigma_gens = [tuple(col) + (0,) * len(n.torsion) for col in span.columns()] + [
        (0,) * n.free_rank + tuple(1 if i == j else 0 for i in range(len(n.torsion)))
        for j in range(len(n.torsion))
    ]
    nsigma = Subgroup.from_generators(n, nsigma_gens)
    pres = present_quotient(n.ncoords, n.relation_matrix().hstack(nsigma.generator_matrix()))
    twisted = []
    for col in (pres.section.columns() if pres.group.ncoords else []):
        twist = [0] * n.ncoords
        for gen in fan.data[sigma].generators():
            c = rng.randint(-1, 1)
            twist = [a + c * b for a, b in zip(twist, gen)]
        for i, d in enumerate(n.torsion):
            twist[n.free_rank + i] += rng.randrange(d)
        twisted.append(n.reduce(tuple(a + b for a, b in zip(col, twist))))
    return Subgroup.from_generators(n, fan.data[sigma].generators() + twisted)


def _subgroup_index(big: Subgroup, small: Subgroup) -> int:
    from kmfan.intlinalg import invariant_factors, solve_integer

    cols = []
    for g in small.preimage.columns():
        sol = solve_integer(big.preimage, g)
        cols.append(sol)
    m = IntMatrix.from_columns(cols, rows=big.preimage.cols)
    out = 1
    for d in invariant_factors(m):
        out *= d
    return out


def span_meet_oracle(group: FgaGroup, datum: LatticeDatum, tau: Cone) -> Subgroup:
    """Span(tau) cap F for a lattice F on which the free projection is
    injective: the kernel of F -> Z^r / Span(tau) in the coordinates of F,
    as a subgroup of N.  Validation computed this, and compared subgroups,
    before the saturation test replaced it."""
    r = tau.ambient_rank
    if r == 0:
        return datum.subgroup
    proj = present_quotient(r, tau.span_lattice_basis()).proj
    ker = kernel_basis(proj @ datum.free_basis())
    return Subgroup.from_generators(group, [datum.basis().apply(c) for c in ker.columns()])


def saturated_span_violations(datum: LatticeDatum, cone: Cone) -> list:
    """LatticeDatum.violations with rank and span membership compared against
    the saturated span lattice of the cone, as validation did before it read
    them off the rays."""
    if not datum.subgroup.is_lattice():
        return ["generated subgroup is not torsion-free"]
    basis, fb = datum.basis(), datum.free_basis()
    if matrix_rank(fb) != basis.cols:
        return ["free projections of the generators are linearly dependent"]
    gens = list(cone.rays) + list(cone.lineality)
    r = cone.ambient_rank
    span = saturate(IntMatrix.from_columns(gens, rows=r)) if gens else IntMatrix.zero(r, 0)
    if basis.cols != span.cols:
        return ["datum rank differs from the cone dimension"]
    if matrix_rank(span.hstack(fb)) != span.cols:
        return ["datum does not lie in the span of the cone"]
    return []


def _covering_report(failing: list) -> list:
    """The incompatible-data entries of the failing (sigma, tau) pairs of
    cones and proper nonzero faces whose faces are facets; there is one
    exactly when some pair fails."""
    covering = [(sigma, tau) for sigma, tau in failing if tau.dim() == sigma.dim() - 1]
    assert bool(covering) == bool(failing), failing
    return [
        {"kind": "incompatible-data", "detail": f"datum of face {tau!r} is not Span(face) cap datum of {sigma!r}"}
        for sigma, tau in covering
    ]


def oracle_data_report(fan: KmFan) -> list:
    """The data phase of validate, with each datum checked against the
    saturated span lattice and every pair of a cone and a proper nonzero
    face compared by span_meet_oracle; the report names the failing
    covering pairs."""
    out = [
        {"kind": "invalid-datum", "detail": f"{c!r}: {v}"}
        for c in fan.cones
        for v in saturated_span_violations(fan.data[c], c)
    ]
    if out:
        return out
    return _covering_report([
        (sigma, tau)
        for sigma in fan.cones
        for tau in sigma.faces()[1:-1]
        if span_meet_oracle(fan.group, fan.data[sigma], tau) != fan.data[tau].subgroup
    ])


def oracle_lifting_violations(fan: KmFan, sigma: Cone, lifting: Subgroup) -> list:
    n = fan.group
    if not lifting.is_lattice():
        return ["lifting is not torsion-free"]
    if lifting.rank() != n.free_rank:
        return ["lifting does not have finite index"]
    if span_meet_oracle(n, LatticeDatum(n, lifting), sigma) != fan.datum(sigma).subgroup:
        return ["lifting does not meet Span(sigma) in the lattice datum"]
    return []


def _perturbed(group: FgaGroup, gens, rng, span=None):
    """The generators with one of them scaled, sheared along a vector of
    the span lattice (or of Z^r), or shifted by a torsion element: the
    perturbation's kind and the new generators."""
    r = group.free_rank
    gens = [list(g) for g in gens]
    i = rng.randrange(len(gens))
    kinds = ["scale", "shear"] + (["torsion"] if group.torsion else [])
    kind = rng.choice(kinds)
    if kind == "scale":
        gens[i] = [rng.choice([-3, -2, 2, 3]) * x for x in gens[i]]
    elif kind == "shear":
        vectors = span.columns() if span is not None and span.cols else [
            tuple(int(j == k) for j in range(r)) for k in range(r)
        ]
        step = rng.choice([-2, -1, 1, 2])
        gens[i][:r] = [x + step * y for x, y in zip(gens[i][:r], rng.choice(vectors))]
    else:
        j = rng.randrange(len(group.torsion))
        gens[i][r + j] += rng.randrange(1, group.torsion[j])
    return kind, [group.reduce(g) for g in gens]


def _off_span(cone: Cone, rng) -> list:
    """A nonzero vector of Z^r outside the span of a cone of dimension < r,
    else any nonzero vector."""
    r = cone.ambient_rank
    while True:
        v = [rng.randint(-2, 2) for _ in range(r)]
        if not any(v):
            continue
        if cone.dim() == r or matrix_rank(IntMatrix.from_columns(list(cone.rays) + [v], rows=r)) > cone.dim():
            return v


def _seeded_km_fans(rng):
    """Random simplicial KM fans, torsion included, and their products with
    P^1, which have 3-dimensional cones with faces of codimension 2."""
    while True:
        fan = random_simplicial_km_fan(rng)
        if rng.random() < 0.3:
            fan = product(fan, projective_line_fan())[0]
        if any(c.dim() for c in fan.cones):
            yield fan


class TestCompatibilityBySaturation:
    def test_validate_agrees_with_the_span_meet_oracle(self):
        rng = random.Random(1212)
        seen = {"valid": 0, "invalid-datum": 0, "incompatible-data": 0}
        kinds = {"scale": 0, "shear": 0, "torsion": 0}
        fans = _seeded_km_fans(rng)
        for _ in range(300):
            fan = next(fans)
            assert fan.validate() == [] == oracle_data_report(fan)
            victim = rng.choice([c for c in fan.cones if c.dim()])
            kind, gens = _perturbed(
                fan.group, fan.data[victim].generators(), rng, victim.span_lattice_basis()
            )
            data = dict(fan.data)
            data[victim] = LatticeDatum.from_generators(fan.group, gens)
            corrupted = unchecked_fan(fan.group, fan.cones, data)
            problems = corrupted.validate()
            assert problems == oracle_data_report(corrupted), (victim, gens)
            seen[problems[0]["kind"] if problems else "valid"] += 1
            kinds[kind] += 1
        assert min(seen.values()) >= 20 and min(kinds.values()) >= 50, (seen, kinds)

    def test_wrong_rank_and_out_of_span_data_agree_with_the_oracle(self):
        """A generator dropped or added, moved out of the span of its cone,
        or joined by a torsion element: every datum violation is reported
        as against the saturated span lattice."""
        rng = random.Random(1414)
        seen = {}
        fans = _seeded_km_fans(rng)
        for _ in range(200):
            fan = next(fans)
            n, r = fan.group, fan.group.free_rank
            victim = rng.choice([c for c in fan.cones if c.dim()])
            gens = [list(g) for g in fan.data[victim].generators()]
            kind = rng.choice(["drop", "add", "out-of-span"] + (["torsion"] if n.torsion else []))
            if kind == "drop":
                gens.pop(rng.randrange(len(gens)))
            elif kind == "add":
                gens.append([rng.randint(-3, 3) for _ in range(n.ncoords)])
            elif kind == "out-of-span":
                i, step = rng.randrange(len(gens)), rng.choice([-1, 1])
                gens[i][:r] = [x + step * y for x, y in zip(gens[i][:r], _off_span(victim, rng))]
            else:
                element = [0] * r + [rng.randrange(1, d) for d in n.torsion]
                gens.append(element)
            data = dict(fan.data)
            data[victim] = LatticeDatum.from_generators(n, gens)
            corrupted = unchecked_fan(n, fan.cones, data)
            problems = corrupted.validate()
            assert problems == oracle_data_report(corrupted), (kind, victim, gens)
            for p in problems:
                key = p["detail"].split(": ")[-1] if p["kind"] == "invalid-datum" else p["kind"]
                seen[key] = seen.get(key, 0) + 1
        # no datum reaches the dependent-projections branch of the oracle:
        # a torsion-free datum meets N_tor in 0
        assert len(seen) == 4 and min(seen.values()) >= 10, seen

    def test_a_bad_ray_datum_is_reported_once_per_covering_pair(self):
        """The full face lattice of the cone on the unit vectors of Z^12, with
        classical data but 2 e_0 for the ray e_0: the report names the 11
        walls {e_0, e_j} over that ray, not the 2^11 - 1 cones that contain
        it, in under 2 s."""
        d = 12
        unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        group = FgaGroup(d)
        cones = [Cone.from_generators(sub, d) for k in range(d + 1) for sub in itertools.combinations(unit, k)]
        data = {c: LatticeDatum.from_generators(group, c.rays) for c in cones}
        ray = Cone.from_generators([unit[0]], d)
        data[ray] = LatticeDatum.from_generators(group, [tuple(2 * x for x in unit[0])])
        start = time.perf_counter()
        with pytest.raises(InvalidFan) as caught:
            KmFan(group, cones, data)
        elapsed = time.perf_counter() - start
        violations = caught.value.violations
        assert [v["kind"] for v in violations] == ["incompatible-data"] * (d - 1)
        assert all(v["detail"].startswith(f"datum of face {ray!r} is not") for v in violations)
        assert elapsed < 2.0

    def test_lifting_violations_agree_with_the_span_meet_oracle(self):
        """Constructed, twisted, perturbed and torsion-enlarged liftings."""
        rng = random.Random(1313)
        seen = {}
        fans = _seeded_km_fans(rng)
        for _ in range(40):
            fan = next(fans)
            for sigma in fan.cones:
                base = construct_lifting(fan, sigma)
                liftings = [base, _random_lifting(fan, sigma, rng)]
                for _ in range(3):
                    _, gens = _perturbed(fan.group, base.lattice_basis().columns(), rng)
                    liftings.append(Subgroup.from_generators(fan.group, gens))
                if fan.group.torsion:
                    element = fan.group.reduce((0,) * fan.group.free_rank + (1,) * len(fan.group.torsion))
                    liftings.append(Subgroup.from_generators(fan.group, base.generators() + [element]))
                for lifting in liftings:
                    problems = lifting_violations(fan, sigma, lifting)
                    assert problems == oracle_lifting_violations(fan, sigma, lifting)
                    key = problems[0] if problems else "lifting"
                    seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 4 and min(seen.values()) >= 20, seen


class TestLocalPresentation:
    def test_p22_chart(self, p22_fan):
        plus = Cone.from_generators([(1,)], 1)
        lp = local_presentation(p22_fan, plus)
        assert lp.monoid_generators == [(1,)]
        assert lp.stabilizer == FgaGroup(0, (2,))
        # trivial action: the chart is a product with the gerbe
        assert all(x == 0 for row in lp.action.matrix.entries for x in row)

    def test_classical_chart_has_no_stabilizer(self):
        fan = plane_fan()
        quad = Cone.from_generators([(1, 0), (0, 1)], 2)
        lp = local_presentation(fan, quad)
        assert lp.stabilizer.is_trivial()

    def test_dilated_line_chart(self):
        fan, _ = dilate(line_fan(), 2)
        ray = Cone.from_generators([(1,)], 1)
        lp = local_presentation(fan, ray)
        assert lp.stabilizer == FgaGroup(0, (2,))
        assert lp.monoid_generators == [(1,)]
        # the action is onto: the chart presents a quotient of the line
        from kmfan.abelian import is_surjective

        assert is_surjective(lp.action)

    def test_stratum_invariants_lifting_independent(self, p22_fan):
        plus = Cone.from_generators([(1,)], 1)
        l1 = construct_lifting(p22_fan, plus)
        l2 = Subgroup.from_generators(N22, [(1, 0)])
        for lift in (l1, l2):
            if lifting_violations(p22_fan, plus, lift):
                continue
            q, _ = quotient(N22, lift)
            assert q.free_rank == 0


class TestMonoidPresentation:
    def test_line(self):
        pres = monoid_presentation(line_fan())
        gens = {tuple(c.rays): g for c, g in pres}
        assert gens[()] == []
        assert gens[((1,),)] == [(1,)]

    def test_p22(self, p22_fan):
        pres = monoid_presentation(p22_fan)
        gens = {tuple(c.rays): g for c, g in pres}
        assert gens[((1,),)] == [(1, 1)]
        assert gens[((-1,),)] == [(-1, 0)]

    def test_round_trip_random(self):
        rng = random.Random(21)
        for _ in range(8):
            fan = random_simplicial_km_fan(rng)
            pres = monoid_presentation(fan)
            rebuilt = fan_from_monoids(fan.group, [g for _, g in pres])
            assert rebuilt == fan

    def test_non_saturated_rejected(self):
        # {0, 2, 3, 4, ...} is not saturated in its own group
        with pytest.raises(InvalidFan):
            fan_from_monoids(Z, [[], [(2,), (3,)], [(-1,)]])

    def test_dilated_monoid_is_intrinsically_saturated(self):
        # 2N is saturated in its own group, so this is a valid presentation
        fan = fan_from_monoids(Z, [[], [(2,)]])
        assert fan == dilate(line_fan(), 2)[0]

    def test_a_cone_presented_twice_with_one_datum_is_kept_once(self):
        fan = fan_from_monoids(Z, [[], [(1,)], [(1,)]])
        assert fan == line_fan() and len(fan.cones) == 2

    @pytest.mark.parametrize("group, generators, kind", [
        (Z, [[], [(1,)], [(2,)]], "duplicate-cone"),
        (N22, [[(0, 1)]], "invalid-datum"),
    ])
    def test_refusals(self, group, generators, kind):
        """A cone presented twice with two data, and a datum with torsion."""
        with pytest.raises(InvalidFan) as err:
            fan_from_monoids(group, generators)
        assert [v["kind"] for v in err.value.violations] == [kind]


class TestPredicates:
    def test_plane_fan_flags(self):
        fan = plane_fan()
        assert is_smooth(fan) and is_simplicial(fan)
        assert is_atoroidal(fan) and is_nondegenerate(fan)

    def test_singular_cone_flags(self):
        fan = from_classical(Z2, [Cone.from_generators([(1, 0), (1, 2)], 2)])
        assert not is_smooth(fan)
        assert is_simplicial(fan)

    def test_single_ray_not_atoroidal(self):
        fan = from_classical(Z2, [Cone.from_generators([(1, 0)], 2)])
        assert not is_atoroidal(fan)
        assert not is_nondegenerate(fan)


class TestMorphisms:
    def test_p22_morphism_and_classification(self):
        hom = p22_morphism()
        assert is_tame(hom)
        assert torsor_group(hom) == Z
        assert is_representable(hom)

    def test_refusal_when_cone_missing(self, p22_fan):
        verdict = validate_hom(GroupHom.identity(N22), p22_fan, zero_fan(N22))
        assert isinstance(verdict, HomRefusal)

    def test_datum_refusal(self):
        # identity on groups never maps the doubled datum of the target onto
        # the finer source datum in the other direction
        fan = line_fan()
        doubled, _ = dilate(fan, 2)
        verdict = validate_hom(GroupHom.identity(Z), fan, doubled)
        assert isinstance(verdict, HomRefusal)

    def test_x2_on_line(self):
        fan = line_fan()
        hom = validate_hom(GroupHom(Z, Z, IntMatrix([[2]])), fan, fan)
        assert isinstance(hom, KmFanHom)
        assert is_equidimensional(hom)
        assert not has_reduced_fibers(hom)
        assert not is_semi_tame(hom)

    def test_projection_with_line_factor(self):
        # fan of A^1 x torus: cones {0} and a single ray in Z^2
        source = from_classical(Z2, [Cone.from_generators([(1, 0)], 2)])
        target = line_fan()
        hom = validate_hom(GroupHom(Z2, Z, IntMatrix([[1, 0]])), source, target)
        assert isinstance(hom, KmFanHom)
        assert is_equidimensional(hom)
        assert has_reduced_fibers(hom)

    def test_infinite_cokernel_rejected(self):
        hom = validate_hom(
            GroupHom.zero(FgaGroup(0), Z), point_fan(), line_fan()
        )
        assert isinstance(hom, KmFanHom)
        with pytest.raises(InfiniteCokernel):
            is_equidimensional(hom)

    def test_sum_map_is_equidimensional_with_reduced_fibers(self):
        source = plane_fan()
        target = from_classical(Z, [Cone.from_generators([(1,)], 1)])
        hom = validate_hom(GroupHom(Z2, Z, IntMatrix([[1, 1]])), source, target)
        assert isinstance(hom, KmFanHom)
        assert is_equidimensional(hom)
        assert has_reduced_fibers(hom)

    def test_reduced_fibers_needs_equidimensional(self):
        # the diagonal ray maps into the interior of the quadrant: its image
        # is no cone of the target fan
        source = from_classical(Z2, [Cone.from_generators([(1, 1)], 2)])
        hom = validate_hom(GroupHom.identity(Z2), source, plane_fan())
        assert isinstance(hom, KmFanHom)
        assert not is_equidimensional(hom)
        with pytest.raises(PreconditionsFail):
            has_reduced_fibers(hom)

    def test_semi_tame_examples(self, p22_fan):
        rig, q = rigidify(p22_fan)
        assert is_semi_tame(q) and not is_tame(q)
        ident = validate_hom(GroupHom.identity(N22), p22_fan, p22_fan)
        assert is_tame(ident)
        assert torsor_group(ident).is_trivial()

    def test_tameness_is_read_once_per_morphism(self, p22_fan, monkeypatch):
        """is_tame then torsor_group runs the semi-tame body once, and
        computes the group map's kernel and cokernel once each, which the
        derived dual reuses: for a tame inflation, and for the semi-tame
        rigidification of P(2,2), which is not tame."""
        tame = inflate(line_fan(), GroupHom(Z, Z, IntMatrix([[2]])))[1]
        not_tame = rigidify(p22_fan)[1]
        calls = collections.Counter()

        def spy(fn):
            return lambda *a: calls.update([fn.__name__]) or fn(*a)

        monkeypatch.setattr(fans_module, "is_semi_tame", spy(fans_module.is_semi_tame))
        for fn in (abelian.kernel_subgroup, abelian._cokernel_group):
            monkeypatch.setattr(abelian, fn.__name__, spy(fn))
        assert is_tame(tame)
        assert torsor_group(tame) == FgaGroup(0, (2,))
        assert calls == {"is_semi_tame": 1, "kernel_subgroup": 1, "_cokernel_group": 1}
        calls.clear()
        assert not is_tame(not_tame)
        with pytest.raises(NotTame):
            torsor_group(not_tame)
        assert calls == {"is_semi_tame": 1, "kernel_subgroup": 1, "_cokernel_group": 1}

    def test_torsor_group_requires_tame(self, p22_fan):
        _, q = rigidify(p22_fan)
        with pytest.raises(NotTame):
            torsor_group(q)

    def test_composed_cone_map_follows_the_order(self):
        # on P^1 x P^1, swapping the factors and flattening onto the first
        # do not commute, so the composite's cone map depends on the order
        p1 = projective_line_fan()
        square = product(p1, p1)[0]
        swap = validate_hom(GroupHom(Z2, Z2, IntMatrix([[0, 1], [1, 0]])), square, square)
        flatten = validate_hom(GroupHom(Z2, Z2, IntMatrix([[1, 0], [0, 0]])), square, square)
        assert isinstance(swap, KmFanHom) and isinstance(flatten, KmFanHom)
        for f, g in ((swap, flatten), (flatten, swap)):
            composed = f.then(g)
            assert composed.cone_images == validate_hom(composed.hom, square, square).cone_images
        up = Cone.ray((0, 1))
        assert swap.then(flatten).cone_images[up] == Cone.ray((1, 0))
        assert flatten.then(swap).cone_images[up] == Cone.zero(2)

    def test_tame_composition_of_fan_maps(self):
        # two stacked inflations compose to a tame map with the product index
        fan = line_fan()
        first, f = inflate(fan, GroupHom(Z, Z, IntMatrix([[2]])))
        second, g = inflate(first, GroupHom(Z, Z, IntMatrix([[3]])))
        assert is_tame(f) and is_tame(g)
        composed = f.then(g)
        assert is_tame(composed)
        assert torsor_group(composed) == FgaGroup(0, (6,))

    def test_representability_examples(self, p22_fan):
        ident = validate_hom(GroupHom.identity(N22), p22_fan, p22_fan)
        assert is_representable(ident)
        gerbe_proj = validate_hom(
            GroupHom(N22, Z, IntMatrix([[1, 0]])), zero_fan(N22), zero_fan(Z)
        )
        assert not is_representable(gerbe_proj)

    def test_strata_functoriality(self):
        # the minimal containing cone drives the induced stratum map
        hom = p22_morphism()
        for sigma in hom.source.cones:
            tau = hom.cone_images[sigma]
            fbar = hom.hom.free_matrix()
            for r in sigma.rays:
                assert tau.contains_point(fbar.apply(r))
            # minimality: no proper face of tau contains the image
            for face in tau.faces():
                if face != tau and all(
                    face.contains_point(fbar.apply(r)) for r in sigma.rays
                ):
                    pytest.fail("containing cone was not minimal")


def induced_quotient_hom_by_presentation(f: KmFanHom, sigma: Cone) -> GroupHom:
    """The induced map N/F_sigma -> N'/F'_tau for the minimal cone tau, from
    a presentation of each quotient: the library's former body, kept as the
    oracle of fans._torsion_injective."""
    tau = f.cone_images[sigma]
    pres = _quotient_presentation(f.source.group, f.source.datum(sigma).subgroup)
    ps = GroupHom(f.source.group, pres.group, pres.proj)
    qt, pt = quotient(f.target.group, f.target.datum(tau).subgroup)
    # the generators of N/F_sigma lift to the section's columns
    ind = GroupHom(pres.group, qt, pt.matrix @ f.hom.matrix @ pres.section)
    assert ps.then(ind) == f.hom.then(pt)
    return ind


def induced_quotient_hom_by_lifter(f: KmFanHom, sigma: Cone) -> GroupHom:
    """The induced map N/F_sigma -> N'/F'_tau with each generator of
    N/F_sigma lifted through the projection by a linear system of its own."""
    tau = f.cone_images[sigma]
    qs, ps = quotient(f.source.group, f.source.datum(sigma).subgroup)
    qt, pt = quotient(f.target.group, f.target.datum(tau).subgroup)
    system = LinearSystem(ps.matrix.hstack(qs.relation_matrix()))
    cols = []
    for e in IntMatrix.identity(qs.ncoords).entries:
        x = system.integer(e)[: ps.matrix.cols]
        cols.append(pt.apply(f.hom.apply(f.source.group.reduce(x))))
    return GroupHom(qs, qt, IntMatrix.from_columns(cols, rows=qt.ncoords))


def seeded_torsion_morphisms(seed: int, count: int):
    """Morphisms out of roots, dilate and canonical_resolution of seeded
    simplicial fans whose group has torsion."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        fan = random_simplicial_km_fan(rng)
        if not fan.group.torsion:
            continue
        out.append(dilate(fan, rng.choice([2, 3]))[1])
        out.append(canonical_resolution(fan)[1])
        if is_smooth(fan):
            out.append(roots(fan, [rng.choice([1, 2, 3]) for _ in fan.ray_cones()])[1])
    return out


class TestQuotientSections:
    def test_torsion_injectivity_matches_the_lifter_kernel(self):
        morphisms = [p22_morphism()] + seeded_torsion_morphisms(31, 60)
        torsion_quotients = not_injective = 0
        for f in morphisms:
            for sigma in f.source.cones:
                ind = induced_quotient_hom_by_lifter(f, sigma)
                injective = kernel_subgroup(ind).is_lattice()
                assert fans_module._torsion_injective(f, sigma) == injective
                torsion_quotients += bool(ind.source.torsion)
                not_injective += not injective
        assert torsion_quotients >= 50
        assert not_injective >= 20

    def test_torsion_injectivity_matches_the_presented_induced_map(self):
        """The predicate against the kernel of the induced map built from
        the two quotient presentations, the body it replaced."""
        morphisms = [p22_morphism()] + seeded_torsion_morphisms(37, 120)
        verdicts = []
        for f in morphisms:
            for sigma in f.source.cones:
                ind = induced_quotient_hom_by_presentation(f, sigma)
                injective = kernel_subgroup(ind).is_lattice()
                assert fans_module._torsion_injective(f, sigma) == injective, (f, sigma)
                verdicts.append(injective)
            assert is_representable(f) == all(
                kernel_subgroup(induced_quotient_hom_by_presentation(f, sigma)).is_lattice()
                for sigma in f.source.cones
            )
        assert verdicts.count(True) >= 100 and verdicts.count(False) >= 50

    def test_a_datum_outside_its_image_datum_is_refused(self, monkeypatch):
        """A KmFanHom built by hand whose source datum <1> on the ray (1,)
        does not map into the datum <2> of its image: is_representable
        raises KmFanError naming the cone, where it once raised a bare
        TypeError.  validate_hom refuses the same map."""
        without_construction_oracle(monkeypatch)
        zero, ray = Cone.zero(1), Cone.from_generators([(1,)], 1)

        def fan(generator):
            return KmFan(Z, [zero, ray], {zero: LatticeDatum.from_generators(Z, []),
                                          ray: LatticeDatum.from_generators(Z, [generator])})

        source, target = fan((1,)), fan((2,))
        identity = GroupHom.identity(Z)
        assert isinstance(validate_hom(identity, source, target), HomRefusal)
        f = KmFanHom(source, target, identity, {zero: zero, ray: ray})
        with pytest.raises(KmFanError, match=re.escape(repr(ray))):
            is_representable(f)

    def test_contract_presents_no_quotient(self, monkeypatch):
        """The cokernel test of the inclusion reads invariant factors, and
        each datum's preimage is a kernel: no quotient is presented."""
        p2 = from_classical(Z2, [
            Cone.from_generators(rays, 2)
            for rays in ([(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)])
        ])
        without_construction_oracle(monkeypatch)
        calls = []
        real = abelian.present_quotient
        for module in (abelian, fans_module):
            monkeypatch.setattr(module, "present_quotient", lambda *a: calls.append(1) or real(*a))
        contracted, _ = contract(p2, GroupHom(Z2, Z2, IntMatrix([[2, 1], [0, 3]])))
        assert len(calls) == 0
        monkeypatch.undo()
        assert contracted.validate() == []

    def test_representability_of_the_p22_map_runs_no_smith(self, monkeypatch):
        """Each cone's saturation test has unit pivots on a representable
        map, so it settles without a Smith decomposition."""
        hom = p22_morphism()
        calls = []
        real = intlinalg.smith_decomposition
        for module in list(sys.modules.values()):
            if module.__name__.startswith("kmfan") and hasattr(module, "smith_decomposition"):
                monkeypatch.setattr(module, "smith_decomposition", lambda *a, **k: calls.append(1) or real(*a, **k))
        assert is_representable(hom)
        assert len(calls) == 0


class TestProperness:
    def test_p22_to_point_proper(self, p22_fan):
        assert is_proper(to_point(p22_fan))

    def test_line_to_point_not_proper(self):
        assert not is_proper(to_point(line_fan()))

    def test_identity_proper(self, p22_fan):
        ident = validate_hom(GroupHom.identity(N22), p22_fan, p22_fan)
        assert is_proper(ident)

    def test_subdivision_is_proper(self):
        quad = Cone.from_generators([(1, 0), (0, 1)], 2)
        refined = from_classical(
            Z2,
            [
                Cone.from_generators([(1, 0), (1, 1)], 2),
                Cone.from_generators([(1, 1), (0, 1)], 2),
            ],
        )
        hom = validate_hom(GroupHom.identity(Z2), refined, plane_fan())
        assert isinstance(hom, KmFanHom)
        assert is_proper(hom)

    def test_open_inclusion_not_proper(self):
        refined = from_classical(Z2, [Cone.from_generators([(1, 0), (1, 1)], 2)])
        hom = validate_hom(GroupHom.identity(Z2), refined, plane_fan())
        assert not is_proper(hom)


def _random_3_vector(rng):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(v):
            return v


def _random_simplicial_3_cone(rng, shared=()):
    while True:
        rays = list(shared) + [_random_3_vector(rng) for _ in range(3 - len(shared))]
        if matrix_rank(IntMatrix(rays)) == 3:
            return Cone.from_generators(rays, 3)


def _random_cone_pairs(rng):
    """Seeded pairs of simplicial 3-cones, drawn apart or sharing one or two
    rays, each followed by a pair of their nonzero faces."""
    while True:
        shared = [_random_3_vector(rng) for _ in range(rng.randrange(3))]
        if shared and matrix_rank(IntMatrix(shared)) < len(shared):
            continue
        a, b = _random_simplicial_3_cone(rng, shared), _random_simplicial_3_cone(rng, shared)
        yield a, b
        yield rng.choice(a.faces()[1:]), rng.choice(b.faces()[1:])


def _polygon_fan_64() -> KmFan:
    """The complete fan on 64 of the 80 primitive vectors of [-5, 5]^2: every
    fifth one in angular order is left out."""
    vectors = sorted(
        (v for v in itertools.product(range(-5, 6), repeat=2) if math.gcd(*v) == 1),
        key=lambda v: math.atan2(v[1], v[0]),
    )
    rays = [v for i, v in enumerate(vectors) if i % 5]
    return from_classical(Z2, [Cone.from_generators([u, v], 2) for u, v in zip(rays, rays[1:] + rays[:1])])


def _cone_report(r, closure):
    """The report of the cone phase of validation on a set of cones, in
    canonical order."""
    return _cone_phase(r, sorted(closure, key=lambda c: (c.dim(), c.rays)))[2]


def cone_violations_all_pairs(r, cones, maximal):
    """The cone phase of validation with the pairwise descent over every
    pair of maximal cones in every rank: the report of _cone_phase as it
    was before it skipped the pair check in rank r <= 1."""
    out = []
    cone_set = set(cones)
    if not cones:
        out.append({"kind": "empty-fan", "detail": "a fan must contain at least one cone"})
        return out
    for c in cones:
        if c.ambient_rank != r:
            out.append({"kind": "wrong-ambient", "detail": f"cone {c!r} has ambient rank {c.ambient_rank}, expected {r}"})
            return out
        if not c.is_sharp():
            out.append({"kind": "non-sharp-cone", "detail": f"cone {c!r} contains a line"})
    if not {f for c in cones for f in c.facet_cones()} <= cone_set:
        for c in cones:
            for f in c.facet_cones():
                if f not in cone_set:
                    out.append({"kind": "missing-face", "detail": f"face {f!r} of {c!r} is not in the fan"})
    if out:
        return out
    if _certified_complete_simplicial(r, maximal):
        return out
    instances = {c: c for c in cones}

    def meet_in_common_face(a, b):
        while a not in b.faces() and b not in a.faces():
            h = _separating_facet(a, b)
            if h is None:
                meet = a.intersect(b)
                return meet in cone_set and meet.is_face_of(a) and meet.is_face_of(b)
            a, b = instances[a._face([h])], instances[b._face([h])]
        return True

    for i, a in enumerate(maximal):
        for b in maximal[i + 1:]:
            if not meet_in_common_face(a, b):
                out.append({
                    "kind": "bad-intersection",
                    "detail": f"{a!r} and {b!r} do not intersect in a common face",
                })
    return out


class TestRankAtMostOneConePhase:
    """In rank r <= 1 the cone phase skips the pair check, and reports what
    the all-pairs descent reports."""

    @staticmethod
    def cases():
        zero, plus, minus = Cone.zero(1), Cone.ray((1,)), Cone.ray((-1,))
        line, plane_ray = Cone.full(1), Cone.ray((1, 0))
        out = [(1, list(s)) for k in range(4) for s in itertools.combinations((zero, plus, minus), k)]
        out += [(0, []), (0, [Cone.zero(0)]), (0, [Cone.zero(0), zero]), (0, [zero, plus])]
        out += [(1, [line]), (1, [zero, line]), (1, [zero, plus, line]), (1, [line, minus])]
        out += [(1, [zero, plane_ray]), (1, [zero, plus, Cone.zero(2)]), (1, [plus, plane_ray])]
        # rank 2: two rays meeting in {0}, and two overlapping cones with all
        # their faces, which the pair check must reject
        a, b = Cone.from_generators([(1, 0), (1, 1)], 2), Cone.from_generators([(1, 0), (2, 1)], 2)
        out += [(2, [Cone.zero(2), plane_ray, Cone.ray((0, 1))]), (2, list({*a.faces(), *b.faces()}))]
        return out

    def test_same_report_as_the_all_pairs_descent(self):
        kinds = collections.Counter()
        for r, cones in self.cases():
            cones = fans_module._canonical(cones)
            facets, maximal, problems = _cone_phase(r, cones)
            assert facets == {c: c.facet_cones() for c in cones}
            want = cone_violations_all_pairs(r, cones, maximal)
            assert problems == want, (r, cones)
            kinds.update({p["kind"] for p in want} or {"valid"})
        assert kinds == {"valid": 6, "missing-face": 4, "non-sharp-cone": 4,
                         "wrong-ambient": 5, "empty-fan": 2, "bad-intersection": 1}, kinds

    @pytest.mark.parametrize("build", [build_p22, projective_line_fan, line_fan])
    def test_validation_of_rank_one_fans_runs_no_pair_check(self, monkeypatch, build):
        """On a copy that validates itself, without the verdict its
        construction hands over: no separating facet, no face set, no
        intersection, no H-description."""
        fan = build()
        calls = []
        for owner, name in ((fans_module, "_separating_facet"), (cones_module, "_derive_h"),
                            (Cone, "faces"), (Cone, "intersect")):
            monkeypatch.setattr(owner, name, lambda *a, _n=name: calls.append(_n))
        fan = unchecked_fan(fan.group, fan.cones, fan.data)
        assert fan.validate() == []
        assert calls == []


class TestSeparatingFacets:
    def test_pairs_agree_with_the_intersection_oracle(self, monkeypatch):
        """Validation of the face closure of a pair reports a bad intersection
        iff the double-description meet is not a face of both cones."""
        rng = random.Random(8)
        real = Cone.intersect
        calls = []
        monkeypatch.setattr(Cone, "intersect", lambda a, b: calls.append(1) or real(a, b))
        fallback = bad = 0
        for a, b in itertools.islice(_random_cone_pairs(rng), 2000):
            meet = real(a, b)
            common_face = meet.is_face_of(a) and meet.is_face_of(b)
            h = _separating_facet(a, b)
            if h is not None:
                own, other = (a, b) if h in a.facets else (b, a)
                assert h in own.facets
                assert all(_dot(h, g) <= 0 for g in other.generators())
                assert all(_dot(h, g) == 0 for g in meet.generators())
            closure = {face for c in (a, b) for face in c.faces()}
            calls.clear()
            problems = _cone_report(3, closure)
            assert (problems == []) == common_face, (a, b, problems)
            if common_face and calls:
                fallback += 1
            bad += not common_face
            if fallback >= 30 and bad >= 30:
                break
        assert fallback >= 30 and bad >= 30, (fallback, bad)

    def test_pairs_of_facets_in_one_plane(self):
        """Cones on opposite sides of a plane, each with a facet in it: the
        first separating facet confines the meet to the plane, and the two
        facets there decide the pair."""
        rng = random.Random(81)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 15:
            u1, u2, v1, v2 = (_random_3_vector(rng)[:2] + (0,) for _ in range(4))
            if u1[0] * u2[1] == u1[1] * u2[0] or v1[0] * v2[1] == v1[1] * v2[0]:
                continue
            up, down = _random_3_vector(rng)[:2] + (1,), _random_3_vector(rng)[:2] + (-1,)
            a, b = Cone.from_generators([u1, u2, up], 3), Cone.from_generators([v1, v2, down], 3)
            meet = a.intersect(b)
            common_face = meet.is_face_of(a) and meet.is_face_of(b)
            closure = {face for c in (a, b) for face in c.faces()}
            problems = _cone_report(3, closure)
            assert (problems == []) == common_face, (a, b, problems)
            seen[common_face] += 1

    @pytest.mark.parametrize("build,rays", [
        (_polygon_fan_64, 64),
        (lambda: product(product(projective_line_fan(), projective_line_fan())[0], projective_line_fan())[0], 6),
    ], ids=["polygon_64", "p1_cubed"])
    def test_validation_runs_no_intersection(self, monkeypatch, build, rays):
        fan = build()
        assert len(fan.ray_cones()) == rays
        calls = []
        real = Cone.intersect
        monkeypatch.setattr(Cone, "intersect", lambda a, b: calls.append(1) or real(a, b))
        assert fan.validate() == []
        assert calls == []


def _stellar_complete_fan(rng, r, steps):
    """Maximal cones, as ray tuples, of a complete simplicial fan in Z^r:
    the orthant fan on +-e_i after `steps` stellar subdivisions, each at a
    random point of the relative interior of a random face with at least
    two rays, then a random nonsingular integer linear map."""
    maximal = {
        frozenset(tuple(s if j == i else 0 for j in range(r)) for i, s in enumerate(signs))
        for signs in itertools.product((1, -1), repeat=r)
    }
    for _ in range(steps):
        sigma = sorted(rng.choice(sorted(maximal, key=sorted)))
        tau = rng.sample(sigma, rng.randint(2, r))
        weights = [rng.randint(1, 3) for _ in tau]
        v = primitive_vector(tuple(sum(w * u[i] for w, u in zip(weights, tau)) for i in range(r)))
        star_of_tau = [c for c in maximal if c.issuperset(tau)]
        maximal.difference_update(star_of_tau)
        maximal.update(c - {u} | {v} for c in star_of_tau for u in tau)
    while True:
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)])
        if matrix_rank(m) == r:
            break
    return [tuple(primitive_vector(m.apply(u)) for u in c) for c in sorted(maximal, key=sorted)]


def _closure(r, maximal_rays):
    """The face closure of the cones on the given ray tuples, in canonical
    order."""
    cones = {f for rays in maximal_rays for f in Cone.from_generators(rays, r).faces()}
    return sorted(cones, key=lambda c: (c.dim(), c.rays))


def _classical_unchecked(r, maximal_rays) -> KmFan:
    group = FgaGroup(r)
    cones = _closure(r, maximal_rays)
    data = {c: LatticeDatum.from_generators(group, c.span_lattice_basis().columns()) for c in cones}
    return unchecked_fan(group, cones, data)


def _descent_violations(fan: KmFan, monkeypatch) -> list:
    """The report of a copy of the fan validated with the certificate
    switched off: the pairwise descent's report."""
    with monkeypatch.context() as m:
        m.setattr(fans_module, "_certified_complete_simplicial", lambda r, maximal: False)
        return unchecked_fan(fan.group, fan.cones, fan.data).validate()


def _circle_rays(n):
    """n primitive rays of Z^2 spread around the circle, in angular order."""
    return [
        primitive_vector((round(10 * math.cos(2 * math.pi * k / n)), round(10 * math.sin(2 * math.pi * k / n))))
        for k in range(n)
    ]


# Invalid fans that meet one or two of the certificate's conditions.  The
# cover meets (a) and (b): every facet lies in two cones on opposite sides,
# yet every point is covered twice.  The fold meets (a) and (c): rays
# (1,-1) and (1,-3) each lie in two cones, but on the same side, and the
# angles between -71.6 and -45 degrees are covered three times.
WINDING_TWO_COVERS = [
    [(rays[k], rays[(k + 2) % n]) for k in range(n)]
    for n in (5, 7, 9)
    for rays in [_circle_rays(n)]
]
QUADRANTS = [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))]
FACET_IN_THREE_CONES = QUADRANTS + [((1, 0), (1, 1))]
FOLD = QUADRANTS[:3] + [((0, -1), (1, -1)), ((1, -1), (1, -3)), ((1, -3), (1, 0))]


class TestCompleteSimplicialCertificate:
    @pytest.mark.parametrize("r,fans,steps", [(2, 40, 6), (3, 12, 4), (4, 2, 1)])
    def test_accepts_complete_simplicial_fans_the_oracle_accepts(self, r, fans, steps):
        rng = random.Random(1100 + r)
        for _ in range(fans):
            maximal_rays = _stellar_complete_fan(rng, r, rng.randint(0, steps))
            cones = _closure(r, maximal_rays)
            assert _certified_complete_simplicial(r, _cone_phase(r, cones)[1])
            faults, bad_pairs = test_properties.TestValidationFuzz.all_pairs_oracle(cones)
            assert faults == [] and bad_pairs == [], maximal_rays
            assert _classical_unchecked(r, maximal_rays).validate() == []

    @pytest.mark.parametrize("r", [2, 3])
    def test_never_accepts_a_fan_the_oracle_rejects(self, r, monkeypatch):
        """Complete fans with one ray moved: the certificate accepts only
        valid ones, and validate agrees with the all-pairs oracle."""
        rng = random.Random(1200 + r)
        seen = {"accepted": 0, "declined": 0}
        for _ in range(400):
            maximal_rays = _stellar_complete_fan(rng, r, rng.randint(0, 1))
            old = rng.choice(sorted({u for rays in maximal_rays for u in rays}))
            new = primitive_vector(tuple(x + rng.randint(-2, 2) for x in old))
            if not any(new):
                continue
            moved = [tuple(new if u == old else u for u in rays) for rays in maximal_rays]
            cones = _closure(r, moved)
            maximal = _cone_phase(r, cones)[1]
            faults, bad_pairs = test_properties.TestValidationFuzz.all_pairs_oracle(cones)
            valid = not faults and not bad_pairs
            fan = _classical_unchecked(r, moved)
            if _certified_complete_simplicial(r, maximal):
                assert valid, moved
                seen["accepted"] += 1
            else:
                assert fan.validate() == _descent_violations(fan, monkeypatch)
                seen["declined"] += 1
            assert (fan.validate() == []) == valid, moved
            if min(seen.values()) >= 15:
                break
        assert min(seen.values()) >= 15, seen

    @pytest.mark.parametrize("maximal_rays", WINDING_TWO_COVERS + [FACET_IN_THREE_CONES, FOLD],
                             ids=["cover_5", "cover_7", "cover_9", "facet_in_three_cones", "fold"])
    def test_declines_invalid_fans(self, maximal_rays, monkeypatch):
        """No two of the conditions (a)-(c) are enough: the covers fail only
        (c), the fold only (b), the extra cone fails (a); validate reports
        the descent's list."""
        cones = _closure(2, maximal_rays)
        assert not _certified_complete_simplicial(2, _cone_phase(2, cones)[1])
        fan = _classical_unchecked(2, maximal_rays)
        problems = fan.validate()
        assert problems and all(p["kind"] == "bad-intersection" for p in problems)
        assert problems == _descent_violations(fan, monkeypatch)

    def test_declines_fans_it_does_not_cover(self):
        """Not complete, not simplicial, lower-dimensional maximal cones, or
        r < 2: the certificate cannot decide."""
        p1 = projective_line_fan()
        square = Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)], 3)
        for r, maximal_rays in [
            (1, [((1,),), ((-1,),)]),
            (2, QUADRANTS[:3]),
            (2, QUADRANTS[:3] + [((0, -1),), ((1, 0),)]),
        ]:
            assert not _certified_complete_simplicial(r, _cone_phase(r, _closure(r, maximal_rays))[1])
        assert not _certified_complete_simplicial(3, [square])
        assert not _certified_complete_simplicial(1, p1.maximal_cones())

    @pytest.mark.parametrize("build", [
        _polygon_fan_64,
        lambda: product(product(projective_line_fan(), projective_line_fan())[0], projective_line_fan())[0],
    ], ids=["polygon_64", "p1_cubed"])
    def test_validation_descends_no_pair(self, monkeypatch, build):
        """On a copy that validates itself, without the verdict its
        construction hands over."""
        fan = build()
        calls = []
        real = fans_module._separating_facet
        monkeypatch.setattr(fans_module, "_separating_facet", lambda a, b: calls.append(1) or real(a, b))
        fan = unchecked_fan(fan.group, fan.cones, fan.data)
        assert fan.validate() == []
        assert calls == []

    def test_data_checked_once_per_covering_pair(self, monkeypatch):
        """(P(2,2))^4, over a group with torsion, checks each covering pair
        once; (P^1)^4 has classical data, read per cone, and checks none.
        Both are validated on a copy without the verdict product hands
        over."""
        calls = []
        real = fans_module._saturated_in
        monkeypatch.setattr(fans_module, "_saturated_in", lambda *a: calls.append(1) or real(*a))
        for base, pinned in [(build_p22(), 208), (projective_line_fan(), 0)]:
            fan = _power(base, 4)
            covering = sum(
                1 for sigma in fan.cones for tau in sigma.faces()[1:-1] if tau.dim() == sigma.dim() - 1
            )
            assert covering == 208
            calls.clear()
            assert unchecked_fan(fan.group, fan.cones, fan.data).validate() == []
            assert len(calls) == pinned

    def test_data_phase_builds_no_kernel_and_no_quotient(self, monkeypatch):
        """With fresh data, which keep no linear systems yet."""
        p1 = projective_line_fan()
        fan = p1
        for _ in range(3):
            fan = product(fan, p1)[0]
        fresh = {c: LatticeDatum(fan.group, fan.data[c].subgroup) for c in fan.cones}
        calls = []
        for module in sys.modules.values():
            if module.__name__.startswith("kmfan"):
                for name in ("kernel_basis", "present_quotient"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, lambda *a, _name=name: calls.append(_name))
        fan = unchecked_fan(fan.group, fan.cones, fresh)
        assert fan.validate() == []
        assert calls == []


def semi_tame_by_images(f: KmFanHom):
    """is_semi_tame by the image cones f(sigma) themselves, one double
    description each, with the reason for a False."""
    fbar = f.hom.free_matrix()
    images = []
    for sigma in f.source.cones:
        image = sigma.linear_image(fbar)
        if image not in f.target.data:
            return False, "not a target cone"
        if image.dim() != sigma.dim():
            return False, "collapsed"
        images.append(image)
        mapped = Subgroup.from_generators(
            f.target.group, [f.hom.apply(g) for g in f.source.datum(sigma).generators()]
        )
        if mapped != f.target.datum(image).subgroup:
            return False, "data"
    if len(set(images)) != len(f.source.cones) or set(images) != set(f.target.cones):
        return False, "not bijective"
    return True, None


def _random_polygon_fan(rng) -> KmFan:
    """A random subfan of a complete fan in Z^2 on 3 to 6 rays."""
    vectors = set()
    while len(vectors) < rng.randint(3, 6):
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if any(v):
            vectors.add(primitive_vector(v))
    rays = sorted(vectors, key=lambda v: math.atan2(v[1], v[0]))
    cones = [
        Cone.from_generators([u, v], 2)
        for u, v in zip(rays, rays[1:] + rays[:1])
        if u[0] * v[1] - u[1] * v[0] > 0
    ] + [Cone.ray(v) for v in rays]
    return from_classical(Z2, rng.sample(cones, rng.randint(1, len(cones))))


class TestSemiTameFromConeImages:
    def test_agrees_with_the_image_cone_oracle(self):
        rng = random.Random(4242)
        seen = {True: 0, "collapsed": 0, "not a target cone": 0, "not bijective": 0, "data": 0}
        for _ in range(1500):
            source = _random_polygon_fan(rng)
            style = rng.randrange(5)
            if style == 0:
                # a unimodular change of coordinates onto the image fan
                while True:
                    g = IntMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                    if abs(g.entries[0][0] * g.entries[1][1] - g.entries[0][1] * g.entries[1][0]) == 1:
                        break
                target = from_classical(Z2, [c.linear_image(g) for c in source.maximal_cones()])
                hom = validate_hom(GroupHom(Z2, Z2, g), source, target)
            elif style == 1:
                hom = dilate(source, rng.randint(1, 2))[1]
            elif style == 2:
                g = IntMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                hom = validate_hom(GroupHom(Z2, Z2, g), source, _random_polygon_fan(rng))
            elif style == 3:
                row = IntMatrix([[rng.randint(-2, 2), rng.randint(-2, 2)]])
                hom = validate_hom(GroupHom(Z2, Z, row), source, line_fan())
            else:
                # the inclusion of a subfan
                target = source
                source = from_classical(Z2, rng.sample(target.cones, rng.randint(1, len(target.cones))))
                hom = validate_hom(GroupHom.identity(Z2), source, target)
            if not isinstance(hom, KmFanHom):
                continue
            verdict, reason = semi_tame_by_images(hom)
            assert is_semi_tame(hom) == verdict, hom
            seen[reason or True] += 1
            if min(seen[True], sum(seen.values()) - seen[True]) >= 30 and min(seen.values()) >= 5:
                break
        assert seen[True] >= 30 and sum(seen.values()) - seen[True] >= 30, seen
        assert min(seen.values()) >= 5, seen

    def test_a_cone_map_onto_other_rays_is_refused(self, monkeypatch):
        """The identity of P^1 with a hand-built cone map that swaps its two
        rays: each ray goes to a cone of its dimension with the other ray.
        The construction oracle, which would refuse the cone map, is off."""
        without_construction_oracle(monkeypatch)
        fan = projective_line_fan()
        zero, minus, plus = fan.cones
        swapped = KmFanHom(fan, fan, GroupHom.identity(Z), {zero: zero, plus: minus, minus: plus})
        assert not is_semi_tame(swapped)
        assert is_semi_tame(validate_hom(GroupHom.identity(Z), fan, fan))

    def test_two_cones_with_one_image_are_refused(self):
        """The projection Z^3 -> Z^2 takes cone((1,0,0),(0,1,0)) and
        cone((1,0,1),(0,1,1)) onto the quadrant, each ray onto a ray and each
        datum onto the quadrant's."""
        z3 = FgaGroup(3)
        source = from_classical(z3, [Cone.from_generators([(1, 0, 0), (0, 1, 0)], 3),
                                     Cone.from_generators([(1, 0, 1), (0, 1, 1)], 3)])
        quadrant = from_classical(Z2, [Cone.from_generators([(1, 0), (0, 1)], 2)])
        f = validate_hom(GroupHom(z3, Z2, IntMatrix([[1, 0, 0], [0, 1, 0]])), source, quadrant)
        assert isinstance(f, KmFanHom)
        assert not is_semi_tame(f)
        assert semi_tame_by_images(f) == (False, "not bijective")


def equidimensional_by_images(f: KmFanHom) -> bool:
    """is_equidimensional by the image cones f(sigma) themselves, one
    double description each."""
    fans_module._require_finite_cokernel(f)
    fbar = f.hom.free_matrix()
    return all(sigma.linear_image(fbar) in f.target.data for sigma in f.source.cones)


def reduced_fibers_by_images(f: KmFanHom) -> bool:
    """has_reduced_fibers on the image cones f(sigma), with its own
    equidimensionality check."""
    fans_module._require_finite_cokernel(f)
    if not equidimensional_by_images(f):
        raise PreconditionsFail("reduced-fiber criterion requires an equidimensional map")
    fbar = f.hom.free_matrix()
    for sigma in f.source.cones:
        mapped = Subgroup.from_generators(
            f.target.group, [f.hom.apply(g) for g in f.source.datum(sigma).generators()]
        )
        if not mapped.contains_subgroup(f.target.datum(sigma.linear_image(fbar)).subgroup):
            return False
    return True


def _outcome(predicate, f):
    try:
        return predicate(f)
    except (InfiniteCokernel, PreconditionsFail) as exc:
        return type(exc)


class TestEquidimensionalFromConeMap:
    def test_agrees_with_the_image_cone_oracle(self):
        rng = random.Random(5353)
        quadrants = from_classical(Z2, [
            Cone.from_generators([u, v], 2)
            for u, v in [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))]
        ])
        seen = {(name, verdict): 0 for name in ("equidim", "reduced") for verdict in (True, False)}
        for _ in range(600):
            source = _random_polygon_fan(rng)
            style = rng.randrange(6)
            if style == 0:
                hom = dilate(source, rng.randint(1, 3))[1]
            elif style == 1:
                g = IntMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                hom = validate_hom(GroupHom(Z2, Z2, g), source, _random_polygon_fan(rng))
            elif style == 2:
                row = IntMatrix([[rng.randint(-2, 2), rng.randint(-2, 2)]])
                hom = validate_hom(GroupHom(Z2, Z, row), source, line_fan())
            elif style == 3:
                # the inclusion of a subfan
                target = source
                source = from_classical(Z2, rng.sample(target.cones, rng.randint(1, len(target.cones))))
                hom = validate_hom(GroupHom.identity(Z2), source, target)
            elif style == 4:
                hom = product(random_simplicial_km_fan(rng), source)[rng.randrange(1, 3)]
            else:
                # into the four quadrants: a ray off the axes maps inside one
                hom = validate_hom(GroupHom.identity(Z2), source, quadrants)
            if not isinstance(hom, KmFanHom):
                continue
            equi = _outcome(is_equidimensional, hom)
            assert equi == _outcome(equidimensional_by_images, hom), hom
            reduced = _outcome(has_reduced_fibers, hom)
            assert reduced == _outcome(reduced_fibers_by_images, hom), hom
            for name, verdict in (("equidim", equi), ("reduced", reduced)):
                if verdict in (True, False):
                    seen[name, verdict] += 1
            if min(seen.values()) >= 30:
                break
        assert min(seen.values()) >= 30, seen


def validate_hom_by_intersection(f: GroupHom, source: KmFan, target: KmFan):
    """validate_hom with the minimal containing cone found by intersecting
    every target cone that contains f(sigma), one double description per
    extra containing cone."""
    fbar = f.free_matrix()
    images = {}
    for sigma in source.cones:
        img_gens = [fbar.apply(rr) for rr in sigma.rays]
        containing = [
            tau for tau in target.cones if all(tau.contains_point(g) for g in img_gens)
        ]
        if not containing:
            return HomRefusal(sigma, "image of the cone is not contained in any target cone")
        minimal = containing[0]
        for tau in containing[1:]:
            minimal = minimal.intersect(tau)
        datum = target.datum(minimal)
        for gen in source.datum(sigma).generators():
            if not datum.contains(f.apply(gen)):
                return HomRefusal(
                    sigma, "lattice datum does not map into the datum of the minimal cone"
                )
        images[sigma] = minimal
    return KmFanHom(source, target, f, images)


def _random_fan_hom_inputs(rng, p1_cubed):
    """A group map with source and target fans: maps between random polygon
    subfans, into the line and into p1_cubed = (P^1)^3, and into random KM
    fans with torsion, whose data refuse many maps."""
    style = rng.randrange(4)
    if style == 0:
        g = IntMatrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        return GroupHom(Z2, Z2, g), _random_polygon_fan(rng), _random_polygon_fan(rng)
    if style == 1:
        row = IntMatrix([[rng.randint(-2, 2), rng.randint(-2, 2)]])
        return GroupHom(Z2, Z, row), _random_polygon_fan(rng), projective_line_fan()
    if style == 2:
        z3 = FgaGroup(3)
        while True:
            cone = Cone.from_generators([_random_3_vector(rng) for _ in range(3)], 3)
            if cone.dim() == 3 and cone.is_sharp():
                break
        g = IntMatrix([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        return GroupHom(z3, z3, g), from_classical(z3, [cone]), p1_cubed
    target = random_simplicial_km_fan(rng)
    source = _random_polygon_fan(rng)
    cols = [
        tuple(rng.randint(-2, 2) for _ in range(target.group.free_rank))
        + tuple(rng.randrange(d) for d in target.group.torsion)
        for _ in range(2)
    ]
    return GroupHom(Z2, target.group, IntMatrix.from_columns(cols, rows=target.group.ncoords)), source, target


class TestMinimalConeWithoutIntersection:
    def test_agrees_with_the_intersection_oracle(self, monkeypatch):
        """Same KmFanHom cone maps and the same refusals (cone and reason)
        as the scan-and-intersect oracle, with no intersection of its own;
        "several" counts the maps where the oracle intersected."""
        rng = random.Random(5150)
        calls = []
        real = Cone.intersect
        monkeypatch.setattr(Cone, "intersect", lambda a, b: calls.append(1) or real(a, b))
        seen = {"accepted": 0, "several": 0, "not contained": 0, "datum": 0}
        p1 = projective_line_fan()
        p1_cubed = product(product(p1, p1)[0], p1)[0]
        for _ in range(1000):
            f, source, target = _random_fan_hom_inputs(rng, p1_cubed)
            del calls[:]
            verdict = validate_hom(f, source, target)
            assert calls == []
            expected = validate_hom_by_intersection(f, source, target)
            seen["several"] += bool(calls)
            assert type(verdict) is type(expected), (f, source, target)
            if isinstance(expected, HomRefusal):
                assert (verdict.cone, verdict.reason) == (expected.cone, expected.reason)
                seen["datum" if "datum" in expected.reason else "not contained"] += 1
            else:
                assert verdict.cone_images == expected.cone_images
                seen["accepted"] += 1
            if min(seen.values()) >= 30:
                break
        assert min(seen.values()) >= 30, seen


def _strata_oracle(fan: KmFan) -> list:
    """strata(fan) from the full quotient N/F_sigma with its projection."""
    out = []
    for c in fan.cones:
        q, _ = quotient(fan.group, fan.data[c].subgroup)
        iso = FgaGroup(0, q.torsion)
        out.append((c, q.free_rank, iso, FgaGroup(0, iso.torsion)))
    return out


def _power(fan: KmFan, k: int) -> KmFan:
    out = fan
    for _ in range(k - 1):
        out = product(out, fan)[0]
    return out


def _fresh(fan: KmFan):
    """The group, cones and data of the fan, on new cone instances and new
    data, which keep no span lattices and no linear systems yet: the
    arguments of unchecked_fan, which validates them."""
    cones = {Cone.from_generators(c.rays, c.ambient_rank): fan.data[c] for c in fan.cones}
    data = {c: LatticeDatum(fan.group, d.subgroup) for c, d in cones.items()}
    return fan.group, list(data), data


class TestInvariantsWithoutTransforms:
    def test_agree_with_the_quotient_oracle(self):
        """Seeded KM fans, torsion included, and their products with P^1 and
        P(2,2)."""
        rng = random.Random(1616)
        fans = _seeded_km_fans(rng)
        torsion = 0
        for i in range(60):
            fan = next(fans)
            if i % 4 == 0:
                fan = product(fan, build_p22())[0]
            got = [(s.cone, s.torus_rank, s.isotropy, s.band) for s in strata(fan)]
            assert got == _strata_oracle(fan)
            for c in fan.cones:
                assert isotropy(fan, c) == FgaGroup(0, quotient(fan.group, fan.data[c].subgroup)[0].torsion)
            everything = Subgroup.from_generators(
                fan.group, [g for c in fan.cones for g in fan.data[c].generators()]
            )
            assert fundamental_group(fan) == quotient(fan.group, everything)[0]
            torsion += any(s.isotropy.torsion for s in strata(fan))
        assert torsion >= 20

    @pytest.mark.parametrize("build", [
        lambda: _power(projective_line_fan(), 3),
        lambda: _power(build_p22(), 2),
    ], ids=["p1_cubed", "p22_squared"])
    def test_strata_build_no_projection(self, monkeypatch, build):
        """No present_quotient, and no Smith that tracks a transform.  The
        invariant factors come from a row echelon form, so (P^1)^3, whose
        echelon forms all have unit leading entries, runs no Smith at all."""
        fan = build()
        calls = []
        real = intlinalg.smith_decomposition
        for module in list(sys.modules.values()):
            if module.__name__.startswith("kmfan"):
                if hasattr(module, "present_quotient"):
                    monkeypatch.setattr(module, "present_quotient", lambda *a: calls.append("present_quotient"))
                if hasattr(module, "smith_decomposition"):
                    monkeypatch.setattr(
                        module, "smith_decomposition",
                        lambda m, transforms=intlinalg.TRANSFORMS: calls.append(tuple(transforms)) or real(m, transforms),
                    )
        assert len(strata(fan)) == len(fan.cones)
        assert set(calls) <= {()}

    def test_classical_polygon_runs_no_saturate(self, monkeypatch):
        rays = [(1, 0), (2, 1), (1, 1), (0, 1), (-1, 2), (-1, 0), (-2, -3), (0, -1), (3, -1)]
        cones = [Cone.from_generators([u, v], 2) for u, v in zip(rays, rays[1:] + rays[:1])]
        calls = []
        for module in list(sys.modules.values()):
            if module.__name__.startswith("kmfan") and hasattr(module, "saturate"):
                monkeypatch.setattr(module, "saturate", lambda m: calls.append(m))
        fan = from_classical(Z2, cones)
        assert len(fan.cones) == 2 * len(rays) + 1
        assert calls == []

    def test_validation_with_fresh_cones_runs_no_saturate(self, monkeypatch):
        """A product fan rebuilt from new cone instances, which keep no span
        lattice yet."""
        fresh = _fresh(product(_power(projective_line_fan(), 2), build_p22())[0])
        calls = []
        for module in list(sys.modules.values()):
            if module.__name__.startswith("kmfan") and hasattr(module, "saturate"):
                monkeypatch.setattr(module, "saturate", lambda m: calls.append(m))
        assert unchecked_fan(*fresh).validate() == []
        assert calls == []


def _complete_polygon_31() -> KmFan:
    rays = _circle_rays(31)
    return from_classical(Z2, [Cone.from_generators([u, v], 2) for u, v in zip(rays, rays[1:] + rays[:1])])


def all_cones_data_sum(fan: KmFan) -> Subgroup:
    """The sum of the lattice data as it was computed before it read only
    the maximal cones: one Hermite basis of the preimages of every cone."""
    columns = [col for c in fan.cones for col in fan.data[c].subgroup.preimage.columns()]
    return Subgroup(fan.group, hermite_column_basis(IntMatrix._from_columns(columns, fan.group.ncoords)))


class TestFundamentalGroupFromMaximalCones:
    def test_equals_the_all_cones_sum(self):
        """Seeded valid fans, torsion included: the same Hermite basis, so
        the same fundamental group, byte for byte."""
        rng = random.Random(1818)
        fans = _seeded_km_fans(rng)
        torsion = 0
        for i in range(60):
            fan = next(fans)
            if i % 4 == 0:
                fan = product(fan, build_p22())[0]
            assert len(fan.maximal_cones()) < len(fan.cones)
            assert fans_module._data_sum(fan).preimage == all_cones_data_sum(fan).preimage
            torsion += bool(fan.group.torsion)
        assert torsion >= 20

    def test_polygon_sums_the_maximal_cones_only(self, monkeypatch):
        """31 maximal cones with two columns each; all 63 cones would give
        93 columns."""
        fan = _complete_polygon_31()
        cols = []
        real = fans_module.hermite_column_basis
        monkeypatch.setattr(fans_module, "hermite_column_basis", lambda m: cols.append(m.cols) or real(m))
        assert fundamental_group(fan).is_trivial()
        assert cols == [62]


class TestDatumChecksWithoutSmith:
    @pytest.mark.parametrize("build", [
        lambda: _power(build_p22(), 4),
        lambda: fold(GsFan(_complete_polygon_31(), GroupHom(Z2, Z2, IntMatrix([[2, 0], [0, 2]]))))[0],
    ], ids=["p22_fourth", "polygon_31_fold"])
    def test_validate_runs_no_smith_in_the_datum_checks(self, monkeypatch, build):
        """With fresh cones and data that are not classical, so that the
        saturation tests run when the fan is built: they and the coordinate
        solves run on row echelon forms alone."""
        fresh = _fresh(build())
        callers, checks = [], []
        real_smith, real_check = intlinalg.smith_decomposition, fans_module._saturated_in

        def spy(m, transforms=intlinalg.TRANSFORMS):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names)
            return real_smith(m, transforms)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("kmfan") and hasattr(module, "smith_decomposition"):
                monkeypatch.setattr(module, "smith_decomposition", spy)
        monkeypatch.setattr(fans_module, "_saturated_in", lambda *a: checks.append(1) or real_check(*a))
        assert unchecked_fan(*fresh).validate() == []
        assert checks
        assert [names for names in callers if names & {"_saturated_in", "coordinates"}] == []


def check_monoid_saturated_by_search(cone, datum, gens):
    """The generation check by a search for each Hilbert basis element as a
    sum of the generators: the library's former body, kept as the oracle of
    fans._check_monoid_saturated."""
    coords = []
    for g in gens:
        sol = datum.coordinates(g)
        if sol is None:
            raise InvalidFan([{"kind": "non-saturated-monoid", "detail": "generator outside its own group"}])
        coords.append(sol)
    full = fans_module._datum_monoid(cone, datum)
    for h in full.hilbert_basis():
        if not _in_submonoid(h, coords, full.cone):
            raise InvalidFan([{"kind": "non-saturated-monoid", "detail": f"monoid misses the lattice point {h}"}])


def _generation_outcome(check, cone, datum, gens):
    try:
        check(cone, datum, gens)
    except InvalidFan as exc:
        return exc.violations
    return None


class TestPredicatesReadInvariants:
    def test_monoid_generation_matches_the_search(self):
        """Generator lists from the Hilbert basis of a sharp cone, with
        elements scaled or dropped, sums added, and torsion attached."""
        rng = random.Random(4343)
        outcomes = []
        while len(outcomes) < 400:
            n = rng.randint(1, 3)
            group = FgaGroup(n, rng.choice([(), (2,)]))
            sigma = Cone.from_generators(
                [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 1))], n
            )
            if not sigma.is_sharp():
                continue
            hb = AffineMonoid(sigma).hilbert_basis()
            gens = [h if rng.random() < 0.6 else tuple(rng.choice([2, 3]) * x for x in h) for h in hb]
            gens = [g for g in gens if rng.random() < 0.8]
            gens += [tuple(a + b for a, b in zip(*rng.sample(hb, 2))) for _ in range(rng.randint(0, 2)) if len(hb) > 1]
            gens = [g + tuple(rng.randrange(d) for d in group.torsion) for g in gens]
            cone = Cone.from_generators([g[:n] for g in gens], n)
            datum = LatticeDatum.from_generators(group, gens)
            if datum.violations(cone):
                continue
            new = _generation_outcome(fans_module._check_monoid_saturated, cone, datum, gens)
            assert new == _generation_outcome(check_monoid_saturated_by_search, cone, datum, gens), gens
            outcomes.append(new is None)
        assert outcomes.count(True) >= 200 and outcomes.count(False) >= 50

    def test_smoothness_computes_no_hilbert_basis(self, monkeypatch):
        fans = [plane_fan(), build_p22(), from_classical(Z2, [Cone.from_generators([(1, 0), (1, 10001)], 2)])]
        rng = random.Random(4444)
        fans += [random_simplicial_km_fan(rng) for _ in range(20)]
        for _ in range(20):
            rays = [(rng.randint(1, 4), rng.randint(-4, 4)), (rng.randint(-4, 4), rng.randint(1, 4))]
            if matrix_rank(IntMatrix.from_columns(rays)) == 2:
                fans.append(from_classical(Z2, [Cone.from_generators(rays, 2)]))
        expected = [is_smooth(fan) for fan in fans]
        calls = []
        monkeypatch.setattr(AffineMonoid, "_compute_hilbert", lambda self: calls.append(1))
        assert [is_smooth(fan) for fan in fans] == expected
        assert calls == []
        assert expected[:3] == [True, True, False] and expected.count(False) >= 5

    def test_hom_predicates_present_no_quotient(self, monkeypatch):
        """The yes/no questions about a cokernel or an induced map read
        invariant factors and saturation, never a presented quotient."""
        rng = random.Random(4545)
        homs = [random_hom(rng, random_group(rng), random_group(rng)) for _ in range(60)]
        morphisms = [p22_morphism()] + seeded_torsion_morphisms(47, 20)
        not_tame = next(f for f in homs if not abelian.is_tame_hom(f))
        a1 = from_classical(Z, [Cone.from_generators([(1,)], 1)])
        double = GroupHom(Z, Z, IntMatrix([[2]]))

        def banned(*args, **kwargs):
            raise AssertionError("a quotient was presented")

        for name in ("present_quotient", "hom_kernel_cokernel"):
            monkeypatch.setattr(abelian, name, banned)
            monkeypatch.setattr(fans_module, name, banned, raising=False)
        for f in homs:
            abelian.is_tame_hom(f)
            abelian.is_surjective(f)
        inflate(a1, double)
        contract(a1, double)
        for f in morphisms:
            is_representable(f)
        with pytest.raises(NotTame):
            abelian.dd_of_hom(not_tame)
        monkeypatch.setattr(abelian, "present_quotient", present_quotient)
        dd = abelian.dd_of_hom(double)
        assert dd.cokernel == FgaGroup(0, (2,)) and dd.kernel.generators() == []



# -- validation from facets: the replaced bodies, kept as oracles ----------


def facet_normal_certificate(r, maximal) -> bool:
    """_certified_complete_simplicial as it was: (b) read off the first
    cone's facet normal and (c) off contains_point, both from derived
    H-descriptions."""
    if r < 2 or any(len(c.rays) != r or c.dim() != r for c in maximal):
        return False
    sides = {}
    for c in maximal:
        for i, apex in enumerate(c.rays):
            sides.setdefault(c.rays[:i] + c.rays[i + 1:], []).append((c, apex))
    for pair in sides.values():
        if len(pair) != 2:
            return False
        (a, apex_a), (_, apex_b) = pair
        normal = next(h for h in a.facets if _dot(h, apex_a) > 0)
        if _dot(normal, apex_b) >= 0:
            return False
    p = maximal[0].relative_interior_point()
    return sum(c.contains_point(p) for c in maximal) == 1


def missing_faces_by_faces(cones) -> list:
    """(face, cone) for every face of every cone that is not in the set."""
    cone_set = set(cones)
    return [(f, c) for c in cones for f in c.faces() if f not in cone_set]


def datum_violations_by_solves(fan: KmFan) -> list:
    """The data phase as it was: every datum checked by
    LatticeDatum.violations and every pair of a cone and a proper nonzero
    face, found among all faces, by _saturated_in, which solves the face's
    basis in the coface's datum; the report names the failing covering
    pairs."""
    out = []
    for c in fan.cones:
        datum = fan.data.get(c)
        if datum is None:
            out.append({"kind": "missing-datum", "detail": f"no lattice datum for {c!r}"})
            continue
        if datum.ambient != fan.group:
            out.append({"kind": "wrong-datum-group", "detail": f"datum for {c!r} lives in the wrong group"})
            continue
        for v in datum.violations(c):
            out.append({"kind": "invalid-datum", "detail": f"{c!r}: {v}"})
    if out:
        return out
    data = fan.data
    return _covering_report([
        (sigma, tau)
        for sigma in fan.cones
        for tau in sigma.faces()[1:-1]
        if not fans_module._saturated_in(data[sigma], data[tau])
    ])


def oracle_validate(fan: KmFan, monkeypatch) -> list:
    """validate() composed from the oracles: the cone phase with the
    facet-normal certificate, then the solve-per-pair data phase.  The
    maximal cones the cone phase finds are checked against the face-based
    ones by _validate_against_oracles, wherever the pair check reads them:
    on closed sets of sharp cones."""
    with monkeypatch.context() as m:
        m.setattr(fans_module, "_certified_complete_simplicial", facet_normal_certificate)
        problems = _cone_phase(fan.group.free_rank, fan.cones)[2]
    return problems or datum_violations_by_solves(fan)


def _validate_against_oracles(group, cones, data, monkeypatch, seen) -> list:
    """validate() of a new unchecked fan, checked against oracle_validate;
    the closure report against every missing face, and, on a closed set of
    sharp cones, the maximal cones and the certificate against theirs."""
    fan = unchecked_fan(group, cones, data)
    problems = fan.validate()
    assert problems == oracle_validate(unchecked_fan(group, cones, data), monkeypatch), (fan.cones, problems)
    missing = missing_faces_by_faces(fan.cones)
    assert [p["detail"] for p in problems if p["kind"] == "missing-face"] == [
        f"face {f!r} of {c!r} is not in the fan" for f, c in missing if f.dim() == c.dim() - 1
    ]
    if not missing and all(c.is_sharp() for c in fan.cones):
        maximal = maximal_cones_by_faces(fan.cones)
        assert fan.maximal_cones() == maximal
        certified = _certified_complete_simplicial(group.free_rank, maximal)
        assert certified == facet_normal_certificate(group.free_rank, maximal)
        seen["certified"] += certified
    seen[problems[0]["kind"] if problems else "valid"] += 1
    return problems


def _classical_data(group, cones) -> dict:
    return {c: LatticeDatum.from_generators(group, c.span_lattice_basis().columns()) for c in cones}


class TestValidationAgainstOracles:
    def test_cone_sets_agree(self, monkeypatch):
        """Classical data on polygon and octant fans with overlapping cones,
        dropped faces and crossing rays (TestValidationFuzz), and on complete
        simplicial fans in Z^2 and Z^3 with one ray moved: 600 cone sets."""
        rng = random.Random(2020)
        seen = collections.Counter()
        fuzz = test_properties.TestValidationFuzz
        for _ in range(300):
            maximal = fuzz.random_maximal_cones(rng)
            n = maximal[0].ambient_rank
            cone_list = {f for c in maximal for f in c.faces()}
            corruption = rng.choice(["none", "overlap", "dropped-face", "crossing-ray"])
            if corruption == "overlap":
                gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n))]
                cone_list |= set(Cone.from_generators(gens, n).faces())
            elif corruption == "dropped-face":
                proper = sorted({f for c in maximal for f in c.faces() if f != c}, key=repr)
                for f in rng.sample(proper, rng.randint(1, min(3, len(proper)))):
                    cone_list.discard(f)
            elif corruption == "crossing-ray":
                old = rng.choice(sorted({r for c in maximal for r in c.rays}))
                new = tuple(rng.randint(-3, 3) for _ in range(n))
                moved = [Cone.from_generators([new if r == old else r for r in c.rays], n) for c in maximal]
                cone_list = {f for c in moved for f in c.faces()}
            group = FgaGroup(n)
            _validate_against_oracles(group, cone_list, _classical_data(group, cone_list), monkeypatch, seen)
        for i in range(300):
            r = 2 + i % 2
            maximal_rays = _stellar_complete_fan(rng, r, rng.randint(0, 2))
            if rng.random() < 0.7:
                old = rng.choice(sorted({u for rays in maximal_rays for u in rays}))
                new = primitive_vector(tuple(x + rng.randint(-2, 2) for x in old))
                if any(new):
                    maximal_rays = [tuple(new if u == old else u for u in rays) for rays in maximal_rays]
            cones = _closure(r, maximal_rays)
            group = FgaGroup(r)
            _validate_against_oracles(group, cones, _classical_data(group, cones), monkeypatch, seen)
        assert sum(seen.values()) - seen["certified"] == 600
        for kind in ("valid", "missing-face", "bad-intersection"):
            assert seen[kind] >= 40, seen
        assert seen["certified"] >= 100, seen

    def test_data_agree(self, monkeypatch):
        """Seeded KM fans, torsion and products with P^1 included; on a
        lattice, also with classical data and with the data dilated by 2.
        Each is checked as it is and with one datum perturbed or, among
        classical and dilated data, swapped for the other kind."""
        rng = random.Random(2121)
        seen = collections.Counter()
        fans = _seeded_km_fans(rng)
        checked = 0
        while checked < 600:
            fan = next(fans)
            group, cones = fan.group, fan.cones
            variants = [dict(fan.data)]
            if group.is_lattice():
                classical = _classical_data(group, cones)
                dilated = {c: LatticeDatum.from_generators(group, [tuple(2 * x for x in g) for g in d.generators()])
                           for c, d in classical.items()}
                variants += [classical, dilated]
            for data in variants:
                assert _validate_against_oracles(group, cones, data, monkeypatch, seen) == []
                victim = rng.choice([c for c in cones if c.dim()])
                corrupted = dict(data)
                if len(variants) > 1 and rng.random() < 0.3:
                    swapped = variants[1] if data is variants[2] else variants[2]
                    corrupted[victim] = swapped[victim]
                else:
                    _, gens = _perturbed(group, data[victim].generators(), rng, victim.span_lattice_basis())
                    corrupted[victim] = LatticeDatum.from_generators(group, gens)
                _validate_against_oracles(group, cones, corrupted, monkeypatch, seen)
                checked += 2
        for kind in ("valid", "invalid-datum", "incompatible-data"):
            assert seen[kind] >= 40, seen


class TestValidationFromFacets:
    @pytest.mark.parametrize("build", [
        _complete_polygon_31,
        lambda: _power(projective_line_fan(), 4),
    ], ids=["polygon_31", "p1_fourth"])
    def test_validate_derives_no_h_description_and_no_faces(self, monkeypatch, build):
        """With fresh cones and data: closure, maximal cones, certificate
        and data phase all read rays and facets of rays."""
        fresh = _fresh(build())
        calls = []
        real_derive, real_faces = cones_module._derive_h, Cone.faces
        monkeypatch.setattr(cones_module, "_derive_h", lambda c: calls.append("_derive_h") or real_derive(c))
        monkeypatch.setattr(Cone, "faces", lambda c: calls.append("faces") or real_faces(c))
        assert unchecked_fan(*fresh).validate() == []
        assert calls == []

    def test_cone_phase_runs_once_per_fan(self, monkeypatch):
        """A classical fan keeps the verdict of from_classical, and any other
        fan the verdict its constructor wrote: validate() and maximal_cones()
        run no cone phase."""
        calls = []
        real = fans_module._cone_phase
        monkeypatch.setattr(fans_module, "_cone_phase", lambda *a: calls.append(1) or real(*a))
        polygon = _complete_polygon_31()
        p22_cubed = _power(build_p22(), 3)
        calls.clear()
        for fan in (polygon, unchecked_fan(p22_cubed.group, p22_cubed.cones, p22_cubed.data)):
            maximal = fan.maximal_cones()
            assert fan.validate() == [] and fan.validate() == []
            assert fan.maximal_cones() == maximal == maximal_cones_by_faces(fan.cones)
        assert calls == [1]

    def test_facet_cones_are_the_faces_of_codimension_one(self):
        """Simplicial and non-simplicial cones, with and without lineality."""
        rng = random.Random(2222)
        shapes = collections.Counter()
        for _ in range(400):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, n + 2))]
            if rng.random() < 0.4:
                # in the open halfspace x_0 > 0, so sharp, and mostly not simplicial
                gens = [(rng.randint(1, 3),) + g[1:] for g in gens + [(0,) * n] * 2]
            cone = Cone.from_generators(gens, n)
            d = cone.dim()
            assert cone.facet_cones() == [f for f in cone.faces() if f.dim() == d - 1]
            shapes["simplicial" if cone.is_simplicial() else "sharp" if cone.is_sharp() else "lineality"] += 1
        assert min(shapes.values()) >= 25, shapes


def _count_phases(monkeypatch) -> list:
    """Record each call of the two validation phases, the cone phase also
    where gsfans calls it."""
    calls = []
    real_cones, real_data = fans_module._cone_phase, fans_module._datum_violations
    for module in (fans_module, gsfans_module):
        monkeypatch.setattr(module, "_cone_phase", lambda *a: calls.append("cones") or real_cones(*a))
    monkeypatch.setattr(fans_module, "_datum_violations", lambda *a: calls.append("data") or real_data(*a))
    return calls


def _torsion_datum_p22() -> KmFan:
    """P(2,2) with the datum of one ray replaced by a torsion subgroup."""
    p22 = build_p22()
    plus = Cone.from_generators([(1,)], 1)
    data = {**p22.data, plus: LatticeDatum.from_generators(p22.group, [(0, 1)])}
    return unchecked_fan(p22.group, p22.cones, data)


def _square_cone_fan() -> KmFan:
    """The fan of the cone on (+-1, 0, 1) and (0, +-1, 1), not simplicial."""
    cone = Cone.from_generators([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], 3)
    return from_classical(FgaGroup(3), [cone])


class TestKeptVerdict:
    def test_second_validate_runs_no_phase(self, monkeypatch):
        """Building a fan that validates itself runs the cone phase, and the
        data phase when the cones pass; validate() runs neither, and returns
        the same report on every call."""
        p22, p22_cubed, polygon = build_p22(), _power(build_p22(), 3), _complete_polygon_31()
        quadrant = Cone.from_generators([(1, 0), (0, 1)], 2)
        plus = Cone.from_generators([(1,)], 1)
        cases = [
            ((p22_cubed.group, p22_cubed.cones, p22_cubed.data), ["cones", "data"], True),
            ((polygon.group, polygon.cones, polygon.data), ["cones", "data"], True),
            ((Z2, [quadrant], {quadrant: LatticeDatum.from_generators(Z2, [(1, 0), (0, 1)])}), ["cones"], False),
            ((p22.group, p22.cones, {**p22.data, plus: LatticeDatum.from_generators(p22.group, [(0, 1)])}),
             ["cones", "data"], False),
        ]
        calls = _count_phases(monkeypatch)
        for parts, built_calls, valid in cases:
            calls.clear()
            fan = unchecked_fan(*parts)
            assert calls == built_calls
            report = fan.validate()
            assert (report == []) == valid
            assert fan.validate() == report
            assert calls == built_calls

    def test_report_is_a_fresh_copy(self):
        """An invalid fan reports the same on every call, and a caller that
        changes one report changes no other."""
        for fan in (_torsion_datum_p22(), unchecked_fan(Z2, [Cone.from_generators([(1, 0), (0, 1)], 2)], {})):
            first, second = fan.validate(), fan.validate()
            assert first and first == second
            expected = [dict(p) for p in second]
            first[0]["detail"] = "changed"
            first.append({"kind": "extra", "detail": ""})
            assert second == expected == fan.validate()

    def test_trusted_constructions_keep_the_whole_verdict(self, monkeypatch):
        """Every trusted construction hands over the whole verdict: building
        its fan runs no validation phase but the cone phase from_classical
        and fold run on their own cone sets, its validate() and
        maximal_cones() run none, and its maximal cones are those the faces
        give.  The construction oracle, which validates every trusted fan,
        is off while the phases are counted."""
        p22, square, polygon = build_p22(), _square_cone_fan(), _complete_polygon_31()
        gs = square_cone_gsfan()
        folded = fold(gs)[0]
        p22_squared = _power(p22, 2)
        plane_ray = from_classical(Z2, [Cone.ray((1, 0))])
        rng = random.Random(3838)
        p22_inclusion, square_inclusion = index_inclusion(rng, p22.group), index_inclusion(rng, Z3)
        square_ray = square.ray_cones()[0]
        builds = [
            (lambda: from_classical(Z2, polygon.maximal_cones()), ["cones"]),
            (lambda: product(p22, p22)[0], []),
            (lambda: fold(gs)[0], ["cones"]),
            (lambda: unfold(p22)[0], []),
            (lambda: unfold(folded)[0], []),
            (lambda: rigidified_unfold(p22_squared)[0], []),
            (lambda: coarse_fan(p22)[0], []),
            (lambda: rigidify(p22)[0], []),
            (lambda: dilate(p22, 3)[0], []),
            (lambda: dilate(square, 2)[0], []),
            (lambda: zero_fan(p22.group), []),
            (lambda: star(p22, p22.ray_cones()[0]), []),
            (lambda: star(square, square_ray), []),
            (lambda: star(polygon, polygon.zero_cone()), []),
            (lambda: inflate(p22, p22_inclusion)[0], []),
            (lambda: inflate(square, square_inclusion)[0], []),
            (lambda: contract(p22, p22_inclusion)[0], []),
            (lambda: contract(square, square_inclusion)[0], []),
            (lambda: roots(p22, [2, 3])[0], []),
            (lambda: canonical_resolution(polygon)[0], []),
            (lambda: atoroidal_split(plane_ray)[0], []),
            (lambda: atoroidal_split(p22)[0], []),
        ]
        without_construction_oracle(monkeypatch)
        calls = _count_phases(monkeypatch)
        for build, built_calls in builds:
            calls.clear()
            fan = build()
            assert calls == built_calls, fan
            calls.clear()
            assert fan.validate() == []
            assert fan.maximal_cones() == maximal_cones_by_faces(fan.cones)
            assert calls == []
            assert unchecked_fan(fan.group, fan.cones, fan.data).maximal_cones() == fan.maximal_cones()

    def test_product_hands_over_the_maximal_cones(self):
        """product's maximal cones are those _cone_phase finds on its
        cones, and each product cone, built from its rays with no rank
        test, is the cone from_generators builds on them, of the same
        dimension."""
        p22, p1 = build_p22(), projective_line_fan()
        cases = [_power(p22, k) for k in (2, 3, 4)] + [_power(p1, k) for k in (2, 3, 4)] + [
            product(_complete_polygon_31(), p1)[0],
            product(_square_cone_fan(), p1)[0],
        ]
        for prod in cases:
            found = _cone_phase(prod.group.free_rank, prod.cones)[1]
            assert prod.maximal_cones() == found == maximal_cones_by_faces(prod.cones)
            for c in prod.cones:
                fresh = Cone.from_generators(c.rays, c.ambient_rank)
                assert fresh == c and fresh.dim() == c.dim()


def index_inclusion(rng, group: FgaGroup) -> GroupHom:
    """An injective map of the group into itself with finite cokernel: an
    upper triangular free block with diagonal 1, 2 or 3, free coordinates
    sent into torsion at random, and the identity on torsion."""
    r, t = group.free_rank, len(group.torsion)
    rows = []
    for i in range(r):
        rows.append([0] * i + [rng.choice([1, 1, 2, 3])] + [rng.randint(-1, 1) for _ in range(r - i - 1)] + [0] * t)
    for j, d in enumerate(group.torsion):
        rows.append([rng.randrange(d) for _ in range(r)] + [int(j == k) for k in range(t)])
    return GroupHom(group, group, IntMatrix._make(tuple(tuple(row) for row in rows), group.ncoords))


def carry_fans():
    """Seeded lattice fans, seeded simplicial KM fans with torsion, P(2,2),
    and the fan of the square cone on (+-1, 0, 1), (0, +-1, 1), with its
    classical data and dilated."""
    rng = random.Random(6161)
    torsion = []
    while len(torsion) < 20:
        fan = random_simplicial_km_fan(rng)
        if fan.group.torsion:
            torsion.append(fan)
    square = square_cone_gsfan().fan
    return list(seeded_lattice_fans(60)) + torsion + [build_p22(), square, dilate(square, 2)[0]]


def carry_morphisms():
    """Morphisms of the constructions on carry_fans, seeded_torsion_morphisms,
    a fold, maps to a point and the P(2,2) map; and, not equidimensional,
    the identity from the square cone cut in two and from polygon fans into
    the quadrants."""
    rng = random.Random(6262)
    p1 = projective_line_fan()
    out = [p22_morphism(), fold(square_cone_gsfan())[1]] + seeded_torsion_morphisms(41, 20)
    z3 = FgaGroup(3)
    halves = from_classical(z3, [
        Cone.from_generators([(1, 0, 1), (-1, 0, 1), (0, y, 1)], 3) for y in (1, -1)
    ])
    out.append(validate_hom(GroupHom.identity(z3), halves, square_cone_gsfan().fan))
    quadrants = from_classical(Z2, [
        Cone.from_generators([u, v], 2)
        for u, v in [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))]
    ])
    for _ in range(40):
        f = validate_hom(GroupHom.identity(Z2), _random_polygon_fan(rng), quadrants)
        out += [f] if isinstance(f, KmFanHom) else []
    for fan in carry_fans():
        inc = index_inclusion(rng, fan.group)
        out += [inflate(fan, inc)[1], contract(fan, inc)[1], atoroidal_split(fan)[2], to_point(fan)]
        out += [rigidify(fan)[1], product(fan, p1)[1]]
    return out


class TestCarryAlongAMap:
    def test_inflate_and_contract_equal_the_per_cone_references(self):
        """The same fan, cone dimensions and cone map as the constructions
        that map or solve every cone on its own."""
        rng = random.Random(6363)
        non_simplicial = 0
        for i, fan in enumerate(carry_fans()):
            for _ in range(2):
                inc = index_inclusion(rng, fan.group)
                for construction, reference in ((inflate, carry_oracle.inflate_reference),
                                                (contract, carry_oracle.contract_reference)):
                    built, hom = construction(fan, inc)
                    expected, cone_map = reference(fan, inc)
                    assert built == expected and built.group == expected.group, (i, construction)
                    assert [c.dim() for c in built.cones] == [c.dim() for c in expected.cones], i
                    assert hom.cone_images == cone_map, (i, construction)
            non_simplicial += not is_simplicial(fan)
        assert non_simplicial >= 2

    def test_atoroidal_split_equals_the_per_cone_reference(self):
        tori = 0
        for i, fan in enumerate(carry_fans()):
            g_fan, bgrp, iso = atoroidal_split(fan)
            expected, expected_b, expected_iso = carry_oracle.atoroidal_split_reference(fan)
            assert g_fan == expected and g_fan.group == expected.group and bgrp == expected_b, i
            assert [c.dim() for c in g_fan.cones] == [c.dim() for c in expected.cones], i
            assert iso.hom == expected_iso.hom and iso.cone_images == expected_iso.cone_images, i
            tori += bgrp.free_rank > 0
        assert tori >= 10

    def test_predicates_equal_the_per_cone_references(self):
        """is_semi_tame, is_equidimensional, is_proper and validate_hom on
        the morphisms of carry_morphisms, and validate_hom on random maps
        of each fan to itself, agree with the references, each verdict
        seen both ways."""
        rng = random.Random(6464)
        seen = collections.Counter()
        predicates = (
            ("semi-tame", is_semi_tame, carry_oracle.is_semi_tame_reference),
            ("equidimensional", is_equidimensional, carry_oracle.is_equidimensional_reference),
            ("proper", is_proper, carry_oracle.is_proper_reference),
        )
        homs = carry_morphisms()
        for fan in carry_fans():
            n = fan.group
            m = random_hom(rng, n, n)
            verdict = validate_hom(m, fan, fan)
            expected = carry_oracle.validate_hom_reference(m, fan, fan)
            assert type(verdict) is type(expected), fan
            if isinstance(expected, HomRefusal):
                assert (verdict.cone, verdict.reason) == (expected.cone, expected.reason)
                seen["refused"] += 1
            else:
                assert verdict.cone_images == expected.cone_images
                homs.append(verdict)
        for i, f in enumerate(homs):
            again = validate_hom(f.hom, f.source, f.target)
            assert again.cone_images == carry_oracle.validate_hom_reference(f.hom, f.source, f.target).cone_images
            for name, predicate, reference in predicates:
                outcome = _outcome(predicate, f)
                assert outcome == _outcome(reference, f), (i, name)
                seen[name, outcome] += 1
        for name, _, _ in predicates:
            assert seen[name, True] >= 10 and seen[name, False] >= 10, seen
        assert seen["refused"] >= 10, seen

    def test_one_linear_system_and_no_linear_image(self, monkeypatch):
        """contract and atoroidal_split solve the preimages of all rays in
        one LinearSystem per call, and inflate calls no Cone.linear_image.
        The construction oracle is off."""
        without_construction_oracle(monkeypatch)
        rng = random.Random(6565)
        cases = [(fan, index_inclusion(rng, fan.group)) for fan in carry_fans()]
        calls = collections.Counter()
        real_system, real_image = LinearSystem.__init__, Cone.linear_image
        monkeypatch.setattr(LinearSystem, "__init__", lambda s, m: calls.update(["system"]) or real_system(s, m))
        monkeypatch.setattr(Cone, "linear_image", lambda c, m: calls.update(["linear_image"]) or real_image(c, m))
        rays = 0
        for i, (fan, inc) in enumerate(cases):
            for run in (lambda: contract(fan, inc), lambda: atoroidal_split(fan)):
                calls.clear()
                run()
                assert calls == {"system": 1}, i
            calls.clear()
            inflate(fan, inc)
            assert calls["linear_image"] == 0, i
            rays += len(fan.ray_cones()) > 1
        assert rays >= 40


def smooth_and_simplicial_fans():
    """carry_fans, products of some of them with P^1, rooted P(2,2) and
    polygons; the smooth ones are rooted, the simplicial ones resolved."""
    rng = random.Random(6767)
    p1 = projective_line_fan()
    fans = carry_fans() + [product(fan, p1)[0] for fan in carry_fans()[::7]]
    fans += [polygon_fan(12), product(random_polygon_km_fan(rng), p1)[0], product(build_p22(), p1)[0]]
    return [fan for fan in fans if is_simplicial(fan)]


class TestOnePushPerDatum:
    """Every construction that moves a datum along a map takes one matrix
    product per datum (LatticeDatum._image) or reads generators off the
    cone's own rays; the per-generator forms are the references of
    carry_oracle."""

    def test_image_equals_the_per_generator_push(self):
        rng = random.Random(6868)
        torsion = 0
        for i, fan in enumerate(carry_fans()):
            for c in fan.cones[::2]:
                target = random_group(rng)
                hom = random_hom(rng, fan.group, target)
                image = fan.data[c]._image(hom)
                assert image == carry_oracle.image_reference(fan.data[c], hom), (i, c)
                assert image.ambient == target
                torsion += bool(target.torsion) and fan.data[c].rank() > 0
        assert torsion >= 40

    def test_image_from_the_wrong_ambient_raises(self):
        """A datum of P(2,2), over Z + Z/2, along a map from Z^3."""
        fan = build_p22()
        datum, hom = fan.data[fan.maximal_cones()[0]], GroupHom.identity(FgaGroup(3))
        for push in (datum._image, lambda h: carry_oracle.image_reference(datum, h)):
            with pytest.raises(DimensionMismatch):
                push(hom)

    def test_product_data_equal_the_per_pair_push(self):
        """(P(2,2))^k and (P^1)^k for k <= 3, and polygons times P^1."""
        rng = random.Random(6969)
        p1, p22 = projective_line_fan(), build_p22()
        cases = []
        for base in (p22, p1):
            power = base
            for _ in range(2):
                cases.append((power, base))
                power = product(power, base)[0]
        cases += [(polygon_fan(12), p1), (random_polygon_km_fan(rng), p1), (p1, random_polygon_km_fan(rng))]
        for i, (a, b) in enumerate(cases):
            prod, to_a, to_b = product(a, b)
            data = {(to_a.cone_images[c], to_b.cone_images[c]): prod.data[c] for c in prod.cones}
            assert data == carry_oracle.product_data_reference(a, b), i
        assert len(cases[1][0].cones) == 9 and cases[1][0].group.torsion == (2, 2)

    def test_dilate_equals_per_generator_scaling(self):
        """On P(2,2), over Z + Z/2, every factor, and on carry_fans."""
        rng = random.Random(7070)
        for factor in (1, 2, 3, 4, 5):
            fan = build_p22()
            assert dilate(fan, factor)[0].data == carry_oracle.dilate_data_reference(fan, factor), factor
        for i, fan in enumerate(carry_fans()):
            factor = rng.randint(1, 6)
            assert dilate(fan, factor)[0].data == carry_oracle.dilate_data_reference(fan, factor), i

    def test_roots_and_resolution_equal_the_contains_cone_scan(self):
        rng = random.Random(7171)
        smooth = 0
        for i, fan in enumerate(smooth_and_simplicial_fans()):
            ones = [1] * len(fan.ray_cones())
            assert canonical_resolution(fan)[0].data == carry_oracle.scaled_markings_reference(fan, ones), i
            if is_smooth(fan):
                orders = [rng.randint(1, 4) for _ in ones]
                assert roots(fan, orders)[0].data == carry_oracle.scaled_markings_reference(fan, orders), i
                smooth += 1
        assert smooth >= 30

    def test_no_contains_cone_scan_and_no_per_generator_apply(self, monkeypatch):
        """canonical_resolution calls no Cone.contains_cone, and product no
        GroupHom.apply.  The construction oracle is off."""
        without_construction_oracle(monkeypatch)
        fans = smooth_and_simplicial_fans()
        calls = collections.Counter()
        real_contains, real_apply = Cone.contains_cone, GroupHom.apply
        monkeypatch.setattr(Cone, "contains_cone", lambda c, o: calls.update(["contains_cone"]) or real_contains(c, o))
        monkeypatch.setattr(GroupHom, "apply", lambda h, v: calls.update(["apply"]) or real_apply(h, v))
        p1 = projective_line_fan()
        for fan in fans:
            canonical_resolution(fan)
            product(fan, p1)
            product(p1, fan)
        assert calls == {}


def smooth_over_all_cones(fan: KmFan) -> bool:
    return all(is_free_monoid(cone_monoid(fan, c)) for c in fan.cones)


def simplicial_over_all_cones(fan: KmFan) -> bool:
    return all(c.is_simplicial() for c in fan.cones)


def atoroidal_over_all_rays(fan: KmFan) -> bool:
    """Every ray of every cone, with repeats, spans the free quotient."""
    all_rays = [r for c in fan.cones for r in c.rays]
    if fan.group.free_rank == 0:
        return True
    if not all_rays:
        return False
    return matrix_rank(IntMatrix._make(tuple(all_rays), fan.group.free_rank)) == fan.group.free_rank


class TestPredicatesOnMaximalCones:
    """is_smooth and is_simplicial read the maximal cones, and is_atoroidal
    the rays of the ray cones; the forms over every cone are the oracles."""

    @staticmethod
    def cases():
        rng = random.Random(7272)
        p1 = projective_line_fan()
        fans = carry_fans() + [product(fan, p1)[0] for fan in carry_fans()[::5]]
        fans += [fold(random_foldable_gsfan(rng))[0] for _ in range(20)]
        fans += [_random_polygon_fan(rng) for _ in range(30)]
        fans += [random_simplicial_km_fan(rng) for _ in range(30)]
        fans += [from_classical(Z2, [Cone.from_generators([(1, 0), (1, 2)], 2)]), zero_fan(FgaGroup(2, (3,)))]
        for n in range(4, 9):  # cones over n-gons, with their faces, times P^1 and dilated
            polygon = from_classical(Z3, [Cone.from_generators([(x, y, 10) for x, y in _circle_rays(n)], 3)])
            fans += [polygon, product(polygon, p1)[0], dilate(polygon, n)[0]]
        return fans

    def test_agree_with_the_all_cones_forms(self):
        seen = collections.Counter()
        for i, fan in enumerate(self.cases()):
            for predicate, oracle in ((is_smooth, smooth_over_all_cones),
                                      (is_simplicial, simplicial_over_all_cones),
                                      (is_atoroidal, atoroidal_over_all_rays)):
                verdict = predicate(fan)
                assert verdict == oracle(fan), (i, predicate.__name__)
                seen[predicate.__name__, verdict] += 1
        assert len(seen) == 6 and min(seen.values()) >= 5, seen
        assert sum(bool(fan.group.torsion) for fan in self.cases()) >= 20

    def test_smoothness_builds_one_monoid_per_maximal_cone(self, monkeypatch):
        """(P^1)^3: 8 monoids for its 8 maximal cones, of 27 cones."""
        fan = product(product(projective_line_fan(), projective_line_fan())[0], projective_line_fan())[0]
        built = []
        real = fans_module.cone_monoid
        monkeypatch.setattr(fans_module, "cone_monoid", lambda f, c: built.append(c) or real(f, c))
        assert is_smooth(fan)
        assert built == fan.maximal_cones() and (len(built), len(fan.cones)) == (8, 27)


def _same_verdict(f: GroupHom, source: KmFan, target: KmFan) -> str:
    """validate_hom against the scan of every target cone in fan order
    (carry_oracle.validate_hom_reference): the same cone map, or the same
    refused cone and reason.  Returns which it was."""
    verdict = validate_hom(f, source, target)
    expected = carry_oracle.validate_hom_reference(f, source, target)
    assert type(verdict) is type(expected), (verdict, expected)
    if isinstance(expected, HomRefusal):
        assert (verdict.cone, verdict.reason) == (expected.cone, expected.reason)
        return expected.reason
    assert verdict.cone_images == expected.cone_images
    return "morphism"


class TestValidateHomFromAPoint:
    def test_agrees_with_the_scan_on_seeded_torsion_morphisms(self):
        """Each morphism's group map, from source to target and back: the
        way back keeps every cone and refuses a datum that does not map in."""
        seen = collections.Counter()
        for f in seeded_torsion_morphisms(53, 40):
            seen[_same_verdict(f.hom, f.source, f.target)] += 1
            seen[_same_verdict(f.hom, f.target, f.source)] += 1
        assert seen["morphism"] >= 40, seen
        assert seen["lattice datum does not map into the datum of the minimal cone"] >= 10, seen

    def test_agrees_with_the_scan_on_the_golden_hom_documents(self):
        inputs = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
        documents = sorted(p for p in inputs.glob("*.json") if "source_fan" in json.loads(p.read_text()))
        assert len(documents) >= 4
        for path in documents:
            source, target, hom = cli_module._read_hom(str(path))
            assert _same_verdict(hom, source, target) == "morphism", path.name

    def test_refusals_match_the_scan(self):
        """An image that straddles two maximal cones, with the point p on
        their common ray or inside one of them; an image outside the
        support; and a datum that does not map into its minimal cone's."""
        quadrants = from_classical(Z2, [Cone.from_generators(rays, 2) for rays in QUADRANTS])
        identity = GroupHom.identity(Z2)
        straddling = [
            from_classical(Z2, [Cone.from_generators([(1, -1), (1, 1)], 2)]),
            from_classical(Z2, [Cone.from_generators([(1, -1), (2, 1)], 2)]),
        ]
        for source in straddling:
            assert _same_verdict(identity, source, quadrants) == "image of the cone is not contained in any target cone"
        first = from_classical(Z2, [Cone.from_generators(QUADRANTS[0], 2)])
        assert _same_verdict(identity, quadrants, first) == "image of the cone is not contained in any target cone"
        line, doubled = line_fan(), dilate(line_fan(), 2)[0]
        one = GroupHom.identity(Z)
        assert _same_verdict(one, line, doubled) == "lattice datum does not map into the datum of the minimal cone"
        assert _same_verdict(one, doubled, line) == "morphism"

    def test_identity_of_a_face_lattice_locates_each_cone_from_one_point(self, monkeypatch):
        """The identity of the face lattice of the cone on the unit vectors
        of Z^8: contains_point runs at most once per target maximal cone
        and once per ray for each source cone, 1280 calls, where the scan
        of every target cone made 55677.  The construction oracle, which
        runs validate_hom again for each KmFanHom, is off."""
        z8 = FgaGroup(8)
        fan = from_classical(z8, [Cone.from_generators([tuple(int(i == j) for j in range(8)) for i in range(8)], 8)])
        bound = sum(len(fan.maximal_cones()) + len(sigma.rays) for sigma in fan.cones)
        assert (len(fan.cones), bound) == (256, 1280)
        without_construction_oracle(monkeypatch)
        calls = []
        real = Cone.contains_point
        monkeypatch.setattr(Cone, "contains_point", lambda c, v: calls.append(1) or real(c, v))
        f = validate_hom(GroupHom.identity(z8), fan, fan)
        assert len(calls) <= bound
        assert f.cone_images == {c: c for c in fan.cones}
