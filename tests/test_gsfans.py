"""GS fans, folding, and the unfolding correspondence."""

import collections
import itertools
import os
import random

import pytest

from kmfan.abelian import (
    FgaGroup,
    GroupHom,
    Subgroup,
    direct_sum,
    dual_hom,
    free_quotient,
    hom_kernel_cokernel,
    kernel_subgroup,
    quotient,
)
from kmfan.cones import Cone
from kmfan.documents import fan_from_obj, loads
from kmfan.errors import KmFanError, NotFoldable, NonLattice, PreconditionsFail
from kmfan.fans import (
    KmFan,
    LatticeDatum,
    atoroidal_split,
    dilate,
    from_classical,
    is_atoroidal,
    is_classical,
    is_semi_tame,
    is_tame,
    product,
    rigidify,
    torsor_group,
    validate_hom,
    zero_fan,
)
from kmfan.gsfans import (
    GsFan,
    fold,
    fold_unfold_roundtrip,
    is_foldable,
    is_gs_representable,
    lattice_data_colimit,
    rigidified_unfold,
    unfold,
)
from kmfan import abelian, cones, fans, gsfans, intlinalg, monoids
from kmfan.intlinalg import IntMatrix, hermite_column_basis, primitive_vector, rank as matrix_rank

from conftest import build_p22, line_fan, projective_line_fan, plane_fan, without_construction_oracle
from gsfans_oracle import (
    colimit_reference,
    full_maximal_cone_presentation,
    is_gs_representable_reference,
    per_vector_colimit,
    per_vector_presentation,
    rigidified_unfold_reference,
)
from linalg_oracles import blocks_saturated_by_smith

Z = FgaGroup(1)
Z2 = FgaGroup(2)
Z3 = FgaGroup(3)


def complete_fan_with_rays(rays):
    """The complete classical fan in Z^2 on cyclically ordered rays.

    The rays must contain (1,0), (0,1), (-1,-1) so that consecutive angular
    gaps stay below a halfturn; ordering is exact (no floating point).
    """
    import functools

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def compare(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    ordered = sorted(set(rays) | {(1, 0), (0, 1), (-1, -1)}, key=functools.cmp_to_key(compare))
    cones = []
    for i in range(len(ordered)):
        a, b = ordered[i], ordered[(i + 1) % len(ordered)]
        cones.append(Cone.from_generators([a, b], 2))
    return from_classical(Z2, cones)


def torsion_colimit_fan():
    """The complete classical fan in Z^2 with rays (1,2), (1,-2), (-1,0)."""
    return from_classical(Z2, [
        Cone.from_generators([(1, 2), (1, -2)], 2),
        Cone.from_generators([(1, -2), (-1, 0)], 2),
        Cone.from_generators([(1, 2), (-1, 0)], 2),
    ])


def nonsaturated_colimit_fan():
    """Same cones, but the wide cone carries the sublattice <(1,2),(1,-2)>."""
    base = torsion_colimit_fan()
    wide = Cone.from_generators([(1, 2), (1, -2)], 2)
    r1 = Cone.from_generators([(1, 2)], 2)
    r2 = Cone.from_generators([(1, -2)], 2)
    data = dict(base.data)
    data[wide] = LatticeDatum.from_generators(Z2, [(1, 2), (1, -2)])
    data[r1] = LatticeDatum.from_generators(Z2, [(1, 2)])
    data[r2] = LatticeDatum.from_generators(Z2, [(1, -2)])
    return KmFan(Z2, base.cones, data)


class TestGsFanRefusals:
    @pytest.mark.parametrize("fan, beta, error, message", [
        (lambda: nonsaturated_single_cone_fan(), GroupHom.identity(Z2), KmFanError, "must be classical"),
        (projective_line_fan, GroupHom.identity(Z2), KmFanError, "start at the fan's lattice"),
        (projective_line_fan, GroupHom(Z, FgaGroup(1, (2,)), IntMatrix([[1], [0]])), NonLattice, "land in a lattice"),
        (projective_line_fan, GroupHom(Z, Z2, IntMatrix([[1], [0]])), KmFanError, "finite cokernel"),
    ], ids=["unsaturated-fan", "wrong-source", "torsion-target", "infinite-cokernel"])
    def test_refused(self, fan, beta, error, message):
        with pytest.raises(error, match=message):
            GsFan(fan(), beta)


class TestFoldable:
    def test_doubling_is_foldable(self):
        gs = GsFan(line_fan(), GroupHom(Z, Z, IntMatrix([[2]])))
        ok, problems = is_foldable(gs)
        assert ok and problems == []

    def test_collapse_fails_condition_one(self):
        gs = GsFan(projective_line_fan(), GroupHom(Z, FgaGroup(0), IntMatrix.zero(0, 1)))
        ok, problems = is_foldable(gs)
        assert not ok
        assert any(p["kind"] == "collapsed-cone" for p in problems)

    def test_projection_with_disjoint_images_is_foldable(self):
        fan = from_classical(Z2, [
            Cone.from_generators([(1, 0)], 2),
            Cone.from_generators([(-1, 0)], 2),
        ])
        gs = GsFan(fan, GroupHom(Z2, Z, IntMatrix([[1, 0]])))
        assert is_foldable(gs)[0]

    def test_overlapping_images_fail_condition_two(self):
        fan = from_classical(Z2, [
            Cone.from_generators([(1, 0)], 2),
            Cone.from_generators([(1, 1)], 2),
        ])
        gs = GsFan(fan, GroupHom(Z2, Z, IntMatrix([[1, 0]])))
        ok, problems = is_foldable(gs)
        assert not ok
        assert any(p["kind"] == "overlapping-images" for p in problems)


class TestFold:
    def test_doubling_fold(self):
        gs = GsFan(line_fan(), GroupHom(Z, Z, IntMatrix([[2]])))
        folded, hom = fold(gs)
        assert folded == dilate(line_fan(), 2)[0]
        assert is_tame(hom)
        assert torsor_group(hom) == FgaGroup(0, (2,))

    def test_identity_fold(self):
        fan = projective_line_fan()
        gs = GsFan(fan, GroupHom.identity(Z))
        folded, _ = fold(gs)
        assert folded == fan

    def test_chart_presentation_fold(self):
        # beta the inclusion of a finite-index sublattice: the folded fan is
        # the single-cone chart with the sublattice as datum
        cone = Cone.from_generators([(1, 0), (0, 1)], 2)
        fan = from_classical(Z2, [cone])
        beta = GroupHom(Z2, Z2, IntMatrix([[2, 0], [0, 1]]))
        folded, hom = fold(GsFan(fan, beta))
        assert folded.data[cone].generators() == [(2, 0), (0, 1)]
        assert is_tame(hom)

    def test_unfoldable_raises(self):
        gs = GsFan(projective_line_fan(), GroupHom(Z, FgaGroup(0), IntMatrix.zero(0, 1)))
        with pytest.raises(NotFoldable):
            fold(gs)

    def test_torsor_group_matches_dual_cokernel(self):
        rng = random.Random(22)
        for _ in range(20):
            gs = random_foldable_gsfan(rng)
            folded, hom = fold(gs)
            assert is_tame(hom)
            _, cok, _ = hom_kernel_cokernel(dual_hom(gs.beta))
            assert torsor_group(hom) == cok

    def test_rank_dropping_beta(self):
        # beta need not be injective globally, only on each cone span
        fan = from_classical(Z2, [
            Cone.from_generators([(1, 0)], 2),
            Cone.from_generators([(-1, 0)], 2),
        ])
        gs = GsFan(fan, GroupHom(Z2, Z, IntMatrix([[1, 0]])))
        folded, hom = fold(gs)
        assert folded == projective_line_fan()
        assert is_tame(hom)
        assert torsor_group(hom) == Z  # the kernel line survives as the torsor


def random_foldable_gsfan(rng: random.Random) -> GsFan:
    """Random foldable atoroidal GS fans: atoroidal classical fan in rank d
    with a nonsingular beta (injectivity makes both conditions automatic)."""
    style = rng.randrange(4)
    if style == 0:
        fan = projective_line_fan()
        d = 1
    elif style == 1:
        d = 2
        rays = set()
        while len(rays) < rng.randint(1, 3):
            v = primitive_vector((rng.randint(-3, 3), rng.randint(-3, 3)))
            if any(v):
                rays.add(v)
        fan = complete_fan_with_rays(sorted(rays))
    elif style == 2:
        d = 3
        cone = None
        while cone is None or cone.dim() != 3 or not cone.is_sharp() or len(cone.rays) != 3:
            gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
            cone = Cone.from_generators(gens, 3)
        fan = from_classical(Z3, [cone])
    else:
        d = 2
        cone = None
        while cone is None or cone.dim() != 2 or not cone.is_sharp():
            gens = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)]
            cone = Cone.from_generators(gens, 2)
        fan = from_classical(Z2, [cone])
    while True:
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        if matrix_rank(m) == d:
            break
    lattice = fan.group
    return GsFan(fan, GroupHom(lattice, FgaGroup(d), m))


class TestColimit:
    def test_single_maximal_cone(self):
        fan = plane_fan()
        unf = lattice_data_colimit(fan)
        assert unf.colimit == Z2
        quad = Cone.from_generators([(1, 0), (0, 1)], 2)
        assert unf.structure_maps[quad].matrix == IntMatrix.identity(2)

    def test_torsion_counterexample(self):
        unf = lattice_data_colimit(torsion_colimit_fan())
        assert unf.colimit.free_rank == 3
        assert 2 in unf.colimit.torsion or any(d % 2 == 0 for d in unf.colimit.torsion)

    def test_nonsaturated_counterexample(self):
        fan = nonsaturated_colimit_fan()
        unf = lattice_data_colimit(fan)
        assert unf.colimit == Z3
        wide = Cone.from_generators([(1, 2), (1, -2)], 2)
        _, cok, _ = hom_kernel_cokernel(unf.structure_maps[wide])
        assert cok == FgaGroup(1, (2,))

    def test_beta_restricts_to_inclusions(self):
        rng = random.Random(23)
        from conftest import random_simplicial_km_fan

        for _ in range(6):
            fan = random_simplicial_km_fan(rng)
            unf = lattice_data_colimit(fan)
            for c in fan.cones:
                basis = fan.data[c].basis()
                imap = unf.structure_maps[c]
                assert not kernel_subgroup(imap).generators()  # i_sigma injective
                comp = imap.then(unf.beta)
                for j in range(basis.cols):
                    e = tuple(1 if i == j else 0 for i in range(basis.cols))
                    assert comp.apply(e) == fan.group.reduce(basis.column(j))

    @pytest.mark.parametrize("fan_builder", [torsion_colimit_fan, nonsaturated_colimit_fan])
    def test_pushout_decomposition(self, fan_builder):
        # computing the colimit in one shot agrees with the pushout of the
        # colimits over (fan minus a maximal cone) and (that cone's faces)
        from kmfan.gsfans import induced_colimit_map

        fan = fan_builder()
        glued = lattice_data_colimit(fan)
        maximal = fan.maximal_cones()[0]
        rest_cones = [c for c in fan.cones if c != maximal]
        rest = KmFan(fan.group, rest_cones, {c: fan.data[c] for c in rest_cones})
        piece = KmFan(fan.group, maximal.faces(), {c: fan.data[c] for c in maximal.faces()})
        boundary_cones = [c for c in maximal.faces() if c != maximal]
        boundary = KmFan(fan.group, boundary_cones, {c: fan.data[c] for c in boundary_cones})
        u = lattice_data_colimit(rest)
        v = lattice_data_colimit(piece)
        w = lattice_data_colimit(boundary)
        into_u = induced_colimit_map(w, u)
        into_v = induced_colimit_map(w, v)
        prod, i1, i2, _, _ = direct_sum(u.colimit, v.colimit)
        gens = []
        for j in range(w.colimit.ncoords):
            e = tuple(1 if i == j else 0 for i in range(w.colimit.ncoords))
            a = i1.apply(into_u.apply(e))
            b = i2.apply(into_v.apply(e))
            gens.append(prod.reduce(tuple(x - y for x, y in zip(a, b))))
        pushout, _ = quotient(prod, Subgroup.from_generators(prod, gens))
        assert pushout == glued.colimit


class TestUnfold:
    def test_classical_line(self):
        fan = line_fan()
        unfolded, hom, _ = unfold(fan)
        assert unfolded == fan
        assert hom.hom.matrix == IntMatrix.identity(1)

    def test_p22(self):
        fan = build_p22()
        unfolded, hom, unf = unfold(fan)
        assert unf.colimit == Z2
        assert len(unfolded.cones) == 3
        assert is_tame(hom)
        assert torsor_group(hom) == Z

    def test_semi_tame_always(self):
        rng = random.Random(24)
        from conftest import random_simplicial_km_fan

        for _ in range(8):
            fan = random_simplicial_km_fan(rng)
            unfolded, hom, _ = unfold(fan)
            assert is_semi_tame(hom)

    def test_tame_when_atoroidal_with_free_kernel(self):
        fan = nonsaturated_colimit_fan()
        unfolded, hom, unf = unfold(fan)
        assert is_atoroidal(fan)
        assert kernel_subgroup(unf.beta).is_lattice()
        assert is_tame(hom)

    def test_classical_can_unfold_nonclassically(self):
        unfolded, hom, unf = unfold(torsion_colimit_fan())
        assert unf.colimit.torsion  # the colimit has torsion
        assert not unfolded.group.is_lattice()

    def test_semi_tame_invariance_of_colimit(self):
        fan = build_p22()
        rig, q = rigidify(fan)
        assert is_semi_tame(q)
        a = lattice_data_colimit(fan).colimit
        b = lattice_data_colimit(rig).colimit
        assert a == b


class TestRigidifiedUnfold:
    def test_classical_stays_classical(self):
        rig, betabar = rigidified_unfold(torsion_colimit_fan())
        assert is_classical(rig)
        assert betabar is not None and is_semi_tame(betabar)

    def test_nonsaturated_is_not_classical(self):
        rig, betabar = rigidified_unfold(nonsaturated_colimit_fan())
        assert not is_classical(rig)

    def test_single_cone_fan(self):
        fan = plane_fan()
        rig, betabar = rigidified_unfold(fan)
        assert rig == fan
        assert betabar is not None

    def test_initial_among_semi_tame_on_examples(self):
        # rigidified unfolding of a classical fan is tame over it when the
        # fan is atoroidal (it is a classical cover)
        fan = torsion_colimit_fan()
        rig, betabar = rigidified_unfold(fan)
        assert is_tame(betabar)


class TestGsRepresentable:
    def test_classical_fans_are_representable(self):
        assert is_gs_representable(torsion_colimit_fan())
        assert is_gs_representable(projective_line_fan())
        assert is_gs_representable(plane_fan())

    def test_paper_counterexample(self):
        assert not is_gs_representable(nonsaturated_colimit_fan())

    def test_p22_rigidification(self):
        rig, _ = rigidify(build_p22())
        assert is_gs_representable(rig)

    def test_torsion_group_rejected(self):
        with pytest.raises(NonLattice):
            is_gs_representable(build_p22())


def split_then_test(fan: KmFan) -> bool:
    """GS-representability the long way: split off the torus factor first,
    then test every structure map of the atoroidal part's colimit."""
    g_fan, _, _ = atoroidal_split(fan)
    unf = lattice_data_colimit(g_fan)
    _, to_free = free_quotient(unf.colimit)
    for c in g_fan.cones:
        _, cok, _ = hom_kernel_cokernel(unf.structure_maps[c].then(to_free))
        if cok.torsion:
            return False
    return True


def random_primitive(rng: random.Random, rank: int, bound: int):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if any(v):
            return primitive_vector(v)


def three_ray_classical_fan(rng: random.Random) -> KmFan:
    """A complete classical fan in Z^2 on three rays; its colimit often has
    torsion, as that of torsion_colimit_fan does."""
    while True:
        u, v = random_primitive(rng, 2, 3), random_primitive(rng, 2, 3)
        if u[0] * v[1] - u[1] * v[0] != 0:
            break
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    w = primitive_vector((-a * u[0] - b * v[0], -a * u[1] - b * v[1]))
    return from_classical(Z2, [Cone.from_generators(pair, 2) for pair in ((u, v), (v, w), (w, u))])


def mixed_three_ray_fan(rng: random.Random) -> KmFan:
    """A complete fan in Z^2 on three rays; each 2-cone gets the saturated
    datum or the (possibly smaller) datum generated by its primitive rays."""
    base = three_ray_classical_fan(rng)
    data = dict(base.data)
    for c in base.cones:
        if c.dim() == 2 and rng.random() < 0.5:
            data[c] = LatticeDatum.from_generators(Z2, c.rays)
    return KmFan(Z2, base.cones, data)


def single_cone_in_z3(rng: random.Random) -> KmFan:
    """One 2-cone in Z^3 (never atoroidal) with the saturated datum or the
    datum generated by multiples a u, b v of its primitive rays."""
    while True:
        cone = Cone.from_generators([random_primitive(rng, 3, 2) for _ in range(2)], 3)
        if cone.dim() == 2 and cone.is_sharp():
            break
    base = from_classical(Z3, [cone])
    if rng.random() < 0.5:
        return base
    u, v = cone.rays
    a, b = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
    data = dict(base.data)
    data[cone] = LatticeDatum.from_generators(Z3, [tuple(a * x for x in u), tuple(b * x for x in v)])
    for ray, m in ((u, a), (v, b)):
        data[Cone.from_generators([ray], 3)] = LatticeDatum.from_generators(Z3, [tuple(m * x for x in ray)])
    return KmFan(Z3, base.cones, data)


def seeded_lattice_fans(count: int):
    """Seeded lattice KM fans of four families, a third of them times a torus."""
    from conftest import random_simplicial_km_fan

    rng = random.Random(4404)
    for i in range(count):
        family = i % 4
        if family == 0:
            fan = mixed_three_ray_fan(rng)
        elif family == 1:
            fan = single_cone_in_z3(rng)
        elif family == 2:
            fan, _ = rigidify(random_simplicial_km_fan(rng))
        else:
            fan, _ = fold(random_foldable_gsfan(rng))
        side = rng.randrange(3)
        if side:
            torus = zero_fan(FgaGroup(rng.randint(1, 2)))
            fan = product(fan, torus)[0] if side == 1 else product(torus, fan)[0]
        yield fan


@pytest.fixture(scope="module")
def lattice_fans():
    return list(seeded_lattice_fans(320))


def colimit_torsion_oracle(fan: KmFan) -> bool:
    """GS-representability through the full colimit normal form: the
    colimit over all cones, its free quotient, and one kernel-cokernel per
    maximal cone."""
    unf = lattice_data_colimit(fan)
    _, to_free = free_quotient(unf.colimit)
    for c in fan.maximal_cones():
        _, cok, _ = hom_kernel_cokernel(unf.structure_maps[c].then(to_free))
        if cok.torsion:
            return False
    return True


def linked_pages_fan(saturated: bool) -> KmFan:
    """Three maximal cones in Z^3 that pairwise meet only in the ray e3 (a
    2-cone, the first of them in fan order, and two 3-cones), and a fourth,
    a 2-cone that joins the two 3-cones through one ray of each.  The
    fourth carries the saturated datum, or the index-2 datum generated by
    its rays, which makes the fan non-representable through the cycle
    3-cone, 2-cone, 3-cone, e3.  Only the relation that identifies e3 in
    the two 3-cones closes that cycle."""
    e3 = (0, 0, 1)
    link = Cone.from_generators([(-2, -2, 1), (2, 0, -3)], 3)
    base = from_classical(Z3, [
        Cone.from_generators([e3, (1, 1, 0)], 3),
        Cone.from_generators([e3, (-3, 2, -1), (-2, -2, 1)], 3),
        Cone.from_generators([e3, (2, -1, 1), (2, 0, -3)], 3),
        link,
    ])
    if saturated:
        return base
    data = dict(base.data)
    data[link] = LatticeDatum.from_generators(Z3, link.rays)
    return KmFan(Z3, base.cones, data)


def nonsaturated_single_cone_fan() -> KmFan:
    """One maximal cone whose datum, generated by its rays, has index 2:
    no relations, and the colimit is the datum itself."""
    cone = Cone.from_generators([(1, 0), (1, 2)], 2)
    base = from_classical(Z2, [cone])
    data = dict(base.data)
    data[cone] = LatticeDatum.from_generators(Z2, cone.rays)
    return KmFan(Z2, base.cones, data)


def polygon_fan(count: int) -> KmFan:
    """A complete fan in Z^2 on about count primitive rays of norm <= 12,
    spread evenly by angle."""
    import math

    candidates = sorted(
        {primitive_vector((a, b)) for a in range(-12, 13) for b in range(-12, 13) if (a, b) != (0, 0)},
        key=lambda v: math.atan2(v[1], v[0]),
    )
    return complete_fan_with_rays([candidates[i * len(candidates) // count] for i in range(count)])


class TestRepresentabilityWithoutSplitting:
    def test_agrees_with_split_then_test(self, lattice_fans):
        outcomes = []
        for i, fan in enumerate(lattice_fans):
            answer = is_gs_representable(fan)
            assert answer == split_then_test(fan), (i, fan.cones)
            outcomes.append((answer, is_atoroidal(fan)))
        assert sum(1 for answer, _ in outcomes if not answer) >= 10
        assert sum(1 for _, atoroidal in outcomes if not atoroidal) >= 10
        assert sum(1 for answer, _ in outcomes if answer) >= 10

    def test_maximal_cones_decide_as_all_cones_do(self, lattice_fans):
        """Testing maximal cones only gives the all-cones answer, and every
        cone with a torsion cokernel lies in a maximal cone with one."""
        failing_fans = 0
        for i, fan in enumerate(lattice_fans):
            unf = lattice_data_colimit(fan)
            _, to_free = free_quotient(unf.colimit)
            torsion = {
                c for c in fan.cones
                if hom_kernel_cokernel(unf.structure_maps[c].then(to_free))[1].torsion
            }
            assert is_gs_representable(fan) == (not torsion), (i, fan.cones)
            bad_maximal = [m for m in fan.maximal_cones() if m in torsion]
            for c in torsion:
                assert any(c in m.faces() for m in bad_maximal), (i, c)
            failing_fans += bool(torsion)
        assert failing_fans >= 10


class TestMaximalConePresentation:
    def test_agrees_with_the_colimit_oracle(self, lattice_fans):
        answers = []
        for i, fan in enumerate(lattice_fans):
            answer = is_gs_representable(fan)
            assert answer == colimit_torsion_oracle(fan), (i, fan.cones)
            answers.append(answer)
        assert answers.count(True) == 301 and answers.count(False) == 19

    def test_agrees_with_the_smith_block_test(self, lattice_fans):
        """The rows of the echelon transform past the rank against the rows
        of Smith's U past the rank: both are bases of the functionals that
        kill the relations, so every block test answers alike."""
        cases = lattice_fans + [polygon_fan(64), linked_pages_fan(False), nonsaturated_colimit_fan()]
        answers = []
        for i, fan in enumerate(cases):
            offsets, _, relations, _ = gsfans._maximal_cone_presentation(fan)
            blocks = [(off, fan.data[sigma].rank()) for sigma, off in offsets.items()]
            answer = is_gs_representable(fan)
            assert answer == blocks_saturated_by_smith(relations, blocks), (i, fan.cones)
            answers.append(answer)
        assert answers.count(False) == 21

    @pytest.mark.parametrize("count", [8, 16, 32, 64, 128])
    def test_complete_polygons(self, count):
        fan = polygon_fan(count)
        assert len(fan.maximal_cones()) >= count
        assert is_gs_representable(fan) is colimit_torsion_oracle(fan) is True

    @pytest.mark.parametrize("build, expected", [
        (nonsaturated_colimit_fan, False),
        (torsion_colimit_fan, True),
        (lambda: linked_pages_fan(False), False),
        (lambda: linked_pages_fan(True), True),
        (lambda: zero_fan(Z2), True),
        (lambda: zero_fan(FgaGroup(0)), True),
        (plane_fan, True),
        (lambda: single_cone_in_z3(random.Random(3)), True),
        (nonsaturated_single_cone_fan, True),
    ])
    def test_named_fans(self, build, expected):
        fan = build()
        assert is_gs_representable(fan) is colimit_torsion_oracle(fan) is expected

    @pytest.mark.parametrize("build", [
        lambda: polygon_fan(64),
        lambda: product(product(projective_line_fan(), projective_line_fan())[0], projective_line_fan())[0],
        lambda: dilate(product(product(projective_line_fan(), projective_line_fan())[0], projective_line_fan())[0], 2)[0],
        lambda: dilate(polygon_fan(16), 3)[0],
    ])
    def test_no_smith_and_no_colimit(self, monkeypatch, build):
        """The test reads one row echelon form of the relations, with no
        Smith decomposition; a classical fan needs not even that.  The
        dilated fans, every datum unsaturated, keep the echelon path
        counted.  Counted with the datum bases already cached, as in a fan
        that has been validated."""
        fan = build()
        for c in fan.cones:
            fan.data[c].basis()
        tracked = []
        real = intlinalg.smith_decomposition

        def counting(m, transforms=intlinalg.TRANSFORMS):
            tracked.append(tuple(transforms))
            return real(m, transforms)

        assert not hasattr(gsfans, "smith_decomposition")
        for mod in (intlinalg, abelian):
            monkeypatch.setattr(mod, "smith_decomposition", counting)
        banned = []
        for mod, name in ((abelian, "present_quotient"), (abelian, "hom_kernel_cokernel"),
                          (gsfans, "present_quotient"), (gsfans, "lattice_data_colimit")):
            monkeypatch.setattr(mod, name, lambda *a, _name=name, **k: banned.append(_name))
        assert is_gs_representable(fan)
        assert tracked == []
        assert banned == []


def products_of_lines(k: int) -> KmFan:
    p1 = projective_line_fan()
    fan = p1
    for _ in range(k - 1):
        fan = product(fan, p1)[0]
    return fan


def bowtie_fan() -> KmFan:
    """Four smooth 3-cones around the ray e3 in two pairs, each pair
    sharing a wall through e3, the pairs meeting only in e3: the maximal
    cofaces of e3 fall into two classes, and one relation joins them."""
    e3 = (0, 0, 1)
    return from_classical(Z3, [
        Cone.from_generators([e3, (1, 0, 0), (1, 1, 0)], 3),
        Cone.from_generators([e3, (1, 1, 0), (0, 1, 0)], 3),
        Cone.from_generators([e3, (-1, 0, 0), (-1, -1, 0)], 3),
        Cone.from_generators([e3, (-1, -1, 0), (0, -1, 0)], 3),
    ])


def pruned_products():
    """Lattice fans of rank 3 and 4 whose faces are shared by cones that
    are not maximal, where the presentation is pruned: P^1 cubed, the
    bowtie and linked pages times P^1, and seeded rank-2 KM fans (polygons
    and three-ray fans with mixed data, and the paper's counterexample)
    times P^1 or a dilated P^1."""
    rng = random.Random(7373)
    p1 = projective_line_fan()
    lines = [p1, dilate(p1, 2)[0], dilate(p1, 3)[0]]
    out = [products_of_lines(3), product(nonsaturated_colimit_fan(), p1)[0]]
    out += [product(bowtie_fan(), p1)[0], product(linked_pages_fan(False), p1)[0]]
    for i in range(24):
        base = random_polygon_km_fan(rng) if i % 2 else mixed_three_ray_fan(rng)
        line = lines[i % 3]
        out.append(product(base, line)[0] if i % 4 < 2 else product(line, base)[0])
    return out


class TestPrunedPresentation:
    def test_agrees_with_the_full_presentation(self, lattice_fans):
        """The pruned relations span the lattice of the full ones, so the
        colimit and the representability answer are the full
        presentation's (gsfans_oracle), on the seeded lattice fans, their
        2x dilations (every datum of positive rank unsaturated), products
        of rank 3 and 4, and named fans.  The bowtie keeps the one relation
        that joins two classes of cofaces."""
        cases = (
            lattice_fans
            + [dilate(fan, 2)[0] for fan in lattice_fans]
            + pruned_products()
            + [nonsaturated_colimit_fan(), linked_pages_fan(False), linked_pages_fan(True), bowtie_fan()]
        )
        pruned = 0
        answers = []
        for i, fan in enumerate(cases):
            offsets, _, relations, _ = gsfans._maximal_cone_presentation(fan)
            full_offsets, full = full_maximal_cone_presentation(fan)
            assert offsets == full_offsets, i
            assert hermite_column_basis(relations) == hermite_column_basis(full), i
            assert lattice_data_colimit(fan).colimit == colimit_reference(fan), i
            answer = is_gs_representable(fan)
            assert answer == is_gs_representable_reference(fan), (i, fan.cones)
            pruned += relations.cols < full.cols
            answers.append(answer)
        assert pruned >= 20
        _, _, relations, _ = gsfans._maximal_cone_presentation(bowtie_fan())
        assert (relations.cols, full_maximal_cone_presentation(bowtie_fan())[1].cols) == (5, 9)
        assert answers.count(False) >= 40 and answers.count(True) >= 600

    @pytest.mark.parametrize("k, kept, full", [(4, 96, 296), (5, 320, 1750), (6, 960, 9372)])
    def test_relation_counts_on_products_of_lines(self, k, kept, full):
        """(P^1)^k: 2^k maximal cones of rank k; the full presentation's
        relations against the pruned ones."""
        fan = products_of_lines(k)
        offsets, _, relations, _ = gsfans._maximal_cone_presentation(fan)
        assert (len(offsets), relations.rows, relations.cols) == (2 ** k, k * 2 ** k, kept)
        assert full_maximal_cone_presentation(fan)[1].cols == full

    def test_classical_fans_build_no_presentation(self, monkeypatch, lattice_fans):
        """Saturated maximal data pass without the colimit: a classical fan
        never reaches _maximal_cone_presentation, a dilated one does once."""
        calls = []
        real = gsfans._maximal_cone_presentation
        monkeypatch.setattr(gsfans, "_maximal_cone_presentation", lambda fan: calls.append(fan) or real(fan))
        classical = [fan for fan in lattice_fans if is_classical(fan)]
        classical += [polygon_fan(64), products_of_lines(4), linked_pages_fan(True)]
        assert len(classical) >= 100
        for fan in classical:
            assert is_gs_representable(fan)
        assert calls == []
        dilated = dilate(polygon_fan(8), 2)[0]
        assert is_gs_representable(dilated)
        assert calls == [dilated]


class TestRoundTrip:
    def test_projective_line(self):
        assert fold_unfold_roundtrip(projective_line_fan())

    def test_a1_singularity_cone(self):
        fan = from_classical(Z2, [Cone.from_generators([(1, 0), (1, 2)], 2)])
        assert fold_unfold_roundtrip(fan)

    def test_precondition_is_gs_representability(self, lattice_fans):
        """The round trip reads GS-representability as is_classical of the
        rigidified unfolding, with no colimit presentation of its own."""
        answers = []
        for i, fan in enumerate(lattice_fans):
            answer = is_classical(rigidified_unfold(fan)[0])
            assert answer == is_gs_representable(fan), (i, fan.cones)
            answers.append(answer)
        assert answers.count(False) >= 10 and answers.count(True) >= 100

    def test_random_folded_fans(self):
        rng = random.Random(25)
        for _ in range(15):
            gs = random_foldable_gsfan(rng)
            folded, _ = fold(gs)
            assert is_gs_representable(folded)
            assert fold_unfold_roundtrip(folded)

    def test_preconditions_enforced(self):
        with pytest.raises(PreconditionsFail):
            fold_unfold_roundtrip(build_p22())
        with pytest.raises(PreconditionsFail):
            fold_unfold_roundtrip(zero_fan(Z))
        with pytest.raises(PreconditionsFail):
            fold_unfold_roundtrip(nonsaturated_colimit_fan())


def all_pairs_fold_problems(gs: GsFan):
    """The foldability problems with the images of every pair of cones
    intersected, comparable pairs included: the oracle for the shortcut in
    is_foldable."""
    bbar = gs.beta.free_matrix()
    rank = gs.beta.target.free_rank
    images = {
        s: Cone.from_generators([bbar.apply(r) for r in s.rays], rank) for s in gs.fan.cones
    }
    problems = [
        {"kind": "collapsed-cone", "detail": f"beta is not injective on the span of {s!r}"}
        for s in gs.fan.cones
        if images[s].dim() != s.dim()
    ]
    cones_ = list(gs.fan.cones)
    for i, a in enumerate(cones_):
        for b in cones_[i + 1:]:
            ia, ib = images[a], images[b]
            point = ia.intersect(ib).relative_interior_point()
            if ia.classify_point(point)[0] == "interior" and ib.classify_point(point)[0] == "interior":
                problems.append({
                    "kind": "overlapping-images",
                    "detail": f"images of {a!r} and {b!r} have intersecting interiors",
                })
    return problems


def _nonzero_primitive(rng, rank, bound):
    while True:
        v = primitive_vector(tuple(rng.randint(-bound, bound) for _ in range(rank)))
        if any(v):
            return v


def random_collapsing_gsfan(rng: random.Random) -> GsFan:
    """A complete fan of Z^2 onto Z (every 2-cone collapses), or one
    simplicial 3-cone of Z^3 onto Z^2."""
    if rng.random() < 0.5:
        rays = sorted({_nonzero_primitive(rng, 2, 3) for _ in range(rng.randint(1, 3))})
        fan = complete_fan_with_rays(rays)
        return GsFan(fan, GroupHom(Z2, Z, IntMatrix([list(_nonzero_primitive(rng, 2, 3))])))
    cone = None
    while cone is None or cone.dim() != 3 or len(cone.rays) != 3:
        cone = Cone.from_generators([_nonzero_primitive(rng, 3, 2) for _ in range(3)], 3)
    while True:
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)])
        if matrix_rank(m) == 2:
            return GsFan(from_classical(Z3, [cone]), GroupHom(Z3, Z2, m))


def random_overlapping_gsfan(rng: random.Random) -> GsFan:
    """Rays of Z^2 onto Z, or some 2-cones of the octant fan of Z^3 onto
    Z^2: no cone of full dimension, so images overlap without collapsing
    (unless a ray or plane meets the kernel)."""
    if rng.random() < 0.5:
        rays = {_nonzero_primitive(rng, 2, 3) for _ in range(rng.randint(2, 4))}
        fan = from_classical(Z2, [Cone.from_generators([r], 2) for r in sorted(rays)])
        return GsFan(fan, GroupHom(Z2, Z, IntMatrix([list(_nonzero_primitive(rng, 2, 3))])))
    units = [tuple(s if k == i else 0 for k in range(3)) for i in range(3) for s in (1, -1)]
    planes = [
        Cone.from_generators([u, w], 3)
        for u, w in itertools.combinations(units, 2)
        if u != tuple(-x for x in w)
    ]
    chosen = rng.sample(planes, rng.randint(2, 4))
    while True:
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)])
        if matrix_rank(m) == 2:
            return GsFan(from_classical(Z3, chosen), GroupHom(Z3, Z2, m))


class TestFoldComparablePairs:
    def test_problem_lists_match_the_all_pairs_oracle(self):
        rng = random.Random(3737)
        makers = [random_foldable_gsfan, random_collapsing_gsfan, random_overlapping_gsfan]
        seen = {"foldable": 0, "collapsed": 0, "overlapping": 0}
        for attempt in range(600):
            gs = makers[attempt % 3](rng)
            problems = is_foldable(gs)[1]
            assert problems == all_pairs_fold_problems(gs)
            kinds = {p["kind"] for p in problems}
            if not kinds:
                seen["foldable"] += 1
            elif "collapsed-cone" in kinds:
                seen["collapsed"] += 1
            else:
                seen["overlapping"] += 1
            if min(seen.values()) >= 30:
                break
        assert min(seen.values()) >= 30, seen

    def test_simplicial_three_cone_skips_comparable_pairs(self, monkeypatch):
        """8 cones make 28 pairs; 19 are comparable and beta is injective."""
        cone = Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
        gs = GsFan(from_classical(Z3, [cone]), GroupHom(Z3, Z3, IntMatrix([[2, 0, 0], [0, 1, 0], [0, 1, 1]])))
        calls = []
        real = Cone.intersect
        monkeypatch.setattr(Cone, "intersect", lambda a, b: calls.append(1) or real(a, b))
        assert is_foldable(gs) == (True, [])
        assert len(calls) <= 9

    def test_simplicial_three_cone_intersects_nothing(self, monkeypatch):
        """All 8 cones are faces of the one cone, on whose span beta is
        injective, so no pair needs its images intersected."""
        cone = Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
        gs = GsFan(from_classical(Z3, [cone]), GroupHom(Z3, Z3, IntMatrix([[2, 0, 0], [0, 1, 0], [0, 1, 1]])))
        calls = []
        real = Cone.intersect
        monkeypatch.setattr(Cone, "intersect", lambda a, b: calls.append(1) or real(a, b))
        assert is_foldable(gs) == (True, [])
        assert calls == []



def unit_cone_face_lattice(d: int) -> KmFan:
    """The classical fan of the faces of the cone on the unit vectors of Z^d."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return from_classical(FgaGroup(d), [Cone.from_generators(units, d)])


class TestFoldByValidation:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("build", [
        lambda: polygon_fan(128),
        lambda: products_of_lines(5),
        lambda: unit_cone_face_lattice(8),
    ])
    def test_scalar_folds_are_dilations(self, monkeypatch, build, k):
        """fold(F, k I) = dilate(F, k) for classical F, decided by the fan
        validator on the images: no image is intersected, and no cone's
        face set is built."""
        fan = build()
        expected = dilate(fan, k)[0]
        scalar = IntMatrix.identity(fan.group.free_rank).scale(k)
        gs = GsFan(fan, GroupHom(fan.group, fan.group, scalar))
        calls = []
        real_intersect, real_faces = Cone.intersect, Cone.faces
        monkeypatch.setattr(Cone, "intersect", lambda a, b: calls.append("intersect") or real_intersect(a, b))
        monkeypatch.setattr(Cone, "faces", lambda c: calls.append("faces") or real_faces(c))
        folded = fold(gs)[0]
        monkeypatch.undo()
        assert folded == expected
        assert len(folded.cones) >= 128
        assert calls == []

def _count_calls(monkeypatch, name):
    """Count calls of an intlinalg function through every module that
    imports it."""
    calls = []
    real = getattr(intlinalg, name)
    for mod in (intlinalg, abelian, cones, monoids, fans, gsfans):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestOneSmithPerSystem:
    def test_no_rational_elimination(self):
        """The Fraction elimination is a test oracle (linalg_oracles): no
        library module has it, and intlinalg imports no Fraction."""
        for mod in (intlinalg, abelian, cones, monoids, fans, gsfans):
            assert not hasattr(mod, "solve_rational"), mod
            assert not hasattr(mod, "fraction_vector_to_primitive"), mod
        assert not hasattr(intlinalg, "Fraction")

    def test_colimit_runs_one_smith_per_cone(self, monkeypatch):
        """One lifter per larger cone plus the presentation of the quotient;
        every relation generator of a cone reuses its lifter."""
        p1 = projective_line_fan()
        fan = product(product(p1, p1)[0], p1)[0]
        for c in fan.cones:
            fan.data[c].basis()
        calls = _count_calls(monkeypatch, "smith_decomposition")
        unf = lattice_data_colimit(fan)
        assert unf.colimit == FgaGroup(6)  # one generator per ray: the fan is smooth
        assert len(fan.cones) == 27
        assert len(calls) <= len(fan.cones) + 1


def all_pairs_colimit(fan: KmFan) -> gsfans.Unfolding:
    """The colimit presented on a block for every cone, with a relation for
    every comparable pair: g in sigma's block minus g in tau's block, for g
    in a basis of F_tau and tau < sigma.  The definition, and the oracle
    for the maximal-cone presentation that lattice_data_colimit reads."""
    offsets = {}
    total = 0
    for c in fan.cones:
        offsets[c] = total
        total += fan.data[c].rank()
    rel_cols = []
    for sigma in fan.cones:
        for tau in sigma.faces()[:-1]:
            for j, g in enumerate(fan.data[tau].basis().columns()):
                col = [0] * total
                for i, x in enumerate(fan.data[sigma].coordinates(g)):
                    col[offsets[sigma] + i] += x
                col[offsets[tau] + j] -= 1
                rel_cols.append(tuple(col))
    pres = abelian.present_quotient(total, IntMatrix._from_columns(rel_cols, total))
    colimit = pres.group
    structure = {}
    for c, off in offsets.items():
        cols = [colimit.reduce(pres.proj.column(off + j)) for j in range(fan.data[c].rank())]
        structure[c] = GroupHom(FgaGroup(len(cols)), colimit, IntMatrix._from_columns(cols, colimit.ncoords))
    beta_cols = [fan.group.reduce(g) for c in fan.cones for g in fan.data[c].basis().columns()]
    beta = GroupHom(colimit, fan.group, IntMatrix._from_columns(beta_cols, fan.group.ncoords) @ pres.section)
    return gsfans.Unfolding(colimit, structure, beta, block_offsets=offsets, presentation=pres)


def random_polygon_km_fan(rng: random.Random) -> KmFan:
    """A complete fan in Z^2 on 5 to 16 rays; each 2-cone gets the saturated
    datum or the datum generated by its primitive rays."""
    rays = set()
    while len(rays) < rng.randint(2, 13):
        rays.add(random_primitive(rng, 2, 5))
    base = complete_fan_with_rays(sorted(rays))
    data = dict(base.data)
    for c in base.cones:
        if c.dim() == 2 and rng.random() < 0.5:
            data[c] = LatticeDatum.from_generators(Z2, c.rays)
    return KmFan(Z2, base.cones, data)


def face_fan(rng: random.Random) -> KmFan:
    """The classical fan of the cones over the facets of the hull of the
    +-e_i and 2 to 10 other nonzero points of {-1, 0, 1}^3, read off the
    facets of the cone on the points lifted to height 1; mostly not
    simplicial."""
    units = [tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)]
    grid = [p for p in itertools.product((-1, 0, 1), repeat=3) if any(p) and p not in units]
    points = units + rng.sample(grid, rng.randint(2, 10))
    hull = Cone.from_generators([p + (1,) for p in points], 4)
    facets = [[p for p in points if sum(x * y for x, y in zip(h, p + (1,))) == 0] for h in hull.facets]
    return from_classical(Z3, [Cone.from_generators(facet, 3) for facet in facets])


def face_fan_cases():
    """Seeded face fans, each dilated by 2 and folded along 2I plus the
    superdiagonal, and the first three times P^1."""
    rng = random.Random(4242)
    beta = GroupHom(Z3, Z3, IntMatrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]]))
    p1 = projective_line_fan()
    cases = []
    for i in range(12):
        fan = face_fan(rng)
        cases += [fan, dilate(fan, 2)[0], fold(GsFan(fan, beta))[0]] + ([product(fan, p1)[0]] if i < 3 else [])
    return cases


def seeded_colimit_fans(count: int):
    """Seeded KM fans for the colimit oracle: random simplicial fans (their
    groups may have torsion), the same times P^1, and polygons."""
    from conftest import random_simplicial_km_fan

    rng = random.Random(12345)
    p1 = projective_line_fan()
    for i in range(count):
        family = i % 3
        if family == 0:
            yield random_simplicial_km_fan(rng)
        elif family == 1:
            yield product(random_simplicial_km_fan(rng), p1)[0]
        else:
            yield random_polygon_km_fan(rng)


def named_colimit_fans():
    p1 = projective_line_fan()
    p1_squared = product(p1, p1)[0]
    return [
        p1_squared,
        product(p1_squared, p1)[0],
        product(build_p22(), build_p22())[0],
        torsion_colimit_fan(),
        nonsaturated_colimit_fan(),
        linked_pages_fan(False),
        zero_fan(FgaGroup(0)),
    ]


class TestOneColimitPresentation:
    def test_agrees_with_the_all_pairs_oracle(self):
        """The same group, and a canonical isomorphism from the oracle's
        colimit that commutes with every structure map and with beta: lift
        through the oracle's section, then map each cone's block by the new
        structure map of that cone."""
        fans_ = list(seeded_colimit_fans(300)) + named_colimit_fans()
        torsion_groups = 0
        for i, fan in enumerate(fans_):
            old = all_pairs_colimit(fan)
            new = lattice_data_colimit(fan)
            assert new.colimit == old.colimit, i
            on_blocks = [col for c in old.block_offsets for col in new.structure_maps[c].matrix.columns()]
            images = IntMatrix._from_columns(on_blocks, new.colimit.ncoords) @ old.presentation.section
            phi = GroupHom(old.colimit, new.colimit, images)
            assert abelian.is_isomorphism(phi), i
            for c in fan.cones:
                assert old.structure_maps[c].then(phi) == new.structure_maps[c], (i, c)
            assert phi.then(new.beta) == old.beta, i
            torsion_groups += bool(fan.group.torsion)
        assert torsion_groups >= 50

    def test_presents_on_maximal_cones_once(self, monkeypatch):
        """(P^1)^4: 16 maximal cones of rank 4 and one relation per generator
        of each shared face and each further class of its linked cofaces
        (296 unpruned); the all-pairs presentation is 216 x 784."""
        fan = products_of_lines(4)
        shapes = []
        real = gsfans.present_quotient

        def recording(m, relations):
            shapes.append((relations.rows, relations.cols))
            return real(m, relations)

        monkeypatch.setattr(gsfans, "present_quotient", recording)
        unf = lattice_data_colimit(fan)
        assert shapes == [(64, 96)]
        assert unf.colimit == FgaGroup(8)
        assert sorted(unf.block_offsets.values()) == list(range(0, 64, 4))

    def test_induced_map_reads_cones_not_maximal_in_the_larger_fan(self):
        """The boundary of a maximal cone has maximal cones that are faces in
        the larger fan: its colimit maps there through their structure maps."""
        fan = nonsaturated_colimit_fan()
        maximal = fan.maximal_cones()[0]
        boundary_cones = [c for c in maximal.faces() if c != maximal]
        boundary = KmFan(fan.group, boundary_cones, {c: fan.data[c] for c in boundary_cones})
        sub, sup = lattice_data_colimit(boundary), lattice_data_colimit(fan)
        assert not set(sub.block_offsets) & set(sup.block_offsets)
        into = gsfans.induced_colimit_map(sub, sup)
        for c in boundary_cones:
            assert sub.structure_maps[c].then(into) == sup.structure_maps[c]


def golden_input(name: str) -> KmFan:
    """A fan document of the CLI golden cases."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs", name)
    with open(path, "r", encoding="utf-8") as fh:
        return fan_from_obj(loads(fh.read()))


def one_pass_fans(lattice_fans):
    """The seeded lattice fans, the seeded colimit fans (groups with
    torsion among them), seeded classical three-ray fans, some times P^1,
    and named fans whose colimits have torsion or whose data are not
    saturated."""
    rng = random.Random(5151)
    p1 = projective_line_fan()
    three_ray = [three_ray_classical_fan(rng) for _ in range(40)]
    three_ray += [product(fan, p1)[0] for fan in three_ray[:8]]
    square = square_cone_gsfan().fan
    named = [torsion_colimit_fan(), golden_input("p22.json"), golden_input("nonsat.json"),
             square, dilate(square, 2)[0]]
    return lattice_fans + list(seeded_colimit_fans(120)) + three_ray + named


class TestOnePassRigidification:
    def test_equals_the_two_step_oracle(self, lattice_fans):
        """rigidified_unfold builds over the free colimit what rigidify
        makes of the unfolding: the same fan and group, and for a lattice
        fan the same map back and cone map."""
        fans_ = one_pass_fans(lattice_fans)
        torsion_colimits = 0
        for i, fan in enumerate(fans_):
            rig, betabar = rigidified_unfold(fan)
            ref, ref_betabar = rigidified_unfold_reference(fan)
            assert rig == ref and rig.group == ref.group, i
            assert (betabar is None) == (ref_betabar is None) == (not fan.group.is_lattice()), i
            if betabar is not None:
                assert betabar.hom == ref_betabar.hom, i
                assert betabar.cone_images == ref_betabar.cone_images, i
            torsion_colimits += bool(lattice_data_colimit(fan).colimit.torsion)
        assert torsion_colimits >= 10

    def test_beta_restricts_to_inclusions_on_every_cone(self, lattice_fans):
        """beta o i_c is the inclusion of F_c for every cone c, though
        lattice_data_colimit checks it on the maximal cones only."""
        for i, fan in enumerate(one_pass_fans(lattice_fans)):
            unf = lattice_data_colimit(fan)
            for c in fan.cones:
                basis = fan.data[c].basis()
                comp = unf.structure_maps[c].then(unf.beta)
                for e, col in zip(IntMatrix.identity(basis.cols).entries, basis.columns()):
                    assert comp.apply(e) == fan.group.reduce(col), (i, c)

    def test_an_inconsistent_block_is_caught(self, monkeypatch):
        """A relation that kills a block generator breaks beta o i_sigma on
        a maximal cone, and the check on the maximal blocks refuses it."""
        real = gsfans._maximal_cone_presentation

        def killing(fan):
            offsets, cofaces, relations, coords = real(fan)
            kill = tuple(int(i == 0) for i in range(relations.rows))
            return offsets, cofaces, IntMatrix._from_columns(list(relations.columns()) + [kill], relations.rows), coords

        monkeypatch.setattr(gsfans, "_maximal_cone_presentation", killing)
        with pytest.raises(KmFanError, match="colimit structure map is inconsistent"):
            lattice_data_colimit(torsion_colimit_fan())


class TestFoldKeepsConeVerdict:
    def test_validate_runs_only_the_data_phase(self, monkeypatch):
        """The fold runs the cone phase once, on the folded cone set, and
        the folded fan keeps that verdict, so validate() makes no
        _cone_phase call, and it agrees with a fan built and validated from
        the same cones and data.  The construction oracle, which validates
        every trusted fan, is off."""
        without_construction_oracle(monkeypatch)
        rng = random.Random(2727)
        for _ in range(40):
            gs = random_foldable_gsfan(rng)
            calls = []
            real = fans._cone_phase
            for module in (fans, gsfans):
                monkeypatch.setattr(module, "_cone_phase", lambda *a: calls.append(1) or real(*a))
            folded, _ = fold(gs)
            assert calls == [1]
            assert folded.validate() == []
            for module in (fans, gsfans):
                monkeypatch.setattr(module, "_cone_phase", real)
            assert calls == [1]
            assert KmFan(folded.group, folded.cones, folded.data).validate() == []

    def test_refusals_report_as_before(self):
        """A fold that is refused keeps no verdict, and its report is the
        all-pairs one."""
        rng = random.Random(2828)
        for attempt in range(30):
            maker = (random_collapsing_gsfan, random_overlapping_gsfan)[attempt % 2]
            gs = maker(rng)
            expected = all_pairs_fold_problems(gs)
            if not expected:
                continue
            with pytest.raises(NotFoldable) as refusal:
                fold(gs)
            assert refusal.value.violations == expected


def square_cone_gsfan() -> GsFan:
    """The cone on (+-1, 0, 1) and (0, +-1, 1), which is not simplicial,
    with its faces, under beta = 2I plus the superdiagonal."""
    cone = Cone.from_generators([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], 3)
    beta = IntMatrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]])
    return GsFan(from_classical(Z3, [cone]), GroupHom(Z3, Z3, beta))


def fold_cases():
    """Seeded foldable GS fans and the GS fan on the square cone."""
    rng = random.Random(3131)
    return [random_foldable_gsfan(rng) for _ in range(40)] + [square_cone_gsfan()]


class TestMapEachMaximalConeOnce:
    def test_face_images_are_linear_images(self):
        """fold reads the image of a face off the ray images of the fold;
        it is the linear image of the face, with its dimension."""
        for i, gs in enumerate(fold_cases()):
            bbar = gs.beta.free_matrix()
            _, hom = fold(gs)
            for sigma in gs.fan.cones:
                image, expected = hom.cone_images[sigma], sigma.linear_image(bbar)
                assert (image, image.dim()) == (expected, expected.dim()), (i, sigma)

    def test_fold_maps_the_maximal_cones_only(self, monkeypatch):
        """A valid fold calls neither Cone.linear_image nor
        Cone.from_generators: collapse is read off the ray images, and every
        cone is carried along beta (fans._carried).  The construction oracle
        is off."""
        without_construction_oracle(monkeypatch)
        cases = fold_cases()
        calls = collections.Counter()
        real_image, real_generators = Cone.linear_image, Cone.from_generators
        monkeypatch.setattr(Cone, "linear_image", lambda c, m: calls.update(["linear_image"]) or real_image(c, m))
        monkeypatch.setattr(Cone, "from_generators", staticmethod(
            lambda gens, r: calls.update(["from_generators"]) or real_generators(gens, r)))
        for i, gs in enumerate(cases):
            calls.clear()
            fold(gs)
            assert calls == {}, i

    def test_unfolding_solves_one_system_per_maximal_cone(self, monkeypatch, lattice_fans):
        """_unfolded_fan builds one LinearSystem per maximal cone, over the
        colimit and over its free quotient alike.  The construction oracle
        is off."""
        without_construction_oracle(monkeypatch)
        calls = []
        real = intlinalg.LinearSystem.__init__
        monkeypatch.setattr(intlinalg.LinearSystem, "__init__", lambda system, m: calls.append(1) or real(system, m))
        faces = 0
        for i, fan in enumerate(one_pass_fans(lattice_fans)):
            unf = lattice_data_colimit(fan)
            for group in (unf.colimit, FgaGroup(unf.colimit.free_rank)):
                calls.clear()
                gsfans._unfolded_fan(fan, unf, group)
                assert len(calls) == len(fan.maximal_cones()), i
            faces += len(fan.cones) - len(fan.maximal_cones())
        assert faces > 0

    def test_tameness_of_a_fold_reads_its_verdict(self, monkeypatch):
        """is_tame on fold's morphism runs no is_semi_tame, and computes the
        kernel and the cokernel of beta once each.  The construction oracle
        is off."""
        without_construction_oracle(monkeypatch)
        homs = [fold(gs)[1] for gs in fold_cases()]
        calls = collections.Counter()

        def spy(fn):
            return lambda *a: calls.update([fn.__name__]) or fn(*a)

        monkeypatch.setattr(fans, "is_semi_tame", spy(fans.is_semi_tame))
        for fn in (abelian.kernel_subgroup, abelian._cokernel_group):
            monkeypatch.setattr(abelian, fn.__name__, spy(fn))
        for i, hom in enumerate(homs):
            calls.clear()
            assert is_tame(hom), i
            assert calls == {"kernel_subgroup": 1, "_cokernel_group": 1}, i


def solved_columns(monkeypatch):
    """Record every right-hand side a LinearSystem solves, as (system,
    column), through integer and integer_matrix."""
    solved = []
    real_integer, real_batch = intlinalg.LinearSystem.integer, intlinalg.LinearSystem.integer_matrix
    monkeypatch.setattr(intlinalg.LinearSystem, "integer",
                        lambda system, b: solved.append((id(system), tuple(b))) or real_integer(system, b))
    monkeypatch.setattr(intlinalg.LinearSystem, "integer_matrix", lambda system, b: solved.extend(
        (id(system), col) for col in b.columns()) or real_batch(system, b))
    return solved


class TestFaceCoordinatesPerMaximalCone:
    """The presentation and the structure maps read the coordinates of face
    vectors from one batched solve per maximal cone, over its distinct
    vectors (gsfans._face_coordinates)."""

    def test_face_lattice_of_z8_solves_each_unit_vector_once(self, monkeypatch):
        """The 255 faces of the cone on the unit vectors of Z^8 have that
        cone as their one maximal coface, and their bases are unit vectors:
        8 right-hand sides, where a solve per basis vector of each face
        makes 1016."""
        fan = unit_cone_face_lattice(8)
        for c in fan.cones:
            fan.data[c].basis()
        solved = solved_columns(monkeypatch)
        lattice_data_colimit(fan)
        assert len(solved) == 8 and {col for _, col in solved} == set(fan.maximal_cones()[0].rays)

    def test_one_maximal_cone_makes_no_solve_for_the_test(self, monkeypatch):
        """A fan with one maximal cone has no relations, so the GS test
        solves no face vector; the colimit solves them for its structure
        maps."""
        fan = nonsaturated_single_cone_fan()
        solved = solved_columns(monkeypatch)
        assert is_gs_representable(fan)
        assert solved == []
        lattice_data_colimit(fan)
        assert {col for _, col in solved} == {(1, 0), (1, 2)}

    def test_the_test_solves_only_the_faces_that_emit_relations(self, monkeypatch):
        """Two cones on a shared facet, dilated: the ray (1,1,0) of the facet
        has both as maximal cofaces, linked by the facet, so it emits no
        relation, and the GS test solves only the facet's basis, in both
        cones; the colimit adds the ray's vector in its first coface."""
        shared = [(1, 0, 0), (1, 1, 0)]
        fan = dilate(from_classical(Z3, [Cone.from_generators(shared + [(0, 0, z)], 3) for z in (1, -1)]), 2)[0]
        solved = solved_columns(monkeypatch)
        is_gs_representable(fan)
        assert sorted(col for _, col in solved) == [(0, 2, 0), (0, 2, 0), (2, 0, 0), (2, 0, 0)]
        del solved[:]
        lattice_data_colimit(fan)
        assert (2, 2, 0) in {col for _, col in solved}

    def test_each_pass_solves_a_vector_once_per_maximal_cone(self, monkeypatch):
        """(P^1)^3: the presentation solves each of the 24 pairs of maximal
        cone and distinct vector once, and the structure maps read its
        table and solve nothing: 24 solves, where a second pass made 42
        and a solve per vector and read 78."""
        fan = products_of_lines(3)
        for sigma in fan.maximal_cones():
            fan.data[sigma].coordinates(fan.group.zero())
        pairs = {(id(fan.data[sigma].subgroup._system), v)
                 for sigma in fan.maximal_cones() for v in fan.data[sigma].generators()}
        solved = solved_columns(monkeypatch)
        real, marks = gsfans._maximal_cone_presentation, []

        def presentation(f):
            out = real(f)
            marks.append(len(solved))
            return out

        monkeypatch.setattr(gsfans, "_maximal_cone_presentation", presentation)
        lattice_data_colimit(fan)
        assert marks == [len(solved)] and len(solved) == len(pairs) == 24
        assert set(solved) == pairs

    def test_relations_and_structure_maps_equal_the_per_vector_form(self, lattice_fans):
        """Offsets, cofaces and relations of the presentation, and the
        colimit, structure maps and beta, equal those of the form that
        solves each face vector on its own (gsfans_oracle), on the seeded
        families, (P(2,2))^k, (P^1)^k, polygons times P^1, the pruned
        products, the fan whose colimit has torsion, and the face fans with
        their dilations, folds and products, where the link rule prunes
        non-simplicial cones."""
        rng = random.Random(6161)
        p1, p22 = projective_line_fan(), build_p22()
        cases = lattice_fans[:160] + list(seeded_colimit_fans(150))
        cases += [products_of_lines(k) for k in (1, 2, 3, 4)]
        cases += [p22, product(p22, p22)[0], product(product(p22, p22)[0], p22)[0]]
        cases += [product(random_polygon_km_fan(rng), p1)[0] for _ in range(6)] + [product(polygon_fan(12), p1)[0]]
        cases += [torsion_colimit_fan()] + pruned_products() + face_fan_cases()
        relations = torsion = torsion_groups = pruned_non_simplicial = 0
        for i, fan in enumerate(cases):
            presentation = gsfans._maximal_cone_presentation(fan)
            assert presentation[:3] == per_vector_presentation(fan), i
            unf = lattice_data_colimit(fan)
            assert (unf.colimit, unf.structure_maps, unf.beta) == per_vector_colimit(fan), i
            relations += presentation[2].cols > 0
            torsion += bool(unf.colimit.torsion)
            torsion_groups += bool(fan.group.torsion)
            pruned_non_simplicial += (not fans.is_simplicial(fan)
                                      and presentation[2].cols < full_maximal_cone_presentation(fan)[1].cols)
        assert relations >= 150 and torsion >= 3 and torsion_groups >= 30, (relations, torsion, torsion_groups)
        assert pruned_non_simplicial >= 30, pruned_non_simplicial


class TestCofacesFromRays:
    def test_the_presentation_builds_no_face_cone(self, monkeypatch, lattice_fans):
        """_maximal_cone_presentation and lattice_data_colimit read cofaces
        and links off the rays: neither calls Cone.faces or
        Cone.facet_cones."""
        cases = lattice_fans[:40] + [products_of_lines(3), build_p22()] + face_fan_cases()[:6]
        calls = collections.Counter()
        monkeypatch.setattr(Cone, "faces", lambda c: calls.update(["faces"]) or [])
        monkeypatch.setattr(Cone, "facet_cones", lambda c: calls.update(["facet_cones"]) or [])
        relations = 0
        for fan in cases:
            relations += gsfans._maximal_cone_presentation(fan)[2].cols > 0
            lattice_data_colimit(fan)
        assert calls == {} and relations >= 20, (calls, relations)
