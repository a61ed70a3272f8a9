"""Finitely generated abelian groups, Ext, and the derived dual D(f)."""

import random

import pytest

from kmfan.abelian import (
    FgaGroup,
    GroupHom,
    Subgroup,
    dd_of_hom,
    direct_sum,
    dual_group,
    dual_hom,
    ext_group,
    finite_quotient_extension,
    free_quotient,
    hom_kernel_cokernel,
    image_subgroup,
    is_injective,
    is_surjective,
    is_tame_hom,
    kernel_subgroup,
    preimage_subgroup,
    present_quotient,
    quotient,
)
from kmfan import abelian, fans, intlinalg
from kmfan.cones import Cone
from kmfan.errors import DimensionMismatch, NonLattice, NotTame
from kmfan.fans import LatticeDatum
from kmfan.intlinalg import IntMatrix, LinearSystem, hermite_column_basis, kernel_basis, solve_integer

from conftest import (
    random_element,
    random_group,
    random_hom,
    random_simplicial_km_fan,
    random_tame_homs,
)


Z = FgaGroup(1)
Z2 = FgaGroup(2)
N22 = FgaGroup(1, (2,))


def all_finite_groups(max_order: int):
    """All isomorphism types of finite abelian groups of order <= max_order."""
    out = []

    def extend(chain, prod):
        out.append(FgaGroup(0, tuple(chain)))
        d = chain[-1] if chain else 2
        while prod * d <= max_order:
            if not chain or d % chain[-1] == 0:
                extend(chain + [d], prod * d)
            d += 1

    extend([], 1)
    return out


class TestNormalForm:
    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            FgaGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FgaGroup(0, (1,))

    def test_non_integer_coordinates_raise(self):
        with pytest.raises(TypeError):
            FgaGroup(1, (2,)).reduce((1.5, 3.7))
        with pytest.raises(TypeError):
            GroupHom.identity(FgaGroup(2)).apply((1.5, 2))
        with pytest.raises(TypeError):
            Subgroup.full(FgaGroup(1)).contains((0.5,))

    def test_equality_is_isomorphism(self):
        assert FgaGroup(1, (2, 4)) == FgaGroup(1, (2, 4))
        assert FgaGroup(1, (2,)) != FgaGroup(1, (4,))

    def test_reduce(self):
        assert N22.reduce((3, 5)) == (3, 1)


class TestQuotient:
    def test_z_mod_2(self):
        q, proj = quotient(Z, Subgroup.from_generators(Z, [(2,)]))
        assert q == FgaGroup(0, (2,))
        assert proj.apply((1,)) != q.zero()
        assert proj.apply((2,)) == q.zero()

    def test_p22_coarsening_value(self):
        # N/F_+ for the weighted-projective-line fan is Z/2
        q, _ = quotient(N22, Subgroup.from_generators(N22, [(1, 1)]))
        assert q == FgaGroup(0, (2,))

    def test_full_quotient_trivial(self):
        q, _ = quotient(Z2, Subgroup.from_generators(Z2, [(1, 1), (-1, 0)]))
        assert q.is_trivial()

    def test_trivial_subgroup_is_identity(self):
        q, proj = quotient(N22, Subgroup.trivial(N22))
        assert q == N22
        assert proj == GroupHom.identity(N22)

    def test_free_quotient_kills_exactly_the_torsion(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_group(rng)
            units = [tuple(int(i == j) for i in range(g.ncoords)) for j in range(g.ncoords)]
            torsion = Subgroup.from_generators(g, units[g.free_rank:])
            free, proj = free_quotient(g)
            assert free == FgaGroup(g.free_rank)
            assert is_surjective(proj)
            assert kernel_subgroup(proj) == torsion

    def test_presentation_independence(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_group(rng)
            gens = [tuple(rng.randint(-3, 3) for _ in range(g.free_rank))
                    + tuple(rng.randrange(d) for d in g.torsion) for _ in range(3)]
            h1 = Subgroup.from_generators(g, gens)
            doubled = gens + [g.reduce(tuple(a + b for a, b in zip(gens[0], gens[1])))]
            rng.shuffle(doubled)
            h2 = Subgroup.from_generators(g, doubled)
            assert h1 == h2
            assert quotient(g, h1)[0] == quotient(g, h2)[0]


class TestDualAndExt:
    def test_dual_kills_torsion(self):
        assert dual_group(FgaGroup(2, (3,))) == Z2
        assert dual_group(FgaGroup(0, (2,))).is_trivial()
        assert dual_group(FgaGroup(0)).is_trivial()

    def test_ext_examples(self):
        assert ext_group(Z).is_trivial()
        assert ext_group(FgaGroup(0, (6,))) == FgaGroup(0, (6,))
        assert ext_group(FgaGroup(2, (2, 4))) == FgaGroup(0, (2, 4))

    def test_ext_involution_all_orders_up_to_36(self):
        groups = all_finite_groups(36)
        assert len(groups) == 62
        for a in groups:
            assert ext_group(ext_group(a)) == a


class TestKernelCokernel:
    def test_multiplication_by_two(self):
        f = GroupHom(Z, Z, IntMatrix([[2]]))
        ker, cok, cok_proj = hom_kernel_cokernel(f)
        assert ker.generators() == []
        assert cok == FgaGroup(0, (2,))
        assert cok_proj.apply((1,)) != cok.zero()

    def test_p22_map(self):
        f = GroupHom(Z2, N22, IntMatrix([[1, -1], [1, 0]]))
        ker, cok, _ = hom_kernel_cokernel(f)
        assert ker.lattice_basis().columns() == ((2, 2),)
        assert cok.is_trivial()
        assert is_tame_hom(f)

    def test_zero_map(self):
        f = GroupHom.zero(Z, Z)
        ker, cok, _ = hom_kernel_cokernel(f)
        assert ker.group() == Z
        assert cok == Z

    def test_tameness(self):
        assert is_tame_hom(GroupHom(Z, Z, IntMatrix([[2]])))
        proj = GroupHom(N22, Z, IntMatrix([[1, 0]]))
        assert not is_tame_hom(proj)  # kernel Z/2 has torsion
        assert not is_tame_hom(GroupHom.zero(Z, Z))  # infinite cokernel

    def test_tame_composition(self):
        rng = random.Random(6)
        homs = random_tame_homs(7, 40)
        for f in homs:
            g = None
            for cand in random_tame_homs(rng.randrange(10_000), 6):
                if cand.source == f.target:
                    g = cand
                    break
            if g is None:
                continue
            assert is_tame_hom(f.then(g))

    def test_predicates_match_the_presented_cokernel(self):
        """is_tame_hom and is_surjective against the kernel and the
        presented cokernel of hom_kernel_cokernel, their former bodies."""
        rng = random.Random(1919)
        homs = [random_hom(rng, random_group(rng), random_group(rng)) for _ in range(400)]
        homs += random_tame_homs(1920, 100)
        tame = surjective = 0
        for f in homs:
            ker, cok, _ = hom_kernel_cokernel(f)
            assert is_tame_hom(f) == (cok.is_finite() and ker.is_lattice()), f
            assert is_surjective(f) == cok.is_trivial(), f
            assert abelian._cokernel_group(f) == cok
            tame += is_tame_hom(f)
            surjective += is_surjective(f)
        assert 150 <= tame <= 400 and 50 <= surjective <= 400


class TestDerivedDual:
    def test_surjective_gives_kernel_dual(self):
        f = GroupHom(Z2, Z, IntMatrix([[1, 0]]))
        assert dd_of_hom(f).group == Z

    def test_injective_gives_ext_of_cokernel(self):
        f = GroupHom(Z, Z, IntMatrix([[2]]))
        assert dd_of_hom(f).group == FgaGroup(0, (2,))

    def test_p22_value(self):
        f = GroupHom(Z2, N22, IntMatrix([[1, -1], [1, 0]]))
        assert dd_of_hom(f).group == Z

    def test_not_tame_raises(self):
        with pytest.raises(NotTame):
            dd_of_hom(GroupHom(N22, Z, IntMatrix([[1, 0]])))

    def test_special_formulas_and_witnesses(self):
        surjective = injective = lattice = 0
        for f in random_tame_homs(8, 80):
            dd = dd_of_hom(f)
            ker, cok, _ = hom_kernel_cokernel(f)
            # rank and torsion bookkeeping from the exact sequence
            assert dd.group.free_rank == ker.rank()
            assert dd.group.torsion_order() == cok.torsion_order()
            if is_surjective(f):
                surjective += 1
                assert dd.group == dual_group(ker.group())
            if is_injective(f):
                injective += 1
                assert dd.group == ext_group(cok)
            if f.source.is_lattice() and f.target.is_lattice():
                lattice += 1
                _, cok_dual, _ = hom_kernel_cokernel(dual_hom(f))
                assert dd.group == cok_dual
            _check_exactness(dd)
        assert surjective >= 5 and injective >= 5 and lattice >= 5

    def test_witnesses_on_p22(self):
        f = GroupHom(Z2, N22, IntMatrix([[1, -1], [1, 0]]))
        _check_exactness(dd_of_hom(f))

    def test_deterministic_witnesses(self):
        for f in random_tame_homs(11, 10):
            a, b = dd_of_hom(f), dd_of_hom(f)
            assert a.group == b.group
            assert a.from_ext_cok == b.from_ext_cok
            assert a.to_ker_dual == b.to_ker_dual
            assert a.from_source_dual == b.from_source_dual
            assert a.to_ext_target == b.to_ext_target

    def test_witness_matrices_are_pinned(self):
        """Witnesses recorded when every solve in dd_of_hom ran one column
        at a time: the batched solves return the same ones, with the
        relation map G of a source with torsion, and E(Cok f) nontrivial."""
        cases = [
            (FgaGroup(4), FgaGroup(2, (2,)), [[2, 1, 2, 3], [-1, 3, -1, -2], [1, 0, 1, 1]],
             FgaGroup(2, (2,)), [[[0], [0], [1]], [[0, -1, 0], [1, -11, 0]],
                                 [[-11, 1, 0, 7], [-1, 0, 1, 0], [0, 0, 0, 0]], [[0, 0, 1]]]),
            (FgaGroup(2, (2,)), FgaGroup(0, (4, 4)), [[1, 2, 2], [1, 3, 2]],
             FgaGroup(2), [[[], []], [[-1, 0], [-4, -1]], [[-2, 0], [8, -4]], [[2, 3], [0, 1]]]),
            (FgaGroup(3, (4,)), FgaGroup(1, (8,)), [[1, -3, 2, 0], [7, 2, 0, 2]],
             FgaGroup(2), [[[], []], [[-1, 0], [3, -1]], [[-2, 0, 1], [-6, -2, 0]], [[0, 4]]]),
        ]
        for source, target, rows, group, witnesses in cases:
            dd = dd_of_hom(GroupHom(source, target, IntMatrix(rows)))
            assert dd.group == group
            got = [dd.from_ext_cok, dd.to_ker_dual, dd.from_source_dual, dd.to_ext_target]
            assert [[list(r) for r in w.matrix.entries] for w in got] == witnesses


def _check_exactness(dd):
    """The short sequence E(Cok f) -> D(f) -> (Ker f)^v is exact with exact
    ends, and N^v -> D(f) -> E(N') is exact at D(f)."""
    # injection
    assert not kernel_subgroup(dd.from_ext_cok).generators()
    # surjection
    _, cok, _ = hom_kernel_cokernel(dd.to_ker_dual)
    assert cok.is_trivial()
    # composite zero and exactness in the middle
    comp = dd.from_ext_cok.then(dd.to_ker_dual)
    assert comp == GroupHom.zero(comp.source, comp.target)
    assert image_subgroup(dd.from_ext_cok) == kernel_subgroup(dd.to_ker_dual)
    # the long-sequence fragment
    comp2 = dd.from_source_dual.then(dd.to_ext_target)
    assert comp2 == GroupHom.zero(comp2.source, comp2.target)
    assert image_subgroup(dd.from_source_dual) == kernel_subgroup(dd.to_ext_target)


class TestFiniteQuotientExtension:
    def test_zero_character(self):
        g = GroupHom.zero(dual_group(Z), FgaGroup(0, (2,)))
        nprime, inc = finite_quotient_extension(Z, g)
        assert nprime == FgaGroup(1, (2,))
        assert is_injective(inc)
        _, cok, _ = hom_kernel_cokernel(inc)
        assert cok == FgaGroup(0, (2,))

    def test_projection_character(self):
        g = GroupHom(dual_group(Z), FgaGroup(0, (2,)), IntMatrix([[1]]))
        nprime, inc = finite_quotient_extension(Z, g)
        assert nprime == Z
        _, cok, _ = hom_kernel_cokernel(inc)
        assert cok == FgaGroup(0, (2,))
        assert ext_group(cok) == FgaGroup(0, (2,))

    def test_trivial_character_group(self):
        g = GroupHom.zero(dual_group(Z), FgaGroup(0))
        nprime, inc = finite_quotient_extension(Z, g)
        assert nprime == Z
        assert is_injective(inc) and is_surjective(inc)

    def test_torsion_ambient_rejected(self):
        with pytest.raises(NonLattice):
            finite_quotient_extension(N22, GroupHom.zero(dual_group(N22), FgaGroup(0, (2,))))

    def test_recovers_character_group(self):
        rng = random.Random(9)
        for _ in range(25):
            r = rng.randint(1, 3)
            lattice = FgaGroup(r)
            a = random_group(rng, max_rank=0)
            g = random_hom(rng, dual_group(lattice), a)
            nprime, inc = finite_quotient_extension(lattice, g)
            _, cok, _ = hom_kernel_cokernel(inc)
            assert ext_group(cok) == a


def presentation_by_smith(sub: Subgroup):
    """The presentation of a subgroup by the path for any ambient: the
    relations among the preimage basis and the relations of the ambient,
    then one Smith decomposition of their coefficients."""
    t = sub.preimage.cols
    if t == 0:
        return FgaGroup(0), GroupHom(FgaGroup(0), sub.ambient, IntMatrix.zero(sub.ambient.ncoords, 0))
    ker = kernel_basis(sub.preimage.hstack(sub.ambient.relation_matrix()))
    pres = present_quotient(t, ker.select_rows(range(t)))
    return pres.group, GroupHom(pres.group, sub.ambient, sub.preimage @ pres.section)


def lattice_basis_by_hermite(sub: Subgroup) -> IntMatrix:
    """Subgroup.lattice_basis by the path for any ambient: the Hermite basis
    of the inclusion, with torsion coordinates reduced."""
    grp, incl = sub.as_group()
    if grp.free_rank == 0:
        return IntMatrix.zero(sub.ambient.ncoords, 0)
    h = hermite_column_basis(incl.matrix)
    return IntMatrix.from_columns([sub.ambient.reduce(c) for c in h.columns()], rows=sub.ambient.ncoords)


class TestSubgroupPresentation:
    def test_lattice_basis_on_a_lattice_is_the_preimage(self, monkeypatch):
        rng = random.Random(2222)
        subgroups = [Subgroup.trivial(FgaGroup(0)), Subgroup.trivial(Z2), Subgroup.full(Z2)]
        for _ in range(300):
            n = rng.randint(1, 5)
            gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
            subgroups.append(Subgroup.from_generators(FgaGroup(n), gens))
        calls = []
        real = intlinalg.hermite_column_basis
        for module in (abelian, intlinalg):
            monkeypatch.setattr(module, "hermite_column_basis", lambda *a: calls.append(1) or real(*a))
        bases = [sub.lattice_basis() for sub in subgroups]
        assert calls == []
        monkeypatch.undo()
        assert sum(b.cols == 0 for b in bases) >= 10
        for sub, basis in zip(subgroups, bases):
            assert basis == lattice_basis_by_hermite(sub)

    def test_lattice_ambient_runs_no_smith(self, monkeypatch):
        rng = random.Random(1111)
        subgroups = [Subgroup.trivial(FgaGroup(0)), Subgroup.trivial(Z2), Subgroup.full(Z2)]
        for _ in range(200):
            n = rng.randint(1, 5)
            gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
            subgroups.append(Subgroup.from_generators(FgaGroup(n), gens))
        calls = []
        real = abelian.smith_decomposition
        for module in (abelian, intlinalg):
            monkeypatch.setattr(module, "smith_decomposition", lambda *a, **k: calls.append(1) or real(*a, **k))
        presented = [sub.as_group() for sub in subgroups]
        assert calls == []
        monkeypatch.undo()
        for sub, (grp, incl) in zip(subgroups, presented):
            assert (grp, incl) == presentation_by_smith(sub)
            assert grp == FgaGroup(sub.preimage.cols) and incl.matrix == sub.preimage


def _seeded_group(rng: random.Random) -> FgaGroup:
    """Free rank 0 to 4 and up to three torsion invariants."""
    torsion, d = [], rng.choice([2, 3, 4])
    for _ in range(rng.randint(0, 3)):
        torsion.append(d)
        d *= rng.choice([1, 2, 3])
    return FgaGroup(rng.randint(0, 4), torsion)


def seeded_subgroups(seed: int, count: int):
    """Subgroups built by every library constructor, over mixed ambients."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = _seeded_group(rng)
        gens = [random_element(rng, g) for _ in range(rng.randint(0, 3))]
        kind = rng.randrange(9)
        if kind == 0:
            out.append(Subgroup.from_generators(g, gens))
        elif kind == 1:
            out += [Subgroup.trivial(g), Subgroup.full(g)]
        elif kind in (2, 3, 4):
            f = random_hom(rng, _seeded_group(rng), g)
            h = Subgroup.from_generators(g, gens)
            out += [kernel_subgroup(f), image_subgroup(f), preimage_subgroup(f, h)][kind - 2:]
        elif kind == 5:
            other = [random_element(rng, g) for _ in range(rng.randint(1, 3))]
            out.append(Subgroup.from_generators(g, gens).intersection(Subgroup.from_generators(g, other)))
        elif kind == 6:
            fan = random_simplicial_km_fan(rng)
            out.append(fans._data_sum(fan))
            out += [datum.subgroup for datum in fan.data.values()]
        else:
            n = rng.randint(1, 4)
            rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            cones = [Cone.from_generators([r for r in rays if any(r)], n)]
            out += [datum.subgroup for datum in fans._saturated_data(FgaGroup(n), cones).values()]
    return out


def _sample_elements(rng: random.Random, sub: Subgroup):
    """Elements of the ambient: combinations of the preimage basis, which
    lie in the subgroup, and random elements, which mostly do not."""
    inside = [
        sub.preimage.apply([rng.randint(-3, 3) for _ in range(sub.preimage.cols)])
        for _ in range(2)
    ]
    return inside + [random_element(rng, sub.ambient) for _ in range(3)]


class TestSubgroupReads:
    """rank, is_lattice, lattice_basis, contains and datum coordinates read
    off the stored Hermite preimage, against the presentation path and the
    linear systems they replaced."""

    def test_agrees_with_the_presentation_and_solve_oracles(self):
        rng = random.Random(1818)
        subgroups = seeded_subgroups(1818, 400)
        seen = {"torsion": 0, "lattice": 0, "in": 0, "out": 0}
        for sub in subgroups:
            grp, _ = presentation_by_smith(sub)
            assert sub.rank() == grp.free_rank, sub
            assert sub.is_lattice() == grp.is_lattice(), sub
            if not grp.is_lattice():
                seen["torsion"] += 1
                with pytest.raises(NonLattice):
                    sub.lattice_basis()
                with pytest.raises(NonLattice):
                    LatticeDatum(sub.ambient, sub).coordinates(sub.ambient.zero())
            else:
                seen["lattice"] += grp.free_rank >= 1
                basis = lattice_basis_by_hermite(sub)
                assert sub.lattice_basis() == basis, sub
                old_system = LinearSystem(basis.hstack(sub.ambient.relation_matrix()))
                datum = LatticeDatum(sub.ambient, sub)
                assert datum.basis() == basis
            for v in _sample_elements(rng, sub):
                reduced = sub.ambient.reduce(v)
                inside = solve_integer(sub.preimage, reduced) is not None
                seen["in" if inside else "out"] += 1
                assert sub.contains(v) == inside, (sub, v)
                if grp.is_lattice():
                    old = old_system.integer(reduced)
                    assert datum.coordinates(v) == (None if old is None else old[: basis.cols])
            other = subgroups[rng.randrange(len(subgroups))]
            if other.ambient == sub.ambient:
                want = all(solve_integer(sub.preimage, g) is not None for g in other.generators())
                assert sub.contains_subgroup(other) == want
        assert len(subgroups) >= 300
        assert seen["torsion"] >= 50 and seen["lattice"] >= 100, seen
        assert seen["in"] >= 300 and seen["out"] >= 300, seen

    def test_batched_coordinates_equal_the_per_element_solves(self):
        """LatticeDatum.coordinate_matrix and contains_subgroup against one
        solve per reduced element on the preimage basis, over ambients with
        torsion too: inside elements are combinations of the preimage basis
        whose torsion coordinates are not reduced, and one random element
        in a batch mostly makes the whole batch None."""
        rng = random.Random(2121)
        seen = {"unreduced": 0, "solved": 0, "none": 0, "empty": 0}
        subgroups = seeded_subgroups(2121, 300)
        for sub in subgroups:
            datum, ambient = LatticeDatum(sub.ambient, sub), sub.ambient
            system = LinearSystem(sub.preimage)
            inside, *random_elements = _sample_elements(rng, sub)[1:]
            for batch in ([], [inside, ambient.zero()], [inside, *random_elements]):
                per = [system.integer(ambient.reduce(v)) for v in batch]
                solvable = None not in per
                if sub.is_lattice():
                    k = datum.rank()
                    want = IntMatrix._from_columns([x[:k] for x in per], k) if solvable else None
                    assert datum.coordinate_matrix(batch) == want, (sub, batch)
                    assert [datum.coordinates(v) for v in batch] == [x and x[:k] for x in per]
                assert sub.contains_subgroup(Subgroup.from_generators(ambient, batch)) == solvable
                seen["empty" if not batch else "solved" if solvable else "none"] += 1
                seen["unreduced"] += bool(batch) and solvable and ambient.reduce(inside) != inside
        assert seen["unreduced"] >= 50 and min(seen.values()) >= 100, seen

    def test_one_element_equals_the_batched_path(self):
        """Subgroup.contains and LatticeDatum.coordinates and .contains solve
        one element on its own; their answers, witnesses and errors are those
        of the one-column batched solve, over ambients with torsion and on
        elements whose torsion coordinates are not reduced."""
        rng = random.Random(3333)
        seen = {"unreduced": 0, "in": 0, "out": 0, "datum": 0, "torsion datum": 0}
        for sub in seeded_subgroups(3333, 300):
            datum, ambient = LatticeDatum(sub.ambient, sub), sub.ambient
            r = ambient.free_rank
            elements = _sample_elements(rng, sub)
            # shift one element by each relation d_i e_{r+i}, off its reduced form
            elements.append(tuple(x + (ambient.torsion[i - r] if i >= r else 0)
                                  for i, x in enumerate(elements[0])))
            for v in elements:
                batched = sub._solve([v])
                assert sub.contains(v) == (batched is not None), (sub, v)
                assert sub._solve_one(v) == (None if batched is None else batched.column(0))
                seen["in" if batched is not None else "out"] += 1
                seen["unreduced"] += ambient.reduce(v) != v
                if sub.is_lattice():
                    m = datum.coordinate_matrix([v])
                    assert datum.coordinates(v) == (None if m is None else m.column(0)), (sub, v)
                    assert datum.contains(v) == (m is not None)
                    seen["datum"] += 1
            if not sub.is_lattice():
                seen["torsion datum"] += 1
                with pytest.raises(NonLattice):
                    datum.coordinate_matrix([ambient.zero()])
                with pytest.raises(NonLattice):
                    datum.coordinates(ambient.zero())
            for bad, error in (((0,) * (ambient.ncoords + 1), DimensionMismatch),
                               ((0.5,) * ambient.ncoords, TypeError)):
                if ambient.ncoords:
                    for solve in (lambda v: sub._solve([v]), sub.contains):
                        with pytest.raises(error):
                            solve(bad)
        assert min(seen.values()) >= 50, seen

    def test_reads_build_no_presentation(self, monkeypatch):
        """The reads take no kernel, quotient, Smith form or Hermite basis,
        and one linear system per subgroup answers all its membership."""
        # fresh objects, which keep no presentation or linear system yet
        subgroups = [Subgroup(sub.ambient, sub.preimage) for sub in seeded_subgroups(1919, 120)]
        data = [LatticeDatum(sub.ambient, sub) for sub in subgroups if sub.is_lattice()]
        calls = []
        for module in (abelian, intlinalg):
            for name in ("kernel_basis", "present_quotient", "smith_decomposition", "hermite_column_basis"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *a, _n=name, **k: calls.append(_n))
        monkeypatch.setattr(Subgroup, "as_group", lambda self: calls.append("as_group"))
        systems = []
        real_system = abelian.LinearSystem
        monkeypatch.setattr(abelian, "LinearSystem", lambda m: systems.append(m) or real_system(m))
        for sub in subgroups:
            sub.rank()
            if sub.is_lattice():
                sub.lattice_basis()
        for datum in data:
            datum.basis()
            for v in (datum.ambient.zero(), *datum.generators()):
                assert datum.coordinates(v) is not None
                assert datum.subgroup.contains(v)
            assert datum.subgroup.contains_subgroup(datum.subgroup)
        assert calls == []
        assert systems == [datum.subgroup.preimage for datum in data]
        assert len(data) >= 60


def kernel_with_source_relations(f: GroupHom) -> Subgroup:
    """kernel_subgroup with the source relations added to the x-part of the
    kernel of [f | target relations], which already holds them."""
    lifted = kernel_basis(f.matrix.hstack(f.target.relation_matrix()))
    pre = lifted.select_rows(range(f.source.ncoords)).hstack(f.source.relation_matrix())
    return Subgroup(f.source, hermite_column_basis(pre))


def preimage_by_quotient(f: GroupHom, sub: Subgroup) -> Subgroup:
    """preimage_subgroup as the kernel of f followed by N' -> N'/H."""
    qgrp, proj = quotient(f.target, sub)
    return kernel_with_source_relations(GroupHom(f.source, qgrp, proj.matrix @ f.matrix))


def random_torsion_group(rng: random.Random) -> FgaGroup:
    while True:
        g = random_group(rng)
        if g.torsion:
            return g


class TestPreimage:
    def test_agrees_with_the_quotient_kernel_oracle(self):
        rng = random.Random(1313)
        for _ in range(320):
            f = random_hom(rng, random_torsion_group(rng), random_torsion_group(rng))
            tgt = f.target
            gens = [random_element(rng, tgt) for _ in range(rng.randint(0, 3))]
            for sub in (Subgroup.from_generators(tgt, gens), Subgroup.trivial(tgt),
                        Subgroup.full(tgt), image_subgroup(f)):
                assert preimage_subgroup(f, sub) == preimage_by_quotient(f, sub)


def direct_sum_by_loops(a: FgaGroup, b: FgaGroup):
    """direct_sum with its maps written entry by entry: the inclusions send
    torsion generators through the presentation's projection, the
    projections read the presentation's lifts."""
    ra, rb = a.free_rank, b.free_rank
    ka, kb_ = len(a.torsion), len(b.torsion)
    tor = list(a.torsion) + list(b.torsion)
    k = ka + kb_
    pres = present_quotient(k, IntMatrix.from_columns(
        [tuple(tor[i] if j == i else 0 for j in range(k)) for i in range(k)], rows=k))
    grp = FgaGroup(ra + rb, pres.group.torsion)

    def make_inc(src, rs, off, toroff):
        fentries = [[0] * src.ncoords for _ in range(ra + rb)]
        for i in range(rs):
            fentries[off + i][i] = 1
        tcols = []
        for j in range(src.ncoords):
            e = [0] * k
            if j >= rs:
                e[toroff + (j - rs)] = 1
            tcols.append(tuple(e))
        torm = pres.proj @ IntMatrix.from_columns(tcols, rows=k)
        return GroupHom(src, grp, IntMatrix(fentries + [list(r) for r in torm.entries], cols=src.ncoords))

    def make_proj(tgtg, rs, ks, off, toroff):
        cols = []
        for j in range(grp.ncoords):
            col = [0] * tgtg.ncoords
            if j < ra + rb:
                if off <= j < off + rs:
                    col[j - off] = 1
            else:
                lifted = pres.lift(tuple(int(i == j - (ra + rb)) for i in range(len(grp.torsion))))
                for i in range(ks):
                    col[rs + i] = lifted[toroff + i]
            cols.append(tuple(col))
        return GroupHom(grp, tgtg, IntMatrix.from_columns(cols, rows=tgtg.ncoords))

    return (grp, make_inc(a, ra, 0, 0), make_inc(b, rb, ra, ka),
            make_proj(a, ra, ka, 0, 0), make_proj(b, rb, kb_, ra, ka))


class TestDirectSum:
    PAIRS = [
        (FgaGroup(0, (2,)), FgaGroup(0, (3,))),
        (FgaGroup(1, (2,)), FgaGroup(2, (3,))),
        (FgaGroup(0, (2, 4)), FgaGroup(0, (6,))),
        (FgaGroup(2, (2, 4)), FgaGroup(1, (6,))),
        (FgaGroup(0), FgaGroup(0)),
        (FgaGroup(1), FgaGroup(0, (2, 4))),
    ]

    def test_agrees_with_the_entrywise_oracle(self):
        rng = random.Random(4242)
        pairs = self.PAIRS + [(random_group(rng), random_group(rng)) for _ in range(200)]
        for a, b in pairs:
            new, old = direct_sum(a, b), direct_sum_by_loops(a, b)
            assert new[0] == old[0]
            for m_new, m_old in zip(new[1:], old[1:]):
                assert m_new.matrix.entries == m_old.matrix.entries
                assert (m_new.source, m_new.target) == (m_old.source, m_old.target)

    def test_maps_split_the_sum(self):
        for a, b in self.PAIRS:
            grp, inc_a, inc_b, proj_a, proj_b = direct_sum(a, b)
            assert inc_a.then(proj_a) == GroupHom.identity(a)
            assert inc_b.then(proj_b) == GroupHom.identity(b)
            assert inc_a.then(proj_b) == GroupHom.zero(a, b)
            assert inc_b.then(proj_a) == GroupHom.zero(b, a)
            # inc_a proj_a + inc_b proj_b is the identity of the sum
            total = (inc_a.matrix @ proj_a.matrix).hstack(inc_b.matrix @ proj_b.matrix)
            for x in IntMatrix.identity(grp.ncoords).entries:
                assert grp.reduce(total.apply(x + x)) == x
