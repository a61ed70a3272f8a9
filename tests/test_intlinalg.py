"""Exact integer linear algebra: Smith form, kernels, solving, saturation."""

import collections
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from kmfan import intlinalg
from kmfan.errors import DimensionMismatch
from kmfan.intlinalg import (
    IntMatrix,
    LinearSystem,
    hermite_column_basis,
    invariant_factors,
    is_saturated,
    kernel_basis,
    lattice_intersection,
    primitive_vector,
    rank,
    saturate,
    smith_decomposition,
    solve_integer,
)
from linalg_oracles import (
    fraction_vector_to_primitive,
    hermite_by_gcd_sort,
    integer_matrix_by_columns,
    kernel_by_smith,
    saturate_by_smith,
    smith_decomposition_reference,
    smith_normal_form,
    solve_rational,
)


def exact_det(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    sign = 1
    for j in range(n):
        p = next((i for i in range(j, n) if a[i][j]), None)
        if p is None:
            return 0
        if p != j:
            a[j], a[p] = a[p], a[j]
            sign = -sign
        for i in range(j + 1, n):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return int(out)


def minors_gcd(m: IntMatrix, k: int) -> int:
    g = 0
    for rs in itertools.combinations(range(m.rows), k):
        for cs in itertools.combinations(range(m.cols), k):
            g = gcd(g, abs(exact_det([[m.entries[i][j] for j in cs] for i in rs])))
    return g


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form(IntMatrix.identity(2))
        assert d == IntMatrix.identity(2)
        assert u == IntMatrix.identity(2)
        assert v == IntMatrix.identity(2)

    def test_contract_example(self):
        # gcd-of-minors oracle: d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 8
        m = IntMatrix([[2, 4], [6, 8]])
        assert minors_gcd(m, 1) == 2
        assert minors_gcd(m, 2) == 8
        _, d, _ = smith_normal_form(m)
        assert d == IntMatrix([[2, 0], [0, 4]])

    def test_zero_matrix(self):
        _, d, _ = smith_normal_form(IntMatrix([[0]]))
        assert d == IntMatrix([[0]])

    def test_random_decomposition_and_minors(self):
        rng = random.Random(0)
        for _ in range(150):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
            s = smith_decomposition(m)
            assert (s.u @ m @ s.v) == s.d
            assert (s.u @ s.u_inv) == IntMatrix.identity(nr)
            assert abs(exact_det([list(r) for r in s.u.entries])) == 1
            assert abs(exact_det([list(r) for r in s.v.entries])) == 1
            diag = s.diagonal()
            for i in range(len(diag) - 1):
                if diag[i] == 0:
                    assert diag[i + 1] == 0
                elif diag[i + 1] != 0:
                    assert diag[i + 1] % diag[i] == 0
            prod = 1
            for k in range(1, min(nr, nc) + 1):
                dk = diag[k - 1] if k - 1 < len(diag) else 0
                prod *= dk
                assert minors_gcd(m, k) == prod


class TestKernel:
    def test_projection(self):
        kb = kernel_basis(IntMatrix([[1, 0]]))
        assert kb.columns() == ((0, 1),)

    def test_p22_composite_kernel(self):
        # x1 - x2 = 0 and x1 = 0 mod 2: kernel generated by (2, 2)
        m = IntMatrix([[1, -1, 0], [1, 0, 2]])
        kb = kernel_basis(m)
        sub = hermite_column_basis(kb.select_rows([0, 1]))
        assert solve_integer(sub, (2, 2)) is not None
        assert solve_integer(sub, (1, 1)) is None

    def test_invertible_matrix_has_no_kernel(self):
        kb = kernel_basis(IntMatrix([[1, 1], [0, 1]]))
        assert kb.cols == 0

    def test_rank_nullity(self):
        rng = random.Random(1)
        for _ in range(100):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
            kb = kernel_basis(m)
            for c in kb.columns():
                assert m.apply(c) == (0,) * nr
            assert rank(kb) + rank(m) == nc


class TestSolveInteger:
    def test_even(self):
        assert solve_integer(IntMatrix([[2]]), (4,)) == (2,)

    def test_parity_obstruction(self):
        assert solve_integer(IntMatrix([[2]]), (3,)) is None

    def test_two_column_example(self):
        m = IntMatrix.from_columns([(1, 1), (-1, 0)])
        x = solve_integer(m, (0, 1))
        assert x is not None and m.apply(x) == (0, 1)

    def test_against_brute_force(self):
        rng = random.Random(2)
        for _ in range(120):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
            b = tuple(rng.randint(-9, 9) for _ in range(nr))
            got = solve_integer(m, b)
            brute = next(
                (x for x in itertools.product(range(-6, 7), repeat=nc) if m.apply(x) == b),
                None,
            )
            if brute is not None:
                assert got is not None and m.apply(got) == b
            if got is not None:
                assert m.apply(got) == b


class TestSaturate:
    def test_double_of_basis_vector(self):
        sat = saturate(IntMatrix.from_columns([(2, 0)]))
        assert sat.columns() == ((1, 0),)

    def test_already_saturated(self):
        sat = saturate(IntMatrix.identity(2))
        assert sat == IntMatrix.identity(2)

    def test_index_two_sublattice(self):
        sat = saturate(IntMatrix.from_columns([(1, 1), (1, -1)]))
        assert sat == IntMatrix.identity(2)

    def test_idempotent_and_contains(self):
        rng = random.Random(3)
        for _ in range(80):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)])
            sat = saturate(m)
            assert saturate(sat) == sat
            for c in m.columns():
                assert solve_integer(sat, c) is not None
            assert rank(sat) == rank(m)


class TestIsSaturated:
    def test_examples(self):
        assert is_saturated(IntMatrix.identity(3))
        assert is_saturated(IntMatrix.zero(2, 0))
        assert is_saturated(IntMatrix.from_columns([(1, 2)]))
        assert not is_saturated(IntMatrix.from_columns([(2, 4)]))
        assert not is_saturated(IntMatrix.from_columns([(1, 1), (1, -1)]))
        # dependent columns span a saturated lattice but are no basis of it
        assert not is_saturated(IntMatrix.from_columns([(1, 0), (0, 1), (1, 1)]))
        assert not is_saturated(IntMatrix.zero(2, 1))

    def test_agrees_with_saturate(self):
        """A basis of a saturated lattice: independent columns whose Hermite
        basis is that of their saturation."""
        rng = random.Random(12)
        seen = {True: 0, False: 0}
        for _ in range(400):
            n, k = rng.randint(1, 4), rng.randint(0, 4)
            m = IntMatrix([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)], cols=k)
            expected = rank(m) == k and hermite_column_basis(m) == saturate(m)
            assert is_saturated(m) == expected, m
            seen[expected] += 1
        assert min(seen.values()) >= 50, seen


class TestHermite:
    def test_canonical_under_regeneration(self):
        rng = random.Random(4)
        for _ in range(120):
            n, k = rng.randint(1, 4), rng.randint(1, 5)
            cols = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
            m1 = IntMatrix.from_columns(cols, rows=n)
            shuffled = cols[:]
            rng.shuffle(shuffled)
            shuffled.append(tuple(a + b for a, b in zip(shuffled[0], shuffled[-1])))
            shuffled.append(tuple(-2 * a for a in shuffled[0]))
            m2 = IntMatrix.from_columns(shuffled, rows=n)
            assert hermite_column_basis(m1) == hermite_column_basis(m2)

    def test_intersection(self):
        a = IntMatrix.from_columns([(2, 0), (0, 1)])
        b = IntMatrix.from_columns([(3, 0), (0, 1)])
        assert lattice_intersection(a, b).columns() == ((6, 0), (0, 1))


class TestArbitraryPrecision:
    def test_huge_entries_stay_exact(self):
        big = 10 ** 24
        m = IntMatrix([[big, big + 1], [big - 1, big]])
        s = smith_decomposition(m)
        assert (s.u @ m @ s.v) == s.d
        # determinant is 1, so the matrix is unimodular
        assert s.diagonal() == (1, 1)

    def test_intermediate_growth(self):
        # ill-conditioned small matrices blow up intermediate entries; the
        # decomposition must still be exact
        rng = random.Random(5)
        for _ in range(20):
            n = 6
            m = IntMatrix([[rng.randint(-999, 999) for _ in range(n)] for _ in range(n)])
            s = smith_decomposition(m)
            assert (s.u @ m @ s.v) == s.d
            assert abs(exact_det([list(r) for r in s.u.entries])) == 1

    def test_solve_with_large_right_hand_side(self):
        m = IntMatrix([[3, 5], [7, 11]])  # det -2
        b = (10 ** 30, 10 ** 30 + 1)
        x = solve_integer(m, b)
        if x is not None:
            assert m.apply(x) == b
        # parity: det is -2, so solvability depends on the residue; verify
        # both branches behave exactly on a solvable instance
        b2 = m.apply((10 ** 25, -(10 ** 20)))
        assert solve_integer(m, b2) is not None


def test_primitive_vector():
    assert primitive_vector((2, 4, -6)) == (1, 2, -3)
    assert primitive_vector((0, 0)) == (0, 0)


def test_solve_rational():
    m = IntMatrix([[2, 0], [0, 3]])
    assert solve_rational(m, [Fraction(1), Fraction(1)]) == (Fraction(1, 2), Fraction(1, 3))
    assert solve_rational(IntMatrix([[0]]), [Fraction(1)]) is None


def _random_matrix(rng, rows, cols):
    bound = rng.choice([1, 3, 9, 40])
    density = rng.choice([0.3, 0.7, 1.0])
    return IntMatrix(
        [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


def _seeded_matrices(seed, count):
    """Seeded integer matrices of up to 7x7, starting with every 0 x n and
    n x 0 shape."""
    rng = random.Random(seed)
    out = [IntMatrix.zero(0, n) for n in range(4)] + [IntMatrix.zero(n, 0) for n in range(1, 4)]
    while len(out) < count:
        out.append(_random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7)))
    return out


class TestSmithTransforms:
    def test_every_subset_matches_the_full_decomposition(self):
        names = ("u", "v", "u_inv")
        subsets = [c for k in range(4) for c in itertools.combinations(names, k)]
        assert len(subsets) == 8
        for m in _seeded_matrices(5151, 320):
            full = smith_decomposition(m)
            assert full.u @ m @ full.v == full.d
            assert full.u @ full.u_inv == IntMatrix.identity(m.rows)
            for subset in subsets:
                part = smith_decomposition(m, transforms=subset)
                assert part.d == full.d, (m, subset)
                for name in names:
                    got = getattr(part, name)
                    assert got == (getattr(full, name) if name in subset else None), (m, subset, name)

    def test_equals_the_reference_body(self):
        """U, D, V and U^-1 equal, entry for entry, those of the former body,
        which updated each tracked transform in its own step closure: 2000
        seeded matrices of up to 8x8, every 0 x n and n x 0 shape included,
        under all eight transform subsets."""
        subsets = [c for k in range(4) for c in itertools.combinations(("u", "v", "u_inv"), k)]
        rng = random.Random(2222)
        matrices = [IntMatrix.zero(0, n) for n in range(9)] + [IntMatrix.zero(n, 0) for n in range(1, 9)]
        while len(matrices) < 2000:
            matrices.append(_random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8)))
        for m in matrices:
            for subset in subsets:
                got = smith_decomposition(m, transforms=subset)
                want = smith_decomposition_reference(m, transforms=subset)
                assert [got.u, got.d, got.v, got.u_inv] == [want.u, want.d, want.v, want.u_inv], (m, subset)

    def test_witnesses_are_pinned(self):
        """The pivot rule (smallest nonzero |entry|, first in row-major order
        on ties) fixes every transform; these are the decompositions it has
        always given, so witnesses built on them stay byte-identical."""
        cases = [
            ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
             [[[1, 0, 0], [3, 1, 0], [1, 2, 1]], [[2, 0, 0], [0, 6, 0], [0, 0, 12]],
              [[1, 0, -2], [0, -1, 4], [0, 1, -3]], [[1, 0, 0], [-3, 1, 0], [5, -2, 1]]]),
            # three entries of |x| = 2 tie for the first pivot
            ([[2, 4, 4], [2, -2, 4], [3, 6, 4]],
             [[[-1, 0, 1], [2, 1, -2], [5, 4, -6]], [[1, 0, 0], [0, 2, 0], [0, 0, 12]],
              [[1, -2, 4], [0, 1, -2], [0, 2, -3]], [[2, 4, -1], [2, 1, 0], [3, 4, -1]]]),
        ]
        for rows, want in cases:
            s = smith_decomposition(IntMatrix(rows))
            assert [s.u, s.d, s.v, s.u_inv] == [IntMatrix(w) for w in want]

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            smith_decomposition(IntMatrix.identity(2), transforms=("w",))
        # V^-1 had no reader and is no longer tracked
        with pytest.raises(ValueError):
            smith_decomposition(IntMatrix.identity(2), transforms=("v_inv",))


class TestTrustedConstruction:
    def test_library_producers_make_no_checked_matrices(self, monkeypatch):
        checked = []
        original = IntMatrix.__init__

        def counting_init(self, *args, **kwargs):
            checked.append(args)
            original(self, *args, **kwargs)

        a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        b = IntMatrix([[1, 0], [3, 5], [0, 0], [2, 7]])
        monkeypatch.setattr(IntMatrix, "__init__", counting_init)
        produced = [
            a @ a, a.transpose(), b.transpose(), a.hstack(a), a.scale(-3),
            a.select_rows([2, 0]), a.select_columns([1]), b.select_columns([]),
            IntMatrix.identity(3), IntMatrix.zero(2, 3), IntMatrix.zero(0, 2),
            IntMatrix.from_columns([(1, 2), [3, 4]]), IntMatrix.from_columns([], rows=2),
            hermite_column_basis(a), hermite_column_basis(b), kernel_basis(a), kernel_basis(b),
            saturate(b), lattice_intersection(a, a.scale(2)),
            *smith_normal_form(b), *smith_normal_form(a),
        ]
        s = smith_decomposition(b)
        produced += [s.u, s.d, s.v, s.u_inv]
        assert a.apply((1, 2, 3)) == (22, 42, -46) and solve_integer(a, a.apply((1, 0, 1))) is not None
        assert all(isinstance(m, IntMatrix) for m in produced)
        assert checked == []
        IntMatrix([[1, 2]])
        assert len(checked) == 1

    def test_trusted_results_are_plain_ints(self):
        a = IntMatrix([[True, 2], [3, -4]])
        for m in (a, a @ a, a.transpose(), hermite_column_basis(a), smith_decomposition(a).u_inv):
            assert type(m.entries) is tuple
            assert all(type(r) is tuple and all(type(x) is int for x in r) for r in m.entries)
        assert a.columns() == ((1, 3), (2, -4))
        assert IntMatrix.zero(2, 0).columns() == () and IntMatrix.zero(0, 2).columns() == ((), ())
        # a tuple row of plain ints is kept as it is; one holding a bool is
        # converted entry by entry
        b = IntMatrix([(True, 2), (3, -4)])
        assert [[type(x) for x in r] for r in b.entries] == [[int, int], [int, int]]


class TestCheckedConstruction:
    def test_non_integral_entries_are_rejected(self):
        with pytest.raises(TypeError, match="1.5"):
            IntMatrix([[1.5, 2]])
        with pytest.raises(TypeError, match="2.7"):
            IntMatrix.from_columns([[2.7]])
        with pytest.raises(TypeError, match=r"Fraction\(1, 2\)"):
            IntMatrix([[Fraction(1, 2)]])
        with pytest.raises(TypeError):
            IntMatrix([["3"]])
        with pytest.raises(TypeError):
            IntMatrix.identity(2).scale(0.5)

    def test_integral_entries_are_accepted(self):
        assert IntMatrix([[True, 2], (3, 4)]) == IntMatrix([[1, 2], [3, 4]])
        assert IntMatrix.from_columns([[1, 3], (2, 4)]) == IntMatrix([[1, 2], [3, 4]])

    def test_cone_generators_are_checked(self):
        from kmfan.cones import Cone

        with pytest.raises(TypeError, match="1.5"):
            Cone.from_generators([(1.5, 0)], 2)
        with pytest.raises(TypeError, match="0.5"):
            Cone.from_halfspaces([(0.5, 1)], [], 2)
        assert Cone.from_generators([[True, 0]], 2) == Cone.ray((1, 0))


class TestSympyOracle:
    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        for m in _seeded_matrices(6262, 160):
            if not m.rows or not m.cols:
                assert invariant_factors(m) == ()
                continue
            snf = sympy_snf(sympy.Matrix(m.rows, m.cols, [x for r in m.entries for x in r]),
                            domain=sympy.ZZ)
            want = tuple(abs(int(snf[i, i])) for i in range(min(m.rows, m.cols)) if snf[i, i] != 0)
            assert invariant_factors(m) == want, m

    def test_hermite_basis_spans_the_sympy_lattice(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

        def lattice(m):
            flat = [x for r in m.entries for x in r]
            return sympy_hnf(sympy.Matrix(m.rows, m.cols, flat)) if any(flat) else None

        for m in _seeded_matrices(7373, 160):
            if not m.rows:
                continue
            h = hermite_column_basis(m)
            assert h.rows == m.rows
            if lattice(m) is None:
                assert h.cols == 0
            else:
                assert lattice(h) == lattice(m), m


def _seeded_injective(rng, count):
    """Seeded injective n x k matrices (k <= n <= 5), starting with 0 x 0 and
    every n x 0 shape."""
    out = [IntMatrix.zero(n, 0) for n in range(4)]
    while len(out) < count:
        k = rng.randint(1, 4)
        m = _random_matrix(rng, rng.randint(k, 5), k)
        if smith_decomposition(m, transforms=()).rank() == k:
            out.append(m)
    return out


class TestLinearSystem:
    def test_ray_matches_rational_elimination(self):
        """ray(b) is the primitive of the rational solution, on b in the span
        (rational and integral points of it) and b outside it."""
        rng = random.Random(7007)
        inside = outside = 0
        for m in _seeded_injective(rng, 320):
            system = LinearSystem(m)
            rhs = [(0,) * m.rows, tuple(rng.randint(-9, 9) for _ in range(m.rows))]
            for _ in range(2):
                x = [rng.randint(-5, 5) for _ in range(m.cols)]
                rhs.append(m.apply(x))
                rhs.append(primitive_vector(m.apply(x)))
            for b in rhs:
                sol = solve_rational(m, [Fraction(v) for v in b])
                want = None if sol is None else fraction_vector_to_primitive(sol)
                assert system.ray(b) == want, (m, b)
                if want is None:
                    outside += 1
                elif any(b):
                    inside += 1
        assert inside >= 300 and outside >= 100

    def test_ray_needs_an_injective_matrix(self):
        with pytest.raises(ValueError):
            LinearSystem(IntMatrix([[1, 1]])).ray((1,))

    def test_integer_solves_exactly_when_b_is_in_the_lattice(self):
        rng = random.Random(8008)
        solved = unsolved = deficient = 0
        for m in _seeded_matrices(8118, 320):
            system = LinearSystem(m)
            if system.rank < min(m.rows, m.cols):
                deficient += 1
            rhs = [tuple(rng.randint(-9, 9) for _ in range(m.rows)),
                   m.apply([rng.randint(-4, 4) for _ in range(m.cols)])]
            for b in rhs:
                x = system.integer(b)
                with_b = m.hstack(IntMatrix._from_columns([b], m.rows))
                in_lattice = hermite_column_basis(with_b) == hermite_column_basis(m)
                assert (x is not None) == in_lattice, (m, b)
                if x is None:
                    unsolved += 1
                else:
                    assert len(x) == m.cols and m.apply(x) == b
                    solved += 1
                assert x == solve_integer(m, b)
        assert solved >= 300 and unsolved >= 100 and deficient >= 25

    def test_right_hand_side_length_checked(self):
        with pytest.raises(DimensionMismatch):
            LinearSystem(IntMatrix([[1, 0]])).integer((1, 2))

    def test_solve_integer_witnesses_are_pinned(self):
        """Witnesses recorded before LinearSystem existed, when every call
        ran its own Smith decomposition: the free Smith coordinates are
        still zero."""
        cases = [
            ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
             [(2, -6, 10), (0, 12, -12), (6, 0, -6), (1, 0, 0)],
             [(1, 0, 0), (-2, 2, -1), (3, -3, 3), None]),
            ([[3, 1, 4, 1], [5, 9, 2, 6]],
             [(1, 0), (0, 1), (7, -3), (100, -41)],
             [(0, 64, 9, -99), (0, -7, -1, 11), (0, 469, 66, -726), (0, 6687, 941, -10351)]),
            ([[1, 2], [2, 4], [3, 7]],
             [(1, 2, 3), (0, 0, 1), (1, 2, 4), (1, 1, 1)],
             [(1, 0), (-2, 1), (-1, 1), None]),
        ]
        for rows, rhs, want in cases:
            m = IntMatrix(rows)
            assert [solve_integer(m, b) for b in rhs] == want
            system = LinearSystem(m)
            assert [system.integer(b) for b in rhs] == want


def _batch(rng, m: IntMatrix, solvable: bool) -> IntMatrix:
    """Up to four right-hand sides for m: images of random integer vectors,
    and, unless solvable, one random column at a random place, which m
    mostly cannot reach."""
    columns = [m.apply([rng.randint(-4, 4) for _ in range(m.cols)]) for _ in range(rng.randint(0, 4))]
    if not solvable:
        columns.insert(rng.randint(0, len(columns)), tuple(rng.randint(-9, 9) for _ in range(m.rows)))
    return IntMatrix._from_columns(columns, m.rows)


class TestIntegerMatrix:
    """The batched solve against the per-column integer loop it replaced
    (linalg_oracles.integer_matrix_by_columns)."""

    def test_equals_the_per_column_loop(self):
        rng = random.Random(3232)
        matrices = _seeded_injective(rng, 160)
        matrices += [_rank_deficient(rng, rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 3)) for _ in range(80)]
        matrices += [_with_zero_lines(rng, m) for m in _seeded_injective(rng, 40)[4:]]
        matrices += _seeded_matrices(3333, 80)
        kinds = collections.Counter()
        for m in matrices:
            system = LinearSystem(m)
            smith = system.rank < m.cols
            for solvable in (True, False):
                b = _batch(rng, m, solvable)
                x = system.integer_matrix(b)
                assert x == integer_matrix_by_columns(system, b), (m, b)
                if x is not None:
                    assert (x.rows, x.cols) == (m.cols, b.cols) and m @ x == b, (m, b)
                kinds["empty" if not b.cols else "none" if x is None else "smith" if smith else "echelon"] += 1
        assert kinds["echelon"] >= 150 and kinds["smith"] >= 80, kinds
        assert kinds["none"] >= 150 and kinds["empty"] >= 40, kinds

    def test_one_column_without_a_solution_gives_none(self):
        system = LinearSystem(IntMatrix([[2, 0], [0, 3], [0, 0]]))
        assert system.integer_matrix(IntMatrix([[2, 4], [3, -3], [0, 0]])) == IntMatrix([[1, 2], [1, -1]])
        assert system.integer_matrix(IntMatrix([[2, 4, 2], [3, -3, 1], [0, 0, 0]])) is None
        assert system.integer_matrix(IntMatrix([[2], [3], [1]])) is None
        assert system.integer_matrix(IntMatrix.zero(3, 0)) == IntMatrix.zero(2, 0)

    def test_smith_witnesses_are_the_pinned_ones(self):
        """The witnesses of test_solve_integer_witnesses_are_pinned, on a
        rank-deficient matrix, come out of one batch."""
        m = IntMatrix([[3, 1, 4, 1], [5, 9, 2, 6]])
        b = IntMatrix.from_columns([(1, 0), (0, 1), (7, -3), (100, -41)])
        want = [(0, 64, 9, -99), (0, -7, -1, 11), (0, 469, 66, -726), (0, 6687, 941, -10351)]
        assert LinearSystem(m).integer_matrix(b) == IntMatrix.from_columns(want)

    def test_right_hand_side_row_count_checked(self):
        with pytest.raises(DimensionMismatch):
            LinearSystem(IntMatrix([[1, 0]])).integer_matrix(IntMatrix([[1], [2]]))


class TestExactRightHandSides:
    def test_non_integral_right_hand_sides_are_rejected(self):
        m = IntMatrix([[2, 0], [0, 3]])
        with pytest.raises(TypeError, match="2.0"):
            solve_integer(m, (2.0, 3.0))
        with pytest.raises(TypeError, match="1.5"):
            solve_integer(m, (1.5, 3))
        system = LinearSystem(m)
        with pytest.raises(TypeError, match="1.5"):
            system.integer((1.5, 3))
        with pytest.raises(TypeError, match=r"Fraction\(1, 2\)"):
            system.ray((Fraction(1, 2), 3))
        with pytest.raises(TypeError, match="'3'"):
            LinearSystem(IntMatrix([[1, 1]])).integer(("3",))

    def test_integral_right_hand_sides_are_accepted(self):
        m = IntMatrix([[2, 0], [0, 3]])
        assert solve_integer(m, [True, 3]) is None
        assert solve_integer(m, [2, 3]) == (1, 1)
        assert LinearSystem(m).ray([4, 3]) == (2, 1)


# -- the Smith-based kernel as it was before the row echelon form, kept as an
# -- oracle for the echelon readers


def invariant_factors_by_smith(m: IntMatrix):
    return tuple(x for x in smith_decomposition(m, transforms=()).diagonal() if x != 0)


class SmithLinearSystem:
    """LinearSystem as one Smith decomposition U M V = D for every matrix:
    M x = b exactly when D y = U b, with x = V y."""

    def __init__(self, m: IntMatrix):
        s = smith_decomposition(m, transforms=("u", "v"))
        self.matrix = m
        self.rank = s.rank()
        self._u, self._v = s.u, s.v
        self._diag = s.diagonal()[: self.rank]

    def _coordinates(self, b):
        c = self._u.apply(b)
        if any(c[self.rank:]):
            return None
        return c[: self.rank]

    def integer(self, b):
        c = self._coordinates(b)
        if c is None or any(ci % di for ci, di in zip(c, self._diag)):
            return None
        y = [ci // di for ci, di in zip(c, self._diag)] + [0] * (self.matrix.cols - self.rank)
        return self._v.apply(y)

    def ray(self, b):
        c = self._coordinates(b)
        if c is None:
            return None
        top = self._diag[-1] if self._diag else 1
        return primitive_vector(self._v.apply([ci * (top // di) for ci, di in zip(c, self._diag)]))


def _with_zero_lines(rng, m: IntMatrix) -> IntMatrix:
    """m with a zero row and a zero column inserted at random places."""
    rows = [list(r) for r in m.entries]
    rows.insert(rng.randint(0, len(rows)), [0] * m.cols)
    j = rng.randint(0, m.cols)
    return IntMatrix([r[:j] + [0] + r[j:] for r in rows], cols=m.cols + 1)


def _rank_deficient(rng, rows, cols, r):
    a = IntMatrix([[rng.randint(-4, 4) for _ in range(r)] for _ in range(rows)], cols=r)
    b = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(r)], cols=cols)
    return a @ b


def _torsion_block(rng):
    """basis | relation matrix over Z^f + Z/d_1 + ... + Z/d_t, as
    LatticeDatum.coordinates solves it: torsion coordinates reduced."""
    free, torsion = rng.randint(0, 3), [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
    k = rng.randint(0, free + 1)
    basis = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(free)]
    basis += [[rng.randrange(d) for _ in range(k)] for d in torsion]
    relations = [[0] * len(torsion)] * free + [
        [torsion[i] if i == j else 0 for j in range(len(torsion))] for i in range(len(torsion))
    ]
    return IntMatrix([b + r for b, r in zip(basis, relations)], cols=k + len(torsion))


def _differential_matrices(seed):
    """Every kind of matrix the echelon readers must agree with Smith on."""
    rng = random.Random(seed)
    out = _seeded_matrices(seed, 120)
    out += [_with_zero_lines(rng, m) for m in _seeded_matrices(seed + 1, 60)]
    out += [_rank_deficient(rng, rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 3)) for _ in range(80)]
    out += [_torsion_block(rng) for _ in range(80)]
    out += [IntMatrix([[rng.randint(-60, 60) for _ in range(c)] for _ in range(r)], cols=c)
            for r, c in [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(80)]]
    out += [IntMatrix([[rng.randint(-5, 5) for _ in range(20)] for _ in range(22)]) for _ in range(3)]
    return rng, out


class TestEchelonAgainstSmith:
    def test_invariant_factors_and_saturation(self):
        rng, matrices = _differential_matrices(9090)
        units = other = 0
        for m in matrices:
            want = invariant_factors_by_smith(m)
            assert invariant_factors(m) == want, m
            assert is_saturated(m) == (len(want) == m.cols and all(d == 1 for d in want)), m
            if want and set(want) == {1}:
                units += 1
            elif any(d > 1 for d in want):
                other += 1
        assert units >= 100 and other >= 100

    def test_unit_shortcut_reads_every_pivot(self):
        """A unit first pivot does not make every factor a unit."""
        assert invariant_factors(IntMatrix([[1, 0], [0, 2]])) == (1, 2)
        assert invariant_factors(IntMatrix([[1, 3, 0], [0, 1, 0], [0, 0, 4]])) == (1, 1, 4)
        assert not is_saturated(IntMatrix([[1, 0], [0, 2], [0, 0]]))

    def test_linear_systems(self):
        rng, matrices = _differential_matrices(9191)
        kinds = {"injective": 0, "deficient": 0, "solved": 0, "unsolved": 0}
        for m in matrices:
            system, oracle = LinearSystem(m), SmithLinearSystem(m)
            assert system.rank == oracle.rank, m
            injective = system.rank == m.cols
            kinds["injective" if injective else "deficient"] += 1
            rhs = [(0,) * m.rows, tuple(rng.randint(-9, 9) for _ in range(m.rows))]
            for _ in range(2):
                x = [rng.randint(-5, 5) for _ in range(m.cols)]
                rhs += [m.apply(x), primitive_vector(m.apply(x))]
            for b in rhs:
                x = system.integer(b)
                assert x == oracle.integer(b), (m, b)
                kinds["unsolved" if x is None else "solved"] += 1
                if injective:
                    assert system.ray(b) == oracle.ray(b), (m, b)
        assert min(kinds.values()) >= 100, kinds

    def test_growth_guard(self):
        """Injective 32 x 30 systems with entries in [-5, 5]: built and
        solved in well under a second each, and equal to the Smith oracle."""
        import time

        rng = random.Random(3230)
        for _ in range(3):
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(30)] for _ in range(32)])
            rhs = [m.apply([rng.randint(-5, 5) for _ in range(30)]), tuple(rng.randint(-5, 5) for _ in range(32))]
            start = time.perf_counter()
            system = LinearSystem(m)
            got = [(system.integer(b), system.ray(b)) for b in rhs]
            assert time.perf_counter() - start < 1.0
            oracle = SmithLinearSystem(m)
            assert oracle.rank == 30
            assert got == [(oracle.integer(b), oracle.ray(b)) for b in rhs]


class TestLatticeQueriesAgainstSmith:
    """hermite_column_basis, kernel_basis and saturate on the row echelon
    form, against the gcd-sort and Smith bodies they replaced."""

    @staticmethod
    def _check(m: IntMatrix):
        assert hermite_column_basis(m) == hermite_by_gcd_sort(m), m
        k, want = kernel_basis(m), kernel_by_smith(m)
        assert (k.rows, k.cols) == (want.rows, want.cols), m
        assert all(not any(m.apply(c)) for c in k.columns()), m
        # the same lattice: so k, with as many columns as the kernel's rank,
        # is a basis of the kernel
        assert hermite_by_gcd_sort(k) == hermite_by_gcd_sort(want), m
        assert saturate(m) == saturate_by_smith(m), m

    def test_differential_matrices(self):
        _, matrices = _differential_matrices(9292)
        kernels = saturations = 0
        for m in matrices:
            self._check(m)
            kernels += kernel_basis(m).cols > 0
            saturations += hermite_column_basis(m) != saturate(m)
        assert kernels >= 100 and saturations >= 100

    def test_wide_data_sum_of_the_512_ray_polygon(self, monkeypatch):
        """The 2 x 1024 matrix fundamental_group reduces on the complete
        fan on 512 rays in a box of 60."""
        from kmfan import fans
        from test_gsfans import complete_fan_with_rays

        rng = random.Random(7)
        rays = {(1, 0), (0, 1), (-1, -1)}
        while len(rays) < 512:
            v = primitive_vector((rng.randint(-60, 60), rng.randint(-60, 60)))
            if any(v):
                rays.add(v)
        fan = complete_fan_with_rays(rays)
        seen = []
        real = fans.hermite_column_basis
        monkeypatch.setattr(fans, "hermite_column_basis", lambda m: seen.append(m) or real(m))
        assert fans.fundamental_group(fan).is_trivial()
        (m,) = seen
        assert (m.rows, m.cols) == (2, 1024)
        self._check(m)

    def test_no_smith_decomposition(self, monkeypatch):
        calls = []
        real = intlinalg.smith_decomposition
        monkeypatch.setattr(intlinalg, "smith_decomposition", lambda *a, **k: calls.append(1) or real(*a, **k))
        _, matrices = _differential_matrices(9393)
        for m in matrices:
            for query in (hermite_column_basis, kernel_basis, saturate):
                query(m)
        assert calls == []

    def test_growth_guard(self):
        """kernel_basis and saturate of 32 x 30 matrices with entries in
        [-5, 5], and of their transposes, in well under a second each."""
        import time

        rng = random.Random(3231)
        for _ in range(3):
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(30)] for _ in range(32)])
            for a in (m, m.transpose()):
                start = time.perf_counter()
                k, sat = kernel_basis(a), saturate(a)
                assert time.perf_counter() - start < 1.0
                assert k.cols == a.cols - 30 and all(not any(a.apply(c)) for c in k.columns())
                assert sat.cols == 30 and is_saturated(sat)
                assert all(solve_integer(sat, c) is not None for c in a.columns())


def permutation_sum_determinant(rows) -> int:
    """The determinant as the signed sum over permutations (Leibniz)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += -term if inversions % 2 else term
    return total


class TestDeterminant:
    def test_agrees_with_the_permutation_sum(self):
        """3000 seeded matrices of size 1 to 5, about half of their entries
        zero: leading minors that vanish on nonsingular matrices, so that a
        zero pivot is swapped, and singular matrices both occur."""
        rng = random.Random(2323)
        seen = {"zero-pivot": 0, "singular": 0, "nonsingular": 0}
        for _ in range(3000):
            n = rng.randint(1, 5)
            rows = [[rng.choice((0, rng.randint(-6, 6))) for _ in range(n)] for _ in range(n)]
            det = permutation_sum_determinant(rows)
            assert intlinalg._determinant(rows) == det, rows
            if det == 0:
                seen["singular"] += 1
            elif any(permutation_sum_determinant([r[:k] for r in rows[:k]]) == 0 for k in range(1, n)):
                seen["zero-pivot"] += 1
            else:
                seen["nonsingular"] += 1
        assert min(seen.values()) >= 300, seen

    def test_empty_matrix_and_no_mutation(self):
        assert intlinalg._determinant([]) == 1
        rows = [[0, 2], [3, 4]]
        assert intlinalg._determinant(rows) == -6
        assert rows == [[0, 2], [3, 4]]
