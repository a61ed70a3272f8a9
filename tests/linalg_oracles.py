"""Reference integer linear algebra that only the tests use.

Fraction elimination, independent of every integer normal form; the
Smith-based bodies that kmfan.intlinalg and kmfan.gsfans replaced with one
row echelon form; the Smith decomposition with one step closure per
elementary operation, which the augmented rows replaced; and the
per-column loop that LinearSystem.integer_matrix replaced.  The tests
compare the library against them.
"""

from fractions import Fraction
from math import gcd
from typing import Collection, Optional, Sequence, Tuple

from kmfan.errors import DimensionMismatch
from kmfan.intlinalg import (
    TRANSFORMS,
    IntMatrix,
    SmithDecomposition,
    Vec,
    _identity_rows,
    _trusted,
    is_saturated,
    primitive_vector,
    smith_decomposition,
)


def smith_normal_form(m: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U @ M @ V = D diagonal, d_1 | d_2 | ... , d_i >= 0."""
    s = smith_decomposition(m, transforms=("u", "v"))
    return s.u, s.d, s.v


def solve_rational(m: IntMatrix, b: Sequence[Fraction]) -> Optional[Tuple[Fraction, ...]]:
    """Some rational solution of Mx = b, or None.  Free variables set to zero.

    Fraction Gauss-Jordan elimination, independent of the Smith form: the
    oracle for LinearSystem.ray.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length does not match row count")
    a = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(m.entries, b)]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for j in range(nc):
        piv = next((i for i in range(r, nr) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][j] for x in a[r]]
        for i in range(nr):
            if i != r and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if a[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, j in enumerate(pivots):
        x[j] = a[i][nc]
    return tuple(x)


def integer_matrix_by_columns(system, b: IntMatrix) -> Optional[IntMatrix]:
    """LinearSystem.integer_matrix as the loop it replaced: integer on each
    column of b, None as soon as one has no solution, the answers stacked."""
    columns = []
    for col in b.columns():
        x = system.integer(col)
        if x is None:
            return None
        columns.append(x)
    return IntMatrix._from_columns(columns, system.matrix.cols)


def fraction_vector_to_primitive(v: Sequence[Fraction]) -> Vec:
    """Clear denominators of a rational vector and make it primitive."""
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    return primitive_vector(ints)


# -- the bodies the row echelon form replaced


def hermite_by_gcd_sort(m: IntMatrix) -> IntMatrix:
    """hermite_column_basis as a column elimination that gcd-reduces the
    columns hitting each row, smallest first, then reduces the entries left
    of each pivot into [0, pivot)."""
    work = [list(c) for c in m.columns()]
    nr = m.rows
    basis: list = []
    pivot_rows = []
    for row in range(nr):
        nz = [c for c in work if c[row] != 0]
        rest = [c for c in work if c[row] == 0]
        if not nz:
            work = rest
            continue
        while len(nz) > 1:
            nz.sort(key=lambda c: (abs(c[row]), c))
            a, b = nz[0], nz[1]
            q = b[row] // a[row]
            nb = [x - q * y for x, y in zip(b, a)]
            nz = [a] + nz[2:]
            if nb[row] != 0:
                nz.append(nb)
            elif any(nb):
                rest.append(nb)
        piv = nz[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        pivot_rows.append(row)
        work = rest
    for i in range(len(basis)):
        r = pivot_rows[i]
        p = basis[i][r]
        for j in range(i):
            q = basis[j][r] // p
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return IntMatrix.from_columns(basis, rows=nr)


def kernel_by_smith(m: IntMatrix) -> IntMatrix:
    """kernel_basis as the columns of V at the zero diagonal of U M V = D."""
    s = smith_decomposition(m, transforms=("v",))
    diag = s.diagonal()
    free = [j for j in range(m.cols) if j >= len(diag) or diag[j] == 0]
    return s.v.select_columns(free)


def saturate_by_smith(m: IntMatrix) -> IntMatrix:
    """saturate as the Hermite basis of the columns of U^-1 at the nonzero
    diagonal of U M V = D."""
    s = smith_decomposition(m, transforms=("u_inv",))
    nonzero = [i for i, d in enumerate(s.diagonal()) if d != 0]
    return hermite_by_gcd_sort(s.u_inv.select_columns(nonzero))


def blocks_saturated_by_smith(relations: IntMatrix, blocks) -> bool:
    """is_gs_representable's test on a presentation: every block of columns
    (offset, width) of the rows of U past the rank of U rel V = D is a
    basis of a saturated lattice."""
    s = smith_decomposition(relations, transforms=("u",))
    free_rows = s.u.entries[s.rank():]
    return all(
        is_saturated(IntMatrix._make(tuple(row[off:off + width] for row in free_rows), width))
        for off, width in blocks
    )


def smith_decomposition_reference(m: IntMatrix, transforms: Collection[str] = TRANSFORMS) -> SmithDecomposition:
    """smith_decomposition as it was written with one step closure per
    elementary operation, each updating every tracked transform.

    ``transforms`` names which of "u", "v" and "u_inv" to compute; the
    others are None.  The default tracks all three.  Pivots are chosen as
    the smallest nonzero absolute value, first in row-major order, whatever
    is tracked, so D and every tracked transform are deterministic and the
    same as in the full decomposition.
    """
    unknown = set(transforms).difference(TRANSFORMS)
    if unknown:
        raise ValueError(f"unknown Smith transforms: {sorted(unknown)}")
    nr, nc = m.rows, m.cols
    d = [list(r) for r in m.entries]
    u = _identity_rows(nr) if "u" in transforms else None
    ui = _identity_rows(nr) if "u_inv" in transforms else None
    v = _identity_rows(nc) if "v" in transforms else None

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]
        if ui is not None:
            for r in ui:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            for r in v:
                r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        d[dst] = [a + c * b for a, b in zip(d[dst], d[src])]
        if u is not None:
            u[dst] = [a + c * b for a, b in zip(u[dst], u[src])]
        if ui is not None:
            for r in ui:
                r[src] -= c * r[dst]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        if v is not None:
            for r in v:
                r[dst] += c * r[src]

    def negate_row(i):
        d[i] = [-a for a in d[i]]
        if u is not None:
            u[i] = [-a for a in u[i]]
        if ui is not None:
            for r in ui:
                r[i] = -r[i]

    n = min(nr, nc)
    for t in range(n):
        while True:
            # locate the smallest nonzero |entry| in the working block, the
            # first in row-major order on ties (no later entry beats a 1)
            pivot = None
            best = 0
            for i in range(t, nr):
                row = d[i]
                for j in range(t, nc):
                    x = row[j]
                    if x:
                        ax = x if x > 0 else -x
                        if pivot is None or ax < best:
                            pivot, best = (i, j), ax
                            if ax == 1:
                                break
                if best == 1:
                    break
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, nr):
                q = d[i][t] // p
                if q:
                    add_row(t, i, -q)
                if d[i][t]:
                    dirty = True
            for j in range(t + 1, nc):
                q = d[t][j] // p
                if q:
                    add_col(t, j, -q)
                if d[t][j]:
                    dirty = True
            if dirty:
                continue
            if p == 1:  # a unit divides the rest of the block
                break
            # pivot must divide the rest of the block
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)

    return SmithDecomposition(
        None if u is None else _trusted(u, nr),
        _trusted(d, nc),
        None if v is None else _trusted(v, nc),
        None if ui is None else _trusted(ui, nr),
    )
