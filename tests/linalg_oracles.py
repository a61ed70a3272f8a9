"""Reference integer linear algebra that only the tests use.

Fraction elimination, independent of every integer normal form, and the
Smith-based bodies that kmfan.intlinalg and kmfan.gsfans replaced with one
row echelon form.  The tests compare the library against them.
"""

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Tuple

from kmfan.errors import DimensionMismatch
from kmfan.intlinalg import IntMatrix, Vec, is_saturated, primitive_vector, smith_decomposition


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
