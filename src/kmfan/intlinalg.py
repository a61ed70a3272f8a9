"""Exact integer matrix algebra: Smith/Hermite normal forms, kernels, saturation.

Everything here works with arbitrary-precision Python integers; there is no
floating point anywhere.  Matrices are immutable values.

The public constructors (``IntMatrix(...)`` and ``IntMatrix.from_columns``)
check every entry once and reject anything that is not an integer.  Matrices
built inside the library from entries that are already ints (products,
transposes, selections, normal forms) go through the trusted
``IntMatrix._make`` and ``IntMatrix._from_columns`` instead, which use their
int tuples as they are.  ``smith_decomposition`` computes only the
transforms a caller asks for; the library's own callers name the ones they
read, and the default tracks all three.

The lattice queries run on one row echelon form (``_row_echelon``), which
takes unimodular row steps only.  ``invariant_factors`` and ``is_saturated``
read its leading entries.  ``hermite_column_basis`` is the echelon of the
columns, reduced at each pivot.  ``kernel_basis`` reads the rows of the
transform past the rank, and ``saturate`` is the kernel of the left kernel.
``LinearSystem(m)`` keeps the echelon with its row transform and answers
every right-hand side against an injective m by back substitution, as an
integer solution (``integer``, or ``integer_matrix`` for all the columns of
a matrix at once) or a primitive ray (``ray``); only a rank-deficient m
runs a Smith decomposition there.  ``solve_integer`` is the one-shot form.
A full Smith form is computed only where its diagonal or one of its
transforms is read.  ``rank`` is fraction-free Gaussian elimination.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Collection, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DimensionMismatch

Vec = Tuple[int, ...]


def _int_entry(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"entry {x!r} is not an integer") from None


def _int_vector(values: Iterable) -> Vec:
    """The values as a tuple of ints; anything operator.index rejects
    (floats, fractions, strings) raises TypeError naming the entry."""
    if type(values) is tuple and {*map(type, values)} <= {int}:
        return values
    return tuple(map(_int_entry, values))


def _transposed(vectors: Sequence[Vec], length: int) -> Tuple[Vec, ...]:
    """The transpose of int sequences of the given length (that length is the
    number of empty vectors returned when there are no vectors)."""
    return tuple(zip(*vectors)) if vectors else ((),) * length


def _dot(a: Sequence, b: Sequence):
    return sum(map(operator.mul, a, b))


class _Value:
    """The base of the library's immutable values: every write or delete of
    an attribute from outside raises.  A value writes its own slots, in its
    constructors and its lazy caches, through their slot descriptors' setters,
    bound once at import (_set_rows and the like), at about half the cost of
    the generic attribute write of object, which looks the name up in the
    type on every call.  A cache holds a function of the value, so a racing
    writer stores an equal one and no lock is needed."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class IntMatrix(_Value):
    """An immutable integer matrix stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Sequence[int]], cols: Optional[int] = None):
        rows = tuple(_int_vector(row) for row in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != ncols:
                raise DimensionMismatch("cols does not match row length")
        else:
            if cols is None:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            ncols = cols
        _set_rows(self, len(rows))
        _set_cols(self, ncols)
        _set_entries(self, rows)

    # -- constructors -------------------------------------------------

    @staticmethod
    def _make(entries: Tuple[Vec, ...], cols: int) -> "IntMatrix":
        """Trusted constructor: entries is a tuple of int tuples, each of
        length cols, and is used as it is, with no check or copy."""
        m = object.__new__(IntMatrix)
        _set_rows(m, len(entries))
        _set_cols(m, cols)
        _set_entries(m, entries)
        return m

    @staticmethod
    def _from_columns(columns: Sequence[Vec], rows: int) -> "IntMatrix":
        """Trusted from_columns: the columns are int sequences of length rows."""
        return IntMatrix._make(_transposed(columns, rows), len(columns))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._make(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._make(((0,) * cols,) * rows, cols)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        columns = [_int_vector(c) for c in columns]
        if columns:
            nrows = len(columns[0])
            if any(len(c) != nrows for c in columns):
                raise DimensionMismatch("ragged columns")
        else:
            if rows is None:
                raise DimensionMismatch("empty matrix needs an explicit row count")
            nrows = rows
        return IntMatrix._from_columns(columns, nrows)

    # -- basic access --------------------------------------------------

    def column(self, j: int) -> Vec:
        return tuple([r[j] for r in self.entries])

    def columns(self) -> Tuple[Vec, ...]:
        return _transposed(self.entries, self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._make(_transposed(self.entries, self.cols), self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.entries))!r}, cols={self.cols})"

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ocols = other.columns()
        return IntMatrix._make(
            tuple(tuple([_dot(r, c) for c in ocols]) for r in self.entries), other.cols
        )

    def apply(self, vector: Sequence[int]) -> Vec:
        if len(vector) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple([_dot(r, vector) for r in self.entries])

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        return IntMatrix._make(
            tuple(a + b for a, b in zip(self.entries, other.entries)), self.cols + other.cols
        )

    def select_columns(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix._make(
            tuple(tuple([r[j] for j in indices]) for r in self.entries), len(indices)
        )

    def select_rows(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix._make(tuple(self.entries[i] for i in indices), self.cols)

    def scale(self, a: int) -> "IntMatrix":
        a = _int_entry(a)
        return IntMatrix._make(tuple(tuple([a * x for x in r]) for r in self.entries), self.cols)


# slot setters, bound once (see _Value)
_set_rows = IntMatrix.rows.__set__
_set_cols = IntMatrix.cols.__set__
_set_entries = IntMatrix.entries.__set__


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

#: the transforms smith_decomposition can track, and its default
TRANSFORMS = ("u", "v", "u_inv")


class SmithDecomposition(NamedTuple):
    """U @ M @ V = D with U, V unimodular and D in Smith normal form.

    A transform the decomposition was not asked to track is None.
    """

    u: Optional[IntMatrix]
    d: IntMatrix
    v: Optional[IntMatrix]
    u_inv: Optional[IntMatrix]

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols)))

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _trusted(rows: list, cols: int) -> IntMatrix:
    return IntMatrix._make(tuple(map(tuple, rows)), cols)


def smith_decomposition(m: IntMatrix, transforms: Collection[str] = TRANSFORMS) -> SmithDecomposition:
    """Smith decomposition U @ M @ V = D, tracking the named transforms.

    ``transforms`` names which of "u", "v" and "u_inv" to compute; the
    others are None.  The default tracks all three.  Pivots are chosen as
    the smallest nonzero absolute value, first in row-major order, whatever
    is tracked, so D and every tracked transform are deterministic and the
    same as in the full decomposition.

    D and the tracked transforms share one list of rows, so each step is
    applied once (Cohen, GTM 138, 2.4.4): row i is D's row i then U's, and
    V's rows follow D's, where every column step reaches them.  U^-1 is kept
    as W = (U^-1)^T: the inverse of row[dst] += c row[src] is the row step
    W[src] -= c W[dst], and swaps and negations act on W as on D.
    """
    unknown = set(transforms).difference(TRANSFORMS)
    if unknown:
        raise ValueError(f"unknown Smith transforms: {sorted(unknown)}")
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    if "u" in transforms:
        a = [r + e for r, e in zip(a, _identity_rows(nr))]
    if "v" in transforms:
        a += _identity_rows(nc)
    w = _identity_rows(nr) if "u_inv" in transforms else None

    for t in range(min(nr, nc)):
        while True:
            # locate the smallest nonzero |entry| in the working block, the
            # first in row-major order on ties (no later entry beats a 1)
            pivot = None
            best = 0
            for i in range(t, nr):
                row = a[i]
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
                a[t], a[pi] = a[pi], a[t]
                if w is not None:
                    w[t], w[pi] = w[pi], w[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                if w is not None:
                    w[t] = [-x for x in w[t]]
            top = a[t]
            p = top[t]
            dirty = False
            for i in range(t + 1, nr):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
                    if w is not None:
                        w[t] = [x + q * y for x, y in zip(w[t], w[i])]
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, nc):
                q = top[j] // p
                if q:
                    for r in a:
                        r[j] -= q * r[t]
                if top[j]:
                    dirty = True
            if dirty:
                continue
            if p == 1:  # a unit divides the rest of the block
                break
            # pivot must divide the rest of the block
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(top, a[offender])]
            if w is not None:
                w[offender] = [x - y for x, y in zip(w[offender], w[t])]

    return SmithDecomposition(
        _trusted([r[nc:] for r in a[:nr]], nr) if "u" in transforms else None,
        _trusted([r[:nc] for r in a[:nr]], nc),
        _trusted(a[nr:], nc) if "v" in transforms else None,
        None if w is None else IntMatrix._make(_transposed(w, nr), nr),
    )


def _row_echelon(rows: Sequence[Sequence[int]], transform: bool = False) -> Tuple[List[Vec], Optional[IntMatrix]]:
    """(E, T) for the matrix m with the given int rows, all of one length:
    the nonzero rows E of a row echelon form of m, with positive leading
    entries, and, when asked, the unimodular T with T @ m = [E; 0] (None
    otherwise).

    Only unimodular row steps are taken: swaps, negations and subtracting a
    multiple of the pivot row.  The pivot in each column is the smallest
    nonzero |entry| at or below the current row, the first row on ties, so
    E and T are deterministic.  For injective m, E is square and upper
    triangular.  T is unimodular, so its rows past the rank are a basis of
    the left kernel {y : y m = 0}.
    """
    nr = len(rows)
    a = [list(r) for r in rows]
    t = _identity_rows(nr) if transform else None
    r = 0
    for j in range(len(a[0]) if a else 0):
        if r == nr:
            break
        while True:
            pivot, best = None, 0
            for i in range(r, nr):
                x = a[i][j]
                if x and (pivot is None or abs(x) < best):
                    pivot, best = i, abs(x)
                    if best == 1:
                        break
            if pivot is None:
                break
            if pivot != r:
                a[r], a[pivot] = a[pivot], a[r]
                if t is not None:
                    t[r], t[pivot] = t[pivot], t[r]
            if a[r][j] < 0:
                a[r] = [-x for x in a[r]]
                if t is not None:
                    t[r] = [-x for x in t[r]]
            p, row = best, a[r]
            done = True
            for i in range(r + 1, nr):
                q = a[i][j] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], row)]
                    if t is not None:
                        t[i] = [x - q * y for x, y in zip(t[i], t[r])]
                if a[i][j]:
                    done = False
            if done:
                r += 1
                break
    return [tuple(x) for x in a[:r]], None if t is None else _trusted(t, nr)


def _back_substitute(echelon: Sequence[Vec], c: Sequence[int], exact: bool) -> Optional[List[int]]:
    """A solution of E x = c for square upper triangular E with positive
    diagonal, by back substitution; entries of c past the size of E are
    not read.

    exact: the integer solution, or None when a division leaves a
    remainder.  Otherwise a positive multiple of the rational solution, in
    integers: where a division would leave a remainder, the solution so far
    is scaled up until it does not.
    """
    k = len(echelon)
    x = [0] * k
    scale = 1
    for i in range(k - 1, -1, -1):
        row = echelon[i]
        p = row[i]
        rest = scale * c[i] - _dot(row[i + 1:], x[i + 1:])
        if rest % p:
            if exact:
                return None
            f = p // gcd(rest, p)
            scale *= f
            rest *= f
            x = [f * v for v in x]
        x[i] = rest // p
    return x


def _determinant(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of the square integer matrix with the given rows, by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

    After step k, entry (i, j) with i, j > k is the minor on rows 0..k, i
    and columns 0..k, j of the input with the row swaps made so far; so
    the division by the previous pivot, itself such a minor, is exact, and
    no entry outgrows a minor of the input.  A zero pivot is swapped with a
    lower row that is nonzero in its column, which negates the determinant;
    when there is none, the first k + 1 columns are dependent and the
    determinant is 0.
    """
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        p, pivot_row = a[k][k], a[k]
        for row in a[k + 1:]:
            q = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - q * pivot_row[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1] if n else 1


def invariant_factors(m: IntMatrix) -> Tuple[int, ...]:
    """The nonzero diagonal of the Smith form, read from a row echelon form
    E of m (T m = [E; 0], T unimodular, so m and E have the same factors).

    When every leading entry of E is 1, the minor of E on its pivot columns
    is triangular with unit diagonal, so all rank(m) factors are 1.
    Otherwise they come from one Smith decomposition of E, which tracks no
    transform.
    """
    echelon, _ = _row_echelon(m.entries)
    if all(next(filter(None, row)) == 1 for row in echelon):
        return (1,) * len(echelon)
    diagonal = smith_decomposition(_trusted(echelon, m.cols), transforms=()).diagonal()
    return tuple(x for x in diagonal if x != 0)


def is_saturated(m: IntMatrix) -> bool:
    """Whether the columns of m are a basis of a saturated sublattice: m has
    m.cols invariant factors, all of them 1, read off a row echelon form
    T m = [E; 0] with no Smith form.

    m must be injective, so E is square and upper triangular.  The product
    of the invariant factors of an injective m is the gcd of its maximal
    minors, which unimodular row steps keep; the only nonzero maximal minor
    of [E; 0] is det E, the product of the leading entries.  So the factors
    are all 1 exactly when every leading entry is.
    """
    echelon, _ = _row_echelon(m.entries)
    return len(echelon) == m.cols and all(next(filter(None, row)) == 1 for row in echelon)


def rank(m: IntMatrix) -> int:
    """Rank over Q, by fraction-free Gaussian elimination."""
    a = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    r = 0
    for j in range(nc):
        piv = next((i for i in range(r, nr) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            if a[i][j]:
                p, q = a[r][j], a[i][j]
                a[i] = [p * x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel lattice {x : Mx = 0}.

    These are the rows past the rank of the unimodular T with
    T M^T = [E; 0], a basis of the left kernel of M^T; the kernel of an
    integer matrix is saturated, so this basis is a basis of a saturated
    sublattice.  Deterministic column order.
    """
    echelon, t = _row_echelon(m.columns(), transform=True)
    return IntMatrix._from_columns(t.entries[len(echelon):], m.cols)


class LinearSystem:
    """The integer system M x = b for one fixed matrix M and any b.

    A row echelon form T M = [E; 0], computed when the system is built,
    answers every right-hand side of an injective M: M x = b exactly when
    T b = [c; 0] and E x = c, which back substitution solves.  E is square
    and upper triangular, and the solution is unique.  For a rank-deficient M,
    one Smith decomposition U M V = D answers instead: M x = b exactly when
    D y = U b, with x = V y and the free coordinates of y zero.
    """

    __slots__ = ("matrix", "rank", "_t", "_echelon", "_v", "_diag")

    def __init__(self, m: IntMatrix):
        echelon, t = _row_echelon(m.entries, transform=True)
        self.matrix = m
        self.rank = len(echelon)
        self._t, self._echelon, self._v, self._diag = t, echelon, None, None
        if self.rank < m.cols:
            s = smith_decomposition(m, transforms=("u", "v"))
            self._t, self._v = s.u, s.v
            self._diag = s.diagonal()[: self.rank]

    def _coordinates(self, b: Sequence[int]) -> Vec:
        """T b (or U b), which is nonzero past the rank exactly when b is
        outside the rational span.  Entries of b that are not integers raise
        TypeError."""
        b = _int_vector(b)
        if len(b) != self.matrix.rows:
            raise DimensionMismatch("right-hand side length does not match row count")
        return self._t.apply(b)

    def _integer(self, c: Vec) -> Optional[Vec]:
        """The witness of integer for c = T b (or U b), or None."""
        if any(c[self.rank:]):
            return None
        if self._v is None:
            x = _back_substitute(self._echelon, c, exact=True)
            return None if x is None else tuple(x)
        if any(ci % di for ci, di in zip(c, self._diag)):
            return None
        y = [ci // di for ci, di in zip(c, self._diag)] + [0] * (self.matrix.cols - self.rank)
        return self._v.apply(y)

    def integer(self, b: Sequence[int]) -> Optional[Vec]:
        """Some integer solution x of M x = b, or None when none exists.

        The witness is deterministic: the only one for injective M, and the
        one whose free Smith coordinates are zero otherwise.
        """
        return self._integer(self._coordinates(b))

    def integer_matrix(self, b: IntMatrix) -> Optional[IntMatrix]:
        """The integer X with M X = B, or None when some column of B has no
        integer solution; column by column, the witnesses integer returns."""
        if b.rows != self.matrix.rows:
            raise DimensionMismatch("right-hand side row count does not match")
        x = [self._integer(self._t.apply(col)) for col in b.columns()]
        return None if None in x else IntMatrix._from_columns(x, self.matrix.cols)

    def ray(self, b: Sequence[int]) -> Optional[Vec]:
        """For injective M: the primitive x with M x a positive multiple of b
        (zero for b = 0), or None when b is outside the span of M.  This is
        the back substitution of E x = T b in integers, made primitive.
        """
        if self.rank != self.matrix.cols:
            raise ValueError("ray needs an injective matrix")
        c = self._coordinates(b)
        if any(c[self.rank:]):
            return None
        return primitive_vector(_back_substitute(self._echelon, c, exact=False))


def solve_integer(m: IntMatrix, b: Sequence[int]) -> Optional[Vec]:
    """Some integer solution x of Mx = b, or None when no solution exists.

    The witness is deterministic (see LinearSystem.integer).
    """
    return LinearSystem(m).integer(b)


def saturate(m: IntMatrix) -> IntMatrix:
    """Basis of the saturation {x : kx in colspan(M) for some k > 0}: the
    kernel of the left kernel of M.

    Idempotent; the result is returned in Hermite column form.
    """
    return hermite_column_basis(kernel_basis(kernel_basis(m.transpose()).transpose()))


def hermite_column_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis (column-style Hermite normal form) of the column lattice.

    Zero columns are dropped; two matrices span the same lattice iff their
    Hermite column bases are equal.  The basis is the row echelon form of
    the columns, with the entries of each earlier column in a pivot row
    reduced into [0, pivot): that form of a lattice is unique, whatever
    elimination reaches it.
    """
    return _hermite_basis(m.columns(), m.rows)


def _hermite_basis(columns: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    """hermite_column_basis of the matrix with these int columns, each of
    length rows: the columns go to the row echelon form as they are, with
    no matrix built or transposed first."""
    basis, _ = _row_echelon(columns)
    # ascending pivot rows, so a reduction never disturbs rows already
    # reduced; column i is zero above its pivot row, which lies below the
    # pivot row of column i - 1
    r = 0
    for i in range(1, len(basis)):
        pivot = basis[i]
        while not pivot[r]:
            r += 1
        p = pivot[r]
        for j in range(i):
            q = basis[j][r] // p
            if q:
                basis[j] = tuple([x - q * y for x, y in zip(basis[j], pivot)])
    return IntMatrix._from_columns(basis, rows)


def lattice_intersection(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Canonical basis of the intersection of two column lattices in Z^n."""
    if a.rows != b.rows:
        raise DimensionMismatch("ambient ranks differ")
    if a.cols == 0 or b.cols == 0:
        return IntMatrix.zero(a.rows, 0)
    k = kernel_basis(a.hstack(b.scale(-1)))
    xpart = k.select_rows(range(a.cols))
    return hermite_column_basis(a @ xpart)


def primitive_vector(v: Sequence[int]) -> Vec:
    """v divided by the gcd of its entries (zero vector stays zero)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)
