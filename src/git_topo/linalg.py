"""Exact linear algebra over the rationals.

Everything here is exact, under one rule for what a scalar is: an int
that is not a bool, or a fractions.Fraction (is_rational).  Matrix
entries and both parts given to ComplexRational.of must obey it; a
float, a bool or a string raises DomainError, so no floating point
enters the package.  A Matrix carries no complex entries: it refuses a
ComplexRational too.  ComplexRational is the exact Gaussian-rational
value of a thin quiver arrow; the package only stores and encodes it
and tests it against zero, so it carries no arithmetic.  Integer
entries stay ints: an instance file's integers are decoded as ints, and
clearing denominators (integer_entries by one scale for a row or a
whole matrix, integer_columns by one per column) scales each entry's
numerator by an int, so it does no Fraction arithmetic.  One
fraction-free (Bareiss) elimination that takes the rows one at a time
(echelon_pivots) serves every exact question: int_rank counts its pivot
rows, column_pivots reads their columns, and nullspace and solve_square
back-substitute on them in integers, each row cleared of denominators
on its own; a Fraction is built only for each entry of the answer.  The
same elimination takes the path certificates' minors, on polynomial
entries packed into integers (Kronecker substitution), going on from
the pivot rows of the rows consecutive minors share; the module also
carries their gcd and root scan over F_p, p = 2^61 - 1.

>>> m = Matrix.from_rows([[1, 2], [2, 4], [3, 6]])
>>> int_rank(m.to_rows()), column_pivots(m)
(1, (0,))
>>> nullspace(m)
[(Fraction(-2, 1), Fraction(1, 1))]
>>> solve_square(Matrix.from_rows([[2, 1], [1, 3]]), [5, 10])
(Fraction(1, 1), Fraction(3, 1))
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from git_topo.errors import DomainError, ShapeError
from git_topo.frozen import Frozen

Rational = int | Fraction
PivotRow = tuple[int, int, list[int]]  # see echelon_pivots


def is_integer(value: object) -> bool:
    """The one rule for an exact integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_integers(what: str, values: Iterable[object]) -> None:
    """Raise DomainError unless every value follows `is_integer`."""
    for value in values:
        if type(value) is not int and not is_integer(value):
            raise DomainError(f"{what} {value!r} is not an integer")


def is_rational(value: object) -> bool:
    """The one rule for an exact scalar: an exact integer or a Fraction."""
    return is_integer(value) or isinstance(value, Fraction)


class ComplexRational(Frozen):
    """An exact Gaussian rational a + b*i with a, b in Q."""

    __slots__ = FIELDS = ("re", "im")

    @staticmethod
    def of(value: "ComplexRational | Rational", im: Rational = 0) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            if im:
                raise DomainError("cannot attach an imaginary part to a complex value")
            return value
        for part in (value, im):
            if not is_rational(part):
                raise DomainError(f"{part!r} is not an exact rational")
        return ComplexRational(Fraction(value), Fraction(im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()


class Matrix(Frozen):
    """Dense immutable matrix with exact rational entries, stored row-major."""

    __slots__ = FIELDS = ("rows", "cols", "entries")

    def check_shape(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(self.entries)}"
            )
        for e in self.entries:
            if type(e) is not int and not is_rational(e):
                raise DomainError(f"matrix entry {e!r} is not an exact rational")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[Rational]]) -> "Matrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat: list[Rational] = []
        for r in data:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, tuple(flat))

    def at(self, i: int, j: int) -> Rational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Rational]]:
        return [list(self.row(i)) for i in range(self.rows)]


def integer_entries(entries: Sequence[Rational]) -> list[int]:
    """Clear denominators: the entries scaled by the lcm of theirs.

    On a row this keeps the row space, so the pivot columns and the
    kernel.  On a whole matrix's entries it keeps the rank and also the
    products of the matrix with itself, such as Krylov blocks.  Where
    only the rank of some columns matters, integer_columns keeps the
    entries smaller.
    """
    scale = math.lcm(*(e.denominator for e in entries))
    return [e.numerator * (scale // e.denominator) for e in entries]


def integer_columns(matrix: Matrix) -> tuple[list[list[int]], list[int]]:
    """Clear denominators column by column: (integer rows, column scales).

    Column j is scaled by the lcm of its own denominators.  Scaling
    columns preserves the rank of every block of columns, and a column
    with small denominators stays small when another one has big ones.
    """
    scales = [
        math.lcm(*(e.denominator for e in matrix.col(j))) for j in range(matrix.cols)
    ]
    return [
        [e.numerator * (s // e.denominator) for e, s in zip(matrix.row(i), scales)]
        for i in range(matrix.rows)
    ], scales


def echelon_pivots(
    rows: Iterable[Sequence[int]], ncols: int, kept: Sequence[PivotRow] = ()
) -> list[PivotRow]:
    """The pivot rows of fraction-free (Bareiss) elimination, a row at a time.

    Each new row is reduced by the pivot rows kept so far, in the order
    they were kept, on the columns that are not yet pivots: the step by
    (position, pivot, rest) drops the row's entry `lead` at that position
    and maps each other entry e, beside t in rest, to
    (pivot * e - lead * t) // prev, prev being the pivot kept before.
    That is Bareiss (1968) with the rows in the order kept and the
    columns in pivot order, so every entry is a minor of the matrix
    (Sylvester's identity) and the division is exact.  A reduced row
    with a nonzero entry is kept, pivoting on its first one; a zero row
    lies in the span of the kept rows.  The loop stops at ncols pivot
    rows, so a tall matrix of full column rank never reads the rest.
    When a row reduces to zero with one column left free, the kernel of
    the kept rows is one integer vector, and a later row lies in their
    span exactly when its product with it is zero: from there each row of
    a matrix of rank ncols - 1 costs one product, not a reduction.

    The rows given are not changed.  Each pivot row is (position of its
    pivot among the columns not yet pivots, pivot, the row on the columns
    left after it).  The pivot columns are those of the reduced row
    echelon form: the leading column of a vector in the row space is one
    of them, and the kept rows have distinct leading columns.  Given
    `kept`, the pivot rows of earlier rows, the elimination goes on from
    them as if those rows came first, and returns them followed by the
    new pivot rows.
    """
    kept = list(kept)
    kernel: list[int] = []
    for row in rows:
        if kernel and not sum(map(operator.mul, row, kernel)):
            continue
        x = list(row)
        prev = 1
        for position, pivot, rest in kept:
            lead = x.pop(position)
            j = 0  # in place: a new list per step ran slower
            for t in rest:
                x[j] = (pivot * x[j] - lead * t) // prev
                j += 1
            prev = pivot
        if not any(x):
            if len(kept) == ncols - 1:
                kernel = _back_substitute(kept, [prev])  # prev is the last pivot
            continue
        position = 0
        while not x[position]:
            position += 1
        kept.append((position, x.pop(position), x))
        if len(kept) == ncols:
            break
    return kept


def _pivot_columns(kept: list[PivotRow], ncols: int) -> list[int]:
    """The pivot columns of the kept rows, in increasing order."""
    live = list(range(ncols))
    return sorted(live.pop(position) for position, _, _ in kept)


def _back_substitute(kept: list[PivotRow], y: list[int]) -> list[int]:
    """Extend y, given on the free columns, to the integer kernel vector.

    Solves the pivot rows from the last kept to the first, inserting each
    pivot column's value at its position.  With d the last pivot, equal to
    the pivot minor up to sign (Sylvester's identity), every value is an
    integer when y is d times an integer vector (Cramer's rule), so each
    division is exact.
    """
    for position, pivot, rest in reversed(kept):
        y.insert(position, -sum(map(operator.mul, rest, y)) // pivot)
    return y


def int_rank(data: list[list[int]]) -> int:
    """Rank of an integer matrix: the number of rows echelon_pivots keeps."""
    return len(echelon_pivots(data, len(data[0]) if data else 0))


def column_pivots(matrix: Matrix) -> tuple[int, ...]:
    """Pivot column indices of the reduced row echelon form.

    Calls echelon_pivots directly, not int_rank, so that perfbench's
    int_rank span counts ranks only.
    """
    rows = (integer_entries(matrix.row(i)) for i in range(matrix.rows))
    return tuple(_pivot_columns(echelon_pivots(rows, matrix.cols), matrix.cols))


def nullspace(matrix: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space over Q, one vector per free column.

    Deterministic: vectors are returned in increasing free-column order,
    each with a 1 in its free coordinate and 0 in the other free ones,
    so they are the basis the reduced row echelon form gives.
    """
    rows = (integer_entries(matrix.row(i)) for i in range(matrix.rows))
    kept = echelon_pivots(rows, matrix.cols)
    d = kept[-1][1] if kept else 1
    free = matrix.cols - len(kept)
    basis: list[tuple[Fraction, ...]] = []
    for slot in range(free):
        y = [0] * free
        y[slot] = d
        basis.append(tuple(Fraction(v, d) for v in _back_substitute(kept, y)))
    return basis


def solve_square(matrix: Matrix, rhs: Sequence[Rational]) -> tuple[Fraction, ...]:
    """Solve M x = rhs for square nonsingular M over Q.

    M x = rhs exactly when (x, -1) is in the kernel of [M | rhs], and M is
    nonsingular exactly when the pivot columns of [M | rhs] are M's n.
    """
    n = matrix.rows
    if matrix.cols != n:
        raise ShapeError("solve_square needs a square matrix")
    if len(rhs) != n:
        raise ShapeError("right-hand side length must match the matrix size")
    for value in rhs:
        if not is_rational(value):
            raise DomainError(f"right-hand side {value!r} is not an exact rational")
    kept = echelon_pivots(
        (integer_entries((*matrix.row(i), rhs[i])) for i in range(n)), n + 1
    )
    if _pivot_columns(kept, n + 1) != list(range(n)):
        raise DomainError("matrix is singular; no unique solution")
    d = kept[-1][1] if kept else 1
    return tuple(Fraction(-v, d) for v in _back_substitute(kept, [d])[:n])


# Polynomials over F_p, p = 2^61 - 1, for the path certificates: a list of
# coefficients in [0, p), lowest degree first, with no trailing zero, so
# that [] is the zero polynomial and a truth test asks "is it nonzero?".
PRIME = 2**61 - 1
# Most maximal minors minor_gcd takes.  On 200 random 256-sample paths
# each of control (3,2), DAG (4,2) and DAG (10,3), at entry bounds 1 and
# 9, the first 4 minors left at most 0.3 suspect samples per path on
# average (2 minors: 0.5, 8 minors: 0.3) and no path fell back to every
# sample.  The lexicographic minors of a matrix with s columns read its
# first s + MAX_MINORS - 1 rows and share the first s - 1, so a zero row
# among those zeroes every minor taken: the path is checked pointwise.
MAX_MINORS = 4


def poly_mod(coeffs: Sequence[int]) -> list[int]:
    """The polynomial with these integer coefficients, reduced mod p."""
    out = [c % PRIME for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def pack_poly(coeffs: Sequence[int], width: int) -> int:
    """The integer polynomial's value at x = 2^width (Kronecker substitution)."""
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def hadamard_width(norms: Iterable[Sequence[int]], size: int) -> int:
    """A width at which every size x size minor of these rows unpacks.

    norms holds each entry's l1 norm, its bound on |x| = 1, where by
    Hadamard a minor on rows R, and so each coefficient, is at most the
    square root of the product over R of s_r, the sum of row r's squared
    norms; the size largest s_r bound every R, with one bit to spare.
    """
    sums = sorted((sum(v * v for v in row) for row in norms), reverse=True)
    return (math.prod(sums[:size]).bit_length() + 1) // 2 + 2


def packed_det(
    rows: Sequence[Sequence[int]], width: int, shared: Sequence[PivotRow] = ()
) -> list[int]:
    """The determinant over Z[x] of a square matrix packed at x = 2^width,
    its first rows given by their pivot rows `shared` (echelon_pivots)
    and its other rows by `rows`.

    One Bareiss elimination gives det(2^width): 0 for dependent rows, else
    the last pivot times the sign of the pivot columns' order, in which a
    pivot at position q among the columns left precedes q smaller ones.
    With each coefficient under 2^(width - 1) in size (hadamard_width),
    det(2^width) has one expansion in balanced digits of base 2^width.
    """
    size = len(rows[0])
    kept = echelon_pivots(rows, size, shared)
    full = len(kept) == size
    value = kept[-1][1] * (-1) ** sum(q for q, _, _ in kept) if full else 0
    mask, half = (1 << width) - 1, 1 << (width - 1)
    coeffs = []
    while value:
        coeffs.append(((value + half) & mask) - half)
        value = (value - coeffs[-1]) >> width
    return coeffs


def poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Monic gcd over F_p; the gcd of two zero polynomials is zero.

    Euclid on pseudo-remainders: a step replaces f by lead(g) f - c x^k g
    (c, k: f's leading coefficient and degree less g's), which scales the
    remainder by a unit, so the one inverse is the final monic step's.
    """
    while g:
        lead, top = g[-1], len(g) - 1
        rem = list(f)
        while len(rem) > top:
            c = rem.pop() % PRIME
            k = len(rem) - top
            rem[:k] = [lead * a for a in rem[:k]]
            rem[k:] = [lead * a - c * b for a, b in zip(rem[k:], g)]
        f, g = g, poly_mod(rem)
    if not f:
        return []
    inv = pow(f[-1], -1, PRIME)
    return [c * inv % PRIME for c in f]


def poly_roots_below(f: list[int], count: int) -> list[int]:
    """The i in range(count) with f(i) = 0 mod p; every i when f is zero."""
    if len(f) == 1:
        return []
    roots = []
    for i in range(count):
        acc = 0
        for c in reversed(f):
            acc = acc * i + c
        if not acc % PRIME:
            roots.append(i)
    return roots


def minor_gcd(rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """gcd over F_p[x] of the first MAX_MINORS maximal minors of a matrix.

    rows has s columns, packed at a width at which every s x s minor
    unpacks (hadamard_width); the minors are its s x s row selections in
    lexicographic order, and the scan stops once the gcd is a nonzero
    constant.  The first s - 1 rows, which the first minors share, are
    eliminated once; packed_det reduces only the last row of each minor
    that shares them against their pivot rows, and eliminates any other
    minor whole.  The gcd is an F_p[x]-combination of those minors, so
    wherever it is nonzero mod p one of them is too, and the matrix has
    full column rank there.  Zero when every minor taken is zero,
    including when there are fewer than s rows.
    """
    s = len(rows[0])
    shared = echelon_pivots(rows[: s - 1], s)
    head = tuple(range(s - 1))
    g: list[int] = []
    for chosen in itertools.islice(
        itertools.combinations(range(len(rows)), s), MAX_MINORS
    ):
        if chosen[:-1] == head:
            det = packed_det([rows[chosen[-1]]], width, shared)
        else:
            det = packed_det([rows[i] for i in chosen], width)
        g = poly_gcd(g, poly_mod(det))
        if len(g) == 1:
            break
    return g
