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
module also carries the polynomial arithmetic over F_p, p = 2^61 - 1,
behind the path certificates (products, determinants, gcds and a root
scan).

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from git_topo.errors import DomainError, ShapeError

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


@dataclass(frozen=True)
class ComplexRational:
    """An exact Gaussian rational a + b*i with a, b in Q."""

    re: Fraction
    im: Fraction

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


@dataclass(frozen=True)
class Matrix:
    """Dense immutable matrix with exact rational entries, stored row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
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


def echelon_pivots(rows: Iterable[Sequence[int]], ncols: int) -> list[PivotRow]:
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
    of them, and the kept rows have distinct leading columns.
    """
    kept: list[PivotRow] = []
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
# sample.  The lexicographic minors share their first s - 1 rows, so an
# identically zero row among them zeroes every minor taken and sends the
# whole path to the exact pointwise check.
MAX_MINORS = 4


def poly_mod(coeffs: Sequence[int]) -> list[int]:
    """The polynomial with these integer coefficients, reduced mod p."""
    out = [c % PRIME for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def poly_dot(fs: Sequence[list[int]], gs: Sequence[list[int]]) -> list[int]:
    """sum(f * g for f, g in zip(fs, gs)) over F_p, reduced once at the end."""
    size = max((len(f) + len(g) - 1 for f, g in zip(fs, gs) if f and g), default=0)
    acc = [0] * size
    for f, g in zip(fs, gs):
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                acc[i + j] += a * b
    return poly_mod(acc)


def _poly_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a nonzero g over F_p."""
    inv = pow(g[-1], -1, PRIME)
    shift = len(g) - 1
    rem = list(f)
    quot = [0] * max(len(f) - shift, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + shift] * inv % PRIME
        quot[k] = c
        if c:
            for j, b in enumerate(g):
                rem[k + j] = (rem[k + j] - c * b) % PRIME
    return poly_mod(quot), poly_mod(rem[:shift])


def poly_det(rows: Sequence[Sequence[list[int]]]) -> list[int]:
    """Determinant of a square matrix over F_p[x] by Bareiss elimination.

    The same fraction-free scheme as int_rank: after k steps every
    remaining entry is a (k+1)-minor, so the division by the previous
    pivot is exact in F_p[x] as it is in Z.
    """
    data = [list(r) for r in rows]
    n = len(data)
    negate = False
    prev = [1]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if data[r][col]), None)
        if pivot_row is None:
            return []
        if pivot_row != col:
            data[pivot_row], data[col] = data[col], data[pivot_row]
            negate = not negate
        pivot = data[col][col]
        top = data[col]
        for r in range(col + 1, n):
            cur = data[r]
            minus_lead = [-c % PRIME for c in cur[col]]
            for j in range(col + 1, n):
                cross = poly_dot((pivot, minus_lead), (cur[j], top[j]))
                cur[j] = _poly_divmod(cross, prev)[0] if col else cross
        prev = pivot
    det = data[-1][-1]
    return [-c % PRIME for c in det] if negate else det


def poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Monic gcd over F_p; the gcd of two zero polynomials is zero."""
    while g:
        f, g = g, _poly_divmod(f, g)[1]
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


def minor_gcd(rows: Sequence[Sequence[list[int]]]) -> list[int]:
    """gcd over F_p[x] of the first MAX_MINORS maximal minors of a matrix.

    rows has s columns; the minors are its s x s row selections in
    lexicographic order.  The scan stops early once the gcd is a nonzero
    constant.  The gcd is an F_p[x]-combination of those minors, so
    wherever it is nonzero mod p one of them is too, and the matrix has
    full column rank there.  Zero when every minor taken is zero,
    including when there are fewer than s rows.
    """
    g: list[int] = []
    for chosen in itertools.islice(
        itertools.combinations(rows, len(rows[0])), MAX_MINORS
    ):
        g = poly_gcd(g, poly_det(chosen))
        if len(g) == 1:
            break
    return g
