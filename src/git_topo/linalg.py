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
clearing denominators (integer_rows, integer_columns) scales each
entry's numerator by an int, so it does no Fraction arithmetic.  Ranks
and pivot columns are computed by the forward half of fraction-free
(Bareiss) elimination (echelon_pivots, behind int_rank and
column_pivots).  Null spaces and square solves share one fraction-free
Gauss-Jordan elimination on integer rows, each row cleared of
denominators on its own; a Fraction is built only for each entry of the
answer.  The module also carries the polynomial arithmetic over F_p,
p = 2^61 - 1, behind the path certificates (products, determinants,
gcds and a root scan).

>>> m = Matrix.from_rows([[1, 2], [2, 4]])
>>> int_rank(m.to_rows())
1
>>> nullspace(m)
[(Fraction(-2, 1), Fraction(1, 1))]
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from git_topo.errors import DomainError, ShapeError

Rational = int | Fraction


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

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )


def integer_rows(data: Sequence[Sequence[Rational]]) -> list[list[int]]:
    """Clear denominators: scale the matrix by the lcm of all its denominators.

    One scale for the whole matrix preserves its rank and also the
    products of the matrix with itself, such as Krylov blocks.  Where
    only the rank of some columns matters, integer_columns keeps the
    entries smaller.
    """
    scale = math.lcm(*(e.denominator for row in data for e in row))
    return [[e.numerator * (scale // e.denominator) for e in row] for row in data]


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


def echelon_pivots(data: list[list[int]]) -> list[int]:
    """Pivot columns of an integer matrix by fraction-free Bareiss elimination.

    Mutates its argument.  Division by the previous pivot is exact: after
    k elimination steps every remaining entry is a (k+1)-minor of the
    original matrix (Sylvester's identity), and skipping pivotless columns
    does not disturb that invariant.  This is the forward half of
    _gauss_jordan, which also clears above each pivot.  Row swaps and
    clearing above a pivot change no pivot column, so these are the
    pivot columns of the reduced row echelon form, and their count is the
    rank.
    """
    nrows = len(data)
    if nrows == 0:
        return []
    ncols = len(data[0])
    pivots: list[int] = []
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if data[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            data[pivot_row], data[rank] = data[rank], data[pivot_row]
        pivot = data[rank][col]
        top = data[rank]
        for r in range(rank + 1, nrows):
            cur = data[r]
            lead = cur[col]
            for j in range(col + 1, ncols):
                cur[j] = (pivot * cur[j] - lead * top[j]) // prev
            cur[col] = 0
        prev = pivot
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots


def int_rank(data: list[list[int]]) -> int:
    """Rank of an integer matrix (echelon_pivots; mutates its argument)."""
    return len(echelon_pivots(data))


def _integer_row(row: Sequence[Rational]) -> list[int]:
    """The row scaled by the lcm of its own denominators."""
    scale = math.lcm(*(e.denominator for e in row))
    return [e.numerator * (scale // e.denominator) for e in row]


def _gauss_jordan(
    rows: Iterable[Sequence[Rational]],
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Each row is first cleared of denominators on its own, which keeps
    the reduced row echelon form.  Returns (integer rows, pivot columns,
    d) with that form equal to rows / d.  Each step turns every other
    row r into (pivot * r - r[col] * top) / prev, above the pivot row as
    well as below, and that division is exact as it is in echelon_pivots:
    every entry stays a minor of the cleared matrix (Bareiss 1968).  A
    pivot row keeps the current pivot in its pivot column, so at the end
    every pivot entry is the last pivot d and the rows past the rank are
    zero.
    """
    data = [_integer_row(row) for row in rows]
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, nrows) if data[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            data[pivot_row], data[rank] = data[rank], data[pivot_row]
        top = data[rank]
        pivot = top[col]
        for r in range(nrows):
            lead = data[r][col]
            if r == rank or not lead and pivot == prev:
                continue
            data[r] = [(pivot * e - lead * t) // prev for e, t in zip(data[r], top)]
        prev = pivot
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return data, pivots, prev


def column_pivots(matrix: Matrix) -> tuple[int, ...]:
    """Pivot column indices of the reduced row echelon form.

    Calls echelon_pivots directly, not int_rank, so that perfbench's
    int_rank span counts ranks only.
    """
    rows = [_integer_row(matrix.row(i)) for i in range(matrix.rows)]
    return tuple(echelon_pivots(rows))


def nullspace(matrix: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space over Q, one vector per free column.

    Deterministic: vectors are returned in increasing free-column order,
    each with a 1 in its free coordinate.
    """
    rows, pivots, d = _gauss_jordan(matrix.row(i) for i in range(matrix.rows))
    pivot_set = set(pivots)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = Fraction(-rows[r][free], d)
        basis.append(tuple(vec))
    return basis


def solve_square(matrix: Matrix, rhs: Sequence[Rational]) -> tuple[Fraction, ...]:
    """Solve M x = rhs for square nonsingular M over Q.

    Scaling a row of the augmented system [M | rhs] keeps its solution,
    so _gauss_jordan may clear each row of denominators on its own.
    """
    n = matrix.rows
    if matrix.cols != n:
        raise ShapeError("solve_square needs a square matrix")
    if len(rhs) != n:
        raise ShapeError("right-hand side length must match the matrix size")
    for value in rhs:
        if not is_rational(value):
            raise DomainError(f"right-hand side {value!r} is not an exact rational")
    rows, pivots, d = _gauss_jordan((*matrix.row(i), rhs[i]) for i in range(n))
    if len(pivots) != n or any(c >= n for c in pivots):
        raise DomainError("matrix is singular; no unique solution")
    return tuple(Fraction(rows[r][n], d) for r in range(n))


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
