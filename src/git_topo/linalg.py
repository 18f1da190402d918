"""Exact linear algebra over the rationals.

Everything here is exact.  Scalars are Python ints or fractions.Fraction
values; no floating point appears anywhere in the package.
ComplexRational is the exact Gaussian-rational value of a thin quiver
arrow; the package only stores and encodes it and tests it against
zero, so it carries no arithmetic.  Ranks are computed by fraction-free
(Bareiss) elimination after clearing denominators (integer_rows, then
int_rank).  The module also carries the handful of solvers the model
families need (null spaces, pivot columns, square solves).

>>> m = Matrix.from_rows([[1, 2], [2, 4]])
>>> int_rank(m.to_rows())
1
>>> nullspace(m)
[(Fraction(-2, 1), Fraction(1, 1))]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from git_topo.errors import DomainError, ShapeError

Rational = int | Fraction


@dataclass(frozen=True)
class ComplexRational:
    """An exact Gaussian rational a + b*i with a, b in Q."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value: "ComplexRational | Rational", im: Rational = 0) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            if im:
                raise ValueError("cannot attach an imaginary part to a complex value")
            return value
        if isinstance(value, (float, bool)) or isinstance(im, (float, bool)):
            raise DomainError("a float or bool is not an exact rational")
        return ComplexRational(Fraction(value), Fraction(im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()


Scalar = Rational | ComplexRational


@dataclass(frozen=True)
class Matrix:
    """Dense immutable matrix with exact entries, stored row-major."""

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

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[Scalar]]) -> "Matrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat: list[Scalar] = []
        for r in data:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, tuple(flat))

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        flat: list[Scalar] = []
        for i in range(self.rows):
            left = self.row(i)
            for j in range(other.cols):
                acc: Scalar = 0
                for k in range(self.cols):
                    acc = acc + left[k] * other.at(k, j)
                flat.append(acc)
        return Matrix(self.rows, other.cols, tuple(flat))

    def has_complex_entries(self) -> bool:
        return any(isinstance(e, ComplexRational) for e in self.entries)


def integer_rows(
    data: Sequence[Sequence[Rational]], common_scale: bool = False
) -> list[list[int]]:
    """Clear denominators: scale each row by the lcm of its denominators.

    Row scaling preserves the rank.  With common_scale every row gets the
    one lcm over the whole matrix instead, which also preserves products
    of the matrix with itself.
    """
    if common_scale:
        scale = math.lcm(*(e.denominator for row in data for e in row))
        return [[int(e * scale) for e in row] for row in data]
    out: list[list[int]] = []
    for row in data:
        scale = math.lcm(*(e.denominator for e in row))
        out.append([int(e * scale) for e in row])
    return out


def int_rank(data: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination.

    Mutates its argument.  Division by the previous pivot is exact: after
    k elimination steps every remaining entry is a (k+1)-minor of the
    original matrix (Sylvester's identity), and skipping pivotless columns
    does not disturb that invariant.
    """
    nrows = len(data)
    if nrows == 0:
        return 0
    ncols = len(data[0])
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
        rank += 1
        if rank == nrows:
            break
    return rank


def _rref(data: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form over Q; returns (rows, pivot columns)."""
    nrows = len(data)
    ncols = len(data[0]) if nrows else 0
    pivots: list[int] = []
    rank_so_far = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank_so_far, nrows):
            if data[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank_so_far:
            data[pivot_row], data[rank_so_far] = data[rank_so_far], data[pivot_row]
        inv = data[rank_so_far][col]
        data[rank_so_far] = [e / inv for e in data[rank_so_far]]
        top = data[rank_so_far]
        for r in range(nrows):
            if r != rank_so_far and data[r][col]:
                factor = data[r][col]
                data[r] = [e - factor * t for e, t in zip(data[r], top)]
        pivots.append(col)
        rank_so_far += 1
        if rank_so_far == nrows:
            break
    return data, pivots


def _to_fraction_rows(matrix: Matrix) -> list[list[Fraction]]:
    if matrix.has_complex_entries():
        raise DomainError("rational-only routine applied to a complex matrix")
    return [[Fraction(e) for e in matrix.row(i)] for i in range(matrix.rows)]


def column_pivots(matrix: Matrix) -> tuple[int, ...]:
    """Pivot column indices of the reduced row echelon form."""
    if matrix.rows == 0 or matrix.cols == 0:
        return ()
    _, pivots = _rref(_to_fraction_rows(matrix))
    return tuple(pivots)


def nullspace(matrix: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space over Q, one vector per free column.

    Deterministic: vectors are returned in increasing free-column order,
    each with a 1 in its free coordinate.
    """
    if matrix.cols == 0:
        return []
    if matrix.rows == 0:
        rows: list[list[Fraction]] = [[Fraction(0)] * matrix.cols]
    else:
        rows = _to_fraction_rows(matrix)
    rref, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(matrix.cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][free]
        basis.append(tuple(vec))
    return basis


def solve_square(matrix: Matrix, rhs: Sequence[Rational]) -> tuple[Fraction, ...]:
    """Solve M x = rhs for square nonsingular M over Q."""
    n = matrix.rows
    if matrix.cols != n:
        raise ShapeError("solve_square needs a square matrix")
    if len(rhs) != n:
        raise ShapeError("right-hand side length must match the matrix size")
    aug = _to_fraction_rows(matrix)
    for i, value in enumerate(rhs):
        aug[i].append(Fraction(value))
    reduced, pivots = _rref(aug)
    if len(pivots) != n or any(c >= n for c in pivots):
        raise DomainError("matrix is singular; no unique solution")
    return tuple(reduced[r][n] for r in range(n))
