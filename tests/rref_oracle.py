"""The reduced row echelon form over Q with Fraction arithmetic, test-side only.

This is the textbook elimination the package's solvers used before they
went fraction-free: divide the pivot row by its pivot, subtract it from
every other row.  It shares no code with `git_topo.linalg`, so the
fraction-free `column_pivots`, `nullspace` and `solve_square` are
checked against the three functions below, which give the answers the
package must reproduce exactly.
"""

from fractions import Fraction

from git_topo.errors import DomainError


def rref(data: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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


def _fraction_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(e) for e in row] for row in rows]


def oracle_column_pivots(rows, cols: int) -> tuple[int, ...]:
    if not rows or cols == 0:
        return ()
    return tuple(rref(_fraction_rows(rows))[1])


def oracle_nullspace(rows, cols: int) -> list[tuple[Fraction, ...]]:
    if cols == 0:
        return []
    reduced, pivots = rref(_fraction_rows(rows) or [[Fraction(0)] * cols])
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][free]
        basis.append(tuple(vec))
    return basis


def oracle_solve_square(rows, rhs) -> tuple[Fraction, ...]:
    n = len(rows)
    aug = [row + [Fraction(v)] for row, v in zip(_fraction_rows(rows), rhs)]
    reduced, pivots = rref(aug)
    if len(pivots) != n or any(c >= n for c in pivots):
        raise DomainError("matrix is singular; no unique solution")
    return tuple(reduced[r][n] for r in range(n))
