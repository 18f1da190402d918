"""Exact linear algebra against independent oracles.

The fraction-free Bareiss rank is checked against a Laplace-expansion
minor rank written here from scratch, and the Fraction RREF solvers
against their defining equations.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from git_topo.linalg import (
    Matrix,
    column_pivots,
    int_rank,
    integer_rows,
    nullspace,
    solve_square,
)
from git_topo.rng import CounterRng
from git_topo.errors import ShapeError, DomainError

from group_actions import unimodular_from_stream


def laplace_det(rows):
    """Determinant by first-row expansion; exponential but obviously right."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def minor_rank(rows, cols_count):
    """Rank as the largest r with a nonvanishing r x r minor."""
    nrows = len(rows)
    for r in range(min(nrows, cols_count), 0, -1):
        for ri in combinations(range(nrows), r):
            for ci in combinations(range(cols_count), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if laplace_det(sub) != 0:
                    return r
    return 0


int_entries = st.integers(min_value=-9, max_value=9)


def int_matrix_strategy(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(int_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@given(int_matrix_strategy())
@settings(max_examples=150, deadline=None)
def test_int_rank_matches_minor_oracle(rows):
    assert int_rank([list(r) for r in rows]) == minor_rank(rows, len(rows[0]))


def test_int_rank_known_cases():
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 2], [3, 4]]) == 2
    # skipped pivot column: first column zero
    assert int_rank([[0, 1, 2], [0, 2, 4], [0, 0, 1]]) == 2


def test_rank_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [1, 1]]
    assert int_rank(integer_rows(rows)) == 2
    assert int_rank(integer_rows([[6 * e for e in row] for row in rows])) == 2
    # proportional rows: (3/2, 1) = 3 * (1/2, 1/3)
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert int_rank(integer_rows(singular)) == 1


@given(int_matrix_strategy())
@settings(max_examples=80, deadline=None)
def test_nullspace_vectors_annihilate(rows):
    m = Matrix.from_rows(rows)
    basis = nullspace(m)
    assert len(basis) == m.cols - int_rank([list(r) for r in rows])
    for vec in basis:
        image = [sum(a * b for a, b in zip(m.row(i), vec)) for i in range(m.rows)]
        assert all(x == 0 for x in image)


def test_nullspace_deterministic_basis():
    m = Matrix.from_rows([[1, 2, 3]])
    first = nullspace(m)
    second = nullspace(Matrix.from_rows([[1, 2, 3]]))
    assert first == second
    assert len(first) == 2


def test_column_pivots_known():
    m = Matrix.from_rows([[1, 2, 2], [2, 4, 5]])
    assert column_pivots(m) == (0, 2)


@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_unimodular_pair_inverse(n, seed):
    g, g_inv = unimodular_from_stream(CounterRng(seed, 99), n)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert (g @ g_inv).to_rows() == identity
    assert (g_inv @ g).to_rows() == identity
    assert laplace_det(g.to_rows()) in (1, -1)


def test_solve_square_exact():
    m = Matrix.from_rows([[2, 1], [1, 3]])
    x = solve_square(m, [5, 10])
    assert x == (Fraction(1), Fraction(3))


def test_solve_square_singular_raises():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(DomainError):
        solve_square(m, [1, 1])


def test_matrix_shape_errors():
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1, 2], [3]])
    a = Matrix.from_rows([[1, 2]])
    b = Matrix.from_rows([[1], [2], [3]])
    with pytest.raises(ShapeError):
        a @ b


def test_hstack_and_transpose():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
