"""Exact linear algebra against independent oracles.

The fraction-free Bareiss rank and pivot columns are checked against a
Laplace-expansion minor rank written here from scratch and against the
Fraction RREF in `rref_oracle`, and the null spaces and square solves
that back-substitute on the same elimination against their defining
equations and against that RREF.  The F_p[x] determinant behind the
path certificates is checked against a Leibniz expansion over Z[x], and
its gcd and root scan against products of known linear factors.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from git_topo.linalg import (
    PRIME,
    ComplexRational,
    Matrix,
    column_pivots,
    echelon_pivots,
    int_rank,
    integer_entries,
    minor_gcd,
    nullspace,
    poly_det,
    poly_gcd,
    poly_mod,
    poly_roots_below,
    solve_square,
)
from git_topo.rng import CounterRng
from git_topo.errors import ShapeError, DomainError

from group_actions import matmul, unimodular_from_stream
from rref_oracle import oracle_column_pivots, oracle_nullspace, oracle_solve_square


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


@st.composite
def int_matrices(draw):
    """Integer matrices from 1 x 1 to 8 x 4 and 4 x 8, tall, wide or square.

    Half are products U V, of rank at most their random inner dimension;
    some have zero rows, and some a zero first column with no pivot.
    """
    long, short = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rows, cols = (long, short) if draw(st.booleans()) else (short, long)
    if draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols)))
        u = [[draw(int_entries) for _ in range(inner)] for _ in range(rows)]
        v = [[draw(int_entries) for _ in range(cols)] for _ in range(inner)]
        data = [[sum(u[i][t] * v[t][j] for t in range(inner)) for j in range(cols)]
                for i in range(rows)]
    else:
        data = [[draw(int_entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        data[i] = [0] * cols
    if draw(st.booleans()):
        for row in data:
            row[0] = 0
    return data


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_int_rank_matches_minor_oracle(rows):
    cols = len(rows[0])
    pivots = oracle_column_pivots(rows, cols)
    data = [list(r) for r in rows]
    assert int_rank(data) == minor_rank(rows, cols) == len(pivots)
    assert data == rows
    assert column_pivots(Matrix.from_rows(rows)) == pivots


def test_a_full_rank_matrix_reads_no_row_past_its_last_pivot():
    def rows():
        yield from ([0, 2, 1], [1, 0, 0], [3, 1, 0])
        raise AssertionError("read a row past the third pivot")

    assert len(echelon_pivots(rows(), 3)) == 3


def test_int_rank_known_cases():
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 2], [3, 4]]) == 2
    # skipped pivot column: first column zero
    assert int_rank([[0, 1, 2], [0, 2, 4], [0, 0, 1]]) == 2
    # rows in the span of the first, then one outside it
    assert int_rank([[1, 2], [2, 4], [3, 6], [0, 1]]) == 2


def cleared_rows(rows):
    """The rows cleared by one scale: integer_entries of the flat entries."""
    flat = integer_entries([e for row in rows for e in row])
    width = len(rows[0])
    return [flat[i : i + width] for i in range(0, len(flat), width)]


def test_rank_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [1, 1]]
    assert int_rank(cleared_rows(rows)) == 2
    assert int_rank(cleared_rows([[6 * e for e in row] for row in rows])) == 2
    # proportional rows: (3/2, 1) = 3 * (1/2, 1/3)
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    assert int_rank(cleared_rows(singular)) == 1


@given(int_matrices())
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
    assert matmul(g, g_inv).to_rows() == identity
    assert matmul(g_inv, g).to_rows() == identity
    assert laplace_det(g.to_rows()) in (1, -1)


rational_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)


@st.composite
def rational_matrices(draw):
    """Rows of rationals, 0-6 by 0-6, often of low rank or with zero rows."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    inner = draw(st.integers(0, 6))
    if draw(st.booleans()):
        u = [[draw(rational_entries) for _ in range(inner)] for _ in range(rows)]
        v = [[draw(rational_entries) for _ in range(cols)] for _ in range(inner)]
        data = [[sum((u[i][t] * v[t][j] for t in range(inner)), 0) for j in range(cols)]
                for i in range(rows)]
    else:
        data = [[draw(rational_entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if i < rows:
            data[i] = [0] * cols
    return rows, cols, data


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_column_pivots_and_nullspace_equal_the_fraction_rref(shape):
    rows, cols, data = shape
    m = Matrix(rows, cols, tuple(e for row in data for e in row))
    assert column_pivots(m) == oracle_column_pivots(data, cols)
    assert nullspace(m) == oracle_nullspace(data, cols)


@given(rational_matrices(), st.lists(rational_entries, min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_solve_square_equals_the_fraction_rref(shape, rhs):
    rows, cols, data = shape
    n = min(rows, cols)
    square = [row[:n] for row in data[:n]]
    m = Matrix(n, n, tuple(e for row in square for e in row))
    try:
        expected = oracle_solve_square(square, rhs[:n])
    except DomainError:
        with pytest.raises(DomainError, match="singular"):
            solve_square(m, rhs[:n])
    else:
        assert solve_square(m, rhs[:n]) == expected


def test_empty_systems():
    assert solve_square(Matrix(0, 0, ()), []) == ()
    assert nullspace(Matrix(0, 0, ())) == []
    assert nullspace(Matrix(2, 0, ())) == []
    assert nullspace(Matrix(0, 2, ())) == [(1, 0), (0, 1)]
    assert column_pivots(Matrix(0, 2, ())) == ()
    assert int_rank([]) == 0


def test_solve_square_refuses_an_inexact_right_hand_side():
    with pytest.raises(DomainError, match="not an exact rational"):
        solve_square(Matrix.from_rows([[1]]), [0.5])


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


@pytest.mark.parametrize(
    "entry", [0.5, True, "1", ComplexRational.of(1, 1)],
    ids=["float", "bool", "str", "complex"],
)
def test_matrix_refuses_inexact_entries(entry):
    with pytest.raises(DomainError, match="not an exact rational"):
        Matrix(1, 2, (1, entry))


def test_complex_rational_refuses_a_string():
    with pytest.raises(DomainError, match="not an exact rational"):
        ComplexRational.of("1/2")


def test_complex_rational_refuses_a_second_imaginary_part():
    with pytest.raises(DomainError, match="imaginary part"):
        ComplexRational.of(ComplexRational.of(1), 1)


def test_integer_entries_scales_the_whole_matrix_once():
    # One lcm, 6, for every entry: row 0 alone would need only 2.
    assert integer_entries([Fraction(1, 2), 1, Fraction(1, 3), 0]) == [3, 6, 2, 0]


# Polynomials over F_p: integer coefficient lists, lowest degree first.


def int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def int_poly_add(f, g):
    long, short = (f, g) if len(f) >= len(g) else (g, f)
    return [a + (short[i] if i < len(short) else 0) for i, a in enumerate(long)]


def leibniz_det(rows):
    """Determinant over Z[x] as the signed sum over permutations."""
    n = len(rows)
    total = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [-1 if inversions % 2 else 1]
        for r, c in enumerate(perm):
            term = int_poly_mul(term, rows[r][c])
        total = int_poly_add(total, term)
    return total


def linear_product(roots, lead=1):
    out = [lead]
    for r in roots:
        out = int_poly_mul(out, [-r, 1])
    return out


int_polys = st.lists(st.integers(-4, 4), min_size=0, max_size=3)


def square(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@given(square(int_polys))
@settings(max_examples=50, deadline=None)
def test_poly_det_matches_leibniz(rows):
    reduced = [[poly_mod(e) for e in row] for row in rows]
    assert poly_det(reduced) == poly_mod(leibniz_det(rows))


@given(square(int_entries))
@settings(max_examples=60, deadline=None)
def test_poly_det_of_integer_matrices_is_the_determinant_mod_p(rows):
    reduced = [[poly_mod([e]) for e in row] for row in rows]
    assert poly_det(reduced) == poly_mod([laplace_det(rows)])


@given(
    st.sets(st.integers(0, 40), max_size=4),
    st.sets(st.integers(0, 40), max_size=4),
    st.sets(st.integers(0, 40), max_size=4),
    st.integers(1, PRIME - 1),
)
@settings(max_examples=80, deadline=None)
def test_gcd_and_root_scan_on_linear_factors(common, only_f, only_g, lead):
    only_f -= common
    only_g -= common | only_f
    f = poly_mod(linear_product(sorted(common | only_f), lead))
    g = poly_mod(linear_product(sorted(common | only_g)))
    assert poly_gcd(f, g) == poly_mod(linear_product(sorted(common)))
    assert poly_roots_below(f, 30) == sorted(r for r in common | only_f if r < 30)


def test_poly_edge_cases():
    assert poly_mod([PRIME, 2 * PRIME, 0]) == []
    assert poly_mod([-1]) == [PRIME - 1]
    assert poly_gcd([], []) == []
    assert poly_gcd([], [3, 6]) == poly_mod([(3 * pow(6, -1, PRIME)) % PRIME, 1])
    assert poly_roots_below([], 4) == [0, 1, 2, 3]
    assert poly_roots_below([5], 4) == []
    # x^2 - p has no integer root but vanishes mod p at 0 like x^2 does.
    assert poly_roots_below(poly_mod([-PRIME, 0, 1]), 3) == [0]
    # The 2 x 2 minors of [[x, 0], [0, 1], [1, x]] are x, x^2 and -1.
    rows = [[[0, 1], []], [[], [1]], [[1], [0, 1]]]
    assert minor_gcd(rows) == [1]
    assert minor_gcd(rows[:2]) == [0, 1]
    # A matrix with fewer rows than columns has no maximal minor.
    assert minor_gcd([[[1], [2]]]) == []
