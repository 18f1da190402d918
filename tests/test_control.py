from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from git_topo.errors import DomainError, ShapeError
from git_topo.families.base import Verdict, negative_weight_dim
from git_topo.families.control import (
    MIN_KRYLOV_CERTIFIED_N,
    ControlFamily,
    ControlInstance,
    control_status,
    controllability_rank_ints,
    enumerate_strata,
    invariant_subspace_dim,
)
from git_topo.groups import OnePSClass, OrbitConvention
from git_topo.linalg import PRIME, Matrix
from git_topo.rng import CounterRng

from group_actions import matmul, unimodular_from_stream
from weights_oracle import control_representative


def fraction_rank(rows):
    """Plain Gaussian elimination over Q, independent of the package engines."""
    data = [[Fraction(e) for e in r] for r in rows]
    nrows = len(data)
    ncols = len(data[0]) if data else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if data[i][c]), None)
        if piv is None:
            continue
        data[r], data[piv] = data[piv], data[r]
        for i in range(nrows):
            if i != r and data[i][c]:
                f = data[i][c] / data[r][c]
                data[i] = [x - f * y for x, y in zip(data[i], data[r])]
        r += 1
    return r


def columns(b_rows):
    """B's columns, the form `controllability_rank_ints` takes B in."""
    return [list(col) for col in zip(*b_rows)]


def krylov_rows(n, a_rows, b_rows):
    """Columns of [B, AB, ..., A^(n-1)B] as row vectors, built with Fractions."""
    cols = [[Fraction(b_rows[i][j]) for i in range(n)] for j in range(len(b_rows[0]))]
    out = list(cols)
    for _ in range(n - 1):
        cols = [
            [sum(Fraction(a_rows[i][k]) * v[k] for k in range(n)) for i in range(n)]
            for v in cols
        ]
        out.extend(cols)
    return out


def make_instance(a_rows, b_rows):
    n = len(a_rows)
    m = len(b_rows[0])
    return ControlInstance(n, m, Matrix.from_rows(a_rows), Matrix.from_rows(b_rows))


def test_strata_table_parabolic():
    fam = ControlFamily(3, 2)
    table = {
        s.descriptor["invariant_subspace_dim"]: (s.m, s.orbit_dim, s.value)
        for s in enumerate_strata(fam, OrbitConvention.PARABOLIC)
    }
    assert table == {1: (6, 2, 8), 2: (4, 2, 4)}


def test_strata_table_centralizer():
    fam = ControlFamily(3, 2)
    table = {
        s.descriptor["invariant_subspace_dim"]: (s.m, s.orbit_dim, s.value)
        for s in enumerate_strata(fam, OrbitConvention.CENTRALIZER)
    }
    assert table == {1: (6, 4, 4), 2: (4, 4, 0)}


def test_strata_empty_for_single_state():
    assert enumerate_strata(ControlFamily(1, 2), OrbitConvention.PARABOLIC) == []


def test_stratum_m_closed_form():
    # m = r(n - r) + (n - r) m_in, cross-checked against the weight count
    for n in range(2, 5):
        for m_in in range(1, 4):
            fam = ControlFamily(n, m_in)
            for stratum in enumerate_strata(fam, OrbitConvention.PARABOLIC):
                r = stratum.descriptor["invariant_subspace_dim"]
                assert stratum.m == r * (n - r) + (n - r) * m_in
                lam = control_representative(fam, r)
                assert stratum.representative == lam
                assert negative_weight_dim(fam, lam) == stratum.m
    # a 1-PS that does not fit GL(2): two factors, three weights, a torus weight
    for lam in [
        OnePSClass(((0, -1), (0,)), ()),
        OnePSClass(((0, -1, -1),), ()),
        OnePSClass(((0, -1),), (1,)),
    ]:
        with pytest.raises(ShapeError):
            negative_weight_dim(ControlFamily(2, 1), lam)


def test_has_stable_points_at_every_shape():
    # the witness: A shifts e_j to e_(j+1) and B's first column is e_1
    for n, m in ((1, 1), (1, 3), (3, 2), (5, 1)):
        shift = [[int(i == j + 1) for j in range(n)] for i in range(n)]
        b = [[int(i == j == 0) for j in range(m)] for i in range(n)]
        inst = ControlInstance(n, m, Matrix.from_rows(shift), Matrix.from_rows(b))
        assert ControlFamily(n, m).has_stable_points()
        assert control_status(inst).is_stable


@pytest.mark.parametrize(
    "n, m, message",
    [(3.0, True, "state dimension 3.0"), (3, True, "input dimension True"),
     (3, 2.5, "input dimension 2.5")],
)
def test_family_refuses_non_integers(n, m, message):
    with pytest.raises(DomainError, match=f"{message} is not an integer"):
        ControlFamily(n, m)


def test_controllable_single_input_chain():
    # companion-style pair: fully controllable
    inst = make_instance(
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0], [0], [1]],
    )
    st_result = control_status(inst)
    assert st_result.verdict is Verdict.STABLE
    assert st_result.evidence["rank"] == 3


def test_uncontrollable_known_pair():
    # left eigenvector v = (1, 0, 1): v^T A = -2 v^T and v^T B = 0,
    # so the reachable subspace is a proper invariant subspace.
    a = [[-8, -3, 1], [8, -4, 3], [6, 3, -3]]
    b = [[2, 5], [9, -9], [-2, -5]]
    for col in range(3):
        assert a[0][col] + a[2][col] == -2 * (1 if col == 0 else 0) + -2 * (
            1 if col == 2 else 0
        )
    assert all(b[0][j] + b[2][j] == 0 for j in range(2))
    inst = make_instance(a, b)
    st_result = control_status(inst)
    assert st_result.verdict is Verdict.UNSTABLE
    assert st_result.evidence["rank"] == 2
    assert "dimension 2 < 3" in st_result.reason


def test_zero_b_is_maximally_uncontrollable():
    inst = make_instance([[1, 0], [0, 1]], [[0], [0]])
    assert control_status(inst).evidence["rank"] == 0


def test_rational_entries_match_integerized_rank():
    a = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(2)]]
    b = [[Fraction(1, 5)], [Fraction(0)]]
    inst = make_instance(a, b)
    assert control_status(inst).verdict is Verdict.UNSTABLE
    scaled = make_instance(
        [[3, 2], [0, 12]],
        [[1], [0]],
    )
    assert control_status(scaled).evidence["rank"] == control_status(inst).evidence["rank"]


def test_instance_shape_validation():
    with pytest.raises(ShapeError):
        ControlInstance(2, 1, Matrix.from_rows([[1, 2]]), Matrix.from_rows([[1], [2]]))
    with pytest.raises(DomainError):
        ControlFamily(0, 1)


entry = st.integers(min_value=-6, max_value=6)


@st.composite
def control_pairs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    b = [[draw(entry) for _ in range(m)] for _ in range(n)]
    return a, b


@given(control_pairs())
@settings(max_examples=120, deadline=None)
def test_rank_matches_plain_fraction_elimination(pair):
    a, b = pair
    n = len(a)
    assert controllability_rank_ints(n, len(b[0]), a, columns(b)) == fraction_rank(
        krylov_rows(n, a, b)
    )


@given(control_pairs())
@settings(max_examples=100, deadline=None)
def test_krylov_rank_equals_invariant_subspace_dim(pair):
    a, b = pair
    inst = make_instance(a, b)
    assert control_status(inst).evidence["rank"] == invariant_subspace_dim(inst)


@given(control_pairs(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_verdict_invariant_under_scalar_scaling(pair, scale):
    a, b = pair
    inst = make_instance(a, b)
    scaled = make_instance(
        [[x * scale for x in row] for row in a],
        [[x * scale for x in row] for row in b],
    )
    assert control_status(inst).verdict is control_status(scaled).verdict


# Pairs at the size where the rank check first tries its certificate mod p.


def first_certified_n(m):
    """The smallest n whose n x nm Krylov matrix gets the certificate."""
    n = 1
    while n**4 < MIN_KRYLOV_CERTIFIED_N**4 * min(m, n):
        n += 1
    return n


def test_the_certificate_starts_at_the_measured_crossovers():
    # Measured: 13, 15-16, 17, 18-19, 20, 23-24, 30 and 30.
    assert [first_certified_n(m) for m in (1, 2, 3, 4, 6, 12, 43, 200)] == [
        13, 16, 18, 19, 21, 25, 31, 31
    ]


@pytest.mark.parametrize(
    "reach", [first_certified_n(1), first_certified_n(1) - 3]
)
def test_pairs_deficient_mod_p_reach_the_exact_rank(reach):
    # A shifts e_j to e_(j+1) for j < reach and B = e_1, every entry scaled
    # by p: the Krylov columns vanish mod p, so only exact Bareiss can
    # decide.  At reach = n the pair is controllable.
    n = first_certified_n(1)
    a = [[PRIME * int(i == j + 1 < reach) for j in range(n)] for i in range(n)]
    b = [[PRIME * int(i == 0)] for i in range(n)]
    result = control_status(make_instance(a, b))
    assert result.is_stable is (reach == n)
    assert result.evidence["rank"] == reach


@pytest.mark.parametrize("reach", [0, 1, 7, 11])
def test_uncontrollable_pair_at_certified_size_reports_exact_rank(reach):
    # Block upper-triangular A with B inside the first `reach` coordinates,
    # where A acts as a shift: the reachable subspace is exactly those
    # coordinates.  A unimodular change of basis hides the block shape.
    n, m = first_certified_n(2) + 2, 2
    rng = CounterRng(reach, 7)
    a = [
        [int(i == j + 1) if i < reach else rng.int_between(-4, 4) * (j >= reach)
         for j in range(n)]
        for i in range(n)
    ]
    b = [[int(i == 0 and j == 0) for j in range(m)] for i in range(n)]
    g, g_inv = unimodular_from_stream(CounterRng(reach, 8), n)
    inst = ControlInstance(
        n,
        m,
        matmul(matmul(g, Matrix.from_rows(a)), g_inv),
        matmul(g, Matrix.from_rows(b)),
    )
    if reach == 0:
        inst = ControlInstance(n, m, inst.a, Matrix(n, m, (0,) * (n * m)))
    result = control_status(inst)
    assert result.verdict is Verdict.UNSTABLE
    assert result.evidence["rank"] == reach == invariant_subspace_dim(inst)


@st.composite
def certified_pairs(draw):
    # Products through an inner dimension below n make deficient pairs
    # common; a B wider than n often reaches rank n in its first columns.
    m = draw(st.sampled_from([1, 2, 3, 12, 43]))
    n = draw(st.integers(first_certified_n(m), first_certified_n(m) + 2))
    inner = draw(st.integers(0, n))
    u = [[draw(entry) for _ in range(inner)] for _ in range(n)]
    v = [[draw(entry) for _ in range(n)] for _ in range(inner)]
    a = [[sum(u[i][t] * v[t][j] for t in range(inner)) for j in range(n)]
         for i in range(n)]
    b = [[draw(entry) for _ in range(m)] for _ in range(n)]
    return a, b


@given(certified_pairs())
@settings(max_examples=25, deadline=None)
def test_certified_rank_matches_invariant_subspace_dim(pair):
    a, b = pair
    inst = make_instance(a, b)
    assert controllability_rank_ints(len(a), len(b[0]), a, columns(b)) == (
        invariant_subspace_dim(inst)
    )


# The exact rank builds Krylov columns only as the elimination reads them;
# these pairs make it read past the first pivots, or all n m columns.
def shift(n, reach):
    """A sends e_j to e_(j+1) for j + 1 < reach and every other e_j to 0."""
    return [[int(i == j + 1 < reach) for j in range(n)] for i in range(n)]


CERTIFIED_N = first_certified_n(2)
LATE_PIVOT_PAIRS = {
    # B's first column is zero; A cycles the basis.
    "zero first column": (
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1], [0, 0], [0, 0]]
    ),
    # A nilpotent: B = e_1 reaches every e_j, B = e_3 only e_3 and e_4.
    "nilpotent chain": (shift(4, 4), [[1], [0], [0], [0]]),
    "nilpotent, rank n - 2": (shift(4, 4), [[0], [0], [1], [0]]),
    # Krylov rank n - 1: A's eigenvalue 2 is repeated.
    "rank n - 1": ([[1, 0, 0], [0, 2, 0], [0, 0, 2]], [[1], [1], [0]]),
    # Krylov rank n - 2 with every column read: Im B is A-invariant.
    "rank n - 2, invariant B": (
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
        [[1, 0], [0, 1], [0, 0], [0, 0]],
    ),
    "zero B": ([[1, 2], [3, 4]], [[0], [0]]),
    # At the certified size, rank n - 1: the certificate fails and the
    # exact rank reads every column.
    "certified size, rank n - 1": (
        shift(CERTIFIED_N, CERTIFIED_N - 1),
        [[0, int(i == 0)] for i in range(CERTIFIED_N)],
    ),
}


@pytest.mark.parametrize("name", LATE_PIVOT_PAIRS)
def test_rank_with_late_pivots_matches_plain_fraction_elimination(name):
    a, b = LATE_PIVOT_PAIRS[name]
    n, m = len(a), len(b[0])
    expected = fraction_rank(krylov_rows(n, a, b))
    assert controllability_rank_ints(n, m, a, columns(b)) == expected
    assert expected == invariant_subspace_dim(make_instance(a, b))
