from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from git_topo.connectivity import summarize_strata
from git_topo.errors import DomainError, PreconditionError, ShapeError
from git_topo.families.base import Verdict, negative_weight_dim
from git_topo.families.dag import (
    DagFamily,
    DagInstance,
    dag_solve_mle,
    dag_stabilize,
    dag_status,
    enumerate_strata,
    one_ps_redundant,
)
from git_topo.groups import OnePSClass, OrbitConvention
from git_topo.linalg import Matrix, column_pivots, nullspace


def make_instance(rows):
    n = len(rows)
    k = len(rows[0]) - 1
    return DagInstance(n, k, Matrix.from_rows(rows))


def test_strata_table_centralizer_headline():
    fam = DagFamily(10, 3)
    table = {
        s.descriptor["redundant_columns"]: (s.m, s.orbit_dim, s.value)
        for s in enumerate_strata(fam, OrbitConvention.CENTRALIZER)
    }
    assert table == {1: (10, 4, 12), 2: (20, 4, 32), 3: (30, 0, 60)}


def test_strata_table_parabolic_for_contrast():
    fam = DagFamily(10, 3)
    table = {
        s.descriptor["redundant_columns"]: (s.m, s.orbit_dim, s.value)
        for s in enumerate_strata(fam, OrbitConvention.PARABOLIC)
    }
    assert table == {1: (10, 2, 16), 2: (20, 2, 36), 3: (30, 0, 60)}


def test_stratum_m_is_jn():
    for n in range(1, 6):
        for k in range(1, 4):
            fam = DagFamily(n, k)
            for stratum in enumerate_strata(fam, OrbitConvention.CENTRALIZER):
                j = stratum.descriptor["redundant_columns"]
                assert stratum.m == j * n
                assert negative_weight_dim(fam, stratum.representative) == j * n
    # a 1-PS that does not fit GL(2) x C*: two factors, one weight, no torus weight
    for lam in [
        OnePSClass(((-1, 0), (0,)), (-1,)),
        OnePSClass(((-1,),), (-1,)),
        OnePSClass(((-1, 0),), ()),
    ]:
        with pytest.raises(ShapeError):
            negative_weight_dim(DagFamily(3, 2), lam)


def test_one_ps_redundant_shape():
    fam = DagFamily(5, 3)
    lam = one_ps_redundant(fam, 2)
    assert lam.gl_weights == ((-1, -1, 0),)
    assert lam.torus_weights == (-2,)
    with pytest.raises(DomainError):
        one_ps_redundant(fam, 0)
    with pytest.raises(DomainError):
        one_ps_redundant(fam, 4)


@pytest.mark.parametrize("convention", list(OrbitConvention))
@pytest.mark.parametrize("k", range(1, 7))
def test_thresholds_are_the_least_n_reaching_each_d_min(k, convention):
    def least_n(d: int) -> int:
        return next(
            n
            for n in range(1, 4 * k + 4)
            if summarize_strata(DagFamily(n, k), convention).d_min >= d
        )

    assert DagFamily(k, k).thresholds(convention) == (
        ("path_connected_from_n", least_n(2)),
        ("simply_connected_from_n", least_n(3)),
    )


def test_has_stable_points_exactly_when_n_at_least_k():
    for n in range(1, 5):
        for k in range(1, 5):
            fam = DagFamily(n, k)
            # the witness for n >= k: identity rows on top of the parent block
            flat = [int(i == j) for i in range(n) for j in range(k + 1)]
            assert fam.has_stable_points() is (n >= k)
            assert fam.status_flat(flat).is_stable is (n >= k)


@pytest.mark.parametrize(
    "n, k, message",
    [(10.0, 3, "sample count 10.0"), (10, True, "parent count True"),
     (10, "3", "parent count '3'")],
)
def test_family_refuses_non_integers(n, k, message):
    with pytest.raises(DomainError, match=f"{message} is not an integer"):
        DagFamily(n, k)


def test_status_full_rank():
    inst = make_instance([[1, 0, 5], [0, 1, 7], [1, 1, 0]])
    result = dag_status(inst)
    assert result.verdict is Verdict.STABLE
    assert result.evidence["rank"] == 2


def test_status_rank_deficient_mentions_normal_equations():
    inst = make_instance([[1, 2, 0], [2, 4, 1], [3, 6, 2]])
    result = dag_status(inst)
    assert result.verdict is Verdict.NOT_STABLE
    assert result.evidence["rank"] == 1
    assert "normal equations" in result.reason


def test_child_column_never_affects_verdict():
    base = [[1, 0], [0, 1], [1, 1]]
    for child in [(0, 0, 0), (9, -3, 7)]:
        rows = [row + [c] for row, c in zip(base, child)]
        assert dag_status(make_instance(rows)).verdict is Verdict.STABLE


def test_mle_exact_solution():
    inst = make_instance([[1, 0, 1], [0, 1, 2], [1, 1, 0]])
    beta = dag_solve_mle(inst)
    # normal equations: [[2, 1], [1, 2]] beta = (1, 2)
    assert beta == (Fraction(0), Fraction(1))


def test_mle_with_rational_entries():
    inst = make_instance(
        [
            [Fraction(1, 2), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(1, 3), Fraction(1)],
        ]
    )
    beta = dag_solve_mle(inst)
    assert beta == (Fraction(2), Fraction(3))


def test_mle_requires_stability():
    inst = make_instance([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    with pytest.raises(PreconditionError):
        dag_solve_mle(inst)


def test_stabilize_rank_deficient():
    inst = make_instance([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    fixed = dag_stabilize(inst, Fraction(1, 1000))
    assert dag_status(fixed).verdict is Verdict.STABLE
    # pivot column untouched
    assert fixed.parent_block().col(0) == inst.parent_block().col(0)
    assert fixed.y.col(fixed.k) == inst.y.col(inst.k)


def test_stabilize_zero_matrix():
    inst = make_instance([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    fixed = dag_stabilize(inst, Fraction(1, 1000))
    assert dag_status(fixed).verdict is Verdict.STABLE


def test_stabilize_keeps_stable_input():
    inst = make_instance([[1, 0, 2], [0, 1, 3], [0, 0, 4]])
    assert dag_stabilize(inst, Fraction(1, 1000)) is inst


def test_stabilize_guards():
    inst = make_instance([[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    with pytest.raises(DomainError):
        dag_stabilize(inst, 0)
    wide = make_instance([[1, 2, 3, 0]])  # n = 1 < k = 3
    with pytest.raises(DomainError, match="fewer samples than parents"):
        dag_stabilize(wide, Fraction(1, 1000))


entry = st.integers(min_value=-5, max_value=5)


@st.composite
def dag_rows(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    return [[draw(entry) for _ in range(k + 1)] for _ in range(n)]


@given(dag_rows())
@settings(max_examples=100, deadline=None)
def test_stabilized_output_is_always_stable(rows):
    inst = make_instance(rows)
    if inst.n < inst.k:
        return
    fixed = dag_stabilize(inst, Fraction(1, 1000))
    assert dag_status(fixed).verdict is Verdict.STABLE


@st.composite
def rank_deficient_parent_blocks(draw):
    """Parent blocks X = U V, n x k with n >= k, of rank below k; in some
    the first k rows span less than the whole of X."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    inner = draw(st.integers(0, k - 1))
    u = [[draw(entry) for _ in range(inner)] for _ in range(n)]
    v = [[draw(entry) for _ in range(k)] for _ in range(inner)]
    if draw(st.booleans()):
        u[:k] = [[0] * inner] * k
    return [[sum(u[i][t] * v[t][j] for t in range(inner)) for j in range(k)]
            for i in range(n)]


@given(rank_deficient_parent_blocks())
@example([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
@example([[0, 0], [0, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 0], [0, 0], [1, 2], [3, 6]])
@settings(max_examples=150, deadline=None)
def test_stabilize_uses_the_first_null_vectors_of_x_transpose(x):
    """The null vectors of the first k columns of X^T, padded with zeros,
    are the first null vectors of the whole of X^T, so dag_stabilize adds
    what eps times those of X^T itself would."""
    n, k = len(x), len(x[0])
    x_t = Matrix(k, n, tuple(x[i][j] for j in range(k) for i in range(n)))
    head = Matrix(k, k, tuple(x[i][j] for j in range(k) for i in range(k)))
    pivots = column_pivots(Matrix.from_rows(x))
    deficient = [c for c in range(k) if c not in pivots]
    full = nullspace(x_t)[: len(deficient)]
    assert [v + (0,) * (n - k) for v in nullspace(head)[: len(deficient)]] == full
    eps = Fraction(1, 1000)
    fixed = dag_stabilize(make_instance([row + [1] for row in x]), eps)
    shift = dict(zip(deficient, full))
    assert fixed.y.to_rows() == [
        [x[i][j] + (eps * shift[j][i] if j in shift else 0) for j in range(k)] + [1]
        for i in range(n)
    ]
