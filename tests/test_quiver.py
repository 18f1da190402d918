import gc
import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from git_topo.connectivity import summarize_strata
from git_topo.errors import DomainError, ShapeError, SizeLimitError
from git_topo.families import StratumClass, quiver
from git_topo.families.base import Verdict, negative_weight_dim
from git_topo.families.quiver import (
    MAX_CLOSURE_GRAPH_SIZE,
    QuiverSpec,
    ThinQuiverRep,
    enumerate_strata,
    kronecker_spec,
    quiver_thin_status,
    sub_dimension_vectors,
)
from git_topo.groups import OnePSClass, OrbitConvention, orbit_dim
from git_topo.linalg import ComplexRational
from git_topo.reports import render_connectivity_text
from git_topo.serialize import report_to_json

from closure_oracle import oracle_status
from euler_oracle import euler_form
from report_json_oracle import oracle_report_text
from report_text_oracle import oracle_connectivity_lines
from weights_oracle import quiver_representative

status = quiver_thin_status


def brute_force_thin_verdict(rep: ThinQuiverRep) -> Verdict:
    """Reference verdict by direct subset enumeration, written independently:
    scan every proper nonempty subset of the thin support, keep those closed
    under arrows with nonzero value, and look at the largest theta sum."""
    spec = rep.spec
    support = spec.support()
    best = None
    for size in range(1, len(support)):
        for subset in combinations(support, size):
            chosen = set(subset)
            closed = True
            for (s, t), v in zip(spec.arrows, rep.values):
                if v and s in chosen and t not in chosen:
                    closed = False
                    break
            if not closed:
                continue
            total = sum(spec.theta[i] for i in chosen)
            if best is None or total > best:
                best = total
    if best is None or best < 0:
        return Verdict.STABLE
    if best > 0:
        return Verdict.UNSTABLE
    return Verdict.NOT_STABLE


def test_euler_form_kronecker():
    spec = kronecker_spec()
    assert euler_form(spec, (1, 0), (0, 1)) == -2
    assert euler_form(spec, (1, 1), (1, 1)) == 1 + 1 - 2
    assert euler_form(spec, (1, 0), (1, 0)) == 1


def test_kronecker_strata_table():
    spec = kronecker_spec()
    strata = enumerate_strata(spec, OrbitConvention.PARABOLIC)
    assert len(strata) == 1
    (stratum,) = strata
    assert stratum.descriptor == {"sub_dim": (1, 0)}
    assert stratum.m == 2
    assert stratum.orbit_dim == 0
    assert stratum.value == 4


def test_sub_dimension_vectors_enumeration():
    spec = QuiverSpec(2, ((0, 1),), (2, 1), (1, -2))
    subs = list(sub_dimension_vectors(spec))
    assert subs == [(0, 1), (1, 0), (1, 1), (2, 0)]


def test_strata_filter_drops_negative_theta_classes():
    spec = kronecker_spec()
    descriptors = [s.descriptor["sub_dim"] for s in enumerate_strata(spec, OrbitConvention.PARABOLIC)]
    assert (0, 1) not in descriptors


def test_admissibility_check():
    with pytest.raises(DomainError, match="not admissible"):
        QuiverSpec(2, ((0, 1),), (1, 1), (1, 1))
    with pytest.raises(ShapeError):
        QuiverSpec(2, ((0, 1),), (1, 1, 1), (1, -1))


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, ((0, 1.7),), (1, 1), (1, -1)), "arrow endpoint 1.7"),
        ((2, ((0, True),), (1, 1), (1, -1)), "arrow endpoint True"),
        ((2, ((0, 1),), (1.9, 1), (1, -1)), "dimension 1.9"),
        ((2, ((0, 1),), (1, 1), (1, -1.5)), "stability parameter -1.5"),
        ((2.0, ((0, 1),), (1, 1), (1, -1)), "vertex count 2.0"),
    ],
    ids=["float-arrow", "bool-arrow", "float-dim", "float-theta", "float-vertices"],
)
def test_spec_refuses_non_integers(args, message):
    with pytest.raises(DomainError, match=f"{message} is not an integer"):
        QuiverSpec(*args)


def test_kronecker_status_origin_and_axes():
    spec = kronecker_spec()
    assert status(ThinQuiverRep(spec, (0, 0))).verdict is Verdict.UNSTABLE
    origin = status(ThinQuiverRep(spec, (0, 0)))
    assert origin.evidence["support"] == (1,)
    assert origin.evidence["theta_sum"] == 1
    for values in [(1, 0), (0, 1), (3, -2)]:
        assert status(ThinQuiverRep(spec, values)).is_stable


def test_flipped_theta_everything_unstable():
    spec = kronecker_spec(theta=(-1, 1))
    for values in [(0, 0), (1, 0), (2, 3)]:
        st_result = status(ThinQuiverRep(spec, values))
        assert st_result.verdict is Verdict.UNSTABLE
        assert st_result.evidence["support"] == (2,)


def test_not_stable_boundary_case():
    # theta = 0 everywhere: every closed subset sums to zero.  Vertex 1
    # reaches the witness {2} but is not in it.
    spec = QuiverSpec(2, ((0, 1),), (1, 1), (0, 0))
    result = status(ThinQuiverRep(spec, (1,)))
    assert result.verdict is Verdict.NOT_STABLE
    assert result.evidence == {"support": (2,), "theta_sum": 0}


def test_status_size_and_domain_guards():
    # Every vertex is closed with weight zero, and vertex 1 is the first
    # witness in mask order.
    spec = QuiverSpec(21, (), (1,) * 21, (0,) * 21)
    result = status(ThinQuiverRep(spec, ()))
    assert result.verdict is Verdict.NOT_STABLE
    assert result.evidence == {"support": (1,), "theta_sum": 0}
    n = MAX_CLOSURE_GRAPH_SIZE + 1
    spec = QuiverSpec(n, (), (1,) * n, (0,) * n)
    with pytest.raises(SizeLimitError, match=f"make {n}, over the limit"):
        status(ThinQuiverRep(spec, ()))
    with pytest.raises(SizeLimitError):
        spec.status_flat([])
    empty = QuiverSpec(2, (), (0, 0), (1, -1))
    with pytest.raises(DomainError):
        status(ThinQuiverRep(empty, ()))


def test_rep_validation_on_dead_arrows():
    spec = QuiverSpec(2, ((0, 1),), (1, 0), (0, 0))
    ThinQuiverRep(spec, (0,))  # fine: dead arrow pinned at zero
    with pytest.raises(DomainError):
        ThinQuiverRep(spec, (1,))
    for values in [(0.1, 0), (True, 0)]:  # no floats or bools in exact values
        with pytest.raises(DomainError):
            ThinQuiverRep(kronecker_spec(), values)
    with pytest.raises(DomainError):
        ComplexRational.of(1, 0.5)


def test_one_ps_skips_dimension_zero_vertices():
    spec = QuiverSpec(3, ((0, 1), (1, 2)), (1, 0, 1), (1, 0, -1))
    rows = {
        s.descriptor["sub_dim"]: s.representative
        for s in enumerate_strata(spec, OrbitConvention.PARABOLIC)
    }
    lam = rows[(1, 0, 0)]
    assert lam.gl_weights == ((0,), (-1,))
    assert lam.torus_weights == ()


def closed_form_m(spec: QuiverSpec, sub) -> int:
    """Hom coordinates from the subspace into the quotient, over all arrows."""
    return sum(sub[s] * (spec.dim_vector[t] - sub[t]) for s, t in spec.arrows)


def test_negative_weight_dim_matches_stratum_m():
    spec = kronecker_spec()
    for stratum in enumerate_strata(spec, OrbitConvention.PARABOLIC):
        sub = stratum.descriptor["sub_dim"]
        assert stratum.m == closed_form_m(spec, sub)
        assert negative_weight_dim(spec, quiver_representative(spec, sub)) == stratum.m
    # a 1-PS that does not fit GL(1) x GL(1): one factor, two weights, a torus weight
    for lam in [
        OnePSClass(((0,),), ()),
        OnePSClass(((0, -1), (0,)), ()),
        OnePSClass(((0,), (-1,)), (1,)),
    ]:
        with pytest.raises(ShapeError):
            negative_weight_dim(spec, lam)


small_dims = st.lists(st.integers(0, 1), min_size=2, max_size=4).filter(
    lambda d: sum(d) >= 1
)


@st.composite
def thin_quivers(draw):
    dims = tuple(draw(small_dims))
    v = len(dims)
    arrow_count = draw(st.integers(0, 4))
    arrows = tuple(
        (draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1)))
        for _ in range(arrow_count)
    )
    # admissible theta: sums of d_j e_i - d_i e_j transfers
    theta = [0] * v
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, v - 1))
        j = draw(st.integers(0, v - 1))
        c = draw(st.integers(-2, 2))
        theta[i] += c * dims[j]
        theta[j] -= c * dims[i]
    return QuiverSpec(v, arrows, dims, tuple(theta))


@given(thin_quivers(), st.data())
@settings(max_examples=120, deadline=None)
def test_status_matches_brute_force(spec, data):
    """quiver_thin_status and the flat-integer status_flat both agree."""
    live = [i for i, (s, t) in enumerate(spec.arrows)
            if spec.dim_vector[s] == 1 and spec.dim_vector[t] == 1]
    flat = [0] * (2 * len(spec.arrows))
    for idx in live:
        flat[2 * idx] = data.draw(st.integers(-2, 2))
        flat[2 * idx + 1] = data.draw(st.sampled_from([0, 0, 1, -3]))
    rep = spec.instance_from_flat(flat)
    if not spec.support():
        with pytest.raises(DomainError):
            quiver_thin_status(rep)
        with pytest.raises(DomainError):
            spec.status_flat(flat)
        return
    expected = brute_force_thin_verdict(rep)
    assert quiver_thin_status(rep).verdict is expected
    assert spec.status_flat(flat).verdict is expected


def random_thin_quiver(rng: random.Random) -> QuiverSpec:
    """1-9 vertices, some of dimension 0, with loops and parallel arrows."""
    v = rng.randint(1, 9)
    dims = [int(rng.random() < 0.85) for _ in range(v)]
    if not any(dims):
        dims[rng.randrange(v)] = 1
    arrows = tuple(
        (rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, 2 * v + 2))
    )
    support = [i for i in range(v) if dims[i]]
    spread = rng.choice([0, 1, 3, 40])  # 0 gives theta = 0 on the support
    theta = [rng.randint(-3, 3) if not dims[i] else 0 for i in range(v)]
    for i in support[:-1]:
        theta[i] = rng.randint(-spread, spread)
    theta[support[-1]] -= sum(theta[i] for i in support)
    return QuiverSpec(v, arrows, tuple(dims), tuple(theta))


def test_min_cut_matches_the_subset_scan_oracle():
    """Verdict, witness and theta sum equal the 2^v scan's on random points.

    Each quiver is checked at points with a vanishing live arrow (one
    minimum cut) and at points with none (the spec's cached verdict), in
    both orders, and its has_stable_points against the scan.
    """
    rng = random.Random(20250)
    generic = vanishing = 0
    verdicts = set()
    for _ in range(1500):
        spec = random_thin_quiver(rng)
        live_mask = spec.live_mask()
        for keep in rng.sample([1.0, 0.9, 0.6, 0.3], 3):
            nonzero = [on and rng.random() < keep for on in live_mask]
            flat = []
            for on in nonzero:
                flat += [rng.choice([1, -2, 0]), 0] if on else [0, 0]
                if on and not flat[-2]:
                    flat[-1] = rng.choice([3, -1])
            expected = oracle_status(spec.dim_vector, spec.theta, spec.arrows, nonzero)
            result = quiver_thin_status(spec.instance_from_flat(flat))
            assert (
                result.verdict.value,
                result.evidence.get("support", ()),
                result.evidence.get("theta_sum"),
            ) == expected, (spec, nonzero)
            assert spec.status_flat(flat).is_stable is (expected[0] == "stable")
            verdicts.add(expected[0])
            if nonzero == list(live_mask):
                generic += 1
            else:
                vanishing += 1
        all_live = oracle_status(spec.dim_vector, spec.theta, spec.arrows, live_mask)
        assert spec.has_stable_points() is (all_live[0] == "stable")
    assert generic > 1000 and vanishing > 1000
    assert verdicts == {"stable", "unstable", "not_stable"}


@given(thin_quivers())
@settings(max_examples=120, deadline=None)
def test_has_stable_points_matches_brute_force(spec):
    """A thin verdict depends only on which arrows are nonzero, so V^st is
    non-empty exactly when some 0/1 point is stable."""
    live = [i for i, on in enumerate(spec.live_mask()) if on]
    any_stable = any(
        brute_force_thin_verdict(
            ThinQuiverRep(spec, tuple(int(i in chosen) for i in range(len(spec.arrows))))
        )
        is Verdict.STABLE
        for r in range(len(live) + 1)
        for chosen in combinations(live, r)
    )
    assert spec.has_stable_points() is any_stable


def test_has_stable_points_kronecker_and_refusals():
    assert kronecker_spec((1, -1)).has_stable_points()
    assert not kronecker_spec((-1, 1)).has_stable_points()
    with pytest.raises(DomainError, match="thin dimension vector"):
        QuiverSpec(2, ((0, 1),), (2, 1), (1, -2)).has_stable_points()
    with pytest.raises(DomainError, match="empty support"):
        QuiverSpec(2, ((0, 1),), (0, 0), (1, -1)).has_stable_points()


@given(thin_quivers(), st.data())
@settings(max_examples=80, deadline=None)
def test_verdict_invariant_under_scaling(spec, data):
    if not spec.support():
        return
    live = [i for i, (s, t) in enumerate(spec.arrows)
            if spec.dim_vector[s] == 1 and spec.dim_vector[t] == 1]
    values = [0] * len(spec.arrows)
    for idx in live:
        values[idx] = data.draw(st.integers(-3, 3))
    scale = data.draw(st.sampled_from([2, -1, 7]))
    rep = ThinQuiverRep(spec, tuple(values))
    scaled = ThinQuiverRep(spec, tuple(v * scale for v in values))
    assert quiver_thin_status(rep).verdict is quiver_thin_status(scaled).verdict


@st.composite
def general_quivers(draw):
    """Dimensions up to 3; only the stratum combinatorics is exercised."""
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=2, max_size=4)))
    v = len(dims)
    arrow_count = draw(st.integers(0, 4))
    arrows = tuple(
        (draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1)))
        for _ in range(arrow_count)
    )
    theta = [0] * v
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, v - 1))
        j = draw(st.integers(0, v - 1))
        c = draw(st.integers(-2, 2))
        theta[i] += c * dims[j]
        theta[j] -= c * dims[i]
    return QuiverSpec(v, arrows, dims, tuple(theta))


@given(general_quivers())
@settings(max_examples=100, deadline=None)
def test_stratum_value_equals_euler_form(spec):
    """2m - 2 orbit (parabolic) = -2 <d', d - d'> for every sub-dimension."""
    if sum(spec.dim_vector) == 0:
        return
    group = spec.group()
    for sub in sub_dimension_vectors(spec):
        lam = quiver_representative(spec, sub)
        m = negative_weight_dim(spec, lam)
        orbit = orbit_dim(group, lam, OrbitConvention.PARABOLIC)
        rest = tuple(d - s for d, s in zip(spec.dim_vector, sub))
        assert 2 * m - 2 * orbit == -2 * euler_form(spec, sub, rest)


@given(general_quivers())
@settings(max_examples=60, deadline=None)
def test_strata_m_closed_form_vs_weights(spec):
    if sum(spec.dim_vector) == 0:
        return
    for stratum in enumerate_strata(spec, OrbitConvention.PARABOLIC):
        assert stratum.m == closed_form_m(spec, stratum.descriptor["sub_dim"])
        assert stratum.value == 2 * stratum.m - 2 * stratum.orbit_dim


def per_class_table(spec: QuiverSpec, convention: OrbitConvention) -> list[tuple]:
    """The table row by row: every candidate d', the theta filter, and each
    kept class counted on its own by `negative_weight_dim` and `orbit_dim`."""
    group = spec.group()
    rows = []
    for sub in sub_dimension_vectors(spec):
        if sum(a * d for a, d in zip(spec.theta, sub)) >= 0:
            lam = quiver_representative(spec, sub)
            m = negative_weight_dim(spec, lam)
            rows.append(({"sub_dim": sub}, lam, m, orbit_dim(group, lam, convention)))
    return rows


@st.composite
def walk_quivers(draw):
    """Up to 5 vertices of dimension 0-3 and up to 7 arrows, loops and
    parallel arrows included, with theta zero or admissible at random."""
    dims = list(draw(st.lists(st.integers(0, 3), min_size=1, max_size=5)))
    if not any(dims):
        dims[draw(st.integers(0, len(dims) - 1))] = draw(st.integers(1, 3))
    v = len(dims)
    vertex = st.integers(0, v - 1)
    arrows = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=7)))
    theta = [0] * v
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(vertex), draw(vertex)
        c = draw(st.integers(-3, 3))
        theta[i] += c * dims[j]
        theta[j] -= c * dims[i]
    return QuiverSpec(v, arrows, tuple(dims), tuple(theta))


@given(walk_quivers())
@example(QuiverSpec(4, ((0, 1), (1, 2), (2, 3), (3, 0)), (1, 1, 1, 1), (0, 0, 0, 0)))
@example(QuiverSpec(3, ((0, 1), (0, 1), (1, 1), (2, 0)), (2, 3, 0), (-3, 2, 5)))
@example(QuiverSpec(4, ((0, 2), (2, 2), (3, 1)), (3, 0, 2, 1), (-2, 4, 1, 4)))
@example(QuiverSpec(3, ((1, 0), (2, 1)), (1, 2, 3), (6, 0, -2)))
@example(QuiverSpec(4, ((0, 1), (2, 3), (3, 3)), (1, 1, 2, 1), (3, -3, 0, 0)))
@settings(max_examples=300, deadline=None)
def test_walk_matches_the_per_class_route(spec):
    # The examples: theta = 0, which keeps every candidate; parallel arrows
    # and loops; dimension-0 vertices; and theta that rules out whole
    # subtrees below the first vertex (the last two).
    for convention in OrbitConvention:
        rows = [
            (s.descriptor, s.representative, s.m, s.orbit_dim)
            for s in enumerate_strata(spec, convention)
        ]
        assert rows == per_class_table(spec, convention)


@st.composite
def split_quivers(draw):
    """6-10 vertices: a thin cycle with random orientations and v // 4
    chords, theta v - 1 at one vertex and -1 elsewhere or an admissible
    mix; or dimensions 0-3, at most 2^10 candidates, with loops, parallel
    arrows and dimension-0 vertices."""
    v = draw(st.integers(6, 10))
    vertex = st.integers(0, v - 1)
    if draw(st.booleans()):
        dims = [1] * v
        arrows = [
            (i, (i + 1) % v) if draw(st.booleans()) else ((i + 1) % v, i)
            for i in range(v)
        ]
        arrows += [draw(st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1]))
                   for _ in range(v // 4)]
    else:
        dims, room = [], 2**10
        for _ in range(v):
            dims.append(draw(st.integers(0, min(3, room - 1))))
            room //= dims[-1] + 1
        dims = list(draw(st.permutations(dims)))
        if not any(dims):
            dims[draw(vertex)] = 1
        arrows = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * v))
    if all(d == 1 for d in dims) and draw(st.booleans()):
        theta = [-1] * v
        theta[draw(vertex)] = v - 1
    else:
        theta = [draw(st.integers(-3, 3)) if d == 0 else 0 for d in dims]
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(vertex), draw(vertex)
            c = draw(st.integers(-3, 3))
            theta[i] += c * dims[j]
            theta[j] -= c * dims[i]
    return QuiverSpec(v, tuple(arrows), tuple(dims), tuple(theta))


def split_constants(spec: QuiverSpec) -> list[int]:
    """One SUFFIX_CANDIDATES per split of the walk's levels, from the whole
    walk tabulated to no level tabulated: the candidates of each suffix."""
    counts = [spec.dim_vector[v] + 1 for v in spec.positive_vertices]
    return [math.prod(counts[i:]) for i in range(len(counts) + 1)]


@given(split_quivers(), st.sampled_from(list(OrbitConvention)))
@example(QuiverSpec(8, ((0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (5, 6), (7, 6), (0, 7),
                        (5, 2), (1, 6)), (1,) * 8, (-1, -1, -1, -1, 7, -1, -1, -1)),
         OrbitConvention.PARABOLIC)
@example(QuiverSpec(7, ((0, 0), (0, 6), (0, 6), (3, 1), (6, 2), (2, 2), (5, 3)),
                    (2, 1, 0, 3, 1, 0, 2), (1, -2, 5, 0, 0, 4, 0)),
         OrbitConvention.CENTRALIZER)
@settings(max_examples=40, deadline=None)
def test_every_split_gives_the_per_class_table(spec, convention):
    # Each split point of the walk's levels, the whole table in one suffix
    # table and none in any, gives the rows of the per-class route; and
    # the rows `d_min` writes as texts are the oracles' texts of them.
    expected = per_class_table(spec, convention)
    strata = [StratumClass(*row) for row in expected]
    for constant in split_constants(spec):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quiver, "SUFFIX_CANDIDATES", constant)
            rows = [
                (s.descriptor, s.representative, s.m, s.orbit_dim)
                for s in enumerate_strata(spec, convention)
            ]
            report = summarize_strata(spec, convention, rows="json")
        assert rows == expected
        assert render_connectivity_text(report) == oracle_connectivity_lines(
            report, strata
        )
        assert "".join(report_to_json(report)) == oracle_report_text(report, strata)


@pytest.mark.parametrize("theta", [(0,) * 12, (11,) + (-1,) * 11], ids=["0", "11,-1"])
def test_suffix_tables_hold_no_more_entries_than_the_candidates(monkeypatch, theta):
    # On the complete 12-vertex thin quiver every prefix has a boundary
    # state of its own, so no table is shared; theta = (11, -1, ..., -1)
    # keeps 2049 of the 4096 candidates, d' = 0 and d' = dim among them,
    # and the walk skips about half the prefixes.
    v = 12
    spec = QuiverSpec(
        v, tuple((i, j) for i in range(v) for j in range(i + 1, v)), (1,) * v, theta
    )
    built = []
    suffix_table = quiver._suffix_table

    def counted(*args):
        built.append(len(table := suffix_table(*args)))
        return table

    monkeypatch.setattr(quiver, "_suffix_table", counted)
    rows = enumerate_strata(spec, OrbitConvention.PARABOLIC)
    candidates = 2**v
    assert sum(built) <= candidates
    if any(theta):
        assert len(rows) == 2 ** (v - 1) - 1 and sum(built) < candidates
    else:
        assert len(rows) == candidates - 2 and sum(built) == candidates


def test_walk_subdimensions_stay_in_range():
    # Vertex 2 has dimension 0, so only 0 is in range there; theta = 0
    # keeps every candidate, the other theta rules some out.
    for theta in [(0, 0, 0), (1, 0, -2)]:
        spec = QuiverSpec(3, ((0, 1),), (2, 0, 1), theta)
        rows = enumerate_strata(spec, OrbitConvention.PARABOLIC)
        subs = [s.descriptor["sub_dim"] for s in rows]
        assert subs == [
            sub for sub in sub_dimension_vectors(spec)
            if sum(a * d for a, d in zip(theta, sub)) >= 0
        ]
        for sub in subs:
            assert all(0 <= k <= d for k, d in zip(sub, spec.dim_vector))
            assert sub[1] == 0


@given(walk_quivers(), st.sampled_from(list(OrbitConvention)))
@settings(max_examples=100, deadline=None)
def test_walk_rows_have_one_entry_per_vertex(spec, convention):
    # One sub_dim entry per vertex and one GL factor per positive vertex,
    # of its dimension, with d'_v zeros; rows do not share the walk's list.
    rows = enumerate_strata(spec, convention)
    for s in rows:
        sub = s.descriptor["sub_dim"]
        assert type(sub) is tuple and len(sub) == spec.vertex_count
        factors = s.representative.gl_weights
        assert len(factors) == len(spec.positive_vertices)
        for v, ws in zip(spec.positive_vertices, factors):
            assert len(ws) == spec.dim_vector[v]
            assert ws.count(0) == sub[v]
    assert len({s.descriptor["sub_dim"] for s in rows}) == len(rows)


def weight_types(lam: OnePSClass) -> tuple:
    """The type of every container and weight in lam, nested as lam is."""
    return (
        type(lam.gl_weights),
        tuple((type(ws), tuple(map(type, ws))) for ws in lam.gl_weights),
        type(lam.torus_weights),
        tuple(map(type, lam.torus_weights)),
    )


@given(walk_quivers(), st.sampled_from(list(OrbitConvention)))
@settings(max_examples=150, deadline=None)
def test_walk_representatives_equal_validated_classes(spec, convention):
    # Rows are built without the constructor's checks; each must equal,
    # type for type, the class the checking constructor makes from lists
    # of the same weights and from the closed form 0^k (-1)^(d - k).
    for s in enumerate_strata(spec, convention):
        lam = s.representative
        checked = OnePSClass(
            [list(ws) for ws in lam.gl_weights], list(lam.torus_weights)
        )
        closed = quiver_representative(spec, s.descriptor["sub_dim"])
        for built in (checked, closed):
            assert s.representative == built
            assert weight_types(s.representative) == weight_types(built)


def test_a_dropped_table_leaves_no_reference_cycle():
    v = 12
    cycle = tuple((i, (i + 1) % v) for i in range(v))
    spec = QuiverSpec(v, cycle, (1,) * v, (v - 1,) + (-1,) * (v - 1))
    gc.collect()
    gc.disable()
    try:
        rows = enumerate_strata(spec, OrbitConvention.PARABOLIC)
        assert len(rows) == 2 ** (v - 1) - 1
        del rows
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_thousands_of_dimension_0_vertices_cost_no_recursion():
    v = 3000
    dims = (1,) + (0,) * (v - 2) + (1,)
    theta = (1,) + (0,) * (v - 2) + (-1,)
    spec = QuiverSpec(v, ((0, v - 1),), dims, theta)
    (stratum,) = enumerate_strata(spec, OrbitConvention.PARABOLIC)
    assert stratum.descriptor == {"sub_dim": (1,) + (0,) * (v - 1)}
    assert (stratum.m, stratum.orbit_dim) == (1, 0)
