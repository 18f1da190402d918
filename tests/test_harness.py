import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from git_topo.errors import DomainError, PreconditionError, SizeLimitError
from git_topo.families.control import MAX_CERTIFIED_N, ControlFamily
from git_topo.families.dag import MAX_CERTIFIED_K, DagFamily
from git_topo.families.quiver import QuiverSpec, kronecker_spec
from git_topo.groups import OrbitConvention
from git_topo.harness import (
    MAX_TRIALS,
    OP_GENERIC_POINTS,
    OP_PATH_STABILITY,
    HarnessReport,
    TrialConfig,
    count_path_failures,
    detect_constructed_degenerates,
    draw_instance,
    kronecker_oracle_check,
    sample_generic_points,
    sample_path_stability,
)
from git_topo.rng import CounterRng

from poly_oracle import control_suspects, dag_suspects


def strip_time(report: HarnessReport) -> HarnessReport:
    fields = {name: getattr(report, name) for name in HarnessReport.FIELDS}
    return HarnessReport(**{**fields, "elapsed_ms": 0})


def test_generic_sampling_deterministic():
    cfg = TrialConfig(ControlFamily(3, 2), trials=200, seed=7)
    first = sample_generic_points(cfg)
    second = sample_generic_points(cfg)
    assert strip_time(first) == strip_time(second)
    assert first.trials_run == 200


def test_generic_trial_reconstruction():
    """draw_instance(cfg, i) is exactly the instance trial i examined."""
    cfg = TrialConfig(ControlFamily(2, 1), trials=50, seed=11)
    report = sample_generic_points(cfg)
    recomputed = sum(
        1
        for i in range(cfg.trials)
        if not draw_instance(cfg, i).status().is_stable
    )
    assert recomputed == report.unstable_hits


def test_seed_changes_the_stream():
    cfg_a = TrialConfig(ControlFamily(2, 1), trials=5, seed=0)
    cfg_b = TrialConfig(ControlFamily(2, 1), trials=5, seed=1)
    draws_a = [draw_instance(cfg_a, i).a.to_rows() for i in range(5)]
    draws_b = [draw_instance(cfg_b, i).a.to_rows() for i in range(5)]
    assert draws_a != draws_b


def test_trials_are_counter_indexed_not_sequential():
    # trial i depends only on (seed, op, i): extending the run cannot
    # change earlier trials
    cfg_short = TrialConfig(DagFamily(3, 2), trials=10, seed=3)
    cfg_long = TrialConfig(DagFamily(3, 2), trials=20, seed=3)
    for i in range(10):
        assert (
            draw_instance(cfg_short, i).y.to_rows()
            == draw_instance(cfg_long, i).y.to_rows()
        )


def test_quiver_draws_exclude_origin_and_pin_dead_arrows():
    spec = QuiverSpec(2, ((0, 1), (0, 1)), (1, 0), (0, 0))
    cfg = TrialConfig(spec, trials=30, seed=5)
    for i in range(30):
        rep = draw_instance(cfg, i)
        assert all(v.is_zero() for v in rep.values)  # both arrows dead
    live = TrialConfig(kronecker_spec(), trials=30, seed=5)
    for i in range(30):
        assert any(draw_instance(live, i).values)


def test_generic_sampling_skips_dag_without_stable_points():
    cfg = TrialConfig(DagFamily(1, 2), trials=10, seed=0)
    report = sample_generic_points(cfg)
    assert report.skipped
    assert report.trials_run == 0
    assert report.notes == ("skipped: no dag point is stable",)
    assert not report.failed()


def test_path_sampling_deterministic_and_noted():
    cfg = TrialConfig(ControlFamily(2, 1), trials=1, seed=9, paths=5, path_samples=32)
    first = sample_path_stability(cfg)
    second = sample_path_stability(cfg)
    assert strip_time(first) == strip_time(second)
    assert first.trials_run == 5
    assert any("evidence, not proof" in n for n in first.notes)


def test_path_sampling_skips_below_connectivity_two():
    # control under the centralizer convention has d_min = 0
    cfg = TrialConfig(
        ControlFamily(3, 2),
        trials=1,
        seed=0,
        paths=3,
        convention=OrbitConvention.CENTRALIZER,
    )
    report = sample_path_stability(cfg)
    assert report.skipped
    assert report.trials_run == 0
    assert any("skipped: d_min = 0" in n for n in report.notes)
    assert not report.failed()


def test_path_and_generic_streams_are_independent():
    cfg = TrialConfig(ControlFamily(2, 2), trials=3, seed=21, paths=3)
    flat_generic = draw_instance(cfg, 0).a.to_rows()
    rng = CounterRng(21, 1, 0)
    flat_paths = cfg.family_spec.draw_flat(rng, cfg.entry_bound)
    a_block = [flat_paths[i * 2 : (i + 1) * 2] for i in range(2)]
    assert a_block != flat_generic


def test_kronecker_oracle_radius_one():
    report = kronecker_oracle_check(1)
    assert report.trials_run == 81
    assert report.oracle_mismatches == 0
    assert report.config is None


def test_kronecker_oracle_flipped_theta_mismatch_count():
    # flipped stability parameter flags everything unstable: the oracle
    # (stable away from the origin) then disagrees at all 80 nonzero points
    report = kronecker_oracle_check(1, theta=(-1, 1))
    assert report.trials_run == 81
    assert report.oracle_mismatches == 80
    assert report.failed()


def test_degenerate_detection_clean():
    cfg = TrialConfig(DagFamily(5, 3), trials=100, seed=13)
    report = detect_constructed_degenerates(cfg)
    assert report.trials_run == 100
    assert report.oracle_mismatches == 0


def test_degenerate_draw_stream_is_pinned(monkeypatch):
    """Each degenerate trial draws U, V and the child column, row by row,
    from CounterRng(seed, 2, i); the verdicts alone cannot tell the order."""
    n, k, seed = 10, 3, 21
    cfg = TrialConfig(DagFamily(n, k), trials=5, seed=seed)
    flats = []
    original = DagFamily.instance_from_flat

    def capture(self, flat):
        flats.append(list(flat))
        return original(self, flat)

    monkeypatch.setattr(DagFamily, "instance_from_flat", capture)
    detect_constructed_degenerates(cfg)

    bound = cfg.entry_bound
    expected = []
    for i in range(cfg.trials):
        rng = CounterRng(seed, 2, i)
        u = [[rng.int_between(-bound, bound) for _ in range(k - 1)] for _ in range(n)]
        v = [[rng.int_between(-bound, bound) for _ in range(k)] for _ in range(k - 1)]
        child = [rng.int_between(-bound, bound) for _ in range(n)]
        flat = []
        for r in range(n):
            flat += [sum(u[r][s] * v[s][c] for s in range(k - 1)) for c in range(k)]
            flat.append(child[r])
        expected.append(flat)
    assert flats == expected


def test_degenerate_detection_preconditions():
    with pytest.raises(PreconditionError):
        detect_constructed_degenerates(TrialConfig(ControlFamily(2, 1), trials=1))
    with pytest.raises(PreconditionError):
        detect_constructed_degenerates(TrialConfig(DagFamily(5, 1), trials=1))
    with pytest.raises(PreconditionError):
        detect_constructed_degenerates(TrialConfig(DagFamily(2, 3), trials=1))


def test_trial_config_validation():
    with pytest.raises(DomainError):
        TrialConfig(ControlFamily(2, 1), trials=0)
    with pytest.raises(DomainError):
        TrialConfig(ControlFamily(2, 1), seed=-1)
    with pytest.raises(DomainError):
        TrialConfig(ControlFamily(2, 1), entry_bound=0)
    with pytest.raises(DomainError):
        TrialConfig(ControlFamily(2, 1), paths=-1)


def test_control_runs_are_refused_past_the_work_limit():
    # Work is point checks x n(n + m) integers per point, at most 2^24.
    TrialConfig(ControlFamily(3, 2), trials=MAX_TRIALS)
    TrialConfig(ControlFamily(3, 2), trials=10_000, paths=100, path_samples=256)
    TrialConfig(ControlFamily(100, 1), trials=1661)
    with pytest.raises(SizeLimitError, match="1662 point checks x 10100 integers"):
        TrialConfig(ControlFamily(100, 1), trials=1662)
    with pytest.raises(SizeLimitError, match="10241 point checks x 1680 integers"):
        TrialConfig(ControlFamily(40, 2), trials=1, paths=40, path_samples=256)


def test_dag_and_quiver_runs_are_refused_past_the_work_limit():
    # n(k + 1) integers per DAG point, two per arrow for a quiver.
    TrialConfig(DagFamily(10, 3), trials=419_430)
    with pytest.raises(SizeLimitError, match="419431 point checks x 40 integers"):
        TrialConfig(DagFamily(10, 3), trials=419_431)
    TrialConfig(DagFamily(16384, 3), trials=256)
    with pytest.raises(SizeLimitError, match="257 point checks x 65536 integers"):
        TrialConfig(DagFamily(16384, 3), trials=1, paths=1, path_samples=256)
    TrialConfig(kronecker_spec(), trials=MAX_TRIALS, paths=4, path_samples=256)
    cycle = QuiverSpec(20, tuple((i, (i + 1) % 20) for i in range(20)), (1,) * 20,
                       (19,) + (-1,) * 19)
    TrialConfig(cycle, trials=419_430)
    with pytest.raises(SizeLimitError, match="419431 point checks x 40 integers"):
        TrialConfig(cycle, trials=419_431)


def test_report_counter_validation():
    cfg = TrialConfig(ControlFamily(2, 1), trials=10)
    with pytest.raises(DomainError):
        HarnessReport(OP_GENERIC_POINTS, cfg, 5, unstable_hits=6)
    with pytest.raises(DomainError):
        HarnessReport(OP_GENERIC_POINTS, cfg, -1)


def test_failed_rules_by_op():
    cfg = TrialConfig(ControlFamily(2, 1), trials=10)
    generic_hit = HarnessReport(OP_GENERIC_POINTS, cfg, 10, unstable_hits=1)
    assert generic_hit.failed()
    path_ok = HarnessReport(OP_PATH_STABILITY, cfg, 10)
    assert not path_ok.failed()
    path_bad = HarnessReport(OP_PATH_STABILITY, cfg, 10, path_failures=2)
    assert path_bad.failed()


@given(st.integers(0, 2**32), st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_counter_rng_bounds_and_determinism(seed, index):
    rng = CounterRng(seed, 0, index)
    values = [rng.int_between(-9, 9) for _ in range(20)]
    assert all(-9 <= v <= 9 for v in values)
    again = CounterRng(seed, 0, index)
    assert [again.int_between(-9, 9) for _ in range(20)] == values


def test_counter_rng_refuses_an_empty_range_with_a_package_error():
    with pytest.raises(DomainError, match=r"empty range \[1, 0\]"):
        CounterRng(0).int_between(1, 0)


@given(st.integers(0, 2**20))
@settings(max_examples=40, deadline=None)
def test_instance_from_flat_round_trips_draws(seed):
    spec = ControlFamily(2, 2)
    cfg = TrialConfig(spec, trials=1, seed=seed)
    inst = draw_instance(cfg, 0)
    flat = [inst.a.at(i, j) for i in range(2) for j in range(2)]
    flat += [inst.b.at(i, j) for i in range(2) for j in range(2)]
    rebuilt = spec.instance_from_flat(flat)
    assert rebuilt == inst


THIN_3_CYCLE = QuiverSpec(3, ((0, 1), (1, 2), (2, 0)), (1, 1, 1), (1, 1, -2))
PATH_SPECS = (
    ControlFamily(2, 1),
    ControlFamily(3, 2),
    DagFamily(4, 2),
    DagFamily(10, 3),
    kronecker_spec(),
    THIN_3_CYCLE,
)


def pointwise_path_failures(cfg: TrialConfig) -> int:
    """Replays the path stream and checks every sample through its instance."""
    spec = cfg.family_spec
    big_n = cfg.path_samples

    def stable_endpoint(rng):
        while True:
            flat = spec.draw_flat(rng, cfg.entry_bound)
            if spec.instance_from_flat(flat).status().is_stable:
                return flat

    failures = 0
    for p in range(cfg.paths):
        rng = CounterRng(cfg.seed, 1, p)
        left = stable_endpoint(rng)
        right = stable_endpoint(rng)
        mid = spec.draw_flat(rng, cfg.entry_bound)
        for i in range(big_n):
            weights = (
                (big_n - i) * (big_n - 2 * i),
                4 * i * (big_n - i),
                i * (2 * i - big_n),
            )
            point = [
                sum(w * x for w, x in zip(weights, entry))
                for entry in zip(left, mid, right)
            ]
            failures += not spec.instance_from_flat(point).status().is_stable
    return failures


@given(
    st.sampled_from(PATH_SPECS),
    st.integers(0, 2**32),
    st.sampled_from([1, 1, 2, 9]),
    st.integers(1, 24),
)
@settings(max_examples=100, deadline=None)
def test_certified_paths_match_a_pointwise_replay(spec, seed, bound, samples):
    """Odd and even sample counts; bound 1 makes unstable midpoints common."""
    cfg = TrialConfig(
        spec, trials=1, seed=seed, entry_bound=bound, paths=3, path_samples=samples
    )
    report = sample_path_stability(cfg)
    assert not report.skipped
    assert report.path_failures == pointwise_path_failures(cfg)


@pytest.mark.parametrize("samples", [16, 17])
def test_rank_deficient_midpoint_is_the_one_suspect_counted(samples):
    # q(i/N) N^2 = (N - 2i)^2 L + 4i(N - i) M with L = I and M = diag(1, 0)
    # is diag(N^2, (N - 2i)^2): singular exactly at i = N/2 = N^2 M.
    spec = DagFamily(2, 2)
    ends, mid = [1, 0, 0, 0, 1, 0], [1, 0, 0, 0, 0, 0]
    expected = 1 if samples % 2 == 0 else 0
    assert count_path_failures(spec, ends, mid, ends, samples) == expected
    polys = [(samples**2 * a, 4 * samples * (b - a), 4 * (a - b))
             for a, b in zip(ends, mid)]
    if expected:
        assert samples // 2 in spec.path_suspects(polys, samples)
    kron = kronecker_spec()
    ends, mid = [1, 0, 0, 0], [0, 0, 0, 0]
    assert count_path_failures(kron, ends, mid, ends, samples) == expected


def test_vanishing_minor_gcd_falls_back_to_every_sample():
    samples = 12
    # B = 0 along the whole path: every Krylov minor is zero.
    control = ControlFamily(2, 1)
    a_block = [[1, 2, 3, 4], [0, 1, 1, 0], [5, 0, 2, 1]]
    left, mid, right = (a + [0, 0] for a in a_block)
    polys = [(1, 0, 0)] * 4 + [(0, 0, 0)] * 2
    assert list(control.path_suspects(polys, samples)) == list(range(samples))
    assert count_path_failures(control, left, mid, right, samples) == samples
    # Two zero rows kill the first four row minors of a DAG (10, 3) path,
    # yet every point has full rank: all samples are checked, none fail.
    dag = DagFamily(10, 3)
    unit_rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    rows = [[0, 0, 0, 0]] * 2 + unit_rows * 2 + [[2, 3, 5, 7]] * 2
    flat = [x for row in rows for x in row]
    polys = [(samples**2 * x, 0, 0) for x in flat]
    assert list(dag.path_suspects(polys, samples)) == list(range(samples))
    assert count_path_failures(dag, flat, flat, flat, samples) == 0
    # Thin-quiver paths are checked at every sample.
    kron = kronecker_spec()
    polys = [(1, 2, 3), (0, 0, 0)] * 2
    assert list(kron.path_suspects(polys, samples)) == list(range(samples))


def test_large_shapes_skip_the_certificate():
    """Past the crossover every sample goes to the pointwise check."""
    samples = 8
    control = ControlFamily(MAX_CERTIFIED_N + 1, 1)
    entries = control.n * (control.n + 1)
    assert control.path_suspects([(1, 2, 3)] * entries, samples) == range(samples)
    dag = DagFamily(MAX_CERTIFIED_K + 1, MAX_CERTIFIED_K + 1)
    entries = dag.n * (dag.k + 1)
    assert dag.path_suspects([(1, 2, 3)] * entries, samples) == range(samples)
    cfg = TrialConfig(control, trials=1, seed=4, paths=1, path_samples=samples)
    assert sample_path_stability(cfg).path_failures == pointwise_path_failures(cfg)


# The packed certificate against the F_p[x] one it replaced (poly_oracle):
# the same suspects on random paths, at each family's certified edge too.
# With an even sample count, sample N/2 is N^2 times the midpoint, so a
# midpoint with B = 0, or a zero parent column, plants a failure there.
CERTIFIED_SHAPES = [
    (ControlFamily(2, 1), 32, 40),
    (ControlFamily(3, 2), 32, 40),
    (ControlFamily(MAX_CERTIFIED_N, 1), 8, 4),
    (DagFamily(4, 2), 32, 40),
    (DagFamily(10, 3), 32, 40),
    (DagFamily(MAX_CERTIFIED_K + 2, MAX_CERTIFIED_K), 8, 3),
]


def planted(spec, flat):
    """The point with B, or the first parent column, set to zero."""
    if isinstance(spec, ControlFamily):
        return flat[: spec.n**2] + [0] * (spec.n * spec.m)
    return [0 if i % (spec.k + 1) == 0 else x for i, x in enumerate(flat)]


@pytest.mark.parametrize("spec, samples, examples", CERTIFIED_SHAPES, ids=str)
def test_packed_suspects_match_the_polynomial_oracle(spec, samples, examples):
    oracle = control_suspects if isinstance(spec, ControlFamily) else dag_suspects
    shape = (spec.n, spec.m if isinstance(spec, ControlFamily) else spec.k)

    @given(st.sampled_from([1, 9, 2**20]), st.booleans(), st.data())
    @settings(max_examples=examples, deadline=None)
    def check(bound, plant, data):
        entries = st.lists(
            st.integers(-bound, bound), min_size=spec.flat_size, max_size=spec.flat_size
        )
        left, mid, right = (data.draw(entries) for _ in range(3))
        if plant:
            mid = planted(spec, mid)
        polys = [
            (samples**2 * a, samples * (4 * b - 3 * a - c), 2 * (a - 2 * b + c))
            for a, b, c in zip(left, mid, right)
        ]
        suspects = list(spec.path_suspects(polys, samples))
        assert suspects == oracle(*shape, polys, samples)
        failures = [
            i for i in range(samples)
            if not spec.status_flat([c0 + (c1 + c2 * i) * i for c0, c1, c2 in polys])
            .is_stable
        ]
        assert set(failures) <= set(suspects)
        if plant:
            assert samples // 2 in failures

    check()


# Generic trials are drawn 64 at a time by `draw_generic_block`; trial i
# must still be `draw_instance(cfg, i)`.  Each shape below sends trials
# down the per-trial redraw: a hit rate of 1/3 at control (1, 1), the
# origin of the Kronecker quiver (1 in 81 draws at bound 1), dead arrows
# into a dimension-0 vertex, and at bound 2^62 a range whose words are
# rejected about half the time.
DEAD_ARROW_QUIVER = QuiverSpec(
    3, ((0, 1), (0, 2), (0, 1), (2, 1)), (1, 1, 0), (1, -1, 0)
)
BLOCK_SHAPES = [
    (ControlFamily(1, 1), 1),
    (kronecker_spec(), 1),
    (DEAD_ARROW_QUIVER, 1),
    (ControlFamily(3, 2), 2**62),
]


@pytest.mark.parametrize("spec, bound", BLOCK_SHAPES)
def test_block_sampling_is_the_per_trial_draw(spec, bound):
    for trials in (1, 63, 64, 65, 1000):
        cfg = TrialConfig(spec, trials=trials, seed=5, entry_bound=bound)
        hits = sum(
            not draw_instance(cfg, i).status().is_stable for i in range(trials)
        )
        report = sample_generic_points(cfg)
        assert not report.skipped and report.unstable_hits == hits, trials
    stream = CounterRng(5, 0)
    for first in (0, 64, 4000):
        assert spec.draw_generic_block(stream, first, 64, bound) == [
            spec.draw_generic(stream.split(i), bound) for i in range(first, first + 64)
        ]


def test_block_shapes_reach_every_redraw():
    stream = CounterRng(5, 0)
    kron = [stream.split(i).ints(-1, 1, 4) for i in range(1000)]
    assert any(not any(words) for words in kron)  # an origin to redraw
    assert DEAD_ARROW_QUIVER.draw_generic(stream, 1)[2:4] == [0, 0]
    assert None in stream.split_ints(0, 64, -(2**62), 2**62, 15)
    cfg = TrialConfig(ControlFamily(1, 1), trials=1000, seed=5, entry_bound=1)
    assert 250 < sample_generic_points(cfg).unstable_hits < 420


# A DAG generic trial is decided from its first k rows where the leading
# k x k parent block has rank k, and from its whole point otherwise
# (`DagFamily.count_generic_unstable`).  At bound 1 the leading block is
# singular in a third or more of the trials, and points that are not
# Stable occur (2 in these 1500 (10, 3) trials, at 844 and 1383);
# at bound 2^62 about half of all words are rejected, so almost every
# trial's first k rows hold one.  No trial count is a multiple of 64.
DAG_GENERIC = [
    (DagFamily(3, 3), 1, 200),
    (DagFamily(10, 3), 1, 1500),
    (DagFamily(5, 1), 1, 1000),
    (DagFamily(10, 3), 2**62, 70),
    (DagFamily(3, 3), 2**62, 70),
]


@pytest.mark.parametrize("spec, bound, trials", DAG_GENERIC, ids=str)
def test_dag_generic_counts_are_the_whole_point_verdicts(spec, bound, trials):
    cfg = TrialConfig(spec, trials=trials, seed=1, entry_bound=bound)
    hits = [
        not spec.status_flat(draw_instance(cfg, i).y.entries).is_stable
        for i in range(trials)
    ]
    stream = CounterRng(1, 0)  # seed 1's generic-points stream
    assert [
        spec.count_generic_unstable(stream, i, 1, bound) for i in range(trials)
    ] == hits
    assert sample_generic_points(cfg).unstable_hits == sum(hits)
    if bound == 1:
        assert sum(hits) >= 2


def test_dag_generic_counts_without_a_k_x_k_block():
    # With n < k no point is Stable, though the first k(k + 1) - 1 words
    # would fill a k x k block past the point's end.
    assert DagFamily(2, 3).count_generic_unstable(CounterRng(1, 0), 0, 70, 9) == 70
