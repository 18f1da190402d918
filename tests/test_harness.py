from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from git_topo.errors import DomainError, PreconditionError
from git_topo.families.control import ControlFamily
from git_topo.families.dag import DagFamily
from git_topo.families.quiver import QuiverSpec, kronecker_spec
from git_topo.groups import OrbitConvention
from git_topo.harness import (
    OP_GENERIC_POINTS,
    OP_PATH_STABILITY,
    HarnessReport,
    TrialConfig,
    detect_constructed_degenerates,
    draw_instance,
    kronecker_oracle_check,
    sample_generic_points,
    sample_path_stability,
)
from git_topo.rng import CounterRng


def strip_time(report: HarnessReport) -> HarnessReport:
    return replace(report, elapsed_ms=0)


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


def test_generic_sampling_dag_wide_note():
    cfg = TrialConfig(DagFamily(1, 2), trials=10, seed=0)
    report = sample_generic_points(cfg)
    assert report.unstable_hits == 10
    assert any("can never reach" in note for note in report.notes)
    assert report.failed(expect_degenerate=False)
    assert not report.failed(expect_degenerate=True)


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
