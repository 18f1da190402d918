"""Acceptance gate: the eleven headline checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the
captured output of a failing test) and then asserts.  Tolerances are
exact integer equality unless a runtime bound is given.

Criterion 6 samples the control family at (3, 2) and checks each
unstable hit rather than demanding none.  The uncontrollable locus has
complex codimension 2, so uniform draws at bound 9 land on it at a
measured rate of 7.06e-5 per trial: about 0.7 hits per 10^4 draws and
about 8 over the gate's 110 000.  Zero hits would happen with
probability about 4e-4, so a zero assertion fails on correct code.  The
gate instead certifies every draw with an integer-only Krylov check
(tests/krylov_oracle.py, independent of the package's rank code),
requires the CLI's count to equal the certified count seed by seed,
bounds the total by a Poisson tail of 1e-6 at the measured rate, and
pins the certified hit indices, which also notices a changed trial
stream.
"""

import json
import math
import time

from git_topo.cli import main as cli_main
from git_topo.connectivity import NO_INFORMATION, summarize_strata
from git_topo.families.control import (
    ControlFamily,
    ControlInstance,
    control_status,
    invariant_subspace_dim,
)
from git_topo.families.control import enumerate_strata as control_strata
from git_topo.families.base import Verdict, negative_weight_dim
from git_topo.families.dag import DagFamily, dag_status
from git_topo.families.quiver import (
    QuiverSpec,
    ThinQuiverRep,
    kronecker_spec,
    one_ps_for_subdim,
    quiver_thin_status,
    sub_dimension_vectors,
)
from git_topo.groups import OrbitConvention, orbit_dim
from git_topo.harness import (
    TrialConfig,
    detect_constructed_degenerates,
    draw_instance,
    kronecker_oracle_check,
    sample_path_stability,
)
from git_topo.linalg import ComplexRational, Matrix
from git_topo.rng import CounterRng

from group_actions import (
    act_control,
    act_dag,
    act_quiver,
    random_signs,
    unimodular_from_stream,
)
from euler_oracle import euler_form
from krylov_oracle import KERNEL, certificate_holds, certify, krylov_matrix

SEEDS_TEN = tuple(range(10))


def report_line(number: int, ok: bool, detail: str) -> bool:
    marker = "PASS" if ok else "FAIL"
    print(f"{marker} criterion {number}: {detail}")
    return ok


def test_criterion_01_kronecker_reproduction(capsys, tmp_path):
    out_file = tmp_path / "kron.json"
    start = time.monotonic()
    code = cli_main(
        [
            "analyze",
            "quiver",
            "--arrows",
            "1->2,1->2",
            "--dim",
            "1,1",
            "--theta",
            "1,-1",
            "--json",
            str(out_file),
        ]
    )
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    strata = payload["strata"]
    ok = (
        code == 0
        and len(strata) == 1
        and strata[0]["descriptor"] == {"sub_dim": [1, 0]}
        and strata[0]["m"] == 2
        and strata[0]["orbit_dim"] == 0
        and strata[0]["value"] == 4
        and payload["d_min"] == 4
        and "π_q(V^st)=0 for q ≤ 2" in out
        and elapsed < 1.0
    )
    assert report_line(
        1, ok, f"Kronecker analyze: one stratum (2, 0, 4), d_min 4, {elapsed:.2f}s"
    )


def test_criterion_02_kronecker_oracle():
    start = time.monotonic()
    report = kronecker_oracle_check(2)
    spec = kronecker_spec()
    span = range(-2, 3)
    unstable_points = [
        (a_re, a_im, b_re, b_im)
        for a_re in span
        for a_im in span
        for b_re in span
        for b_im in span
        if quiver_thin_status(
            ThinQuiverRep(
                spec,
                (
                    ComplexRational.of(a_re, a_im),
                    ComplexRational.of(b_re, b_im),
                ),
            )
        ).verdict
        is Verdict.UNSTABLE
    ]
    elapsed = time.monotonic() - start
    ok = (
        report.trials_run == 625
        and report.oracle_mismatches == 0
        and unstable_points == [(0, 0, 0, 0)]
        and elapsed < 5.0
    )
    assert report_line(
        2,
        ok,
        f"grid radius 2: {report.trials_run} points, "
        f"{report.oracle_mismatches} mismatches, unstable only at the "
        f"origin ({len(unstable_points)} point), {elapsed:.2f}s",
    )


def test_criterion_03_control_strata_parabolic():
    strata = control_strata(ControlFamily(3, 2), OrbitConvention.PARABOLIC)
    table = {
        s.descriptor["invariant_subspace_dim"]: (s.m, s.orbit_dim, s.value)
        for s in strata
    }
    report = summarize_strata(ControlFamily(3, 2), OrbitConvention.PARABOLIC)
    ok = (
        table == {1: (6, 2, 8), 2: (4, 2, 4)}
        and report.d_min == 4
        and report.connectivity == 2
    )
    assert report_line(3, ok, f"control parabolic table {table}, d_min 4, connectivity 2")


def test_criterion_04_control_centralizer_gap():
    report = summarize_strata(
        ControlFamily(3, 2), OrbitConvention.CENTRALIZER
    )
    ok = report.d_min == 0 and report.connectivity == NO_INFORMATION
    assert report_line(
        4, ok, f"control centralizer: d_min {report.d_min}, {report.connectivity}"
    )


def test_criterion_05_dag_reproduction():
    report = summarize_strata(DagFamily(10, 3), max_q=5)
    homotopy = [group.descriptor() for _, group in report.homotopy]
    thresholds = dict(report.thresholds)
    ok = (
        report.convention is OrbitConvention.CENTRALIZER
        and report.d_min == 12
        and report.connectivity == 10
        and thresholds
        == {"path_connected_from_n": 5, "simply_connected_from_n": 6}
        and homotopy == ["0", "0", "Z^2", "0", "Z", "0"]
    )
    assert report_line(
        5, ok, f"dag (10, 3): d_min 12, connectivity 10, homotopy {homotopy}"
    )


# Uniform integer draws at bound 9 land on the uncontrollable locus of
# control (3, 2) at a measured rate of 7.06e-5 +- 0.12e-5 per draw: 3532
# of 5 x 10^7 independent draws, classified by exact integer Krylov
# minors.  CounterRng draws agree (128 of 2 x 10^6 at seeds 1000-1003).
CONTROL_32_HIT_RATE = 7e-5

# Criterion 6's hits by seed.  Each index is pinned only because the
# integer oracle certifies it uncontrollable; the table is also what
# notices a change in the seeded trial stream.
CRITERION_06_HITS = {
    42: (4062, 4879),
    0: (8095, 8364),
    1: (4883,),
    2: (),
    3: (4137, 4536, 7416),
    4: (4428,),
    5: (),
    6: (8878,),
    7: (),
    8: (7600,),
    9: (6108, 8156),
}


def poisson_upper_bound(mean: float, tail: float) -> int:
    """The smallest k with P(X > k) < tail for X ~ Poisson(mean)."""
    k = 0
    term = math.exp(-mean)
    at_most_k = term
    while 1.0 - at_most_k >= tail:
        k += 1
        term *= mean / k
        at_most_k += term
    return k


def _integer_rows(matrix: Matrix) -> list[list[int]]:
    return [list(matrix.row(i)) for i in range(matrix.rows)]


def _oracle_hits(cfg: TrialConfig) -> tuple[list[int], list[int]]:
    """Trials the integer oracle certifies uncontrollable, and trials
    whose certificate fails its own check."""
    hits, broken = [], []
    for i in range(cfg.trials):
        inst = draw_instance(cfg, i)
        k = krylov_matrix(_integer_rows(inst.a), _integer_rows(inst.b))
        certificate = certify(k)
        if not certificate_holds(k, certificate):
            broken.append(i)
        elif certificate[0] == KERNEL:
            hits.append(i)
    return hits, broken


def test_criterion_06_monte_carlo_genericity(capsys, tmp_path):
    trials = 10_000
    seeds = (42,) + SEEDS_TEN
    cfgs = {
        seed: TrialConfig(ControlFamily(3, 2), trials=trials, seed=seed, entry_bound=9)
        for seed in seeds
    }
    cli_hits = {}
    oracle_hits = {}
    broken = {}
    slow = []
    for seed in seeds:
        out_file = tmp_path / f"verify_{seed}.json"
        start = time.monotonic()
        cli_main(
            [
                "verify",
                "control",
                "--n",
                "3",
                "--m",
                "2",
                "--trials",
                str(trials),
                "--bound",
                "9",
                "--seed",
                str(seed),
                "--json",
                str(out_file),
            ]
        )
        elapsed = time.monotonic() - start
        payload = json.loads(out_file.read_text())
        cli_hits[seed] = payload["reports"][0]["unstable_hits"]
        if elapsed >= 10.0:
            slow.append((seed, round(elapsed, 1)))
        oracle_hits[seed], broken_trials = _oracle_hits(cfgs[seed])
        if broken_trials:
            broken[seed] = broken_trials
    capsys.readouterr()

    problems = []
    if broken:
        problems.append(f"oracle certificates fail their own check at {broken}")
    for seed in seeds:
        if cli_hits[seed] == len(oracle_hits[seed]):
            continue
        # Name the trials where the package's per-instance verdict and the
        # oracle disagree; if there are none, the fault is in the sampling
        # path between draw and verdict.
        disagree = [
            i
            for i in range(trials)
            if control_status(draw_instance(cfgs[seed], i)).is_stable
            == (i in oracle_hits[seed])
        ]
        problems.append(
            f"oracle mismatch at seed {seed}: CLI {cli_hits[seed]} hits, "
            f"oracle {len(oracle_hits[seed])}, "
            + (
                f"control_status disagrees at trials {disagree}"
                if disagree
                else "control_status agrees on every trial"
            )
        )
    total = sum(cli_hits.values())
    bound = poisson_upper_bound(len(seeds) * trials * CONTROL_32_HIT_RATE, 1e-6)
    if total > bound:
        problems.append(f"{total} hits exceed the genericity bound {bound}")
    changed = {
        seed: tuple(oracle_hits[seed])
        for seed in seeds
        if tuple(oracle_hits[seed]) != CRITERION_06_HITS[seed]
    }
    if changed:
        problems.append(f"certified hit indices changed from the pinned table: {changed}")
    if slow:
        problems.append(f"slow seeds {slow}")
    certified = sum(len(h) for h in oracle_hits.values())
    assert report_line(
        6,
        not problems,
        "verify control, 10^4 trials, bound 9, seeds (42, 0..9): "
        f"unstable hits by seed {cli_hits}, {total} hits, {certified} "
        f"certified uncontrollable, bound {bound}"
        + "".join(f"; {p}" for p in problems),
    )


def test_criterion_07_path_suite():
    results = {}
    for family_spec, label in (
        (ControlFamily(3, 2), "control"),
        (DagFamily(10, 3), "dag"),
    ):
        failures = 0
        start = time.monotonic()
        for seed in SEEDS_TEN:
            report = sample_path_stability(
                TrialConfig(
                    family_spec,
                    trials=1,
                    seed=seed,
                    paths=100,
                    path_samples=256,
                )
            )
            assert not report.skipped
            failures += report.path_failures
        elapsed = time.monotonic() - start
        results[label] = (failures, elapsed)
    ok = all(f == 0 and t < 30.0 for f, t in results.values())
    assert report_line(
        7,
        ok,
        "100 paths x 256 samples, 10 seeds: "
        + ", ".join(
            f"{label} failures {f} ({t:.1f}s)"
            for label, (f, t) in results.items()
        ),
    )


def test_criterion_08_degenerate_detection():
    report = detect_constructed_degenerates(
        TrialConfig(DagFamily(10, 3), trials=1000, seed=0)
    )
    ok = report.trials_run == 1000 and report.oracle_mismatches == 0
    assert report_line(
        8,
        ok,
        f"10^3 rank-deficient constructions: {report.oracle_mismatches} "
        "flag or repair failures (eps = 1/1000)",
    )


def _seeded_quiver(index: int) -> QuiverSpec:
    rng = CounterRng(9, index)
    v = rng.int_between(2, 4)
    dims = tuple(rng.int_between(0, 3) for _ in range(v))
    if sum(dims) == 0:
        dims = (1,) + dims[1:]
    pair_counts = {}
    arrows = []
    for _ in range(rng.int_between(0, 6)):
        s = rng.int_between(0, v - 1)
        t = rng.int_between(0, v - 1)
        if pair_counts.get((s, t), 0) >= 3:
            continue
        pair_counts[(s, t)] = pair_counts.get((s, t), 0) + 1
        arrows.append((s, t))
    theta = [0] * v
    for _ in range(rng.int_between(1, 4)):
        i = rng.int_between(0, v - 1)
        j = rng.int_between(0, v - 1)
        c = rng.int_between(-3, 3)
        theta[i] += c * dims[j]
        theta[j] -= c * dims[i]
    return QuiverSpec(v, tuple(arrows), dims, tuple(theta))


def test_criterion_09_quiver_identity():
    violations = 0
    quivers = 0
    subdims = 0
    for index in range(50):
        spec = _seeded_quiver(index)
        quivers += 1
        group = spec.group()
        for sub in sub_dimension_vectors(spec):
            subdims += 1
            lam = one_ps_for_subdim(spec, sub)
            m = negative_weight_dim(spec, lam)
            orbit = orbit_dim(group, lam, OrbitConvention.PARABOLIC)
            rest = tuple(d - s for d, s in zip(spec.dim_vector, sub))
            if 2 * m - 2 * orbit != -2 * euler_form(spec, sub, rest):
                violations += 1
    ok = violations == 0 and quivers == 50
    assert report_line(
        9,
        ok,
        f"50 seeded quivers, {subdims} sub-dimension vectors: "
        f"{violations} identity violations",
    )


def test_criterion_10_equivariance():
    violations = 0

    control_cfg = TrialConfig(ControlFamily(3, 2), trials=1000, seed=10)
    for i in range(1000):
        inst = draw_instance(control_cfg, i)
        g, g_inv = unimodular_from_stream(CounterRng(10, 50, i), 3)
        if control_status(inst).verdict is not control_status(
            act_control(inst, g, g_inv)
        ).verdict:
            violations += 1

    dag_cfg = TrialConfig(DagFamily(5, 3), trials=1000, seed=10)
    for i in range(1000):
        inst = draw_instance(dag_cfg, i)
        rng = CounterRng(10, 51, i)
        h, _ = unimodular_from_stream(rng, 3)
        sign = 1 if rng.int_between(0, 1) else -1
        if dag_status(inst).verdict is not dag_status(act_dag(inst, h, sign)).verdict:
            violations += 1

    quiver_spec = QuiverSpec(
        3, ((0, 1), (0, 1), (1, 2)), (1, 1, 1), (2, -1, -1)
    )
    quiver_cfg = TrialConfig(quiver_spec, trials=1000, seed=10)
    for i in range(1000):
        rep = draw_instance(quiver_cfg, i)
        signs = random_signs(CounterRng(10, 52, i), 3)
        if (
            quiver_thin_status(rep).verdict
            is not quiver_thin_status(act_quiver(rep, signs)).verdict
        ):
            violations += 1

    ok = violations == 0
    assert report_line(
        10, ok, f"10^3 unimodular moves per family: {violations} verdict changes"
    )


def test_criterion_11_krylov_consistency():
    violations = 0
    for i in range(1000):
        rng = CounterRng(11, i)
        n = rng.int_between(1, 4)
        m = rng.int_between(1, 3)
        a = Matrix.from_rows(
            [[rng.int_between(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        b = Matrix.from_rows(
            [[rng.int_between(-9, 9) for _ in range(m)] for _ in range(n)]
        )
        inst = ControlInstance(n, m, a, b)
        if control_status(inst).evidence["rank"] != invariant_subspace_dim(inst):
            violations += 1
    ok = violations == 0
    assert report_line(
        11,
        ok,
        f"10^3 control instances (n <= 4): {violations} rank disagreements "
        "between the Krylov matrix and subspace saturation",
    )
