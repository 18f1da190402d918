"""Seeded randomized and exhaustive consistency checks.

The harness ties the point checkers, the stratum tables, and the
connectivity claims together at desk scale: random integer points should
be stable when the family has a stable point (unstable loci then have
positive codimension), random quadratic paths between stable points
should stay stable when d_min >= 2, the Kronecker checker is compared
against its known unstable locus on an exhaustive grid, and constructed
rank-deficient DAG samples must be caught and then repaired by
stabilization.  The first two tests are skipped, not failed, where their
premise does not hold.

Every draw comes from a counter-based stream keyed by (seed, op, trial),
so a report is a pure function of its TrialConfig.  The trial loops are
family-agnostic: they work on each family's flat integer encoding
through its spec (`draw_flat`, `draw_generic`, `status_flat`,
`path_suspects`).  `status_flat` is the verdict `check` prints for the
same point; an instance is built only to reproduce a single trial or to
stabilize a constructed DAG sample.

A path is certified once rather than checked at every sample: each
entry of a path point is an integer quadratic in the sample index, so
the family's `path_suspects` builds its stability polynomials once
modulo p = 2^61 - 1 and returns the samples where they vanish mod p
(a family with no certificate, such as thin quivers, returns every
sample).  Only those samples get the exact pointwise check, so
`path_failures` is exactly what checking every sample would give.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from git_topo.connectivity import NO_INFORMATION, summarize_strata
from git_topo.errors import (
    DomainError,
    PreconditionError,
    SamplingError,
    SizeLimitError,
)
from git_topo.families import (
    DagFamily,
    FamilySpec,
    Verdict,
    dag_stabilize,
    kronecker_spec,
)
from git_topo.families.base import check_sampling_work
from git_topo.groups import OrbitConvention
from git_topo.rng import CounterRng

MAX_ENDPOINT_ATTEMPTS = 1000
# Most grid points, (2R + 1)^4, the Kronecker oracle accepts.  Each point
# costs about 3 us, so radius 15 (923521 points) ran in 2.6 s on a
# 2-CPU x86 machine, and radius 16 is the first one refused.
MAX_KRONECKER_GRID_POINTS = 2**20
# Most generic-point trials, path points (paths x path_samples) and
# constructed degenerate trials one run accepts, each at most about a
# minute of work on the same machine: a generic trial costs 8-40 us at
# control (3, 2), DAG (10, 3) and Kronecker sizes, and a degenerate DAG
# (10, 3) trial, which stabilizes by fraction-free elimination,
# 0.4-0.5 ms.  A path point at those sizes costs 1.3-2.1 us on a
# certified control or DAG path of 256 samples, 13-15 us when every
# sample of such a path is a suspect, and about 2.3 us on a Kronecker
# path, which is always checked pointwise.  Control runs at larger n
# also meet base.MAX_TRIAL_WORK.
MAX_TRIALS = 2**20
MAX_PATH_POINTS = 2**20
MAX_DEGENERATE_TRIALS = 2**16

# Stream tags keep the per-op draws disjoint for a shared seed.
_OP_GENERIC = 0
_OP_PATHS = 1
_OP_DEGENERATE = 2

OP_GENERIC_POINTS = "generic_points"
OP_PATH_STABILITY = "path_stability"
OP_KRONECKER_ORACLE = "kronecker_oracle"
OP_CONSTRUCTED_DEGENERATES = "constructed_degenerates"


@dataclass(frozen=True)
class TrialConfig:
    """One harness run: a family plus sampling knobs.

    Identical configs produce identical reports (modulo elapsed time).
    """

    family_spec: FamilySpec
    trials: int = 1000
    seed: int = 0
    entry_bound: int = 9
    paths: int = 0
    path_samples: int = 256
    convention: OrbitConvention | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError("trials must be positive")
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.entry_bound < 1:
            raise DomainError("entry bound must be positive")
        if self.paths < 0:
            raise DomainError("path count cannot be negative")
        if self.path_samples < 1:
            raise DomainError("path sample count must be positive")
        if self.trials > MAX_TRIALS:
            raise SizeLimitError(
                f"{self.trials} trials refused: the limit is {MAX_TRIALS}"
            )
        points = max(self.paths, 1) * self.path_samples
        if points > MAX_PATH_POINTS:
            raise SizeLimitError(
                f"{points} path points (paths x path samples) refused: "
                f"the limit is {MAX_PATH_POINTS}"
            )
        # Generic trials plus path points, each one point check.
        check_sampling_work(
            self.family_spec.flat_size, self.trials + self.paths * self.path_samples
        )


@dataclass(frozen=True)
class HarnessReport:
    """Counters from one harness operation, plus the config that made them."""

    op: str
    config: TrialConfig | None
    trials_run: int
    unstable_hits: int = 0
    path_failures: int = 0
    oracle_mismatches: int = 0
    elapsed_ms: int = 0
    notes: tuple[str, ...] = ()
    skipped: bool = False

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counters().values()):
            raise DomainError("harness counters cannot be negative")
        if self.unstable_hits > self.trials_run:
            raise DomainError("unstable_hits cannot exceed trials_run")

    def counters(self) -> dict[str, int]:
        return {
            "trials_run": self.trials_run,
            "unstable_hits": self.unstable_hits,
            "path_failures": self.path_failures,
            "oracle_mismatches": self.oracle_mismatches,
        }

    def failed(self) -> bool:
        """True when this report should fail a verify run: any nonzero counter."""
        return bool(self.unstable_hits or self.path_failures or self.oracle_mismatches)


def _elapsed_ms(start: float) -> int:
    return int((time.monotonic() - start) * 1000)


def _skipped(op: str, cfg: TrialConfig, start: float, note: str) -> HarnessReport:
    """The report of an operation whose premise does not hold for cfg."""
    return HarnessReport(
        op,
        cfg,
        trials_run=0,
        elapsed_ms=_elapsed_ms(start),
        notes=(f"skipped: {note}",),
        skipped=True,
    )


def draw_instance(cfg: TrialConfig, index: int):
    """The exact instance generic-point trial `index` examines."""
    rng = CounterRng(cfg.seed, _OP_GENERIC, index)
    spec = cfg.family_spec
    return spec.instance_from_flat(spec.draw_generic(rng, cfg.entry_bound))


def sample_generic_points(cfg: TrialConfig) -> HarnessReport:
    """Draw random integer instances and count non-Stable verdicts."""
    start = time.monotonic()
    spec = cfg.family_spec
    if not spec.has_stable_points():
        note = f"no {spec.name} point is stable"
        return _skipped(OP_GENERIC_POINTS, cfg, start, note)
    unstable = 0
    stream = CounterRng(cfg.seed, _OP_GENERIC)
    for i in range(cfg.trials):
        flat = spec.draw_generic(stream.split(i), cfg.entry_bound)
        if not spec.status_flat(flat).is_stable:
            unstable += 1
    return HarnessReport(
        op=OP_GENERIC_POINTS,
        config=cfg,
        trials_run=cfg.trials,
        unstable_hits=unstable,
        elapsed_ms=_elapsed_ms(start),
    )


def _draw_stable(cfg: TrialConfig, rng: CounterRng) -> list[int]:
    spec = cfg.family_spec
    for _ in range(MAX_ENDPOINT_ATTEMPTS):
        flat = spec.draw_flat(rng, cfg.entry_bound)
        if spec.status_flat(flat).is_stable:
            return flat
    raise SamplingError(
        f"no Stable endpoint found in {MAX_ENDPOINT_ATTEMPTS} attempts for "
        f"{spec.name}; the family looks degenerate"
    )


def count_path_failures(
    spec: FamilySpec,
    left: Sequence[int],
    mid: Sequence[int],
    right: Sequence[int],
    n_samples: int,
) -> int:
    """Non-Stable samples N^2 q(i/N), i < N, of the quadratic path q.

    q runs from left (t = 0) through mid (t = 1/2) to right (t = 1).
    Only the samples the family's certificate cannot clear are checked.
    """
    polys = [
        (n_samples**2 * a, n_samples * (4 * b - 3 * a - c), 2 * (a - 2 * b + c))
        for a, b, c in zip(left, mid, right)
    ]
    failures = 0
    for i in spec.path_suspects(polys, n_samples):
        point = [c0 + (c1 + c2 * i) * i for c0, c1, c2 in polys]
        if not spec.status_flat(point).is_stable:
            failures += 1
    return failures


def sample_path_stability(cfg: TrialConfig) -> HarnessReport:
    """Quadratic paths between stable endpoints, certified once per path.

    Each path interpolates two rejection-sampled Stable endpoints through
    one unconditioned random midpoint and is evaluated at the rational
    parameters t = i/path_samples, i = 0..path_samples-1.  The evaluation
    uses the integer rescaling N^2 q(i/N) (N = path_samples); all three
    families' verdicts are invariant under nonzero scaling, so every
    check stays in integer arithmetic.  Skipped (not failed) when
    `summarize_strata` gives no connectivity bound for the family under
    the active convention (d_min < 2), since the claim being tested
    needs it.

    With left, mid and right entries a, b, c, each entry of sample i is
    e(i) = N^2 a + N(4b - 3a - c) i + 2(a - 2b + c) i^2.  The family's
    `path_suspects` turns these polynomials into a certificate modulo
    p = 2^61 - 1 (control and DAG: a gcd of maximal minors) and returns
    the samples where it vanishes mod p; thin quivers and shapes past a
    family's crossover return every sample.  It is sound: reducing mod p
    commutes with evaluating at i, and an integer that is nonzero mod p
    is nonzero.  So where the minor gcd is nonzero some minor is nonzero
    over Z and the matrix has full rank.  Only the suspects get the exact
    `status_flat` check, so path_failures counts exactly the samples a
    pointwise check of all of them would.
    """
    start = time.monotonic()
    spec = cfg.family_spec
    report = summarize_strata(spec, cfg.convention)
    if report.connectivity == NO_INFORMATION:
        convention = report.convention.value
        note = f"d_min = {report.d_min} < 2 under the {convention} convention"
        return _skipped(OP_PATH_STABILITY, cfg, start, note)
    n_samples = cfg.path_samples
    failures = 0
    for p in range(cfg.paths):
        rng = CounterRng(cfg.seed, _OP_PATHS, p)
        left = _draw_stable(cfg, rng)
        right = _draw_stable(cfg, rng)
        mid = spec.draw_flat(rng, cfg.entry_bound)
        failures += count_path_failures(spec, left, mid, right, n_samples)
    return HarnessReport(
        op=OP_PATH_STABILITY,
        config=cfg,
        trials_run=cfg.paths,
        path_failures=failures,
        elapsed_ms=_elapsed_ms(start),
        notes=(
            "finite sampling of quadratic paths: evidence, not proof",
        ),
    )


def kronecker_oracle_check(
    grid_radius: int, theta: tuple[int, int] = (1, -1)
) -> HarnessReport:
    """Exhaustive Kronecker grid against the known unstable locus.

    The reference truth is fixed: Unstable exactly at the origin, Stable
    everywhere else.  Feeding a different theta (the flipped (-1, 1) is
    the documented self-test) exercises the mismatch counting.
    """
    if grid_radius < 0:
        raise DomainError("grid radius must be a natural number")
    points = (2 * grid_radius + 1) ** 4
    if points > MAX_KRONECKER_GRID_POINTS:
        raise SizeLimitError(
            f"Kronecker grid refused: radius {grid_radius} gives {points} points, "
            f"over the limit of {MAX_KRONECKER_GRID_POINTS}"
        )
    start = time.monotonic()
    spec = kronecker_spec(theta)
    axis = range(-grid_radius, grid_radius + 1)
    mismatches = 0
    for point in itertools.product(axis, repeat=4):
        expected = Verdict.STABLE if any(point) else Verdict.UNSTABLE
        mismatches += spec.status_flat(point).verdict is not expected
    return HarnessReport(
        op=OP_KRONECKER_ORACLE,
        config=None,
        trials_run=points,
        oracle_mismatches=mismatches,
        elapsed_ms=_elapsed_ms(start),
        notes=(
            f"exhaustive grid, radius {grid_radius}, theta = {theta}",
        ),
    )


def check_degenerate_config(cfg: TrialConfig) -> None:
    """Raise unless detect_constructed_degenerates can run cfg."""
    spec = cfg.family_spec
    if not isinstance(spec, DagFamily):
        raise PreconditionError("constructed degenerates apply to the dag family only")
    if spec.k < 2:
        raise PreconditionError(
            "rank-(k-1) construction needs k >= 2 parent columns"
        )
    if spec.n < spec.k:
        raise PreconditionError("need n >= k so that stabilization can succeed")
    if cfg.trials > MAX_DEGENERATE_TRIALS:
        raise SizeLimitError(
            f"{cfg.trials} degenerate trials refused: "
            f"the limit is {MAX_DEGENERATE_TRIALS}"
        )


def detect_constructed_degenerates(cfg: TrialConfig) -> HarnessReport:
    """Rank-deficient DAG samples must be flagged, then repaired.

    Builds X = U V with inner dimension k-1 (so rank X < k), checks the
    status call flags every sample NotStable, stabilizes with eps =
    1/1000, and checks the outputs are Stable.  Violations of either
    assertion count as oracle mismatches.
    """
    check_degenerate_config(cfg)
    spec = cfg.family_spec
    start = time.monotonic()
    n, k = spec.n, spec.k
    eps = Fraction(1, 1000)
    mismatches = 0
    for i in range(cfg.trials):
        # U (n x (k-1)), V ((k-1) x k) and the child column, row by row.
        v_start = n * (k - 1)
        draws = CounterRng(cfg.seed, _OP_DEGENERATE, i).ints(
            -cfg.entry_bound, cfg.entry_bound, v_start + (k - 1) * k + n
        )
        u = [draws[r * (k - 1) : (r + 1) * (k - 1)] for r in range(n)]
        v = [draws[v_start + s * k : v_start + (s + 1) * k] for s in range(k - 1)]
        child = draws[v_start + (k - 1) * k :]
        flat: list[int] = []
        for r in range(n):
            flat += [sum(u[r][s] * v[s][c] for s in range(k - 1)) for c in range(k)]
            flat.append(child[r])
        inst = spec.instance_from_flat(flat)
        if inst.status().is_stable:
            mismatches += 1
            continue
        if not dag_stabilize(inst, eps).status().is_stable:
            mismatches += 1
    return HarnessReport(
        op=OP_CONSTRUCTED_DEGENERATES,
        config=cfg,
        trials_run=cfg.trials,
        oracle_mismatches=mismatches,
        elapsed_ms=_elapsed_ms(start),
        notes=("X = U V with inner dimension k-1; eps = 1/1000",),
    )
