"""A fourth family written against `FamilySpec` alone.

GL(1) scales C^n.  The stable points are exactly those off the origin,
and the only destabilizing class is the 1-PS of weight -1, with m = n and
orbit dimension 0, so d_min = 2n and V^st = C^n minus 0, a homotopy
sphere S^(2n-1), is (2n - 2)-connected.  The family below writes only
what is particular to it, deciding its verdict once in `status_flat`;
drawing, path suspects, flags, JSON and thresholds come from the base
class, and the harness runs it through `TrialConfig`.
"""

from dataclasses import dataclass
from typing import Sequence

import pytest

from git_topo.connectivity import summarize_strata
from git_topo.errors import SizeLimitError
from git_topo.families.base import (
    FamilySpec,
    StabilityStatus,
    StratumClass,
    strata_from_classes,
)
from git_topo.groups import GroupSpec, OnePSClass, OrbitConvention
from git_topo.harness import (
    TrialConfig,
    draw_instance,
    sample_generic_points,
    sample_path_stability,
)
from git_topo.rng import CounterRng


@dataclass(frozen=True)
class ScalingPoint:
    spec: "ScalingFamily"
    flat: tuple[int, ...]

    def family(self) -> "ScalingFamily":
        return self.spec

    def status(self) -> StabilityStatus:
        return self.spec.status_flat(self.flat)

    def to_json(self) -> dict:
        return {**self.spec.to_json(), "values": list(self.flat)}


@dataclass(frozen=True)
class ScalingFamily(FamilySpec):
    """C^n under GL(1) scaling; a point is n (re, im) integer pairs."""

    n: int

    name = "scaling"
    CLI_ARGS = (("n", int, "dimension"),)
    DEFAULT_CONVENTION = OrbitConvention.PARABOLIC

    @property
    def flat_size(self) -> int:
        return 2 * self.n

    def group(self) -> GroupSpec:
        return GroupSpec((1,))

    def weights(self, lam: OnePSClass):
        ((w,),) = lam.gl_weights
        yield w, self.n

    def strata(self, convention: OrbitConvention) -> list[StratumClass]:
        return strata_from_classes(
            self, convention, [({"scaling": -1}, OnePSClass(((-1,),), ()))]
        )

    def has_stable_points(self) -> bool:
        return True

    def instance_from_flat(self, flat: Sequence[int]) -> ScalingPoint:
        return ScalingPoint(self, tuple(flat))

    def status_flat(self, flat: Sequence[int]) -> StabilityStatus:
        if any(flat):
            return StabilityStatus.stable()
        return StabilityStatus.unstable("the origin")

    @staticmethod
    def instance_from_json(data: dict) -> ScalingPoint:
        return ScalingPoint(ScalingFamily(data["n"]), tuple(data["values"]))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("convention", list(OrbitConvention))
def test_toy_family_connectivity_is_that_of_a_sphere(n, convention):
    report = summarize_strata(ScalingFamily(n), convention)
    (stratum,) = report.strata
    assert (stratum.m, stratum.orbit_dim) == (n, 0)
    assert report.d_min == 2 * n
    assert report.connectivity == 2 * n - 2
    assert report.thresholds == ()


def test_toy_family_inherits_flags_json_and_draws():
    class Args:
        n = 3

    spec = ScalingFamily.from_args(Args)
    assert spec == ScalingFamily(3)
    assert spec.to_json() == {"family": "scaling", "n": 3}
    flat = spec.draw_generic(CounterRng(7), 2)
    assert flat == spec.draw_flat(CounterRng(7), 2)
    assert len(flat) == 6 and all(-2 <= x <= 2 for x in flat)
    point = spec.instance_from_flat(flat)
    assert ScalingFamily.instance_from_json(point.to_json()) == point


def test_toy_family_generic_sampling_counts_the_origin():
    # At n = 1 and bound 1 a draw is the origin with probability 1/9.
    cfg = TrialConfig(ScalingFamily(1), trials=300, seed=3, entry_bound=1)
    report = sample_generic_points(cfg)
    origins = sum(not any(draw_instance(cfg, i).flat) for i in range(cfg.trials))
    assert report.trials_run == 300 and not report.skipped
    assert report.unstable_hits == origins > 0


def test_toy_family_paths_run_when_d_min_allows():
    cfg = TrialConfig(ScalingFamily(2), trials=1, paths=5, path_samples=32)
    report = sample_path_stability(cfg)
    assert report.trials_run == 5 and not report.skipped
    assert report.path_failures == 0


def test_draw_generic_follows_an_overridden_draw_flat():
    class Positive(ScalingFamily):
        def draw_flat(self, rng, bound):
            return [rng.int_between(1, bound) for _ in range(self.flat_size)]

    cfg = TrialConfig(Positive(2), trials=50, entry_bound=3)
    assert all(min(draw_instance(cfg, i).flat) >= 1 for i in range(50))
    assert sample_generic_points(cfg).unstable_hits == 0


def test_trial_config_refuses_an_oversized_toy_point():
    TrialConfig(ScalingFamily(2**15), trials=1)
    with pytest.raises(SizeLimitError, match="a point of 65538 integers refused"):
        TrialConfig(ScalingFamily(2**15 + 1), trials=1)
    with pytest.raises(SizeLimitError, match="257 point checks x 65536 integers"):
        TrialConfig(ScalingFamily(2**15), trials=257)
