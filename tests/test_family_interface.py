"""A fourth family written against `FamilySpec` alone.

GL(1) scales C^n.  The stable points are exactly those off the origin,
and the only destabilizing class is the 1-PS of weight -1, with m = n and
orbit dimension 0, so d_min = 2n and V^st = C^n minus 0, a homotopy
sphere S^(2n-1), is (2n - 2)-connected.  The family below writes only
what is particular to it, deciding its verdict once in `status_flat`;
drawing, path suspects, flags, JSON and thresholds come from the base
class, and the harness runs it through `TrialConfig`.

Every family, the toy one included, states its representation V once, as
Hom blocks; the tests at the end check the blocks against the group and
dim V, and the weight count on them against `tests/weights_oracle.py`.
"""

import functools
from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from git_topo.connectivity import summarize_strata
from git_topo.errors import SizeLimitError
from git_topo.families import FAMILIES, ControlFamily, DagFamily, QuiverSpec
from git_topo.families.base import (
    FamilySpec,
    StabilityStatus,
    StratumClass,
    negative_weight_dim,
    strata_from_classes,
)
from git_topo.families.quiver import kronecker_spec
from git_topo.groups import TRIVIAL, GroupSpec, OnePSClass, OrbitConvention
from git_topo.harness import (
    TrialConfig,
    draw_instance,
    sample_generic_points,
    sample_path_stability,
)
from git_topo.rng import CounterRng

from weights_oracle import (
    control_representative,
    dag_representative,
    oracle_negative_weight_dim,
)


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


class ScalingFamily(FamilySpec):
    """C^n under GL(1) scaling; a point is n (re, im) integer pairs."""

    FIELDS = ("n",)
    name = "scaling"
    CLI_ARGS = (("n", int, "dimension"),)
    DEFAULT_CONVENTION = OrbitConvention.PARABOLIC

    @property
    def flat_size(self) -> int:
        return 2 * self.n

    def group(self) -> GroupSpec:
        return GroupSpec((1,))

    @property
    def representation(self) -> tuple[tuple[int, int, int], ...]:
        return ((TRIVIAL, 0, self.n),)

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
    (stratum,) = ScalingFamily(n).strata(convention)
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


class PositiveScaling(ScalingFamily):
    """Overrides draw_flat alone, so its block draw is trial by trial."""

    def draw_flat(self, rng, bound):
        return [rng.int_between(1, bound) for _ in range(self.flat_size)]


# One sampling shape per family, the toy ones included, at a bound where
# hits and redraws are common.
SAMPLED = (
    ControlFamily(2, 1),
    DagFamily(3, 2),
    kronecker_spec(),
    ScalingFamily(1),
    PositiveScaling(1),
)


@pytest.mark.parametrize("spec", SAMPLED, ids=lambda spec: type(spec).__name__)
def test_block_draws_are_the_per_trial_draws_of_every_family(spec):
    assert {shape.name for shape in SAMPLED} == set(FAMILIES) | {"scaling"}
    cfg = TrialConfig(spec, trials=150, seed=4, entry_bound=1)
    stream = CounterRng(4, 0)
    assert spec.draw_generic_block(stream, 0, 150, 1) == [
        spec.draw_generic(stream.split(i), 1) for i in range(150)
    ]
    hits = sum(not draw_instance(cfg, i).status().is_stable for i in range(150))
    assert sample_generic_points(cfg).unstable_hits == hits


def test_trial_config_refuses_an_oversized_toy_point():
    TrialConfig(ScalingFamily(2**15), trials=1)
    with pytest.raises(SizeLimitError, match="a point of 65538 integers refused"):
        TrialConfig(ScalingFamily(2**15 + 1), trials=1)
    with pytest.raises(SizeLimitError, match="257 point checks x 65536 integers"):
        TrialConfig(ScalingFamily(2**15), trials=257)


# dim_C V from the shape of a point: n(n + m), n(k + 1), sum of d_s d_t.
DIM_V = {
    "control": lambda spec: spec.n * (spec.n + spec.m),
    "dag": lambda spec: spec.n * (spec.k + 1),
    "quiver": lambda spec: sum(
        spec.dim_vector[s] * spec.dim_vector[t] for s, t in spec.arrows
    ),
    "scaling": lambda spec: spec.n,
}

# A quiver with a loop, parallel arrows and arrows into a dimension-0 vertex.
MIXED_QUIVER = QuiverSpec(
    4,
    ((0, 1), (1, 1), (1, 2), (2, 0), (0, 1), (3, 0), (0, 3)),
    (2, 3, 1, 0),
    (3, -2, 0, 0),
)

SHAPES = (
    ControlFamily(1, 1),
    ControlFamily(3, 2),
    ControlFamily(5, 4),
    DagFamily(1, 1),
    DagFamily(10, 3),
    DagFamily(2, 5),
    kronecker_spec(),
    MIXED_QUIVER,
    QuiverSpec(2, ((0, 1),), (0, 0), (0, 0)),
    ScalingFamily(1),
    ScalingFamily(4),
)


def test_every_family_has_conformance_shapes():
    assert {spec.name for spec in SHAPES} == set(FAMILIES) | {"scaling"}
    assert set(DIM_V) == set(FAMILIES) | {"scaling"}


@pytest.mark.parametrize("spec", SHAPES, ids=repr)
def test_representation_blocks_index_the_group_and_sum_to_dim_v(spec):
    group = spec.group()
    factor_dims = group.gl_ranks + (1,) * group.torus_rank

    def dim(end) -> int:
        if end == TRIVIAL:
            return 1
        assert type(end) is int and 0 <= end < len(factor_dims)
        return factor_dims[end]

    blocks = spec.representation
    assert all(type(mult) is int and mult >= 1 for _, _, mult in blocks)
    assert sum(mult * dim(s) * dim(t) for s, t, mult in blocks) == DIM_V[spec.name](spec)


@pytest.mark.parametrize("spec", [s for s in SHAPES if s.name in FAMILIES], ids=repr)
def test_each_family_builds_its_group_once(spec):
    # negative_weight_dim asks for the group once per stratum.
    assert spec.group() is spec.group()


@pytest.mark.parametrize("family", [ControlFamily, DagFamily])
def test_control_and_dag_specs_hold_everything_once_built(family):
    # Their group is built in check_shape, so no cached_property adds a
    # key to a spec's __dict__ after construction, which would send every
    # later field read through a dict lookup.
    assert not any(
        isinstance(member, functools.cached_property)
        for cls in family.__mro__
        for member in vars(cls).values()
    )
    spec = family(3, 2)
    keys = list(vars(spec))
    spec.strata(spec.DEFAULT_CONVENTION)
    spec.status_flat([1] * spec.flat_size)
    spec.group()
    assert list(vars(spec)) == keys


one_ps_weight = st.integers(-2, 2)


@st.composite
def quivers(draw) -> QuiverSpec:
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    vertex = st.integers(0, len(dims) - 1)
    arrows = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=5)))
    return QuiverSpec(len(dims), arrows, dims, (0,) * len(dims))


FAMILY_SHAPES = {
    "control": st.builds(ControlFamily, st.integers(1, 5), st.integers(1, 3)),
    "dag": st.builds(DagFamily, st.integers(1, 5), st.integers(1, 4)),
    "quiver": quivers(),
}


@st.composite
def specs_with_one_ps(draw):
    """A family shape and any integer 1-PS of its group: weights repeat, and
    a DAG's torus weight is drawn too."""
    spec = draw(st.sampled_from(sorted(FAMILIES)).flatmap(FAMILY_SHAPES.__getitem__))
    group = spec.group()

    def drawn(count: int) -> tuple[int, ...]:
        return tuple(draw(st.lists(one_ps_weight, min_size=count, max_size=count)))

    lam = OnePSClass(tuple(map(drawn, group.gl_ranks)), drawn(group.torus_rank))
    return spec, lam


@given(specs_with_one_ps())
@settings(max_examples=300, deadline=None)
def test_negative_weight_dim_matches_the_weights_oracle(case):
    spec, lam = case
    assert negative_weight_dim(spec, lam) == oracle_negative_weight_dim(spec, lam)


CLOSED_FORM_SHAPES = {
    "control": (
        [ControlFamily(n, m) for n in range(1, 9) for m in range(1, 4)],
        "invariant_subspace_dim",
        control_representative,
    ),
    "dag": (
        [DagFamily(n, k) for n in range(1, 13) for k in range(1, 7)],
        "redundant_columns",
        dag_representative,
    ),
}


@pytest.mark.parametrize("convention", list(OrbitConvention))
@pytest.mark.parametrize("family", sorted(CLOSED_FORM_SHAPES))
def test_stratum_rows_match_the_closed_form_representatives(family, convention):
    # Each row's representative is the oracle's, built by the checking
    # constructor, and its m is the oracle's weight count.
    shapes, key, representative = CLOSED_FORM_SHAPES[family]
    for spec in shapes:
        for row in spec.strata(convention):
            lam = representative(spec, row.descriptor[key])
            assert row.representative == lam
            assert row.m == oracle_negative_weight_dim(spec, lam)
