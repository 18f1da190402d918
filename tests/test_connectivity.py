import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from git_topo.connectivity import (
    CONTRACTIBLE,
    NO_INFORMATION,
    AbelianGroup,
    quotient_homotopy_group,
    summarize_strata,
    unitary_group_pi,
)
from git_topo.errors import DomainError
from git_topo.families.control import ControlFamily
from git_topo.families.control import enumerate_strata as control_strata
from git_topo.families.dag import DagFamily
from git_topo.families.quiver import QuiverSpec
from git_topo.groups import GroupSpec, OrbitConvention


def dimension_inequality(sphere_dim, stratum):
    """Strict codimension test: sphere_dim + 1 + 2*orbit_dim < 2*m.

    A sphere of that dimension generically misses the stratum, the
    oracle the connectivity bound d - 2 is checked against.
    """
    assert sphere_dim >= 0
    return sphere_dim + 1 + 2 * stratum.orbit_dim < 2 * stratum.m


def test_abelian_group_descriptors():
    assert AbelianGroup.zero().descriptor() == "0"
    assert AbelianGroup.free(1).descriptor() == "Z"
    assert AbelianGroup.free(2).descriptor() == "Z^2"
    assert AbelianGroup.unknown().descriptor() == "unknown"


@given(st.one_of(st.none(), st.integers(0, 20)))
def test_abelian_group_parse_round_trip(rank):
    # The descriptor is the only form a group takes in a payload, so it must
    # name the rank exactly: distinct groups never share a string.
    g = AbelianGroup(rank)
    expected = {None: "unknown", 0: "0", 1: "Z"}.get(rank, f"Z^{rank}")
    assert g.descriptor() == expected


def test_direct_sum_rules():
    z2 = AbelianGroup.free(2)
    assert AbelianGroup.free(1).direct_sum(AbelianGroup.free(1)) == z2
    assert z2.direct_sum(AbelianGroup.zero()) == z2
    assert z2.direct_sum(AbelianGroup.unknown()).is_unknown


def test_unitary_pi_stable_range():
    assert unitary_group_pi(0, 1) == AbelianGroup.zero()
    assert unitary_group_pi(1, 1) == AbelianGroup.free(1)
    assert unitary_group_pi(2, 1).is_unknown  # beyond 2k-1 = 1
    assert unitary_group_pi(3, 2) == AbelianGroup.free(1)
    assert unitary_group_pi(4, 2).is_unknown
    assert unitary_group_pi(5, 3) == AbelianGroup.free(1)
    assert unitary_group_pi(4, 3) == AbelianGroup.zero()
    with pytest.raises(DomainError):
        unitary_group_pi(-1, 2)
    with pytest.raises(DomainError):
        unitary_group_pi(1, 0)


@given(st.integers(1, 8))
def test_unitary_pi_top_of_stable_range_is_z(k):
    assert unitary_group_pi(2 * k - 1, k) == AbelianGroup.free(1)
    assert unitary_group_pi(2 * k, k).is_unknown


def test_dimension_inequality_matches_connectivity():
    strata = control_strata(ControlFamily(3, 2), OrbitConvention.PARABOLIC)
    tight = min(strata, key=lambda s: s.value)
    # connectivity 2 means spheres up to dim 2 avoid every stratum
    for q in range(3):
        assert dimension_inequality(q, tight)
    assert not dimension_inequality(3, tight)


def test_quotient_homotopy_headline_table():
    group = GroupSpec((3,), torus_rank=1)
    table = [quotient_homotopy_group(group, 12, q).descriptor() for q in range(6)]
    assert table == ["0", "0", "Z^2", "0", "Z", "0"]


def test_quotient_homotopy_window():
    group = GroupSpec((3,), torus_rank=1)
    assert quotient_homotopy_group(group, 12, 11).is_unknown
    assert quotient_homotopy_group(group, 12, 10).is_unknown  # pi_9(U(3)) unknown
    assert quotient_homotopy_group(group, 2, 0) == AbelianGroup.zero()
    assert quotient_homotopy_group(group, 2, 1).is_unknown
    # no destabilizing classes: no window bound at all
    assert quotient_homotopy_group(group, None, 2) == AbelianGroup.free(2)
    assert quotient_homotopy_group(group, None, 40).is_unknown


def test_quotient_homotopy_of_torus_only_group():
    torus = GroupSpec((), torus_rank=2)
    assert quotient_homotopy_group(torus, None, 2) == AbelianGroup.free(2)
    assert quotient_homotopy_group(torus, None, 3) == AbelianGroup.zero()


def test_quotient_pi1_of_connected_group_vanishes():
    group = GroupSpec((2, 1), torus_rank=1)
    assert quotient_homotopy_group(group, None, 1) == AbelianGroup.zero()


def test_summarize_control_parabolic():
    report = summarize_strata(ControlFamily(3, 2), OrbitConvention.PARABOLIC)
    assert report.d_min == 4
    assert report.connectivity == 2


def test_summarize_control_centralizer_no_information():
    report = summarize_strata(ControlFamily(3, 2), OrbitConvention.CENTRALIZER)
    assert report.d_min == 0
    assert report.connectivity == NO_INFORMATION


def test_summarize_empty_strata_is_contractible():
    # One vertex of dimension 1 has no proper nonzero subrepresentation.
    loop = QuiverSpec(1, ((0, 0),), (1,), (0,))
    report = summarize_strata(loop, max_q=2)
    assert report.strata == ()
    assert report.d_min is None
    assert report.connectivity == CONTRACTIBLE
    assert "no destabilizing classes: V^st = V" in report.notes
    assert [g.descriptor() for _, g in report.homotopy] == ["0", "0", "Z"]


def test_summarize_dag_headline():
    report = summarize_strata(DagFamily(10, 3), max_q=5)
    assert report.family == "dag"
    assert report.convention is OrbitConvention.CENTRALIZER
    assert report.d_min == 12
    assert report.connectivity == 10
    assert [g.descriptor() for _, g in report.homotopy] == ["0", "0", "Z^2", "0", "Z", "0"]
    assert report.thresholds == DagFamily(10, 3).thresholds(report.convention)


@given(st.integers(0, 8), st.integers(1, 5), st.integers(0, 3))
@settings(max_examples=80)
def test_window_edge_is_always_unknown(q_extra, n, torus):
    group = GroupSpec((n,), torus_rank=torus)
    d = q_extra + 1  # so q = d - 1 + anything is outside
    assert quotient_homotopy_group(group, d, d - 1 + q_extra).is_unknown
