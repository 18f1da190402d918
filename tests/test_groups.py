import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from git_topo.errors import DomainError, ShapeError
from git_topo.groups import (
    GroupSpec,
    OnePSClass,
    OrbitConvention,
    group_dim,
    orbit_dim,
)


def centralizer_dim(spec, lam):
    return group_dim(spec) - orbit_dim(spec, lam, OrbitConvention.CENTRALIZER)


def parabolic_dim(spec, lam):
    return group_dim(spec) - orbit_dim(spec, lam, OrbitConvention.PARABOLIC)


GL3_T1 = GroupSpec(gl_ranks=(3,), torus_rank=1)
GL3 = GroupSpec(gl_ranks=(3,), torus_rank=0)


def test_group_dim():
    assert group_dim(GL3) == 9
    assert group_dim(GL3_T1) == 10
    assert group_dim(GroupSpec(gl_ranks=(1, 1), torus_rank=0)) == 2


def test_orbit_dims_block_sizes():
    # weights (0, -1, -1): blocks of sizes 1 and 2 inside GL_3
    lam = OnePSClass(gl_weights=((0, -1, -1),), torus_weights=())
    assert centralizer_dim(GL3, lam) == 1 + 4
    assert parabolic_dim(GL3, lam) == (9 + 5) // 2
    assert orbit_dim(GL3, lam, OrbitConvention.CENTRALIZER) == 4
    assert orbit_dim(GL3, lam, OrbitConvention.PARABOLIC) == 2
    # the torus lies in every stabilizer
    lam_t = OnePSClass(gl_weights=((0, -1, -1),), torus_weights=(-1,))
    assert orbit_dim(GL3_T1, lam_t, OrbitConvention.CENTRALIZER) == 4
    assert centralizer_dim(GL3_T1, lam_t) == 1 + 4 + 1


def test_orbit_dim_trivial_class_is_zero():
    lam = OnePSClass(gl_weights=((0, 0, 0),), torus_weights=())
    for conv in OrbitConvention:
        assert orbit_dim(GL3, lam, conv) == 0


def test_parabolic_orbit_never_exceeds_centralizer_orbit():
    lam = OnePSClass(gl_weights=((2, 0, -1),), torus_weights=())
    par = orbit_dim(GL3, lam, OrbitConvention.PARABOLIC)
    cen = orbit_dim(GL3, lam, OrbitConvention.CENTRALIZER)
    assert par == 3 and cen == 6
    assert par <= cen


def test_group_spec_validation():
    with pytest.raises(DomainError):
        GroupSpec(gl_ranks=(0,), torus_rank=0)
    with pytest.raises(DomainError):
        GroupSpec(gl_ranks=(), torus_rank=-1)
    lam = OnePSClass(gl_weights=((1, 0),), torus_weights=())
    with pytest.raises(ShapeError):
        orbit_dim(GL3, lam, OrbitConvention.CENTRALIZER)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GroupSpec(("3",)), "GL factor rank '3'"),
        (lambda: GroupSpec((2.0,)), "GL factor rank 2.0"),
        (lambda: GroupSpec((2,), torus_rank=True), "torus rank True"),
        (lambda: OnePSClass(((0.7, -1.9),), (0,)), "1-PS weight 0.7"),
        (lambda: OnePSClass(((0, -1),), (True,)), "1-PS weight True"),
    ],
    ids=["str-rank", "float-rank", "bool-torus", "float-weight", "bool-torus-weight"],
)
def test_group_and_one_ps_refuse_non_integers(build, message):
    # Refused, not truncated: (0.7, -1.9) used to become (0, -1).
    with pytest.raises(DomainError, match=f"{message} is not an integer"):
        build()


weight_lists = st.lists(st.integers(-5, 5), min_size=1, max_size=4)


@given(weight_lists)
@settings(max_examples=80, deadline=None)
def test_centralizer_plus_parabolic_exceeds_group(gl):
    """dim C(lambda) + dim P(lambda) >= dim G + dim C, i.e. orbit_par <= orbit_cen."""
    spec = GroupSpec(gl_ranks=(len(gl),), torus_rank=0)
    lam = OnePSClass(gl_weights=(tuple(gl),), torus_weights=())
    assert parabolic_dim(spec, lam) >= centralizer_dim(spec, lam)
    par = orbit_dim(spec, lam, OrbitConvention.PARABOLIC)
    cen = orbit_dim(spec, lam, OrbitConvention.CENTRALIZER)
    assert 0 <= par <= cen <= group_dim(spec)


@given(weight_lists, st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_orbit_dim_invariant_under_scaling(gl, p):
    spec = GroupSpec(gl_ranks=(len(gl),), torus_rank=0)
    lam = OnePSClass(gl_weights=(tuple(gl),), torus_weights=())
    scaled = OnePSClass(gl_weights=(tuple(w * p for w in gl),), torus_weights=())
    for conv in OrbitConvention:
        assert orbit_dim(spec, scaled, conv) == orbit_dim(spec, lam, conv)


@given(
    st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=4), min_size=1, max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
)
@example(gl=[[0]], torus=[])
@example(gl=[[-1], [0, -1]], torus=[1])
@settings(max_examples=120, deadline=None)
def test_orbit_dim_counts_stabilizer_pairs(gl, torus):
    """Per factor, the centralizer is #{(i, j): w_i = w_j} and the parabolic
    #{(i, j): w_i >= w_j}; the torus lies in both."""
    spec = GroupSpec(gl_ranks=tuple(len(ws) for ws in gl), torus_rank=len(torus))
    lam = OnePSClass(gl_weights=tuple(tuple(ws) for ws in gl), torus_weights=tuple(torus))
    dim_g = sum(len(ws) ** 2 for ws in gl) + len(torus)
    equal = sum(wi == wj for ws in gl for wi in ws for wj in ws)
    at_least = sum(wi >= wj for ws in gl for wi in ws for wj in ws)
    assert orbit_dim(spec, lam, OrbitConvention.CENTRALIZER) == dim_g - equal - len(torus)
    assert orbit_dim(spec, lam, OrbitConvention.PARABOLIC) == dim_g - at_least - len(torus)
