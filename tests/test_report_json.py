"""`serialize.report_to_json` writes the text the dict-tree writer of
`tests/report_json_oracle.py` gives, byte for byte, for every family and
both conventions, and that text is canonical: reading it back and
writing it with `canonical_dumps` gives it again."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from git_topo.cli import main
from git_topo.connectivity import (
    CONTRACTIBLE,
    NO_INFORMATION,
    ConnectivityReport,
    summarize_strata,
)
from git_topo.families import ControlFamily, DagFamily, QuiverSpec, StratumClass
from git_topo.groups import OnePSClass, OrbitConvention
from git_topo.reports import render_connectivity_text
from git_topo.serialize import canonical_dumps, report_to_json

from report_json_oracle import oracle_report_text, one_ps_to_json
from test_family_interface import ScalingFamily


def assert_same_text(text, expected):
    """Equal strings, or a failure that quotes where they first differ;
    pytest's own diff of two megabyte-long lines would not finish."""
    if text != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
            min(len(text), len(expected)),
        )
        pytest.fail(
            f"texts differ at offset {at}: {text[at - 30:at + 30]!r} "
            f"!= {expected[at - 30:at + 30]!r}"
        )


def assert_matches_oracle(spec, convention, max_q=None):
    report = summarize_strata(spec, convention, max_q=max_q)
    text = "".join(report_to_json(report))
    assert_same_text(text, oracle_report_text(report))
    assert_same_text(text, canonical_dumps(json.loads(text)))
    return report


@pytest.mark.parametrize("max_q", [None, 4])
@pytest.mark.parametrize("convention", list(OrbitConvention))
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 9))
def test_control_reports_match_the_oracle(n, m, convention, max_q):
    assert_matches_oracle(ControlFamily(n, m), convention, max_q)


@pytest.mark.parametrize("max_q", [None, 5])
@pytest.mark.parametrize("convention", list(OrbitConvention))
@pytest.mark.parametrize("n, k", [(3, 2), (5, 2), (10, 3), (12, 6), (20, 5)])
def test_dag_reports_with_thresholds_match_the_oracle(n, k, convention, max_q):
    report = assert_matches_oracle(DagFamily(n, k), convention, max_q)
    assert report.thresholds


@pytest.mark.parametrize("max_q", [None, 3])
@pytest.mark.parametrize("convention", list(OrbitConvention))
@pytest.mark.parametrize("n", [1, 2, 5])
def test_toy_family_reports_match_the_oracle(n, convention, max_q):
    assert_matches_oracle(ScalingFamily(n), convention, max_q)


@st.composite
def quivers(draw):
    """Up to 5 vertices of dimension 0..3 (at least one positive), loops and
    parallel arrows, and an admissible theta built from transfers."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5).filter(any))
    v = len(dims)
    vertex = st.integers(0, v - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    theta = [0] * v
    for i, j, c in draw(st.lists(st.tuples(vertex, vertex, st.integers(-2, 2)))):
        theta[i] += c * dims[j]
        theta[j] -= c * dims[i]
    return QuiverSpec(v, tuple(arrows), tuple(dims), tuple(theta))


@given(
    quivers(),
    st.sampled_from(list(OrbitConvention)),
    st.sampled_from([None, 0, 3]),
)
@settings(max_examples=150, deadline=None)
def test_quiver_reports_match_the_oracle(spec, convention, max_q):
    assert_matches_oracle(spec, convention, max_q)


# Descriptor values the row writer must get right: exact ints of every sign
# and size; int tuples where True and False sit beside 1 and 0, which they
# equal and hash like; and strings, bools and nested lists, which it must
# hand to the encoder whole.
small_ints = st.sampled_from([0, 1, -1, True, False, 2])
exact_ints = st.integers() | st.integers(-(2**200), 2**200) | st.integers(-3, 3)
scalars = exact_ints | st.booleans() | st.text(max_size=4)
descriptor_values = st.one_of(
    exact_ints,
    small_ints,
    st.lists(exact_ints | small_ints, max_size=6).map(tuple),
    st.lists(small_ints, max_size=6).map(tuple),
    st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple),
        max_leaves=6,
    ),
)
descriptor_keys = st.sampled_from(["sub_dim", "r", "j"]) | st.text(max_size=5)
descriptors = st.one_of(
    st.builds(lambda k, v: {k: v}, descriptor_keys, descriptor_values),
    st.dictionaries(descriptor_keys, descriptor_values, min_size=2, max_size=3),
)


@st.composite
def hand_built_reports(draw):
    strata = []
    weight = st.integers(-3, 3)
    for descriptor in draw(st.lists(descriptors, max_size=8)):
        lam = OnePSClass(
            draw(st.lists(st.lists(weight, min_size=1, max_size=3), max_size=3)),
            draw(st.lists(weight, max_size=2)),
        )
        m, orbit = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        strata.append(StratumClass(descriptor, lam, m, orbit))
    d_min = min((s.value for s in strata), default=None)
    return ConnectivityReport(
        family=draw(st.sampled_from(["quiver", "control", "dag"])),
        convention=draw(st.sampled_from(list(OrbitConvention))),
        strata=tuple(strata),
        d_min=d_min,
        connectivity=CONTRACTIBLE if d_min is None else d_min - 2,
    )


# 1 and 0 are cached first; True and False after them keep their own text.
BOOLS_AFTER_EQUAL_INTS = ConnectivityReport(
    "quiver",
    OrbitConvention.PARABOLIC,
    tuple(
        StratumClass({"sub_dim": value}, OnePSClass(((0,),), ()), 1, 0)
        for value in [(1, 0), (True, False), 1, True, (0, True), False]
    ),
    2,
    0,
)


@given(hand_built_reports())
@example(BOOLS_AFTER_EQUAL_INTS)
@settings(max_examples=300, deadline=None)
def test_hand_built_descriptors_match_the_oracle(report):
    assert_same_text("".join(report_to_json(report)), oracle_report_text(report))


def test_contractible_and_no_information_reports_match_the_oracle():
    # One vertex of dimension 1 has no proper nonzero subdimension.
    point = assert_matches_oracle(
        QuiverSpec(1, (), (1,), (0,)), OrbitConvention.PARABOLIC, max_q=2
    )
    assert point.connectivity == CONTRACTIBLE and point.notes
    assert '"strata":[]' in "".join(report_to_json(point))
    flat = assert_matches_oracle(ControlFamily(3, 2), OrbitConvention.CENTRALIZER)
    assert flat.connectivity == NO_INFORMATION


def test_one_ps_round_trip():
    lam = OnePSClass(((0, -1, -1), (2,)), (-3,))
    payload = one_ps_to_json(lam)
    assert payload == {"gl_weights": [[0, -1, -1], [2]], "torus_weights": [-3]}
    assert json.loads(canonical_dumps(payload)) == payload


def test_analyze_writes_the_oracle_text_for_a_12_cycle(tmp_path, capsys):
    v = 12
    arrows = ",".join(f"{i + 1}->{(i + 1) % v + 1}" for i in range(v))
    theta = ",".join(str(t) for t in [v - 1] + [-1] * (v - 1))
    out = tmp_path / "cycle.json"
    argv = ["analyze", "quiver", "--arrows", arrows, "--dim", ",".join("1" * v)]
    assert main([*argv, f"--theta={theta}", "--json", str(out)]) == 0
    cycle = tuple((i, (i + 1) % v) for i in range(v))
    spec = QuiverSpec(v, cycle, (1,) * v, (v - 1,) + (-1,) * (v - 1))
    report = summarize_strata(spec)
    assert len(report.strata) == 2 ** (v - 1) - 1
    written = out.read_text(encoding="utf-8")
    assert_same_text(written, oracle_report_text(report) + "\n")
    captured = capsys.readouterr()
    assert captured.out == "\n".join(render_connectivity_text(report)) + "\n"
    assert captured.err == ""
