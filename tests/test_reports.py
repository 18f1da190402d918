from git_topo.connectivity import CONTRACTIBLE, summarize_strata
from git_topo.families.control import ControlFamily
from git_topo.families.dag import DagFamily
from git_topo.families.quiver import QuiverSpec, kronecker_spec
from git_topo.groups import OrbitConvention
from git_topo.harness import TrialConfig, sample_generic_points
from git_topo.reports import (
    render_connectivity_text,
    render_harness_text,
    render_status_text,
)
from git_topo.harness import draw_instance


def test_dag_thresholds_formula():
    centralizer = OrbitConvention.CENTRALIZER
    assert DagFamily(10, 3).thresholds(centralizer) == (
        ("path_connected_from_n", 5),
        ("simply_connected_from_n", 6),
    )
    assert DagFamily(4, 2).thresholds(centralizer) == (
        ("path_connected_from_n", 3),
        ("simply_connected_from_n", 4),
    )


def test_build_report_defaults_per_family():
    assert summarize_strata(kronecker_spec()).convention is OrbitConvention.PARABOLIC
    assert summarize_strata(ControlFamily(3, 2)).convention is OrbitConvention.PARABOLIC
    assert summarize_strata(DagFamily(10, 3)).convention is OrbitConvention.CENTRALIZER


def test_build_report_single_state_control_is_contractible():
    report = summarize_strata(ControlFamily(1, 2))
    assert report.strata == ()
    assert report.d_min is None
    assert report.connectivity == CONTRACTIBLE
    assert any("V^st = V" in n for n in report.notes)


def test_render_kronecker_lines():
    lines = render_connectivity_text(summarize_strata(kronecker_spec()))
    assert lines[0] == "family: quiver"
    assert lines[1] == "convention: parabolic"
    assert "  sub_dim=(1, 0): m=2, orbit_dim=0, value=4" in lines
    assert "d_min = 4" in lines
    assert "connectivity: 2 (π_q(V^st)=0 for q ≤ 2)" in lines


def test_render_contractible_lines():
    lines = render_connectivity_text(summarize_strata(ControlFamily(1, 2)))
    assert "strata: none" in lines
    assert "d_min: none (no destabilizing classes: V^st = V)" in lines
    assert "connectivity: contractible (V^st is all of V)" in lines


def test_render_dag_threshold_line():
    lines = render_connectivity_text(
        summarize_strata(DagFamily(10, 3), max_q=5)
    )
    assert "thresholds: path-connected for n ≥ 5, simply connected for n ≥ 6" in lines
    assert "homotopy:" in lines
    assert "  q=2: Z^2" in lines


def test_render_status_orders_evidence_keys():
    cfg = TrialConfig(ControlFamily(2, 1), trials=1, seed=0)
    status = draw_instance(cfg, 0).status()
    lines = render_status_text("control", status)
    assert lines[0] == "family: control"
    assert lines[1].startswith("verdict: ")


def test_render_harness_counters():
    report = sample_generic_points(TrialConfig(DagFamily(4, 2), trials=10, seed=0))
    lines = render_harness_text(report)
    assert lines[0] == "op: generic_points"
    assert "trials_run = 10" in lines
    assert any(line.startswith("elapsed_ms = ") for line in lines)


def _old_row(s):
    """A stratum row as the text writer once spelled it, entry by entry."""
    def value(v):
        if isinstance(v, tuple):
            return "(" + ", ".join(str(x) for x in v) + ")"
        return str(v)

    descriptor = ", ".join(f"{k}={value(v)}" for k, v in s.descriptor.items())
    return f"  {descriptor}: m={s.m}, orbit_dim={s.orbit_dim}, value={s.value}"


def test_stratum_rows_keep_their_spelling():
    # A 1-tuple prints as "(1)", not as Python's "(1,)".
    one_vertex = QuiverSpec(1, ((0, 0),), (2,), (0,))
    lines = render_connectivity_text(summarize_strata(one_vertex))
    assert "  sub_dim=(1): m=1, orbit_dim=1, value=0" in lines
    for spec in (
        one_vertex,
        QuiverSpec(3, ((0, 1), (1, 2), (0, 2)), (2, 0, 1), (1, 5, -2)),
        ControlFamily(4, 2),
        DagFamily(10, 3),
    ):
        report = summarize_strata(spec)
        lines = render_connectivity_text(report)
        start = lines.index("strata:") + 1
        assert report.strata
        assert lines[start : start + len(report.strata)] == [
            _old_row(s) for s in report.strata
        ]
