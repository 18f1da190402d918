"""Human-readable rendering of reports for the terminal.

`connectivity.summarize_strata` builds a family's ConnectivityReport;
JSON shapes live in serialize.  A report's stratum lines are the ones
`families.base.StratumTexts` wrote while the table was built.
"""

from __future__ import annotations

from git_topo.connectivity import CONTRACTIBLE, NO_INFORMATION, ConnectivityReport
from git_topo.families import StabilityStatus
from git_topo.families.base import format_value
from git_topo.harness import HarnessReport


def _head_lines(report: ConnectivityReport) -> list[str]:
    return [f"family: {report.family}", f"convention: {report.convention.value}"]


def _homotopy_and_note_lines(report: ConnectivityReport) -> list[str]:
    lines = [f"  q={q}: {group.descriptor()}" for q, group in report.homotopy]
    return lines + [f"note: {note}" for note in report.notes]


def render_connectivity_text(report: ConnectivityReport) -> list[str]:
    lines = _head_lines(report)
    rows = report.row_texts(with_json=False).lines
    if rows:
        lines.append("strata:")
        lines += rows
    else:
        lines.append("strata: none")
    if report.d_min is None:
        lines.append("d_min: none (no destabilizing classes: V^st = V)")
    else:
        lines.append(f"d_min = {report.d_min}")
    if report.connectivity == CONTRACTIBLE:
        lines.append("connectivity: contractible (V^st is all of V)")
    elif report.connectivity == NO_INFORMATION:
        lines.append("connectivity: no information (d_min <= 1)")
    else:
        c = report.connectivity
        lines.append(f"connectivity: {c} (π_q(V^st)=0 for q ≤ {c})")
    if report.thresholds:
        by_key = dict(report.thresholds)
        pc = by_key.get("path_connected_from_n")
        sc = by_key.get("simply_connected_from_n")
        if pc is not None and sc is not None:
            lines.append(
                f"thresholds: path-connected for n ≥ {pc}, "
                f"simply connected for n ≥ {sc}"
            )
    if report.homotopy:
        lines.append("homotopy:")
    return lines + _homotopy_and_note_lines(report)


def render_homotopy_text(report: ConnectivityReport) -> list[str]:
    return [
        *_head_lines(report),
        "d_min: none" if report.d_min is None else f"d_min = {report.d_min}",
        "homotopy:",
        *_homotopy_and_note_lines(report),
    ]


def render_status_text(family: str, status: StabilityStatus) -> list[str]:
    lines = [f"family: {family}", f"verdict: {status.verdict.value}"]
    if status.reason:
        lines.append(f"reason: {status.reason}")
    for key in sorted(status.evidence):
        lines.append(f"{key} = {format_value(status.evidence[key])}")
    return lines


def render_harness_text(report: HarnessReport) -> list[str]:
    lines = [f"op: {report.op}"]
    if report.skipped:
        lines.append("skipped: true")
    for key, value in report.counters().items():
        lines.append(f"{key} = {value}")
    lines.append(f"elapsed_ms = {report.elapsed_ms}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return lines
