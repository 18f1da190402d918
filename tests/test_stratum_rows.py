"""Stratum rows written while the table is built equal the rows of the
`StratumClass` path, and the commands that read only d_min build none.

`analyze` writes each quiver row's text line, and under --json its JSON
text, at the walk's leaf; `homotopy` and the path gate of `verify` ask
`summarize_strata` for no rows.  Their JSON must equal the dict-tree
writer of `report_json_oracle.py` and their stdout the renderer of
`report_text_oracle.py`, both run on the report of `StratumClass` rows.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from git_topo.cli import main
from git_topo.connectivity import summarize_strata
from git_topo.families import QuiverSpec, quiver
from git_topo.families.base import StratumTexts
from git_topo.families.quiver import enumerate_strata
from git_topo.groups import OrbitConvention

from report_json_oracle import oracle_report_dict, oracle_report_text
from report_text_oracle import oracle_connectivity_lines, oracle_homotopy_lines

HEAD_KEYS = ("convention", "d_min", "family", "homotopy", "notes")


@st.composite
def quivers(draw):
    """1-4 vertices of dimension 0-3, 1-6 arrows with loops and parallel
    arrows, and an admissible theta: any value at a dimension-0 vertex,
    and a sum of multiples of d_j e_i - d_i e_j over the other vertices,
    so theta = 0 and tables with no row occur."""
    v = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(0, 3), min_size=v, max_size=v).filter(any))
    vertex = st.integers(0, v - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))
    theta = [draw(st.integers(-3, 3)) if d == 0 else 0 for d in dims]
    positive = [i for i, d in enumerate(dims) if d]
    for i, j in zip(positive, positive[1:]):
        c = draw(st.integers(-2, 2))
        theta[i] += c * dims[j]
        theta[j] -= c * dims[i]
    return QuiverSpec(v, tuple(arrows), tuple(dims), tuple(theta))


def quiver_args(spec: QuiverSpec) -> list[str]:
    return [
        "quiver",
        "--arrows", ",".join(f"{s + 1}->{t + 1}" for s, t in spec.arrows),
        "--dim", ",".join(map(str, spec.dim_vector)),
        "--theta=" + ",".join(map(str, spec.theta)),
    ]


def run(argv: list[str], json_out: bool = True) -> tuple[int, str, str | None]:
    """Exit status, stdout and the --json file's text (None without it)."""
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out.json"
        extra = ["--json", str(target)] if json_out else []
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main([*argv, *extra])
        written = target.read_text(encoding="utf-8") if json_out else None
    return code, out.getvalue(), written


def lines_text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


THREE_KRONECKER = QuiverSpec(2, ((0, 1),) * 3, (2, 3), (3, -2))


@given(
    quivers(),
    st.sampled_from(list(OrbitConvention)),
    st.none() | st.integers(0, 4),
)
@example(THREE_KRONECKER, OrbitConvention.PARABOLIC, 5)
@example(QuiverSpec(1, ((0, 0),), (1,), (0,)), OrbitConvention.CENTRALIZER, None)
@example(
    QuiverSpec(4, ((0, 1), (1, 1), (1, 3), (2, 0), (0, 1), (3, 0)), (2, 3, 0, 1), (1, -1, 5, 1)),
    OrbitConvention.CENTRALIZER,
    None,
)
@settings(max_examples=150, deadline=None)
def test_analyze_and_homotopy_write_the_oracle_texts(spec, convention, max_q):
    report = summarize_strata(spec, convention, max_q=max_q)
    args = [*quiver_args(spec), "--orbit-convention", convention.value]
    q = [] if max_q is None else ["--max-q", str(max_q)]
    expected_lines = lines_text(oracle_connectivity_lines(report))
    assert run(["analyze", *args, *q]) == (
        0, expected_lines, oracle_report_text(report) + "\n"
    )
    assert run(["analyze", *args, *q], json_out=False) == (0, expected_lines, None)

    table = summarize_strata(spec, convention, max_q=max_q or 0)
    head = {key: oracle_report_dict(table)[key] for key in HEAD_KEYS}
    canonical = json.dumps(head, sort_keys=True, separators=(",", ":"))
    homotopy = ["homotopy", *args, "--max-q", str(max_q or 0), "--assume-free-action"]
    assert run(homotopy) == (
        0, lines_text(oracle_homotopy_lines(table)), canonical + "\n"
    )


@given(quivers(), st.sampled_from(list(OrbitConvention)))
@settings(max_examples=300, deadline=None)
def test_min_only_d_min_is_the_least_row_value(spec, convention):
    least = min((s.value for s in enumerate_strata(spec, convention)), default=None)
    assert spec.d_min(convention) == least
    for rows in (None, "text", "json", "classes"):
        assert summarize_strata(spec, convention, rows=rows).d_min == least


def _cycle(v: int) -> list[str]:
    arrows = ",".join(f"{i}->{i % v + 1}" for i in range(1, v + 1))
    theta = ",".join([str(v - 1)] + ["-1"] * (v - 1))
    return ["quiver", "--arrows", arrows, "--dim", ",".join(["1"] * v), f"--theta={theta}"]


def _zero_elapsed(text: str) -> dict:
    payload = json.loads(text)
    for report in payload.get("reports", []):
        report["elapsed_ms"] = 0
    return payload


def test_path_gate_and_homotopy_build_no_row(monkeypatch):
    verify = ["verify", *_cycle(14), "--trials", "5", "--paths", "1", "--path-samples", "4"]
    homotopy = ["homotopy", *_cycle(14), "--max-q", "5", "--assume-free-action"]
    before = [run(argv) for argv in (verify, homotopy)]

    def refuse(*args, **kwargs):
        raise AssertionError("a stratum row was built")

    monkeypatch.setattr(quiver, "StratumClass", refuse)
    monkeypatch.setattr(StratumTexts, "line", refuse)
    monkeypatch.setattr(StratumTexts, "json_row", refuse)
    after = [run(argv) for argv in (verify, homotopy)]
    for (code, out, text), (code_after, out_after, text_after) in zip(before, after):
        assert code == code_after == 0
        assert _zero_elapsed(text) == _zero_elapsed(text_after)
        assert [line for line in out.splitlines() if "elapsed_ms" not in line] == [
            line for line in out_after.splitlines() if "elapsed_ms" not in line
        ]
    (gate,) = [r for r in json.loads(before[0][2])["reports"] if r["op"] == "path_stability"]
    assert not gate["skipped"]
    assert json.loads(before[1][2])["d_min"] == 2


def test_analyze_writes_no_json_row_without_json(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a JSON row was written without --json")

    monkeypatch.setattr(StratumTexts, "json_row", refuse)
    code, out, _ = run(["analyze", *_cycle(6)], json_out=False)
    assert code == 0 and out.count("sub_dim=") == 2 ** 5 - 1
    code, out, _ = run(["analyze", "control", "--n", "3", "--m", "2"], json_out=False)
    assert code == 0 and "invariant_subspace_dim=1" in out
