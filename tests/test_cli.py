import json
import time

import pytest

from git_topo import cli
from git_topo.cli import main
from git_topo.families import dag
from git_topo.families.base import check_stratum_work
from git_topo.groups import OrbitConvention


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_analyze_kronecker(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys,
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
    )
    assert code == 0 and err == ""
    assert "d_min = 4" in out
    assert "connectivity: 2 (π_q(V^st)=0 for q ≤ 2)" in out
    payload = read_json(out_file)
    assert payload["d_min"] == 4
    assert payload["connectivity"] == 2
    assert len(payload["strata"]) == 1
    assert payload["strata"][0]["descriptor"] == {"sub_dim": [1, 0]}
    assert payload["strata"][0]["m"] == 2
    assert payload["strata"][0]["orbit_dim"] == 0
    assert payload["strata"][0]["value"] == 4
    assert payload["convention"] == "parabolic"
    assert "convention_dependent_fields" in payload


def test_analyze_control_both_conventions(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "control", "--n", "3", "--m", "2")
    assert code == 0
    assert "d_min = 4" in out and "connectivity: 2" in out
    code, out, _ = run(
        capsys,
        "analyze",
        "control",
        "--n",
        "3",
        "--m",
        "2",
        "--orbit-convention",
        "centralizer",
    )
    assert code == 0
    assert "d_min = 0" in out
    assert "connectivity: no information (d_min <= 1)" in out


def test_analyze_dag_headline(capsys, tmp_path):
    out_file = tmp_path / "dag.json"
    code, out, _ = run(
        capsys,
        "analyze",
        "dag",
        "--samples",
        "10",
        "--parents",
        "3",
        "--max-q",
        "5",
        "--json",
        str(out_file),
    )
    assert code == 0
    assert "d_min = 12" in out
    assert "connectivity: 10" in out
    assert "thresholds: path-connected for n ≥ 5, simply connected for n ≥ 6" in out
    payload = read_json(out_file)
    assert [row["group"] for row in payload["homotopy"]] == ["0", "0", "Z^2", "0", "Z", "0"]
    assert payload["convention"] == "centralizer"


def test_analyze_dag_centralizer_flag_matches_default(capsys):
    code, default_out, _ = run(
        capsys, "analyze", "dag", "--samples", "10", "--parents", "3"
    )
    code2, explicit_out, _ = run(
        capsys,
        "analyze",
        "dag",
        "--samples",
        "10",
        "--parents",
        "3",
        "--orbit-convention",
        "centralizer",
    )
    assert code == code2 == 0
    assert default_out == explicit_out


def test_analyze_missing_flags_is_a_schema_error(capsys, tmp_path):
    err_file = tmp_path / "err.json"
    code, out, err = run(
        capsys,
        "analyze",
        "quiver",
        "--arrows",
        "1->2",
        "--dim",
        "1,1",
        "--json",
        str(err_file),
    )
    assert code == 2
    assert err.startswith("error:")
    assert "--theta" in err
    payload = read_json(err_file)
    assert payload["error"]["type"] == "SchemaError"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["analyze", "dag", "--samples", "10", "--parents", "3", "--n", "5"], "--n"),
        (["homotopy", "control", "--n", "3", "--m", "2", "--max-q", "2",
          "--assume-free-action", "--theta", "1,-1"], "--theta"),
        (["verify", "quiver", "--arrows", "1->2", "--dim", "1,1", "--theta", "1,-1",
          "--samples", "4", "--trials", "1"], "--samples"),
        (["verify", "kronecker", "--grid", "1", "--n", "3"], "--n"),
        (["verify", "kronecker", "--arrows", "1->2", "--dim", "1,1", "--theta", "1,-1"],
         "--arrows, --dim"),
    ],
    ids=["analyze-dag", "homotopy-control", "verify-quiver", "kronecker", "kronecker-shape"],
)
def test_flags_of_another_family_are_refused(argv, flags, capsys, tmp_path):
    err_file = tmp_path / "err.json"
    code, out, err = run(capsys, *argv, "--json", str(err_file))
    assert code == 2 and out == ""
    message = f"{argv[1]} does not take {flags}"
    assert err == f"error: {message}\n"
    assert read_json(err_file) == {"error": {"type": "SchemaError", "message": message}}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "kronecker", "--grid", "1", "--paths", "5", "--trials", "7",
          "--degenerate-trials", "3", "--orbit-convention", "centralizer"],
         "kronecker does not take --orbit-convention, --trials, --paths, "
         "--degenerate-trials"),
        (["verify", "kronecker", "--seed", "1", "--bound", "2", "--path-samples", "8"],
         "kronecker does not take --seed, --bound, --path-samples"),
        (["verify", "control", "--n", "2", "--m", "1", "--trials", "3", "--grid", "9"],
         "control does not take --grid"),
        (["verify", "quiver", "--arrows", "1->2", "--dim", "1,1", "--theta", "1,-1",
          "--n", "2", "--grid", "1"], "quiver does not take --n, --grid"),
        (["check", "missing.json", "--epsilon", "1/2"],
         "--epsilon applies only with --stabilize"),
    ],
    ids=["kronecker-run", "kronecker-draws", "control-grid", "quiver-grid", "epsilon"],
)
def test_options_the_run_does_not_read_are_refused(argv, message, capsys, tmp_path):
    err_file = tmp_path / "err.json"
    code, out, err = run(capsys, *argv, "--json", str(err_file))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert read_json(err_file) == {"error": {"type": "SchemaError", "message": message}}


def test_a_missing_family_flag_is_named_before_an_unread_option(capsys):
    code, _, err = run(capsys, "verify", "dag", "--samples", "4", "--grid", "3")
    assert code == 2
    assert err == "error: dag needs --parents\n"


def test_verify_help_states_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for text in ["generic-point trials (default 1000)", "64-bit seed (default 0)",
                 "(default 9)", "quadratic path trials (default 0)",
                 "evaluations per path (default 256)", "grid radius (default 2)"]:
        assert text in out


def test_analyze_dag_thresholds_follow_the_convention(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "dag", "--samples", "10", "--parents", "3",
        "--orbit-convention", "parabolic", "--json", str(out_file),
    )
    assert code == 0
    assert "d_min = 16" in out
    assert "thresholds: path-connected for n ≥ 3, simply connected for n ≥ 4" in out
    assert read_json(out_file)["thresholds"] == {
        "path_connected_from_n": 3,
        "simply_connected_from_n": 4,
    }


def test_analyze_rejects_inadmissible_theta(capsys):
    code, _, err = run(
        capsys,
        "analyze",
        "quiver",
        "--arrows",
        "1->2",
        "--dim",
        "1,1",
        "--theta",
        "1,1",
    )
    assert code == 2
    assert "not admissible" in err


def test_check_control_instance(capsys, tmp_path):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(
        json.dumps(
            {
                "family": "control",
                "n": 2,
                "m": 1,
                "A": [["0", "1"], ["0", "0"]],
                "B": [["0"], ["1"]],
            }
        )
    )
    code, out, _ = run(capsys, "check", str(inst_file))
    assert code == 0
    assert "family: control" in out
    assert "verdict: stable" in out
    assert "rank = 2" in out


def test_check_uncontrollable_known_pair(capsys, tmp_path):
    inst_file = tmp_path / "bad.json"
    inst_file.write_text(
        json.dumps(
            {
                "family": "control",
                "n": 3,
                "m": 2,
                "A": [["-8", "-3", "1"], ["8", "-4", "3"], ["6", "3", "-3"]],
                "B": [["2", "5"], ["9", "-9"], ["-2", "-5"]],
            }
        )
    )
    code, out, _ = run(capsys, "check", str(inst_file))
    assert code == 0
    assert "verdict: unstable" in out
    assert "rank = 2" in out


@pytest.mark.parametrize(
    "values, verdict, evidence",
    [
        (["1"] * 40, "stable", {}),
        (["0"] + ["1"] * 39, "unstable", {"support": [1], "theta_sum": 39}),
    ],
    ids=["all-live", "first-arrow-zero"],
)
def test_check_a_40_vertex_thin_cycle(verdict, values, evidence, capsys, tmp_path):
    # 1 -> 2 -> ... -> 40 -> 1, theta = (39, -1, ..., -1).
    inst_file = tmp_path / "cycle.json"
    out_file = tmp_path / "status.json"
    inst_file.write_text(
        json.dumps(
            {
                "family": "quiver",
                "vertices": 40,
                "arrows": [[i, i % 40 + 1] for i in range(1, 41)],
                "dim": [1] * 40,
                "theta": [39] + [-1] * 39,
                "values": values,
            }
        )
    )
    code, out, _ = run(capsys, "check", str(inst_file), "--json", str(out_file))
    assert code == 0
    assert f"verdict: {verdict}" in out
    status = read_json(out_file)["status"]
    assert status["verdict"] == verdict
    assert status["evidence"] == evidence


def test_check_dag_stabilize_and_mle(capsys, tmp_path):
    inst_file = tmp_path / "dag.json"
    inst_file.write_text(
        json.dumps(
            {
                "family": "dag",
                "n": 3,
                "k": 2,
                "Y": [["1", "1", "0"], ["1", "1", "0"], ["1", "1", "0"]],
            }
        )
    )
    out_file = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        "check",
        str(inst_file),
        "--stabilize",
        "--mle",
        "--json",
        str(out_file),
    )
    assert code == 0
    assert "verdict: not_stable" in out
    assert "stabilized with epsilon = 1/1000" in out
    assert "stabilized verdict: stable" in out
    assert "mle: (" in out
    payload = read_json(out_file)
    assert payload["status"]["verdict"] == "not_stable"
    assert payload["stabilized_status"]["verdict"] == "stable"
    assert len(payload["mle"]) == 2


def test_check_mle_exact_values(capsys, tmp_path):
    inst_file = tmp_path / "mle.json"
    inst_file.write_text(
        json.dumps(
            {
                "family": "dag",
                "n": 3,
                "k": 2,
                "Y": [["1", "0", "1"], ["0", "1", "2"], ["1", "1", "0"]],
            }
        )
    )
    out_file = tmp_path / "out.json"
    code, out, _ = run(capsys, "check", str(inst_file), "--mle", "--json", str(out_file))
    assert code == 0
    assert "mle: (0, 1)" in out
    assert read_json(out_file)["mle"] == ["0", "1"]


@pytest.mark.parametrize("eps", ["0.001", "1e-3", " 1/1000 "])
def test_check_epsilon_is_p_over_q_only(capsys, tmp_path, eps):
    inst_file = tmp_path / "dag.json"
    inst_file.write_text(
        json.dumps({"family": "dag", "n": 2, "k": 1, "Y": [["1", "0"], ["1", "0"]]})
    )
    out_file = tmp_path / "out.json"
    code, _, err = run(
        capsys, "check", str(inst_file), "--stabilize", f"--epsilon={eps}",
        "--json", str(out_file),
    )
    assert code == 2
    assert "--epsilon: malformed rational string" in err
    assert read_json(out_file)["error"]["type"] == "SchemaError"


def test_check_stabilize_rejects_non_dag(capsys, tmp_path):
    inst_file = tmp_path / "ctrl.json"
    inst_file.write_text(
        json.dumps(
            {"family": "control", "n": 1, "m": 1, "A": [["1"]], "B": [["1"]]}
        )
    )
    code, _, err = run(capsys, "check", str(inst_file), "--stabilize")
    assert code == 2
    assert "DAG instance files" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_homotopy_requires_attestation(capsys):
    code, _, err = run(
        capsys,
        "homotopy",
        "dag",
        "--samples",
        "10",
        "--parents",
        "3",
        "--max-q",
        "5",
    )
    assert code == 2
    assert "--assume-free-action" in err


def test_homotopy_with_attestation(capsys, tmp_path):
    out_file = tmp_path / "h.json"
    code, out, _ = run(
        capsys,
        "homotopy",
        "dag",
        "--samples",
        "10",
        "--parents",
        "3",
        "--max-q",
        "5",
        "--assume-free-action",
        "--json",
        str(out_file),
    )
    assert code == 0
    assert "q=2: Z^2" in out
    assert "q=4: Z" in out
    payload = read_json(out_file)
    assert payload["d_min"] == 12
    assert [row["group"] for row in payload["homotopy"]] == ["0", "0", "Z^2", "0", "Z", "0"]


def test_verify_kronecker_oracle(capsys, tmp_path):
    out_file = tmp_path / "v.json"
    code, out, _ = run(
        capsys, "verify", "kronecker", "--grid", "1", "--json", str(out_file)
    )
    assert code == 0
    assert out.strip().endswith("ok")
    payload = read_json(out_file)
    assert payload["ok"] is True
    assert payload["reports"][0]["trials_run"] == 81
    assert payload["reports"][0]["oracle_mismatches"] == 0


def test_verify_kronecker_flipped_theta_fails(capsys):
    code, out, _ = run(capsys, "verify", "kronecker", "--grid", "1", "--theta=-1,1")
    assert code == 1
    assert "FAILED" in out
    assert "oracle_mismatches = 80" in out


def test_verify_control_clean_seed(capsys, tmp_path):
    out_file = tmp_path / "v.json"
    code, out, _ = run(
        capsys,
        "verify",
        "control",
        "--n",
        "3",
        "--m",
        "2",
        "--trials",
        "500",
        "--seed",
        "2",
        "--json",
        str(out_file),
    )
    assert code == 0
    assert "unstable_hits = 0" in out
    payload = read_json(out_file)
    assert payload["reports"][0]["config"]["seed"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["dag", "--samples", "1", "--parents", "2"],
        ["quiver", "--arrows", "1->2,1->2", "--dim", "1,1", "--theta=-1,1"],
    ],
    ids=["dag-n-below-k", "kronecker-flipped-theta"],
)
def test_verify_skips_generic_sampling_without_stable_points(argv, capsys, tmp_path):
    out_file = tmp_path / "v.json"
    code, out, _ = run(
        capsys, "verify", *argv, "--trials", "5", "--json", str(out_file)
    )
    assert code == 0
    assert out.strip().endswith("ok")
    generic = read_json(out_file)["reports"][0]
    assert generic["op"] == "generic_points"
    assert generic["skipped"] is True
    assert generic["trials_run"] == 0
    assert generic["notes"] == [f"skipped: no {argv[0]} point is stable"]
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv, "--trials", "5", "--expect-degenerate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --expect-degenerate" in capsys.readouterr().err


def test_verify_paths_skip_under_centralizer(capsys, tmp_path):
    out_file = tmp_path / "v.json"
    code, out, _ = run(
        capsys,
        "verify",
        "control",
        "--n",
        "3",
        "--m",
        "2",
        "--trials",
        "5",
        "--seed",
        "2",
        "--paths",
        "2",
        "--orbit-convention",
        "centralizer",
        "--json",
        str(out_file),
    )
    assert code == 0
    assert "skipped: true" in out
    payload = read_json(out_file)
    assert payload["reports"][1]["skipped"] is True
    assert payload["reports"][1]["trials_run"] == 0


def test_verify_paths_run_on_a_family_without_strata(capsys, tmp_path):
    # A one-vertex loop has no destabilizing class, so V^st = V is
    # contractible and the path gate lets the paths run.
    out_file = tmp_path / "v.json"
    code, out, _ = run(
        capsys,
        "verify",
        "quiver",
        "--arrows",
        "1->1",
        "--dim",
        "1",
        "--theta",
        "0",
        "--trials",
        "5",
        "--paths",
        "2",
        "--path-samples",
        "4",
        "--json",
        str(out_file),
    )
    assert code == 0
    assert "skipped: true" not in out
    paths = read_json(out_file)["reports"][1]
    assert paths["op"] == "path_stability"
    assert paths["skipped"] is False
    assert paths["trials_run"] == 2
    assert paths["path_failures"] == 0


def test_verify_degenerate_trials_dag_only(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "dag",
        "--samples",
        "5",
        "--parents",
        "3",
        "--trials",
        "5",
        "--degenerate-trials",
        "20",
    )
    assert code == 0
    assert "op: constructed_degenerates" in out
    code, _, err = run(
        capsys,
        "verify",
        "control",
        "--n",
        "2",
        "--m",
        "1",
        "--trials",
        "5",
        "--degenerate-trials",
        "20",
    )
    assert code == 2
    assert "dag family" in err


def test_verify_quiver_family(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "quiver",
        "--arrows",
        "1->2,1->2",
        "--dim",
        "1,1",
        "--theta",
        "1,-1",
        "--trials",
        "50",
        "--seed",
        "0",
    )
    assert code == 0
    assert "unstable_hits = 0" in out


def test_verify_quiver_refuses_non_thin_dimensions(capsys):
    # Point checks need a thin dimension vector; a dimension-2 vertex
    # must not be read as a zero (or ignored) arrow.
    for dim, theta in (("2,1", "1,-2"), ("1,2,1", "1,-1,1")):
        for extra in ((), ("--paths", "2", "--path-samples", "4")):
            code, out, err = run(
                capsys,
                "verify",
                "quiver",
                "--arrows",
                "1->2",
                "--dim",
                dim,
                "--theta",
                theta,
                "--trials",
                "5",
                *extra,
            )
            assert code == 2 and out == ""
            assert "point-level checks require a thin dimension vector" in err


def test_bad_arrow_syntax(capsys):
    code, _, err = run(
        capsys,
        "analyze",
        "quiver",
        "--arrows",
        "1=>2",
        "--dim",
        "1,1",
        "--theta",
        "1,-1",
    )
    assert code == 2
    assert "1-indexed" in err or "not of the form" in err


@pytest.mark.parametrize("arrow", ["1->3", "0->1"])
def test_quiver_arrow_out_of_range(capsys, arrow):
    code, _, err = run(
        capsys, "analyze", "quiver", "--arrows", arrow, "--dim", "1,1", "--theta", "1,-1"
    )
    assert code == 2
    assert f"arrow {arrow}: vertex out of range 1..2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "quiver", "--arrows", "1->2,2->3", "--dim", "1,1,1",
         "--theta=2,-1,-1"],
        ["analyze", "control", "--n", "3", "--m", "2"],
        ["homotopy", "dag", "--samples", "10", "--parents", "3", "--max-q", "3",
         "--assume-free-action"],
        ["verify", "kronecker"],
        ["analyze", "control", "--n", "3"],
    ],
)
def test_payloads_are_encoded_only_under_json(argv, capsys, monkeypatch, tmp_path):
    target = tmp_path / "out.json"
    code = run(capsys, *argv, "--json", str(target))[0]
    assert read_json(target)  # the payload, or the error payload

    def refuse(*args):
        raise AssertionError("encoded without --json")

    monkeypatch.setattr(cli, "report_to_json", refuse)
    monkeypatch.setattr(cli, "canonical_dumps", refuse)
    assert run(capsys, *argv)[0] == code


def test_unwritable_json_path_exits_2(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.json"
    code, out, err = run(
        capsys, "analyze", "control", "--n", "3", "--m", "2", "--json", str(target)
    )
    assert code == 2
    assert "d_min = 4" in out
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_unwritable_json_path_after_an_error_is_not_retried(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.json"
    code, out, err = run(capsys, "analyze", "control", "--n", "3", "--json", str(target))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: control needs --m",
        f"error: cannot write {target}: "
        f"[Errno 2] No such file or directory: '{target}'",
    ]


def test_stratum_enumeration_refuses_a_24_vertex_chain(capsys, tmp_path):
    vertices = 24
    out_file = tmp_path / "err.json"
    start = time.monotonic()
    code, out, err = run(
        capsys,
        "analyze",
        "quiver",
        "--arrows",
        ",".join(f"{i}->{i + 1}" for i in range(1, vertices)),
        "--dim",
        ",".join(["1"] * vertices),
        "--theta",
        ",".join(["1"] + ["0"] * (vertices - 2) + ["-1"]),
        "--json",
        str(out_file),
    )
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert "stratum enumeration refused" in err
    assert read_json(out_file)["error"]["type"] == "SizeLimitError"


def test_kronecker_grid_refuses_more_than_2_to_the_20_points(capsys, tmp_path):
    control = ["control", "--n", "3", "--m", "2"]
    dag = ["dag", "--samples", "10", "--parents", "3"]
    cases = [
        (["kronecker", "--grid", "16"], "Kronecker grid refused"),
        (["kronecker", "--grid", "1000000"], "Kronecker grid refused"),
        ([*control, "--trials", "1048577"], "trials refused"),
        ([*control, "--trials", "1000000000"], "trials refused"),
        ([*control, "--paths", "4097", "--path-samples", "256"], "path points"),
        ([*control, "--paths", "1000000000"], "path points"),
        ([*control, "--paths", "1", "--path-samples", "1000000000"], "path points"),
        ([*dag, "--degenerate-trials", "65537"], "degenerate trials refused"),
        ([*dag, "--degenerate-trials", "1000000000"], "trials refused"),
    ]
    for i, (argv, message) in enumerate(cases):
        out_file = tmp_path / f"err_{i}.json"
        start = time.monotonic()
        code, out, err = run(capsys, "verify", *argv, "--json", str(out_file))
        assert time.monotonic() - start < 1.0, argv
        assert code == 2, argv
        assert out == ""
        assert message in err, argv
        assert read_json(out_file)["error"]["type"] == "SizeLimitError"


# Instance files json or Fraction cannot read: each must give a
# SchemaError and exit 2, not a traceback.
UNREADABLE_FILES = {
    "rational_past_digit_limit": (
        b'{"family": "control", "n": 1, "m": 1, "A": [["1"]], "B": [["'
        + b"7" * 4301
        + b'"]]}'
    ),
    "integer_literal_past_digit_limit": (
        b'{"family": "control", "n": 1, "m": 1, "A": [[1]], "B": [['
        + b"7" * 4301
        + b"]]}"
    ),
    "nested_100000_deep": b"[" * 100_000,
    "not_utf8": b'{"family": "dag", "n": 1, "k": 1, "Y": [["\xff\xfe", "1"]]}',
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
def test_check_refuses_unreadable_files(name, capsys, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE_FILES[name])
    out_file = tmp_path / "err.json"
    start = time.monotonic()
    code, out, err = run(capsys, "check", str(path), "--json", str(out_file))
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert read_json(out_file)["error"]["type"] == "SchemaError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "control", "--n", "3", "--m", "2", "--max-q", "100000000"],
         "homotopy table up to q = 100000000 refused"),
        (["homotopy", "dag", "--samples", "10", "--parents", "3",
          "--max-q", "100000000", "--assume-free-action"],
         "homotopy table up to q = 100000000 refused"),
        (["analyze", "quiver", "--arrows", "1->2", "--dim", "300,300",
          "--theta=1,-1"], "stratum enumeration refused"),
        (["analyze", "control", "--n", "20000", "--m", "1"],
         "stratum enumeration refused"),
        (["analyze", "dag", "--samples", "10", "--parents", "20000"],
         "stratum enumeration refused"),
        (["analyze", "dag", "--samples", "10", "--parents", "2048"],
         "2048 classes x 2049 weights per class"),
    ],
    ids=["analyze-max-q", "homotopy-max-q", "quiver-300x300", "control-n-20000",
         "dag-k-20000", "dag-k-2048"],
)
def test_oversized_tables_are_refused_before_any_work(argv, message, capsys, tmp_path):
    out_file = tmp_path / "err.json"
    start = time.monotonic()
    code, out, err = run(capsys, *argv, "--json", str(out_file))
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert message in err
    assert read_json(out_file)["error"]["type"] == "SizeLimitError"


def test_dag_work_limit_counts_k_plus_1_weights_per_class(monkeypatch):
    # k classes of k + 1 weights each: k = 2047 fits in 2^22, k = 2048 does
    # not (refused in test_oversized_tables_are_refused_before_any_work).
    check_stratum_work(2047, 2048)
    built = []
    monkeypatch.setattr(dag, "strata_from_classes", lambda *args: built.append(args))
    dag.DagFamily(10, 2047).strata(OrbitConvention.PARABOLIC)
    assert len(built) == 1


# One entry past MAX_POINT_ENTRIES = 2^16 integers per point: n(n + m) for
# control, n(k + 1) for DAG, two per arrow for a quiver.
@pytest.mark.parametrize(
    "argv, entries",
    [
        (["control", "--n", "3", "--m", "21843"], 65538),
        (["dag", "--samples", "16385", "--parents", "3"], 65540),
        (["quiver", "--arrows", ",".join(["1->2"] * 32769), "--dim", "1,1",
          "--theta=1,-1"], 65538),
    ],
    ids=["control", "dag", "quiver"],
)
def test_verify_refuses_a_point_past_the_entry_limit(argv, entries, capsys, tmp_path):
    out_file = tmp_path / "err.json"
    start = time.monotonic()
    code, out, err = run(
        capsys, "verify", *argv, "--trials", "1", "--json", str(out_file)
    )
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert f"a point of {entries} integers refused" in err
    assert read_json(out_file)["error"]["type"] == "SizeLimitError"


def test_verify_refuses_an_oversized_point_even_when_it_draws_none(capsys):
    # n < k, so generic sampling would be skipped; the run is refused anyway.
    code, out, err = run(
        capsys, "verify", "dag", "--samples", "1", "--parents", "70000", "--trials", "1"
    )
    assert code == 2 and out == ""
    assert "a point of 70001 integers refused" in err


def test_verify_control_refuses_a_run_past_the_work_limit(capsys, tmp_path):
    # 2000 trials of 10100 integers each: about two minutes at n = 100.
    out_file = tmp_path / "err.json"
    start = time.monotonic()
    code, out, err = run(
        capsys, "verify", "control", "--n", "100", "--m", "1", "--trials", "2000",
        "--json", str(out_file),
    )
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert "2000 point checks x 10100 integers per point refused" in err
    assert read_json(out_file)["error"]["type"] == "SizeLimitError"


# Past MAX_TRIAL_WORK = 2^24 point checks x integers per point, at about
# 2 us per integer: n(k + 1) for DAG, two per arrow for a quiver.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["dag", "--samples", "16384", "--parents", "3", "--trials", "257"],
         "257 point checks x 65536 integers per point refused"),
        (["quiver", "--arrows", ",".join(f"{i}->{i % 20 + 1}" for i in range(1, 21)),
          "--dim", ",".join(["1"] * 20), "--theta=" + ",".join(["19"] + ["-1"] * 19),
          "--trials", "419431"],
         "419431 point checks x 40 integers per point refused"),
    ],
    ids=["dag", "quiver"],
)
def test_verify_refuses_a_run_past_the_work_limit(argv, message, capsys, tmp_path):
    out_file = tmp_path / "err.json"
    start = time.monotonic()
    code, out, err = run(capsys, "verify", *argv, "--json", str(out_file))
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert message in err
    assert read_json(out_file)["error"]["type"] == "SizeLimitError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dag", "--samples", "10", "--parents", "3", "--degenerate-trials", "-5"],
         "degenerate trials must be positive"),
        (["dag", "--samples", "10", "--parents", "3", "--degenerate-trials", "0"],
         "degenerate trials must be positive"),
        (["control", "--n", "3", "--m", "2", "--degenerate-trials", "0"],
         "degenerate trials must be positive"),
    ],
)
def test_verify_refuses_bad_degenerate_trials(capsys, tmp_path, argv, message):
    out_file = tmp_path / "err.json"
    code, out, err = run(
        capsys, "verify", *argv, "--trials", "3", "--json", str(out_file)
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert read_json(out_file)["error"]["message"] == message
