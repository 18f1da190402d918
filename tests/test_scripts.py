"""Smoke tests for the two scripts under scripts/, at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

from git_topo.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

KRONECKER = ["--arrows", "1->2,1->2", "--dim", "1,1", "--theta", "1,-1"]
# The file each table of reproduce_connectivity_tables.py writes, and the
# `git-topo analyze` command that must write the same payload.
TABLES = {
    "kronecker.json": ["analyze", "quiver", *KRONECKER],
    "control_parabolic.json": [
        "analyze", "control", "--n", "3", "--m", "2", "--orbit-convention", "parabolic"
    ],
    "control_centralizer.json": [
        "analyze", "control", "--n", "3", "--m", "2", "--orbit-convention", "centralizer"
    ],
    "dag.json": ["analyze", "dag", "--samples", "10", "--parents", "3", "--max-q", "5"],
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduced_tables_equal_the_cli_payloads(tmp_path, capsys):
    script = load_script("reproduce_connectivity_tables")
    out_dir = tmp_path / "tables"
    assert script.main(["--json", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(TABLES)
    for name, argv in TABLES.items():
        expected = tmp_path / f"cli_{name}"
        assert cli_main([*argv, "--json", str(expected)]) == 0
        assert (out_dir / name).read_bytes() == expected.read_bytes(), name
    capsys.readouterr()


@pytest.mark.parametrize("seed", [0, 1])
def test_verification_suite_passes_at_tiny_sizes(seed, capsys):
    script = load_script("run_verification_suite")
    argv = [
        "--seed", str(seed), "--trials", "20", "--paths", "2", "--path-samples", "8",
        "--grid", "1", "--degenerate-trials", "3",
    ]
    assert script.main(argv) == 0
    assert "7 operations, 0 failed" in capsys.readouterr().out
