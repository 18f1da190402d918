"""The documentation's examples run: README sessions and module doctests."""

import doctest
from pathlib import Path

import git_topo.linalg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_sessions():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_linalg_doctest():
    result = doctest.testmod(git_topo.linalg)
    assert result.attempted > 0
    assert result.failed == 0
