#!/usr/bin/env python3
"""Print the headline connectivity tables for the three model families.

Covers the 2-Kronecker quiver, the controllable-pair family at (n, m) =
(3, 2) under both orbit conventions, and the star DAG at (n, k) = (10, 3)
with its low-degree homotopy table.  Each table is one `git-topo
analyze` command, run through git_topo.cli.main, so the text and the
--json files are exactly the command's.  Every table is recomputed from
scratch; no result is cached or looked up.  Only the command-line
parser, which main builds on its first call, is reused by the later ones.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from git_topo.cli import main as git_topo
from git_topo.families.base import integer

KRONECKER = ["--arrows", "1->2,1->2", "--dim", "1,1", "--theta", "1,-1"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-q", type=integer, default=5,
                        help="top homotopy degree for the DAG table (default 5)")
    parser.add_argument("--json", metavar="DIR",
                        help="also write one canonical JSON report per table into DIR")
    args = parser.parse_args(argv)

    # (title, JSON file name, `git-topo analyze` arguments) per table.
    tables = [
        ("kronecker quiver, theta = (1, -1)", "kronecker", ["quiver", *KRONECKER]),
        ("control (n=3, m=2), parabolic", "control_parabolic",
         ["control", "--n", "3", "--m", "2", "--orbit-convention", "parabolic"]),
        ("control (n=3, m=2), centralizer", "control_centralizer",
         ["control", "--n", "3", "--m", "2", "--orbit-convention", "centralizer"]),
        ("star DAG (n=10, k=3)", "dag",
         ["dag", "--samples", "10", "--parents", "3", "--max-q", str(args.max_q)]),
    ]

    if args.json:
        Path(args.json).mkdir(parents=True, exist_ok=True)
    written = []
    for title, name, analyze_args in tables:
        print(f"== {title} ==")
        if args.json:
            written.append(Path(args.json) / f"{name}.json")
            analyze_args = [*analyze_args, "--json", str(written[-1])]
        code = git_topo(["analyze", *analyze_args])
        if code:
            return code
        print()

    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
