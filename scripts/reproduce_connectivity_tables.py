#!/usr/bin/env python3
"""Print the headline connectivity tables for the three model families.

Covers the 2-Kronecker quiver, the controllable-pair family at (n, m) =
(3, 2) under both orbit conventions, and the star DAG at (n, k) = (10, 3)
with its low-degree homotopy table.  Everything is recomputed from
scratch; nothing is cached or looked up.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from git_topo.families.control import ControlFamily
from git_topo.families.dag import DagFamily
from git_topo.families.quiver import kronecker_spec
from git_topo.groups import OrbitConvention
from git_topo.reports import build_connectivity_report, render_connectivity_text
from git_topo.serialize import canonical_dumps, report_to_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-q", type=int, default=5,
                        help="top homotopy degree for the DAG table (default 5)")
    parser.add_argument("--json", metavar="DIR",
                        help="also write one canonical JSON report per table into DIR")
    args = parser.parse_args(argv)

    tables = [
        ("kronecker quiver, theta = (1, -1)",
         build_connectivity_report(kronecker_spec())),
        ("control (n=3, m=2), parabolic",
         build_connectivity_report(ControlFamily(3, 2), OrbitConvention.PARABOLIC)),
        ("control (n=3, m=2), centralizer",
         build_connectivity_report(ControlFamily(3, 2), OrbitConvention.CENTRALIZER)),
        ("star DAG (n=10, k=3)",
         build_connectivity_report(DagFamily(10, 3), max_q=args.max_q)),
    ]

    for title, report in tables:
        print(f"== {title} ==")
        for line in render_connectivity_text(report):
            print(line)
        print()

    if args.json:
        out_dir = Path(args.json)
        out_dir.mkdir(parents=True, exist_ok=True)
        names = ["kronecker", "control_parabolic", "control_centralizer", "dag"]
        for name, (_, report) in zip(names, tables):
            path = out_dir / f"{name}.json"
            path.write_text(canonical_dumps(report_to_json(report)) + "\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
