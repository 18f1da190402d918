#!/usr/bin/env python3
"""Run the full sampling battery against all three families and report.

Operations, in order: generic-point sampling (control, DAG, Kronecker),
quadratic path checks (control and DAG; the connectivity bound those
paths witness needs d_min >= 2), the exhaustive Kronecker grid oracle,
and constructed rank-deficient DAG detection.  The exit code is the
number of operations whose report failed, so 0 means a clean run.

Generic-point caveat: an unstable hit is not automatically a bug.  For
the control family at (3, 2) the uncontrollable locus has complex
codimension 2, and integer sampling at the default bound hits it at a
rate near 7e-5 per trial, so expect an occasional genuine hit at 10^4
trials.  When a generic-point run has hits this script rescans the run
and prints the hit trial indices, so each draw can be reconstructed
with draw_instance and inspected by hand.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from git_topo.families.control import ControlFamily
from git_topo.families.dag import DagFamily
from git_topo.families.quiver import kronecker_spec
from git_topo.harness import (
    OP_GENERIC_POINTS,
    TrialConfig,
    detect_constructed_degenerates,
    draw_instance,
    kronecker_oracle_check,
    sample_generic_points,
    sample_path_stability,
)
from git_topo.reports import render_harness_text


def generic_hit_indices(config: TrialConfig) -> list[int]:
    """Trial indices whose draw is not Stable (same draws as the run)."""
    return [
        i
        for i in range(config.trials)
        if not draw_instance(config, i).status().is_stable
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=10000,
                        help="generic-point trials per family (default 10000)")
    parser.add_argument("--bound", type=int, default=9,
                        help="entry bound for integer draws (default 9)")
    parser.add_argument("--paths", type=int, default=100,
                        help="quadratic paths per family (default 100)")
    parser.add_argument("--path-samples", type=int, default=256)
    parser.add_argument("--grid", type=int, default=2,
                        help="Kronecker oracle grid radius (default 2)")
    parser.add_argument("--degenerate-trials", type=int, default=1000,
                        help="constructed rank-deficient DAG trials (default 1000)")
    args = parser.parse_args(argv)

    control = ControlFamily(3, 2)
    dag = DagFamily(10, 3)
    kron = kronecker_spec()

    def cfg(spec, **kwargs):
        return TrialConfig(spec, seed=args.seed, entry_bound=args.bound, **kwargs)

    runs = [
        sample_generic_points(cfg(control, trials=args.trials)),
        sample_generic_points(cfg(dag, trials=args.trials)),
        sample_generic_points(cfg(kron, trials=args.trials)),
        sample_path_stability(
            cfg(control, trials=1, paths=args.paths, path_samples=args.path_samples)
        ),
        sample_path_stability(
            cfg(dag, trials=1, paths=args.paths, path_samples=args.path_samples)
        ),
        kronecker_oracle_check(args.grid),
        detect_constructed_degenerates(cfg(dag, trials=args.degenerate_trials)),
    ]

    labels = [
        "generic points, control (3, 2)",
        "generic points, dag (10, 3)",
        "generic points, kronecker",
        "paths, control (3, 2)",
        "paths, dag (10, 3)",
        f"kronecker oracle, grid radius {args.grid}",
        "constructed degenerates, dag (10, 3)",
    ]

    failures = 0
    for label, report in zip(labels, runs):
        print(f"== {label} ==")
        for line in render_harness_text(report):
            print(line)
        if report.failed():
            failures += 1
            print("FAILED")
            if report.op == OP_GENERIC_POINTS and report.unstable_hits:
                print(f"hit trial indices: {generic_hit_indices(report.config)}")
        print()

    print(f"{len(runs)} operations, {failures} failed")
    return failures


if __name__ == "__main__":
    sys.exit(main())
