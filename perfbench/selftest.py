"""Tiny-size self-test of the benchmark.

Usage: python3 perfbench/selftest.py

Runs all four workloads at tiny size (one small command of each kind) at
the default seed, untraced and traced, and checks that:
- every metric BENCHMARK.json names is emitted with its unit;
- no command failed, so ops_failed_frac is 0, and every tiny command has
  a stored digest that its output matched;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import plan  # noqa: E402
import run  # noqa: E402


def bench(args: list[str], cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    digests = run.load_json(run.DIGESTS, {})
    for workload in plan.WORKLOADS:
        # Labels and inputs do not depend on the work directory.
        for cmd in plan.build_plan(workload, run.DEFAULT_SEED,
                                   os.path.join(run.WORK, "selftest"), tiny=True):
            if cmd["label"] not in digests.get(workload, {}):
                problems.append(f"{workload}/{cmd['label']}: no stored digest")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        rc, out = bench(["--workload", "all", "--seed", str(run.DEFAULT_SEED),
                         "--seconds", "1", "--trace", str(trace), "--tiny"])
        if rc != 0:
            problems.append(f"--trace {trace} exited {rc}:\n{out}")
            continue
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            failures = [line for line in out.splitlines() if line.startswith("FAILED")]
            problems.append(f"--trace {trace}: {result['failed']} of "
                            f"{result['attempted']} failed: {failures}")
        for workload in plan.WORKLOADS:
            for metric in spec[section]:
                got = result["metrics"].get(f"{workload}.{metric['name']}")
                if got is None:
                    problems.append(f"{workload}: {metric['name']} missing")
                elif got["unit"] != metric["unit"] or not isinstance(
                    got["value"], (int, float)
                ):
                    problems.append(f"{workload}: {metric['name']} = {got}")
            if f"{workload} ops_failed_frac = 0 " not in out:
                problems.append(f"{workload}: ops_failed_frac is not 0")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = bench(["--workload", plan.WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
    if rc == 0 or '"metrics"' in out:
        problems.append(f"without the package the benchmark exited {rc}:\n{out}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
