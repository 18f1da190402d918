"""git-topo benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory and nowhere else.  For one workload the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Lines before it name each metric with its unit and sample
count.  `--workload all` runs the four workloads in turn and prefixes
metric names with the workload.

Steps, of which only the worker's commands are timed:
1. write the workload's inputs from the seed (plan.py);
2. compute the reference once per seed and cache it (reference.py);
3. measure set-up: the import of git_topo.cli in fresh interpreters;
4. run the commands in a fresh worker process (worker.py);
5. check every execution against the reference, against the other
   executions of the same command, and, at the default seed, against
   the stored output digests (digests.json).

Everything the benchmark writes goes under `.perfbench_work/` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
import plan  # noqa: E402
import reference  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 7
MIN_COMMANDS = 100
# The driver allows 180 s per run; the worker gets what is left of it.
RUN_LIMIT_S = 170.0

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calibration\n"
    "before = calibration.loop_seconds()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import git_topo.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "after = calibration.loop_seconds()\n"
    "print(calibration.scale(elapsed, [before, after]), elapsed, git_topo.cli.__file__)\n"
)

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rng.draw_us": "us",
    "rng.draws": "count",
    "harness.self_ms": "ms",
    "families.control.rank_us": "us",
    "families.control.krylov_us": "us",
    "families.dag.rank_us": "us",
    "families.dag.stabilize_ms": "ms",
    "families.dag.mle_ms": "ms",
    "families.quiver.scan_us": "us",
    "families.quiver.strata_ms": "ms",
    "families.quiver.strata_kept_frac": "frac",
    "linalg.int_rank_us": "us",
    "linalg.int_rank.calls": "count",
    "linalg.int_rank.max_input_bits": "bits",
    "linalg.int_rank.full_rank_frac": "frac",
    "linalg.rref_ms": "ms",
    "groups.orbit_dim_us": "us",
    "connectivity.summarize_ms": "ms",
    "reports.render_ms": "ms",
    "serialize.decode_us": "us",
    "serialize.bytes_in": "bytes",
    "serialize.encode_ms": "ms",
    "serialize.bytes_out": "bytes",
    "cli.self_ms": "ms",
    "trace.items_per_s_untraced": "1/s",
    "trace.items_per_s_traced": "1/s",
    "trace.slowdown": "ratio",
}

# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "rng.draws",
    "linalg.int_rank.calls",
    "linalg.int_rank.max_input_bits",
    "linalg.int_rank.full_rank_frac",
    "families.quiver.strata_kept_frac",
    "serialize.bytes_in",
    "serialize.bytes_out",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def code_hash() -> str:
    """Digest of the package and benchmark sources (keys the caches)."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "git_topo"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def load_json(path: str, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def save_json(path: str, data) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)


def expectations(workload: str, seed: int, commands: list[dict], key: str) -> dict:
    path = os.path.join(WORK, "cache", f"ref-{workload}-{seed}-{key}.json")
    cached = load_json(path, {})
    missing = [c for c in commands if c["label"] not in cached]
    for cmd in missing:
        cached[cmd["label"]] = reference.expect(cmd)
    if missing:
        save_json(path, cached)
    return cached


def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of git_topo.cli in fresh interpreters, normalized and
    wall-clock, after a warm-up import that fills the bytecode cache."""
    normalized, wall = [], []
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, HERE],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing git_topo.cli failed:\n{proc.stderr}")
        norm, elapsed, origin = proc.stdout.split(maxsplit=2)
        if not os.path.abspath(origin.strip()).startswith(SRC + os.sep):
            raise BenchError(f"git_topo.cli came from {origin.strip()}, not {SRC}")
        if attempt:
            normalized.append(float(norm))
            wall.append(float(elapsed))
    return normalized, wall


def run_worker(commands, workload, seconds, trace, tiny, deadline) -> dict:
    workdir = os.path.join(WORK, workload)
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    save_json(plan_path, {
        "src": SRC,
        "commands": commands,
        "seconds": seconds,
        "min_commands": 0 if tiny else MIN_COMMANDS,
        "trace": trace,
        "spans_stem": os.path.join(workdir, "spans"),
    })
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("the worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker failed:\n{out}{err}")
    return load_json(result_path, None)


def verify(workload, seed, commands, expected, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every execution in every pass."""
    golden = load_json(DIGESTS, {}).get(workload, {}) if seed == DEFAULT_SEED else {}
    attempted = failed = 0
    messages = []
    for index, cmd in enumerate(commands):
        want = expected[cmd["label"]]
        records = [p["records"][index] for p in passes]
        final_digest = records[-1]["digest"]
        try:
            with open(cmd["out"], encoding="utf-8") as fh:
                payload = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            payload = None
        problem = reference.check(cmd, want, records[-1]["rc"], payload)
        if problem is None and cmd["label"] in golden and golden[cmd["label"]] != final_digest:
            problem = "canonical output differs from the stored digest"
        for record in records:
            attempted += 1
            bad = problem or (
                "exit code differs between executions" if record["rc"] != want["rc"] else
                "output differs between executions" if record["digest"] != final_digest
                else None
            )
            if bad:
                failed += 1
                messages.append(f"{cmd['label']}: {bad}")
    return attempted, failed, sorted(set(messages))


def quantile_ms(latencies: list[float], which: int) -> float:
    """Decile `which` (5 = median, 9 = p90) in milliseconds."""
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=10, method="inclusive")[which - 1] * 1e3


def pass_rate(p: dict, clock: str = "busy_s") -> float:
    return p["items"] / p[clock]


def run_workload(workload, seed, seconds, trace, tiny, record_digests) -> dict:
    started = time.monotonic()
    workdir = os.path.join(WORK, workload)
    commands = plan.build_plan(workload, seed, workdir, tiny)
    key = code_hash()
    expected = expectations(workload, seed, commands, key)
    for cmd in commands:
        if cmd["items"] is None:
            cmd["items"] = expected[cmd["label"]]["strata"]
    setup, setup_wall = ([], []) if trace else measure_setup()
    result = run_worker(commands, workload, seconds, trace, tiny, started + RUN_LIMIT_S)
    passes = result["passes"]
    attempted, failed, messages = verify(workload, seed, commands, expected, passes)
    if record_digests and seed == DEFAULT_SEED and not messages:
        digests = load_json(DIGESTS, {})
        digests.setdefault(workload, {}).update(
            {c["label"]: passes[-1]["records"][i]["digest"] for i, c in enumerate(commands)})
        save_json(DIGESTS, digests)
    latencies = [r["s"] for p in passes for r in p["records"]]
    wall = [r["wall_s"] for p in passes for r in p["records"]]
    lines = []
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_s": statistics.median(pass_rate(p) for p in passes),
            "cmd_p50_ms": quantile_ms(latencies, 5),
            "cmd_p90_ms": quantile_ms(latencies, 9),
            "peak_rss_mb": result["maxrss_kb"] / 1024,
        }
        items = sum(p["items"] for p in passes)
        samples = {
            "setup_s": f"median of {len(setup)} fresh imports; "
                       f"wall-clock {statistics.median(setup_wall):.6g}",
            "items_per_s": f"median of {len(passes)} passes, {items} items; wall-clock "
                           f"{statistics.median(pass_rate(p, 'wall_s') for p in passes):.6g}",
            "cmd_p50_ms": f"{len(latencies)} commands; wall-clock {quantile_ms(wall, 5):.6g}",
            "cmd_p90_ms": f"{len(latencies)} commands; wall-clock {quantile_ms(wall, 9):.6g}",
            "peak_rss_mb": "1 worker process",
        }
        units = END_TO_END
    else:
        untraced, traced = passes[:-1], passes[-1]
        metrics = dict(result["layers"])
        check_inputs = [c["spec"]["file"] for c in commands if c["kind"] == "check"]
        metrics["serialize.bytes_in"] = sum(os.path.getsize(f) for f in check_inputs)
        metrics["serialize.bytes_out"] = sum(r["bytes"] for r in traced["records"])
        untraced_rate = statistics.median(pass_rate(p) for p in untraced)
        metrics["trace.items_per_s_untraced"] = untraced_rate
        metrics["trace.items_per_s_traced"] = pass_rate(traced)
        metrics["trace.slowdown"] = untraced_rate / pass_rate(traced)
        samples = {name: f"1 traced pass, {len(commands)} commands" for name in metrics}
        samples["trace.items_per_s_untraced"] = f"median of {len(untraced)} untraced passes"
        units = PER_LAYER_UNITS
        counts = {name: metrics[name] for name in EXACT_COUNTS}
        count_path = os.path.join(
            WORK, "cache", f"counts-{workload}-{seed}-{'tiny' if tiny else 'full'}-{key}.json")
        previous = load_json(count_path, None)
        if previous is None:
            save_json(count_path, counts)
        elif previous != counts:
            drift = [n for n in EXACT_COUNTS if previous.get(n) != counts[n]]
            messages.append(f"exact counts drifted between runs: {', '.join(drift)}")
            failed += len(commands)
        if result.get("trace_missing"):
            lines.append(f"{workload} not traced (not found): "
                         + ", ".join(result["trace_missing"]))
    for name, value in metrics.items():
        lines.append(f"{workload} {name} = {value:.6g} {units[name]} ({samples[name]})")
    lines.append(f"{workload} ops_failed_frac = {failed / attempted:.6g} "
                 f"({failed} of {attempted} command executions)")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "lines": lines,
        "messages": messages,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*plan.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small command of each kind (the self-test)")
    parser.add_argument("--record-digests", action="store_true",
                        help="store output digests (only at the default seed)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "git_topo", "cli.py")):
        print(f"no git_topo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workloads = plan.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), args.tiny,
                args.record_digests)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for res in results.values():
        for line in res["lines"]:
            print(line)
        for message in res["messages"]:
            print(f"FAILED {message}")
    prefix = len(workloads) > 1
    summary = {
        "correct": all(not r["messages"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): value
            for w, r in results.items() for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
