"""Runs one workload's commands in a fresh, single-threaded process.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) holds the source directory, the commands,
the time budget and whether to trace.  Commands go through
`git_topo.cli.main(argv)` in-process with stdout and stderr captured,
in a closed loop: each starts only after the previous one returned.  A
pass issues every command once.  Untraced, passes repeat until the
budget is spent and at least `min_commands` commands have run, always
finishing the pass in progress so each pass has the same mix.  Traced,
untraced passes fill half the budget and one traced pass follows.

Each command's wall time is also reported normalized to host speed (see
calibration.py): the calibration loop runs before every command, outside
its timed interval, and every 250 ms from a signal handler.  After each
command the worker hashes the command's JSON output (with the wall-clock
`elapsed_ms` fields removed) so run.py can check every execution, not
only the last.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import calibration

# Untraced runs stop starting new passes after this long, so that a much
# slower program still exits within the time the caller allows.
HARD_STOP_S = 100.0


def output_digest(kind: str, path: str) -> tuple[str | None, int]:
    """sha256 and length of the command's canonical output."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None, 0
    if kind == "verify":
        payload = json.loads(data)
        for report in payload.get("reports", []):
            report.pop("elapsed_ms", None)
        data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def run_pass(commands: list[dict], main, sampler, tracer=None) -> dict:
    """Issue every command once, with a calibration sample before each."""
    records = []
    for index, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        with contextlib.suppress(FileNotFoundError):
            os.remove(cmd["out"])
        # Start every command from an empty collector state, as a fresh
        # CLI process does; otherwise full collections land at places
        # that depend on what ran before.
        gc.collect()
        sampler.sample()
        interrupted = sampler.interrupted_s
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                rc = main(cmd["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed command, not a crashed run
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        elapsed -= sampler.interrupted_s - interrupted
        digest, size = output_digest(cmd["kind"], cmd["out"])
        records.append({"start": start, "wall_s": elapsed, "rc": rc,
                        "digest": digest, "bytes": size})
    return {"records": records, "items": sum(cmd["items"] for cmd in commands)}


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import git_topo.cli

    if not os.path.abspath(git_topo.cli.__file__).startswith(plan["src"] + os.sep):
        print(f"git_topo imported from {git_topo.cli.__file__}, not {plan['src']}",
              file=sys.stderr)
        return 2
    cli_main = git_topo.cli.main
    result: dict = {"passes": []}
    with calibration.Sampler() as sampler:
        run_passes(plan, cli_main, sampler, result)
    calibration.normalize([r for p in result["passes"] for r in p["records"]],
                          sampler.samples)
    for p in result["passes"]:
        p["busy_s"] = sum(r["s"] for r in p["records"])
        p["wall_s"] = sum(r["wall_s"] for r in p["records"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_passes(plan: dict, cli_main, sampler, result: dict) -> None:
    """Untraced passes for the time budget (half of it when tracing), then
    one traced pass when tracing."""
    commands = plan["commands"]
    trace = plan["trace"]
    budget = plan["seconds"] / 2 if trace else plan["seconds"]
    min_commands = 0 if trace else plan["min_commands"]
    start = time.perf_counter()
    executed = 0
    while True:
        result["passes"].append(run_pass(commands, cli_main, sampler))
        executed += len(commands)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= budget and executed >= min_commands):
            break
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        traced = run_pass(commands, tracer.wrap(cli_main, "cli.main"), sampler, tracer)
        tracer.uninstall()
        result["passes"].append(traced)
        result["layers"] = tracer.layer_metrics()
        result["trace_missing"] = tracer.missing
        tracer.dump(plan["spans_stem"])


if __name__ == "__main__":
    sys.exit(main())
