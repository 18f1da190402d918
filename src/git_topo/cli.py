"""Command-line interface.

Four subcommands: analyze (strata and connectivity for a family), check
(stability of one instance file), homotopy (group tables, requires the
free-action attestation), and verify (the randomized harness).  Text goes
to stdout; --json writes the same payload as canonical JSON.  Exit
status: 0 on success, 1 when a verify counter fails, 2 on any validation
or schema error or when the --json file cannot be written.  The family
flags come from each family's spec class (see git_topo.families).

`main(argv)` may be called any number of times in one process.  The
parser is built once, on the first call (never at import), and reused:
each call parses into a fresh namespace, and the handlers read this
module's names when they run.  Code that changes `FAMILIES` must call
`build_parser.cache_clear()` so the next parser offers the new flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import cache, partial
from typing import Callable, Iterable

from git_topo.connectivity import summarize_strata
from git_topo.errors import DomainError, GitTopoError, SchemaError
from git_topo.families import FAMILIES, DagInstance, dag_stabilize
from git_topo.families.base import (
    integer,
    parse_int_list,
    rational_from_json,
    rational_to_str,
)
from git_topo.families.dag import dag_solve_mle
from git_topo.groups import OrbitConvention
from git_topo.harness import (
    TrialConfig,
    check_degenerate_config,
    detect_constructed_degenerates,
    kronecker_oracle_check,
    sample_generic_points,
    sample_path_stability,
)
from git_topo.reports import (
    render_connectivity_text,
    render_harness_text,
    render_homotopy_text,
    render_status_text,
)
from git_topo.serialize import (
    canonical_dumps,
    harness_report_to_json,
    instance_from_json,
    instance_to_json,
    report_head_to_json,
    report_to_json,
    status_to_json,
)


# verify's sampling options: dest, the TrialConfig field it sets, help.
# The fields' defaults are the only defaults.
_TRIAL_OPTIONS = (
    ("trials", "trials", "generic-point trials"),
    ("seed", "seed", "64-bit seed"),
    ("bound", "entry_bound", "entries drawn from [-bound, bound]"),
    ("paths", "paths", "quadratic path trials"),
    ("path_samples", "path_samples", "evaluations per path"),
)
_FAMILY_FLAGS = [dest for cls in FAMILIES.values() for dest, _, _ in cls.CLI_ARGS]
DEFAULT_GRID = 2
DEFAULT_EPSILON = "1/1000"


def _refuse_options(args: argparse.Namespace, dests: list[str]) -> None:
    """Refuse any of these options the command line gave."""
    given = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d) is not None]
    if given:
        raise SchemaError(f"{args.family} does not take {', '.join(given)}")


def _family_from_args(args: argparse.Namespace, refused: tuple[str, ...] = ()):
    cls = FAMILIES[args.family]
    own = [dest for dest, _, _ in cls.CLI_ARGS]
    missing = [f"--{dest}" for dest in own if getattr(args, dest) is None]
    if missing:
        raise SchemaError(f"{args.family} needs {', '.join(missing)}")
    _refuse_options(args, [*(d for d in _FAMILY_FLAGS if d not in own), *refused])
    return cls.from_args(args)


def _convention_from_args(args: argparse.Namespace) -> OrbitConvention | None:
    if args.orbit_convention is None:
        return None
    return OrbitConvention(args.orbit_convention)


def _add_family_args(
    parser: argparse.ArgumentParser, extra: tuple[str, ...] = ()
) -> None:
    parser.add_argument("family", choices=[*FAMILIES, *extra], help="model family")
    for cls in FAMILIES.values():
        for dest, kind, text in cls.CLI_ARGS:
            parser.add_argument(f"--{dest}", type=kind, help=text)
    parser.add_argument(
        "--orbit-convention",
        choices=["parabolic", "centralizer"],
        help="override the family's default orbit convention "
        "(verify: the one the path test's d_min gate uses)",
    )


# Each handler returns (encoder of its canonical JSON text as chunks,
# renderer of its text lines, exit status).  main encodes only under
# --json and writes the chunks one by one, so no full copy of a large
# table's JSON text is built.  `analyze` asks for the rows' JSON texts
# only under --json: its table writes each row's text line, and its JSON
# text with it, as the expansion lists the row.
Handled = tuple[Callable[[], Iterable[str]], Callable[[], list[str]], int]


def _encoded(payload: dict) -> list[str]:
    return [canonical_dumps(payload)]


def cmd_analyze(args: argparse.Namespace) -> Handled:
    report = summarize_strata(
        _family_from_args(args),
        _convention_from_args(args),
        max_q=args.max_q,
        rows="text" if args.json is None else "json",
    )
    return (
        partial(report_to_json, report),
        partial(render_connectivity_text, report),
        0,
    )


def cmd_check(args: argparse.Namespace) -> Handled:
    if args.epsilon is not None and not args.stabilize:
        raise SchemaError("--epsilon applies only with --stabilize")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {args.file}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, non-UTF-8 bytes, an integer literal past
        # Python's digit limit, or nesting past the recursion limit.
        raise SchemaError(f"{args.file} is not valid JSON: {exc}") from None
    instance = instance_from_json(data)
    family = instance.family().name
    status = instance.status()
    payload: dict = {"family": family, "status": status_to_json(status)}
    lines = render_status_text(family, status)
    working = instance
    if args.stabilize:
        if not isinstance(instance, DagInstance):
            raise SchemaError("--stabilize applies to DAG instance files")
        epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
        eps = rational_from_json(epsilon, "--epsilon")
        working = dag_stabilize(instance, eps)
        payload["stabilized"] = instance_to_json(working)
        payload["epsilon"] = rational_to_str(eps)
        lines.append(f"stabilized with epsilon = {rational_to_str(eps)}")
        after = working.status()
        lines.append(f"stabilized verdict: {after.verdict.value}")
        payload["stabilized_status"] = status_to_json(after)
    if args.mle:
        if not isinstance(working, DagInstance):
            raise SchemaError("--mle applies to DAG instance files")
        beta = dag_solve_mle(working)
        payload["mle"] = [rational_to_str(b) for b in beta]
        lines.append("mle: (" + ", ".join(rational_to_str(b) for b in beta) + ")")
    return partial(_encoded, payload), lines.copy, 0


def cmd_homotopy(args: argparse.Namespace) -> Handled:
    if not args.assume_free_action:
        raise SchemaError(
            "homotopy tables assume the group acts freely on the stable "
            "locus, which this tool cannot verify; pass --assume-free-action "
            "to attest it"
        )
    spec = _family_from_args(args)
    report = summarize_strata(spec, _convention_from_args(args), args.max_q, rows=None)
    encode = partial(_encoded, report_head_to_json(report))
    return encode, partial(render_homotopy_text, report), 0


def cmd_verify(args: argparse.Namespace) -> Handled:
    reports = []
    if args.family == "kronecker":
        refused = [d for d in _FAMILY_FLAGS if d != "theta"] + ["orbit_convention"]
        refused += [dest for dest, _, _ in _TRIAL_OPTIONS] + ["degenerate_trials"]
        _refuse_options(args, refused)
        theta = (1, -1) if args.theta is None else parse_int_list(args.theta, "--theta")
        if len(theta) != 2:
            raise SchemaError("--theta: the Kronecker quiver has two vertices")
        grid = DEFAULT_GRID if args.grid is None else args.grid
        reports.append(kronecker_oracle_check(grid, theta))
    else:
        spec = _family_from_args(args, refused=("grid",))
        given = {
            field: getattr(args, dest)
            for dest, field, _ in _TRIAL_OPTIONS
            if getattr(args, dest) is not None
        }
        cfg = TrialConfig(spec, convention=_convention_from_args(args), **given)
        degen_cfg = None
        if args.degenerate_trials is not None:
            if args.degenerate_trials < 1:
                raise DomainError("degenerate trials must be positive")
            degen_cfg = TrialConfig(
                spec,
                trials=args.degenerate_trials,
                seed=cfg.seed,
                entry_bound=cfg.entry_bound,
            )
            check_degenerate_config(degen_cfg)
        # The path gate's table is checked before the first generic trial;
        # each stream is keyed by (seed, op), so the order draws nothing new.
        paths = [sample_path_stability(cfg)] if cfg.paths > 0 else []
        reports += [sample_generic_points(cfg), *paths]
        if degen_cfg is not None:
            reports.append(detect_constructed_degenerates(degen_cfg))
    ok = not any(r.failed() for r in reports)
    lines: list[str] = []
    for r in reports:
        lines.extend(render_harness_text(r))
    lines.append("ok" if ok else "FAILED")
    payload = {
        "ok": ok,
        "reports": [harness_report_to_json(r) for r in reports],
    }
    return partial(_encoded, payload), lines.copy, 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="git-topo",
        description=(
            "Exact GIT stability checks, destabilizing strata, connectivity "
            "bounds, and homotopy tables for quiver, control, and star-DAG "
            "families"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    analyze = sub.add_parser("analyze", help="strata, d_min, connectivity")
    _add_family_args(analyze)
    analyze.add_argument(
        "--max-q", type=integer, default=None, help="include a homotopy table up to q"
    )
    analyze.set_defaults(handler=cmd_analyze)

    check = sub.add_parser("check", help="stability status of an instance file")
    check.add_argument("file", help="JSON instance file")
    check.add_argument("--mle", action="store_true", help="solve the DAG MLE")
    check.add_argument(
        "--stabilize", action="store_true", help="emit an eps-stabilized DAG sample"
    )
    check.add_argument(
        "--epsilon",
        help=f"perturbation size p/q for --stabilize (default {DEFAULT_EPSILON})",
    )
    check.set_defaults(handler=cmd_check)

    homotopy = sub.add_parser("homotopy", help="homotopy-group table")
    _add_family_args(homotopy)
    homotopy.add_argument("--max-q", type=integer, required=True, help="table up to q")
    homotopy.add_argument(
        "--assume-free-action",
        action="store_true",
        help="attest the free-action hypothesis (required)",
    )
    homotopy.set_defaults(handler=cmd_homotopy)

    verify = sub.add_parser("verify", help="seeded verification harness")
    _add_family_args(verify, extra=("kronecker",))
    defaults = {f.name: f.default for f in fields(TrialConfig)}
    for dest, field, text in _TRIAL_OPTIONS:
        flag = "--" + dest.replace("_", "-")
        verify.add_argument(
            flag, type=integer, help=f"{text} (default {defaults[field]})"
        )
    verify.add_argument(
        "--grid", type=integer, help=f"Kronecker grid radius (default {DEFAULT_GRID})"
    )
    verify.add_argument(
        "--degenerate-trials", type=integer, help="constructed rank-deficient DAG trials"
    )
    verify.set_defaults(handler=cmd_verify)

    for subparser in sub.choices.values():
        subparser.add_argument(
            "--json", metavar="PATH", help="write canonical JSON here"
        )

    return parser


def _run(args: argparse.Namespace) -> tuple[Iterable[str] | None, list[str], int]:
    """The handler's JSON text chunks (only under --json), text lines and
    exit status."""
    try:
        encode, render, code = args.handler(args)
    except GitTopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        error = {"type": type(exc).__name__, "message": str(exc)}
        encode, render, code = partial(_encoded, {"error": error}), list, 2
    return None if args.json is None else encode(), render(), code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    chunks, lines, code = _run(args)
    if lines:
        print("\n".join(lines))
    if chunks is not None:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
