"""Workload plans: the CLI commands each workload issues, built from a seed.

A plan is a list of commands, each a dict with a stable `label`, the
`argv` passed to `git_topo.cli.main`, the number of `items` the command
completes (verdicts for the verdict workloads, strata for
analyze-strata), and a `spec` the reference uses.  Instance files are
written before anything is timed.  Every random choice comes from
`rng_for(seed, label)`, so a command's input depends only on the seed and
its label: the tiny self-test plan is a subset of the full plan with the
same inputs, and the stored digests apply to both.

Shapes are fixed per workload and only entries, arrow orientations and
vertex orders vary with the seed, so the work per run stays the same
from seed to seed.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("generic-headline", "path-suite", "check-large", "analyze-strata")

BOUND = 9
PATH_SAMPLES = 256
GRID = 2


def rng_for(seed: int, label: str) -> random.Random:
    # String seeds are hashed with SHA-512, so this is stable across runs
    # and independent of PYTHONHASHSEED.
    return random.Random(f"{seed}/{label}")


def verify_seed(seed: int, label: str) -> int:
    return rng_for(seed, label).getrandbits(63)


def _command(label, argv, items, kind, spec, tiny):
    return {
        "label": label,
        "argv": argv,
        "items": items,
        "kind": kind,
        "spec": spec,
        "tiny": tiny,
    }


# generic-headline: criterion 6's shape, generic draws at the headline sizes.

GENERIC_SEEDS = 5
GRID_RUNS = 2
CONTROL_TRIALS = 3000
DAG_TRIALS = 1500
DAG_DEGENERATE = 30
QUIVER_TRIALS = 4000


def _generic_headline(seed: int, workdir: str) -> list[dict]:
    cmds = []
    for j in range(GENERIC_SEEDS):
        tiny = j == 0
        label = f"verify-control-3-2/s{j}"
        s = verify_seed(seed, label)
        cmds.append(_command(
            label,
            ["verify", "control", "--n", "3", "--m", "2", "--trials",
             str(CONTROL_TRIALS), "--bound", str(BOUND), "--seed", str(s)],
            CONTROL_TRIALS, "verify",
            {"family": "control", "n": 3, "m": 2, "trials": CONTROL_TRIALS,
             "seed": s}, tiny))
        label = f"verify-dag-10-3/s{j}"
        s = verify_seed(seed, label)
        cmds.append(_command(
            label,
            ["verify", "dag", "--samples", "10", "--parents", "3", "--trials",
             str(DAG_TRIALS), "--degenerate-trials", str(DAG_DEGENERATE),
             "--bound", str(BOUND), "--seed", str(s)],
            DAG_TRIALS + DAG_DEGENERATE, "verify",
            {"family": "dag", "n": 10, "k": 3, "trials": DAG_TRIALS,
             "degenerate": DAG_DEGENERATE, "seed": s}, tiny))
        label = f"verify-quiver-kronecker/s{j}"
        s = verify_seed(seed, label)
        cmds.append(_command(
            label,
            ["verify", "quiver", "--arrows", "1->2,1->2", "--dim", "1,1",
             "--theta", "1,-1", "--trials", str(QUIVER_TRIALS),
             "--bound", str(BOUND), "--seed", str(s)],
            QUIVER_TRIALS, "verify",
            {"family": "quiver", "trials": QUIVER_TRIALS, "seed": s}, tiny))
    # The grid oracle takes no seed.  Two runs rather than one per seed
    # keep the median and p90 latencies inside groups of equal commands.
    for j in range(GRID_RUNS):
        cmds.append(_command(
            f"verify-kronecker-grid/{j}",
            ["verify", "kronecker", "--grid", str(GRID)],
            (2 * GRID + 1) ** 4, "verify",
            {"family": "kronecker", "grid": GRID}, j == 0))
    return cmds


# path-suite: criterion 7's shape, pointwise checks along quadratic paths.

# Unequal seed counts keep the median and p90 latencies inside the
# control group (a dag command is the faster of the two).
PATH_SEEDS = {"control": 10, "dag": 6}
PATHS = 12


def _path_suite(seed: int, workdir: str) -> list[dict]:
    cmds = []
    for family, shape, spec in (
        ("control", ["--n", "3", "--m", "2"], {"n": 3, "m": 2}),
        ("dag", ["--samples", "10", "--parents", "3"], {"n": 10, "k": 3}),
    ):
        for j in range(PATH_SEEDS[family]):
            tiny = j == 0
            label = f"verify-{family}-paths/s{j}"
            s = verify_seed(seed, label)
            cmds.append(_command(
                label,
                ["verify", family, *shape, "--trials", "1", "--paths",
                 str(PATHS), "--path-samples", str(PATH_SAMPLES),
                 "--bound", str(BOUND), "--seed", str(s)],
                1 + PATHS * PATH_SAMPLES, "verify",
                {"family": family, **spec, "trials": 1, "paths": PATHS,
                 "path_samples": PATH_SAMPLES, "seed": s}, tiny))
    return cmds


# check-large: big-integer ranks, Fraction rref, subset scans, JSON reads.

# Three extra (40, 2) systems put p90 inside a group of five ~150 ms
# commands with the (30, 15) stabilization.
CONTROL_SIZES = tuple((n, m, "") for n in range(8, 41, 4) for m in (1, 2)) + tuple(
    (40, 2, v) for v in "bcd")
DAG_SIZES = ((30, 15), (40, 20), (50, 25), (60, 30))
# Files per quiver size.  With these counts the median latency falls in
# the middle of a group of ten ~20-26 ms commands (the 15-vertex files,
# dag (60, 30), control (24, 2) and (28, 1)).
QUIVER_CHECK_FILES = {12: 2, 13: 2, 14: 4, 15: 6, 16: 8}


def _entries(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(-BOUND, BOUND) for _ in range(cols)] for _ in range(rows)]


def _strs(rows: list[list[int]]) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _write(workdir: str, label: str, data: dict) -> str:
    path = os.path.join(workdir, "inputs", label.replace("/", "_") + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
    return path


def _check(label, path, flags, spec, tiny):
    return _command(label, ["check", path, *flags], 1, "check",
                    {**spec, "file": path}, tiny)


def _thin_check_quiver(rng: random.Random, v: int) -> dict:
    arrows = []
    for i in range(v):
        s, t = i, (i + 1) % v
        arrows.append([s + 1, t + 1] if rng.random() < 0.5 else [t + 1, s + 1])
    for _ in range(v // 2):
        s, t = rng.sample(range(v), 2)
        arrows.append([s + 1, t + 1])
    values = []
    for _ in arrows:
        if rng.random() < 0.3:
            values.append("0")
        elif rng.random() < 0.5:
            values.append([str(rng.randint(-BOUND, BOUND)), str(rng.randint(1, BOUND))])
        else:
            values.append(str(rng.choice([x for x in range(-BOUND, BOUND + 1) if x])))
    theta = [rng.randint(-3, 3) for _ in range(v - 1)]
    theta.append(-sum(theta))
    return {"family": "quiver", "vertices": v, "arrows": arrows,
            "dim": [1] * v, "theta": theta, "values": values}


def _check_large(seed: int, workdir: str) -> list[dict]:
    cmds = []
    for n, m, variant in CONTROL_SIZES:
        label = f"check-control-{n}-{m}{variant}"
        rng = rng_for(seed, label)
        a, b = _entries(rng, n, n), _entries(rng, n, m)
        path = _write(workdir, label, {"family": "control", "n": n, "m": m,
                                       "A": _strs(a), "B": _strs(b)})
        cmds.append(_check(label, path, [], {"family": "control", "n": n, "m": m,
                                             "A": a, "B": b}, n == 8))
    for n, k in DAG_SIZES:
        for variant in "ab":
            label = f"check-dag-{n}-{k}-{variant}"
            y = _entries(rng_for(seed, label), n, k + 1)
            path = _write(workdir, label, {"family": "dag", "n": n, "k": k,
                                           "Y": _strs(y)})
            cmds.append(_check(label, path, [], {"family": "dag", "n": n, "k": k,
                                                 "Y": y}, n == 30 and variant == "a"))
        # Constructed rank-deficient: X = U V with inner dimension k - 1.
        label = f"check-dag-deficient-{n}-{k}"
        rng = rng_for(seed, label)
        u, v = _entries(rng, n, k - 1), _entries(rng, k - 1, k)
        child = [rng.randint(-BOUND, BOUND) for _ in range(n)]
        y = [[sum(u[i][s] * v[s][c] for s in range(k - 1)) for c in range(k)]
             + [child[i]] for i in range(n)]
        path = _write(workdir, label, {"family": "dag", "n": n, "k": k,
                                       "Y": _strs(y)})
        cmds.append(_check(label, path, ["--stabilize", "--mle"],
                           {"family": "dag", "n": n, "k": k, "Y": y,
                            "stabilize": True}, n == 30))
    for v, files in QUIVER_CHECK_FILES.items():
        for variant in "abcdefgh"[:files]:
            label = f"check-quiver-{v}-{variant}"
            data = _thin_check_quiver(rng_for(seed, label), v)
            path = _write(workdir, label, data)
            cmds.append(_check(label, path, [], data, v == 12 and variant == "a"))
    return cmds


# analyze-strata: stratum enumeration, orbit dimensions, summaries, encoding.

ANALYZE_CONTROL = tuple((n, m) for n in range(5, 41, 5) for m in (1, 2))
ANALYZE_DAG = ((10, 3), (20, 5), (30, 8), (40, 10))
# Four 12-vertex analyses keep p90 inside a group of equal commands.
THIN_ANALYZE = (16, 14, 12, 12, 12, 12, 10, 10, 10, 10)
THIN_HOMOTOPY = (14, 12, 10, 10)
# Non-thin shapes: dimension vector and an admissible theta (theta . dim = 0).
NON_THIN = (
    ((2, 3, 2, 3, 2), (3, -2, 3, -2, 0)),
    ((3, 3, 2, 2), (2, 2, -3, -3)),
    ((2, 2, 2, 2, 2, 2), (1, 1, 1, -1, -1, -1)),
)
MAX_Q = 5


def _quiver_args(spec: dict) -> list[str]:
    return [
        "--arrows", ",".join(f"{s}->{t}" for s, t in spec["arrows"]),
        "--dim", ",".join(str(d) for d in spec["dim"]),
        # "=" keeps argparse from reading a leading "-1" as an option.
        "--theta=" + ",".join(str(a) for a in spec["theta"]),
    ]


def _thin_cycle(rng: random.Random, v: int) -> dict:
    """A v-cycle plus chords; theta is v-1 at one vertex and -1 elsewhere.

    Exactly the subsets holding the heavy vertex destabilize, so there
    are 2^(v-1) - 1 strata whatever the seed picks.
    """
    arrows = []
    for i in range(v):
        s, t = i + 1, (i + 1) % v + 1
        arrows.append((s, t) if rng.random() < 0.5 else (t, s))
    for _ in range(v // 4):
        s, t = rng.sample(range(1, v + 1), 2)
        arrows.append((s, t))
    theta = [-1] * v
    theta[rng.randrange(v)] = v - 1
    return {"family": "quiver", "arrows": arrows, "dim": [1] * v, "theta": theta}


def _non_thin(rng: random.Random, dims, theta) -> dict:
    order = list(range(len(dims)))
    rng.shuffle(order)
    dims = [dims[i] for i in order]
    theta = [theta[i] for i in order]
    v = len(dims)
    arrows = [tuple(rng.sample(range(1, v + 1), 2)) for _ in range(v + 2)]
    return {"family": "quiver", "arrows": arrows, "dim": dims, "theta": theta}


def _analyze_strata(seed: int, workdir: str) -> list[dict]:
    cmds = []
    for n, m in ANALYZE_CONTROL:
        convention = "parabolic" if m == 1 else "centralizer"
        spec = {"family": "control", "n": n, "m": m, "convention": convention}
        cmds.append(_command(
            f"analyze-control-{n}-{m}",
            ["analyze", "control", "--n", str(n), "--m", str(m),
             "--orbit-convention", convention],
            n - 1, "analyze", spec, n == 5))
    for n, k in ANALYZE_DAG:
        spec = {"family": "dag", "n": n, "k": k, "convention": "centralizer",
                "max_q": MAX_Q}
        shape = ["--samples", str(n), "--parents", str(k), "--max-q", str(MAX_Q)]
        cmds.append(_command(f"analyze-dag-{n}-{k}", ["analyze", "dag", *shape],
                             k, "analyze", spec, n == 10))
        cmds.append(_command(f"homotopy-dag-{n}-{k}",
                             ["homotopy", "dag", *shape, "--assume-free-action"],
                             k, "homotopy", spec, n == 10))
    for kind, sizes in (("analyze", THIN_ANALYZE), ("homotopy", THIN_HOMOTOPY)):
        for i, v in enumerate(sizes):
            label = f"{kind}-thin-{v}/{i}"
            spec = _thin_cycle(rng_for(seed, label), v)
            spec["convention"] = "parabolic"
            argv = [kind, "quiver", *_quiver_args(spec)]
            if kind == "homotopy":
                spec["max_q"] = MAX_Q
                argv += ["--max-q", str(MAX_Q), "--assume-free-action"]
            cmds.append(_command(label, argv, 2 ** (v - 1) - 1, kind, spec,
                                 v == 10 and i == len(sizes) - 1))
    for i, (dims, theta) in enumerate(NON_THIN):
        for kind, convention in (("analyze", "parabolic"), ("homotopy", "centralizer")):
            label = f"{kind}-quiver-{i}"
            spec = _non_thin(rng_for(seed, label), dims, theta)
            spec["convention"] = convention
            argv = [kind, "quiver", *_quiver_args(spec),
                    "--orbit-convention", convention]
            if kind == "homotopy":
                spec["max_q"] = MAX_Q
                argv += ["--max-q", str(MAX_Q), "--assume-free-action"]
            cmds.append(_command(label, argv, None, kind, spec, i == 0))
    return cmds


_BUILDERS = {
    "generic-headline": _generic_headline,
    "path-suite": _path_suite,
    "check-large": _check_large,
    "analyze-strata": _analyze_strata,
}


def build_plan(workload: str, seed: int, workdir: str, tiny: bool) -> list[dict]:
    """Write the workload's inputs under workdir and return its commands.

    Each command gets `--json <workdir>/out/<index>.json`.  Commands whose
    item count depends on the reference (non-thin strata) get it filled
    in by the caller.
    """
    for sub in ("inputs", "out"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    cmds = _BUILDERS[workload](seed, workdir)
    if tiny:
        cmds = [c for c in cmds if c["tiny"]]
    for index, cmd in enumerate(cmds):
        cmd["out"] = os.path.join(workdir, "out", f"{index}.json")
        cmd["argv"] = cmd["argv"] + ["--json", cmd["out"]]
    return cmds
