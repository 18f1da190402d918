"""Byte-level pins of the seeded streams and the canonical CLI output.

Refactors must leave these unchanged: the raw CounterRng words, the flat
integer draws behind `draw_instance`, the sha256 of the canonical
`--json` payload of the README's CLI examples and of two quiver shapes
(with every `elapsed_ms` set to 0, the only field that depends on the
clock), and the sha256 of one large table's stdout.  A change that
moves any of them changes what every seeded run reports, so it must say
so and re-pin here.
"""

import hashlib
import json

import pytest

from git_topo.cli import main
from git_topo.families import ControlFamily, DagFamily, kronecker_spec
from git_topo.harness import TrialConfig, draw_instance
from git_topo.rng import CounterRng


def test_counter_rng_words():
    keys = [(0, 0, 0), (42, 0, 4062), (7, 1, 3), (2**64 - 1, 2, 99)]
    assert [CounterRng(*key).next64() for key in keys] == [
        16294208416658607535,
        18384204309588129848,
        6318359602683955704,
        15930054356239954964,
    ]


def flat_draw(inst) -> list[int]:
    """The flat integer encoding of a drawn instance, from public fields."""
    if hasattr(inst, "values"):
        return [int(part) for v in inst.values for part in (v.re, v.im)]
    if hasattr(inst, "y"):
        return list(inst.y.entries)
    return list(inst.a.entries) + list(inst.b.entries)


SPECS = {
    "control": ControlFamily(3, 2),
    "dag": DagFamily(10, 3),
    "kronecker": kronecker_spec(),
}

# (family, seed) -> (flat draw of trial 0, sha256 of the JSON list of the
# flat draws of trials 0..49).
DRAWS = {
    ("control", 0): (
        [7, 7, -9, -5, 4, 3, -3, -5, 3, -2, 6, 3, 8, -9, -3],
        "dd27314344b104dbdb531ea5da96ceb1d4a6ecfc0e7c62722b8f31c1ee30234a",
    ),
    ("control", 42): (
        [6, -3, 5, 7, -4, 5, 4, 2, 1, -6, 3, 8, 1, -3, 8],
        "02a0d80ab8b0a98d41821a55cb04f4fb4755b1bd70e19b37de5de16e614e4789",
    ),
    ("dag", 0): (
        [7, 7, -9, -5, 4, 3, -3, -5, 3, -2, 6, 3, 8, -9, -3, 4, -4, 6, 7, 9,
         -8, -8, -9, -4, 5, 1, 8, -4, 7, 7, 1, 0, 0, 7, -5, -5, 9, 1, -4, 3],
        "defc3e301c3a4d5ad46a3a388d40bef2637aeec8e17ab6a53a82c41b3e7db400",
    ),
    ("dag", 42): (
        [6, -3, 5, 7, -4, 5, 4, 2, 1, -6, 3, 8, 1, -3, 8, -8, 4, 1, -3, 1,
         -7, -8, -6, -6, 4, -1, -2, 0, 8, -8, -5, 4, 5, 2, 0, -4, -4, -4, 1, 9],
        "8ac3ce063d996273e1c19efdbeba3bf50cfb98c66b75020d0aca24ab1fa07c1e",
    ),
    ("kronecker", 0): (
        [7, 7, -9, -5],
        "6165ef76c7290a3d94c011dc69bb79f6581bbe04d0aa05258e2b75cac16c1810",
    ),
    ("kronecker", 42): (
        [6, -3, 5, 7],
        "701cb05bc7aa0a55056c3e1a181d0a79638d3f5155933bc61c5c5ac8686faf77",
    ),
}


@pytest.mark.parametrize("family, seed", sorted(DRAWS))
def test_generic_flat_draws(family, seed):
    cfg = TrialConfig(SPECS[family], trials=50, seed=seed)
    draws = [flat_draw(draw_instance(cfg, i)) for i in range(50)]
    first, digest = DRAWS[(family, seed)]
    assert draws[0] == first
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == digest


def zero_elapsed(data):
    if isinstance(data, dict):
        return {
            k: 0 if k == "elapsed_ms" else zero_elapsed(v) for k, v in data.items()
        }
    if isinstance(data, list):
        return [zero_elapsed(v) for v in data]
    return data


KRONECKER_ARGS = ["--arrows", "1->2,1->2", "--dim", "1,1", "--theta", "1,-1"]

INSTANCE_FILES = {
    "system.json": {
        "family": "control", "n": 2, "m": 1,
        "A": [["0", "1"], ["-1/2", "0"]], "B": [["0"], ["1"]],
    },
    "sample.json": {
        "family": "dag", "n": 3, "k": 2,
        "Y": [["1", "0", "1"], ["0", "1", "2"], ["1", "1", "0"]],
    },
    "degenerate.json": {
        "family": "dag", "n": 3, "k": 2,
        "Y": [["1", "2", "1"], ["2", "4", "0"], ["3", "6", "5"]],
    },
    "quiver.json": {
        "family": "quiver", "vertices": 2, "arrows": [[1, 2], [1, 2]],
        "dim": [1, 1], "theta": [1, -1], "values": ["1", ["2", "-1/3"]],
    },
}

# argv (without --json) -> (exit code, sha256 of the canonical payload).
CLI = [
    (["analyze", "quiver", *KRONECKER_ARGS], 0,
     "71d414fa5bdeb3ffa888f798d0026c9902ada92fda8d30db94e3279110139352"),
    (["analyze", "control", "--n", "3", "--m", "2"], 0,
     "1987aca8a7ff75e8ea85d8fa5e4c80128ddb2227fdf5bd110b9b48e176b5eba2"),
    (["analyze", "dag", "--samples", "10", "--parents", "3", "--max-q", "5"], 0,
     "7533ba5312a6c69d2dfd97ce9f85c1d58a0c9e16bcbfe9147d89cf5dc428c79c"),
    (["homotopy", "dag", "--samples", "10", "--parents", "3", "--max-q", "5",
      "--assume-free-action"], 0,
     "9ec9995ad5ce36f41a886aeec2ae4810ce8a5ee0dead5e8ab3e1a4781cb00da5"),
    (["verify", "control", "--n", "3", "--m", "2", "--seed", "42",
      "--trials", "2000"], 0,
     "cbcec59736b0a0c033be51f1389d6677a8c7d01ce7a53294152e415fb48fbaca"),
    (["verify", "kronecker", "--grid", "2"], 0,
     "6c27b8c78e119a312a7c3a061881570cb8e0f5463af5061dce80eff7dca96618"),
    (["check", "system.json"], 0,
     "5d52c173b0807762c072c8f57ba00e01fd75f6709abcacf9c8faa7dac556381d"),
    (["check", "sample.json", "--mle"], 0,
     "cf6721fd215acff18f14daccc8d41da08247f7cc7dceeb49f6ab447d81fe5e9e"),
    (["check", "degenerate.json", "--mle", "--stabilize", "--epsilon", "1/1000"], 0,
     "0815b67761aee97492dbbafaf695be0938e1edaeb41d8f9b92512390efa91727"),
    (["check", "quiver.json"], 0,
     "6779f3880534f105227044e11a60b505e1e3c9cd57400d4928b42e791f150983"),
    # Non-thin, with a dimension-0 vertex, a loop and parallel arrows.
    (["analyze", "quiver", "--arrows", "1->2,2->2,2->4,3->1,1->2,4->1",
      "--dim", "2,3,0,1", "--theta=1,-1,5,1", "--orbit-convention", "centralizer"], 0,
     "931624f5780a34108f42fb8ca3406780161e24a6fe76e9dce15cf3ce07721697"),
    # The 3-Kronecker quiver at dim (2, 3); q = 2 is pi_1(G/K) = Z, K the scalars.
    (["homotopy", "quiver", "--arrows", "1->2,1->2,1->2", "--dim", "2,3",
      "--theta=3,-2", "--max-q", "5", "--assume-free-action"], 0,
     "2fb2966d357c0f07f9bb97ec5fc58e394a6852b31eafe3246b2c1da4e70a6656"),
    (["analyze", "quiver", "--dim", "1,1"], 2,
     "5189c5a9a5337d089254dbd9a62ca9ac7d2c32127b535779aebaaf4bcb055725"),
    (["verify", "dag", "--samples", "4"], 2,
     "da50b5471dad43a95273d092d1f4822d6089db85e3dc14e8677791b1b300289f"),
    (["check", "missing.json"], 2,
     "2d44abd18a493459c68d88da284b269684a6520996445ff9e9b120101ca4943c"),
]


@pytest.mark.parametrize("argv, code, digest", CLI, ids=[" ".join(c[0]) for c in CLI])
def test_cli_json_payloads(argv, code, digest, tmp_path, capsys, monkeypatch):
    for name, data in INSTANCE_FILES.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    assert main([*argv, "--json", str(out)]) == code
    capsys.readouterr()
    raw = out.read_text(encoding="utf-8")
    payload = json.loads(raw)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert raw == canonical
    pinned = json.dumps(zero_elapsed(payload), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest


def _cycle_12():
    v = 12
    arrows = ",".join(f"{i + 1}->{(i + 1) % v + 1}" for i in range(v))
    theta = ",".join(str(t) for t in [v - 1] + [-1] * (v - 1))
    dims = ",".join("1" * v)
    return ["analyze", "quiver", "--arrows", arrows, "--dim", dims, f"--theta={theta}"]


# argv -> sha256 of stdout.
STDOUT = [
    (_cycle_12(), "09d77079f6e83e6ec0f11beb0489b74899c665d9397044aa23f97d473af8814e"),
]


@pytest.mark.parametrize("argv, digest", STDOUT, ids=["analyze 12-cycle"])
@pytest.mark.parametrize("with_json", [False, True], ids=["text", "json"])
def test_cli_stdout(argv, digest, with_json, tmp_path, capsys):
    extra = ["--json", str(tmp_path / "out.json")] if with_json else []
    assert main([*argv, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
