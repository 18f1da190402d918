"""One verdict route per family: the harness and `check` agree on a point.

Each family decides stability once, in its spec's `status_flat` on the
flat integer encoding; an instance's `status()` clears its rationals to
that encoding by a scaling that keeps the verdict.  So the status the
harness computes for a drawn point is, verdict, reason and evidence, the
status `check` prints for the instance file of that point, and for any
copy of it scaled by the family's clearing rule.
"""

import json
from fractions import Fraction

import pytest

from git_topo.cli import main
from git_topo.families import (
    ControlFamily,
    ControlInstance,
    DagFamily,
    DagInstance,
    QuiverSpec,
    ThinQuiverRep,
    Verdict,
    kronecker_spec,
)
from git_topo.harness import TrialConfig, draw_instance, sample_generic_points
from git_topo.linalg import ComplexRational, Matrix
from git_topo.rng import CounterRng
from git_topo.serialize import instance_from_json, instance_to_json, status_to_json


def test_a_harness_hit_travels_through_check_unchanged(monkeypatch, capsys, tmp_path):
    """The two hits of `verify control --n 3 --m 2 --trials 10000 --bound 9
    --seed 42`, written as instance files, read unstable with the same rank."""
    cfg = TrialConfig(ControlFamily(3, 2), trials=10000, seed=42, entry_bound=9)
    judged = []
    status_flat = ControlFamily.status_flat

    def record(self, flat):
        status = status_flat(self, flat)
        judged.append((list(flat), status))
        return status

    monkeypatch.setattr(ControlFamily, "status_flat", record)
    report = sample_generic_points(cfg)
    monkeypatch.undo()
    # One check per trial, in trial order.
    assert len(judged) == cfg.trials
    hits = [(i, flat, st) for i, (flat, st) in enumerate(judged) if not st.is_stable]
    assert report.unstable_hits == len(hits) == 2

    inst_file, out_file = tmp_path / "hit.json", tmp_path / "status.json"
    for i, flat, status in hits:
        inst = draw_instance(cfg, i)
        assert list(inst.a.entries + inst.b.entries) == flat
        inst_file.write_text(json.dumps(instance_to_json(inst)))
        code = main(["check", str(inst_file), "--json", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: unstable" in out
        assert f"rank = {status.evidence['rank']}" in out
        assert json.loads(out_file.read_text())["status"] == status_to_json(status)


def _control_points():
    spec = ControlFamily(3, 2)
    draws = [spec.draw_generic(CounterRng(5, i), 9) for i in range(4)]
    b_zero = draws[0][:9] + [0] * 6
    return [(spec, flat) for flat in draws + [b_zero]]


def _dag_points():
    spec = DagFamily(10, 3)
    draws = [spec.draw_generic(CounterRng(6, i), 9) for i in range(4)]
    # X = U V with inner dimension 2, so the parent block has rank 2.
    u = CounterRng(7).ints(-9, 9, 20)
    v = CounterRng(8).ints(-9, 9, 6)
    child = CounterRng(9).ints(-9, 9, 10)
    low_rank = []
    for r in range(10):
        low_rank += [u[2 * r] * v[c] + u[2 * r + 1] * v[3 + c] for c in range(3)]
        low_rank.append(child[r])
    short = DagFamily(2, 3)
    return [(spec, flat) for flat in draws + [low_rank]] + [
        (short, short.draw_generic(CounterRng(10), 9))
    ]


def _quiver_points():
    kron = kronecker_spec()
    draws = [kron.draw_generic(CounterRng(11, i), 9) for i in range(3)]
    # A 4-cycle, each arrow toward the next vertex.
    arrows = ((0, 1), (1, 2), (2, 3), (3, 0))
    cycle = QuiverSpec(4, arrows, (1, 1, 1, 1), (3, -1, -1, -1))
    flat_cycle = QuiverSpec(4, arrows, (1, 1, 1, 1), (0, 0, 0, 0))
    live = [2, -1, 0, 4, 1, 1, -3, 0]
    zeroed = [2, -1, 0, 0, 1, 1, -3, 0]
    return [(kron, flat) for flat in draws] + [
        (kron, [0, 0, 0, 0]),
        (kron, [0, 0, 5, -2]),
        (cycle, live),
        (cycle, zeroed),
        (flat_cycle, live),
        (flat_cycle, zeroed),
    ]


def _scaled(inst):
    """inst scaled by its family's clearing rule, which keeps the verdict."""
    if isinstance(inst, ControlInstance):
        n, m = inst.n, inst.m
        a = Matrix(n, n, tuple(Fraction(-3, 7) * e for e in inst.a.entries))
        b = Matrix(n, m, tuple(Fraction(5, 2) * e for e in inst.b.entries))
        return ControlInstance(n, m, a, b)
    if isinstance(inst, DagInstance):
        width = inst.k + 1
        scales = [Fraction((-1) ** j * (j + 2), 3 * j + 1) for j in range(width)]
        y = tuple(e * scales[i % width] for i, e in enumerate(inst.y.entries))
        return DagInstance(inst.n, inst.k, Matrix(inst.n, width, y))
    scales = (Fraction(-2, 9), Fraction(7, 4)) * len(inst.values)
    values = tuple(
        ComplexRational(v.re * q, v.im * q) for v, q in zip(inst.values, scales)
    )
    return ThinQuiverRep(inst.spec, values)


@pytest.mark.parametrize(
    "spec, flat",
    _control_points() + _dag_points() + _quiver_points(),
    ids=lambda x: getattr(x, "name", None),
)
def test_status_flat_is_the_status_of_every_copy_of_the_point(spec, flat):
    """The instance, its rational scaling, and both read back from JSON."""
    status = spec.status_flat(flat)
    inst = spec.instance_from_flat(flat)
    for copy in (inst, _scaled(inst)):
        read_back = instance_from_json(json.loads(json.dumps(instance_to_json(copy))))
        assert copy.status() == read_back.status() == status


def test_the_constructed_points_cover_every_verdict():
    verdicts = {
        spec.status_flat(flat).verdict
        for spec, flat in _control_points() + _dag_points() + _quiver_points()
    }
    assert verdicts == set(Verdict)
