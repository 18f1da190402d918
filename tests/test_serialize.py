"""The canonical JSON writers and the one reader, the instance file's.

The CLI payloads as a whole are pinned by tests/test_golden.py; the tests
here pin the codecs and the writer behaviour those payloads do not reach.
"""

import gc
import json
from fractions import Fraction

import pytest

from git_topo import serialize
from git_topo.connectivity import summarize_strata
from git_topo.errors import SchemaError
from git_topo.families.base import (
    complex_from_json,
    complex_to_json,
    rational_from_json,
    rational_to_str,
)
from git_topo.families.control import ControlFamily, ControlInstance
from git_topo.families.dag import DagFamily, DagInstance
from git_topo.families.quiver import QuiverSpec, ThinQuiverRep, kronecker_spec
from git_topo.groups import OnePSClass, OrbitConvention
from git_topo.harness import TrialConfig, kronecker_oracle_check, sample_generic_points
from git_topo.linalg import ComplexRational, Matrix
from git_topo.rng import CounterRng
from git_topo.serialize import (
    CONVENTION_DEPENDENT_FIELDS,
    canonical_dumps,
    harness_report_to_json,
    instance_from_json,
    instance_to_json,
    one_ps_to_json,
    report_to_json,
    status_to_json,
    trial_config_to_json,
)


def roundtrip_stable(payload, from_json, to_json):
    """Canonical text -> object -> canonical text must be byte-identical."""
    text = canonical_dumps(payload)
    rebuilt = to_json(from_json(json.loads(text)))
    assert canonical_dumps(rebuilt) == text


def survives_canonical_text(payload):
    """A payload is plain JSON: reading its canonical text gives it back.

    A tuple left in a payload would come back as a list and fail this.
    """
    assert json.loads(canonical_dumps(payload)) == payload


def test_canonical_dumps_is_sorted_and_compact():
    assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_rational_codec_normalizes():
    assert rational_to_str(Fraction(4, 6)) == "2/3"
    assert rational_to_str(7) == "7"
    assert rational_from_json("4/6", "x") == Fraction(2, 3)
    assert rational_from_json(-3, "x") == Fraction(-3)


def test_rational_codec_rejections():
    with pytest.raises(SchemaError, match="A\\[0\\]\\[1\\]"):
        instance_from_json(
            {
                "family": "control",
                "n": 2,
                "m": 1,
                "A": [["1", 0.5], ["0", "1"]],
                "B": [["2"], ["3"]],
            }
        )
    with pytest.raises(SchemaError, match="malformed rational"):
        rational_from_json("1/2/3", "y")
    with pytest.raises(SchemaError, match="zero denominator"):
        rational_from_json("1/0", "y")
    with pytest.raises(SchemaError):
        rational_from_json(True, "y")
    for text in ("5\n", "5 ", "\u0663"):  # trailing newline, space, Arabic-Indic 3
        with pytest.raises(SchemaError, match="malformed rational"):
            rational_from_json(text, "y")


def test_complex_codec():
    real = ComplexRational.of(Fraction(1, 2))
    assert complex_to_json(real) == "1/2"
    mixed = ComplexRational(Fraction(0), Fraction(-2, 3))
    assert complex_to_json(mixed) == ["0", "-2/3"]
    assert complex_from_json(["0", "-2/3"], "v") == mixed
    with pytest.raises(SchemaError, match="\\[re, im\\]"):
        complex_from_json(["1"], "v")


def test_control_instance_round_trip():
    inst = ControlInstance(
        2,
        1,
        Matrix.from_rows([[1, Fraction(1, 2)], [0, -3]]),
        Matrix.from_rows([[5], [Fraction(-7, 3)]]),
    )
    payload = instance_to_json(inst)
    assert payload["A"][0][1] == "1/2"
    rebuilt = instance_from_json(json.loads(canonical_dumps(payload)))
    assert rebuilt == inst
    roundtrip_stable(payload, instance_from_json, instance_to_json)


def test_dag_instance_round_trip():
    inst = DagInstance(2, 2, Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    roundtrip_stable(instance_to_json(inst), instance_from_json, instance_to_json)


def test_quiver_instance_round_trip_uses_one_based_arrows():
    rep = ThinQuiverRep(
        kronecker_spec(), (ComplexRational.of(1, 2), ComplexRational.of(0))
    )
    payload = instance_to_json(rep)
    assert payload["arrows"] == [[1, 2], [1, 2]]
    assert payload["values"] == [["1", "2"], "0"]
    rebuilt = instance_from_json(payload)
    assert rebuilt == rep
    roundtrip_stable(payload, instance_from_json, instance_to_json)


def test_family_spec_round_trips():
    """A spec travels inside its instance file and comes back equal."""
    for spec in [
        ControlFamily(3, 2),
        DagFamily(10, 3),
        QuiverSpec(3, ((0, 1), (2, 1)), (1, 1, 1), (1, -2, 1)),
    ]:
        inst = spec.instance_from_flat(spec.draw_flat(CounterRng(0), 3))
        assert instance_from_json(instance_to_json(inst)).family() == spec


def test_family_spec_rejections():
    with pytest.raises(SchemaError, match="unknown family"):
        instance_from_json({"family": "elliptic"})
    with pytest.raises(SchemaError, match="vertex out of range"):
        instance_from_json(
            {
                "family": "quiver",
                "vertices": 2,
                "arrows": [[1, 3]],
                "dim": [1, 1],
                "theta": [0, 0],
                "values": ["1"],
            }
        )
    with pytest.raises(SchemaError, match="not admissible"):
        instance_from_json(
            {
                "family": "quiver",
                "vertices": 2,
                "arrows": [[1, 2]],
                "dim": [1, 1],
                "theta": [1, 1],
                "values": ["1"],
            }
        )


def test_status_round_trip_preserves_tuple_evidence():
    inst = ThinQuiverRep(kronecker_spec(), (ComplexRational.of(0), ComplexRational.of(0)))
    status = inst.status()
    assert status.evidence["support"] == (1,)
    payload = status_to_json(status)
    assert payload == {
        "verdict": "unstable",
        "reason": "a destabilizing subrepresentation has positive weight",
        "evidence": {"support": [1], "theta_sum": 1},
    }
    survives_canonical_text(payload)


def test_one_ps_round_trip():
    lam = OnePSClass(((0, -1, -1), (2,)), (-3,))
    payload = one_ps_to_json(lam)
    assert payload == {"gl_weights": [[0, -1, -1], [2]], "torus_weights": [-3]}
    survives_canonical_text(payload)


def test_connectivity_report_round_trip_with_thresholds():
    report = summarize_strata(DagFamily(10, 3), max_q=5)
    payload = report_to_json(report)
    assert payload["convention_dependent_fields"] == list(CONVENTION_DEPENDENT_FIELDS)
    assert payload["thresholds"] == {
        "path_connected_from_n": 5,
        "simply_connected_from_n": 6,
    }
    survives_canonical_text(payload)


def test_connectivity_report_round_trip_no_information():
    report = summarize_strata(
        ControlFamily(3, 2), convention=OrbitConvention.CENTRALIZER
    )
    payload = report_to_json(report)
    assert payload["connectivity"] == "no_information"
    assert payload["d_min"] == 0
    survives_canonical_text(payload)


def test_homotopy_rows_parse_back():
    report = summarize_strata(DagFamily(10, 3), max_q=5)
    payload = report_to_json(report)
    rows = json.loads(canonical_dumps(payload))["homotopy"]
    assert rows == [
        {"q": q, "group": group}
        for q, group in enumerate(["0", "0", "Z^2", "0", "Z", "0"])
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_report_to_json_restores_the_collector(monkeypatch, enabled):
    """The collector pauses while the strata list grows and is left as it
    was found, also when a stratum fails to encode."""
    report = summarize_strata(DagFamily(10, 3), max_q=5)
    encode = serialize.stratum_to_json
    seen = []

    def watched(stratum, report):
        seen.append(gc.isenabled())
        return encode(stratum, report)

    def planted(stratum, report):
        raise RuntimeError("planted encode failure")

    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(serialize, "stratum_to_json", watched)
        assert report_to_json(report)["strata"]
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(serialize, "stratum_to_json", planted)
        with pytest.raises(RuntimeError, match="planted"):
            report_to_json(report)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_trial_config_round_trip():
    cfg = TrialConfig(
        ControlFamily(3, 2),
        trials=50,
        seed=42,
        entry_bound=9,
        paths=2,
        path_samples=16,
        convention=OrbitConvention.PARABOLIC,
    )
    payload = trial_config_to_json(cfg)
    assert payload == {
        "family": {"family": "control", "n": 3, "m": 2},
        "trials": 50,
        "seed": 42,
        "entry_bound": 9,
        "paths": 2,
        "path_samples": 16,
        "convention": "parabolic",
    }
    survives_canonical_text(payload)


def test_harness_report_round_trip_null_config():
    report = kronecker_oracle_check(1)
    payload = harness_report_to_json(report)
    assert payload["config"] is None
    survives_canonical_text(payload)


def test_no_floats_anywhere_in_payloads():
    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into a payload")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        if isinstance(node, list):
            for v in node:
                walk(v)

    walk(report_to_json(summarize_strata(DagFamily(10, 3), max_q=5)))
    walk(
        instance_to_json(
            ControlInstance(
                1, 1, Matrix.from_rows([[Fraction(1, 3)]]), Matrix.from_rows([[2]])
            )
        )
    )
    walk(harness_report_to_json(sample_generic_points(TrialConfig(DagFamily(3, 2), trials=5))))
