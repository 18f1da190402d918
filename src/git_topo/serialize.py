"""Canonical JSON writers for the CLI's payloads, and the instance reader.

All persisted numbers that are not integers travel as lowest-terms
rational strings ("5", "-7/3"); Gaussian rationals as two-element
["re", "im"] arrays when the imaginary part is nonzero.  Canonical form
is sorted keys, compact separators, no floating point anywhere.  Small
payloads are dicts that `canonical_dumps` sorts; a connectivity report,
whose strata run to 2^15 rows, is written as text by `report_to_json`,
each row from a template whose keys are already in sorted order.  The
only JSON the package reads back is a `check` instance file; its reader
validates shape and names the offending field in its SchemaError.
"""

from __future__ import annotations

import json
from typing import Any

from git_topo.connectivity import ConnectivityReport
from git_topo.errors import SchemaError
from git_topo.families import FAMILIES, Instance, StabilityStatus
from git_topo.harness import HarnessReport, TrialConfig

CONVENTION_DEPENDENT_FIELDS = (
    "connectivity",
    "d_min",
    "homotopy",
    "strata[].orbit_dim",
    "strata[].value",
)


# The one encoder of canonical text, for whole payloads and for the pieces
# of a report's rows alike.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_dumps(data: Any) -> str:
    return _encode(data)


class _Texts(dict):
    """Weight tuple -> its JSON text, each tuple encoded on first use.
    Weights are ints and never bools, so equal tuples have equal text."""

    def __missing__(self, weights: tuple[int, ...]) -> str:
        text = self[weights] = _encode(weights)
        return text


# Instances (points); each family encodes and decodes its own.


def instance_to_json(instance: Instance) -> dict:
    return instance.to_json()


def instance_from_json(data: Any) -> Instance:
    if not isinstance(data, dict):
        raise SchemaError("instance: expected an object")
    family = data.get("family")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise SchemaError(f"family: unknown family {family!r}")
    return cls.instance_from_json(data)


# Statuses.


def status_to_json(status: StabilityStatus) -> dict:
    evidence = {}
    for key, value in status.evidence.items():
        evidence[key] = list(value) if isinstance(value, tuple) else value
    return {
        "verdict": status.verdict.value,
        "reason": status.reason,
        "evidence": evidence,
    }


# Connectivity reports.


def report_head_to_json(report: ConnectivityReport) -> dict:
    """The fields every report payload carries; `homotopy` writes only these."""
    return {
        "family": report.family,
        "convention": report.convention.value,
        "d_min": report.d_min,
        "homotopy": [
            {"q": q, "group": group.descriptor()} for q, group in report.homotopy
        ],
        "notes": list(report.notes),
    }


def report_to_json(report: ConnectivityReport) -> str:
    """The report's canonical JSON text.

    canonical_dumps writes the head with a null "strata", and the rows go
    in its place: the head has no other "strata" key, and a quote inside
    a JSON string is escaped, so `"strata":null` occurs once.  Each row is
    written from its StratumClass by a template whose keys are in sorted
    order, so no dict is built and nothing is sorted per row.
    """
    head: dict[str, Any] = {
        **report_head_to_json(report),
        "connectivity": report.connectivity,
        "strata": None,
        "convention_dependent_fields": list(CONVENTION_DEPENDENT_FIELDS),
    }
    if report.thresholds:
        head["thresholds"] = dict(report.thresholds)
    before, _, after = canonical_dumps(head).partition('"strata":null')
    weights = _Texts()
    start = f'{{"convention":{_encode(report.convention.value)},"descriptor":'
    family = f',"family":{_encode(report.family)},"m":'
    rows = ",".join([
        f'{start}{_encode(s.descriptor)}{family}{s.m},"orbit_dim":{s.orbit_dim},'
        '"representative":{"gl_weights":['
        f'{",".join(map(weights.__getitem__, s.representative.gl_weights))}],'
        f'"torus_weights":{weights[s.representative.torus_weights]}}},'
        f'"value":{s.value}}}'
        for s in report.strata
    ])
    return f'{before}"strata":[{rows}]{after}'


# Harness configs and reports.


def trial_config_to_json(cfg: TrialConfig) -> dict:
    return {
        "family": cfg.family_spec.to_json(),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "entry_bound": cfg.entry_bound,
        "paths": cfg.paths,
        "path_samples": cfg.path_samples,
        "convention": cfg.convention.value if cfg.convention else None,
    }


def harness_report_to_json(report: HarnessReport) -> dict:
    return {
        "op": report.op,
        "config": None if report.config is None else trial_config_to_json(report.config),
        **report.counters(),
        "elapsed_ms": report.elapsed_ms,
        "notes": list(report.notes),
        "skipped": report.skipped,
    }
