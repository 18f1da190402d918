"""Canonical JSON codecs for instances, statuses, and reports.

All persisted numbers that are not integers travel as lowest-terms
rational strings ("5", "-7/3"); Gaussian rationals as two-element
["re", "im"] arrays when the imaginary part is nonzero.  Canonical form
is sorted keys, compact separators, no floating point anywhere.  Every
reader validates shape and names the offending field in its SchemaError.
"""

from __future__ import annotations

import json
from typing import Any

from git_topo.connectivity import AbelianGroup, ConnectivityReport
from git_topo.errors import SchemaError
from git_topo.families import (
    FAMILIES,
    FamilySpec,
    Instance,
    StabilityStatus,
    StratumClass,
    Verdict,
)
from git_topo.families.base import (  # the scalar codecs are re-exported here
    complex_from_json,
    complex_to_json,
    int_list,
    rational_from_json,
    rational_to_str,
    require_int,
    require_list,
)
from git_topo.groups import OnePSClass, OrbitConvention
from git_topo.harness import HarnessReport, TrialConfig

CONVENTION_DEPENDENT_FIELDS = (
    "connectivity",
    "d_min",
    "homotopy",
    "strata[].orbit_dim",
    "strata[].value",
)


def canonical_dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# Family specs (shapes) and instances (points); each family encodes its own.


def _family_class(data: Any, what: str) -> type:
    if not isinstance(data, dict):
        raise SchemaError(f"{what}: expected an object")
    family = data.get("family")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise SchemaError(f"family: unknown family {family!r}")
    return cls


def family_spec_from_json(data: Any) -> FamilySpec:
    return _family_class(data, "family spec").from_json(data)


def instance_to_json(instance: Instance) -> dict:
    return instance.to_json()


def instance_from_json(data: Any) -> Instance:
    return _family_class(data, "instance").instance_from_json(data)


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


def status_from_json(data: Any) -> StabilityStatus:
    if not isinstance(data, dict):
        raise SchemaError("status: expected an object")
    try:
        verdict = Verdict(data.get("verdict"))
    except ValueError:
        raise SchemaError(f"verdict: unknown verdict {data.get('verdict')!r}") from None
    reason = data.get("reason")
    if reason is not None and not isinstance(reason, str):
        raise SchemaError("reason: expected a string or null")
    raw = data.get("evidence", {})
    if not isinstance(raw, dict):
        raise SchemaError("evidence: expected an object")
    evidence = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in raw.items()
    }
    return StabilityStatus(verdict, reason, evidence)


# 1-PS classes and strata.


def one_ps_to_json(lam: OnePSClass) -> dict:
    return {
        "gl_weights": [list(ws) for ws in lam.gl_weights],
        "torus_weights": list(lam.torus_weights),
    }


def one_ps_from_json(data: Any) -> OnePSClass:
    if not isinstance(data, dict):
        raise SchemaError("one_ps: expected an object")
    factors = tuple(
        int_list(ws, f"gl_weights[{i}]")
        for i, ws in enumerate(require_list(data.get("gl_weights"), "gl_weights"))
    )
    return OnePSClass(factors, int_list(data.get("torus_weights"), "torus_weights"))


def _descriptor_to_json(descriptor) -> dict:
    out = {}
    for key, value in descriptor.items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _descriptor_from_json(data: Any) -> dict:
    if not isinstance(data, dict):
        raise SchemaError("descriptor: expected an object")
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data.items()
    }


def _convention_from_json(value: Any) -> OrbitConvention:
    try:
        return OrbitConvention(value)
    except ValueError:
        raise SchemaError(f"convention: unknown convention {value!r}") from None


def stratum_to_json(stratum: StratumClass) -> dict:
    return {
        "family": stratum.family,
        "descriptor": _descriptor_to_json(stratum.descriptor),
        "representative": one_ps_to_json(stratum.representative),
        "m": stratum.m,
        "orbit_dim": stratum.orbit_dim,
        "value": stratum.value,
        "convention": stratum.convention.value,
    }


def stratum_from_json(data: Any) -> StratumClass:
    if not isinstance(data, dict):
        raise SchemaError("stratum: expected an object")
    family = data.get("family")
    if not isinstance(family, str):
        raise SchemaError("stratum.family: expected a string")
    return StratumClass(
        family=family,
        descriptor=_descriptor_from_json(data.get("descriptor")),
        representative=one_ps_from_json(data.get("representative")),
        m=require_int(data.get("m"), "m", 0),
        orbit_dim=require_int(data.get("orbit_dim"), "orbit_dim", 0),
        value=require_int(data.get("value"), "value"),
        convention=_convention_from_json(data.get("convention")),
    )


# Connectivity reports.


def report_to_json(report: ConnectivityReport) -> dict:
    payload: dict[str, Any] = {
        "family": report.family,
        "convention": report.convention.value,
        "d_min": report.d_min,
        "connectivity": report.connectivity,
        "strata": [stratum_to_json(s) for s in report.strata],
        "homotopy": [
            {"q": q, "group": group.descriptor()} for q, group in report.homotopy
        ],
        "notes": list(report.notes),
        "convention_dependent_fields": list(CONVENTION_DEPENDENT_FIELDS),
    }
    if report.thresholds:
        payload["thresholds"] = dict(report.thresholds)
    return payload


def report_from_json(data: Any) -> ConnectivityReport:
    if not isinstance(data, dict):
        raise SchemaError("report: expected an object")
    family = data.get("family")
    if not isinstance(family, str):
        raise SchemaError("report.family: expected a string")
    d_min = data.get("d_min")
    if d_min is not None:
        d_min = require_int(d_min, "d_min")
    connectivity = data.get("connectivity")
    if not isinstance(connectivity, (int, str)) or isinstance(connectivity, bool):
        raise SchemaError("connectivity: expected an integer or marker string")
    homotopy = []
    for i, row in enumerate(require_list(data.get("homotopy", []), "homotopy")):
        if not isinstance(row, dict):
            raise SchemaError(f"homotopy[{i}]: expected an object")
        q = require_int(row.get("q"), f"homotopy[{i}].q", 0)
        group = row.get("group")
        if not isinstance(group, str):
            raise SchemaError(f"homotopy[{i}].group: expected a string")
        homotopy.append((q, AbelianGroup.parse(group)))
    thresholds = data.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise SchemaError("thresholds: expected an object")
    notes = data.get("notes", [])
    if not isinstance(notes, list) or any(not isinstance(n, str) for n in notes):
        raise SchemaError("notes: expected a list of strings")
    return ConnectivityReport(
        family=family,
        convention=_convention_from_json(data.get("convention")),
        strata=tuple(
            stratum_from_json(s)
            for s in require_list(data.get("strata", []), "strata")
        ),
        d_min=d_min,
        connectivity=connectivity,
        homotopy=tuple(homotopy),
        thresholds=tuple(
            (key, require_int(value, f"thresholds.{key}"))
            for key, value in sorted(thresholds.items())
        ),
        notes=tuple(notes),
    )


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


def trial_config_from_json(data: Any) -> TrialConfig:
    if not isinstance(data, dict):
        raise SchemaError("config: expected an object")
    convention = data.get("convention")
    return TrialConfig(
        family_spec=family_spec_from_json(data.get("family")),
        trials=require_int(data.get("trials"), "trials", 1),
        seed=require_int(data.get("seed"), "seed", 0),
        entry_bound=require_int(data.get("entry_bound"), "entry_bound", 1),
        paths=require_int(data.get("paths"), "paths", 0),
        path_samples=require_int(data.get("path_samples"), "path_samples", 1),
        convention=None if convention is None else _convention_from_json(convention),
    )


def harness_report_to_json(report: HarnessReport) -> dict:
    return {
        "op": report.op,
        "config": None if report.config is None else trial_config_to_json(report.config),
        "trials_run": report.trials_run,
        "unstable_hits": report.unstable_hits,
        "path_failures": report.path_failures,
        "oracle_mismatches": report.oracle_mismatches,
        "elapsed_ms": report.elapsed_ms,
        "notes": list(report.notes),
        "skipped": report.skipped,
    }


def harness_report_from_json(data: Any) -> HarnessReport:
    if not isinstance(data, dict):
        raise SchemaError("harness report: expected an object")
    op = data.get("op")
    if not isinstance(op, str):
        raise SchemaError("op: expected a string")
    raw_cfg = data.get("config")
    notes = data.get("notes", [])
    if not isinstance(notes, list) or any(not isinstance(n, str) for n in notes):
        raise SchemaError("notes: expected a list of strings")
    skipped = data.get("skipped", False)
    if not isinstance(skipped, bool):
        raise SchemaError("skipped: expected a boolean")
    return HarnessReport(
        op=op,
        config=None if raw_cfg is None else trial_config_from_json(raw_cfg),
        trials_run=require_int(data.get("trials_run"), "trials_run", 0),
        unstable_hits=require_int(data.get("unstable_hits"), "unstable_hits", 0),
        path_failures=require_int(data.get("path_failures"), "path_failures", 0),
        oracle_mismatches=require_int(
            data.get("oracle_mismatches"), "oracle_mismatches", 0
        ),
        elapsed_ms=require_int(data.get("elapsed_ms"), "elapsed_ms", 0),
        notes=tuple(notes),
        skipped=skipped,
    )
