"""Canonical JSON writers for the CLI's payloads, and the instance reader.

All persisted numbers that are not integers travel as lowest-terms
rational strings ("5", "-7/3"); Gaussian rationals as two-element
["re", "im"] arrays when the imaginary part is nonzero.  Canonical form
is sorted keys, compact separators, no floating point anywhere.  The
only JSON the package reads back is a `check` instance file; its reader
validates shape and names the offending field in its SchemaError.
"""

from __future__ import annotations

import gc
import json
from typing import Any

from git_topo.connectivity import ConnectivityReport
from git_topo.errors import SchemaError
from git_topo.families import FAMILIES, Instance, StabilityStatus, StratumClass
from git_topo.groups import OnePSClass
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


# 1-PS classes and strata.


def one_ps_to_json(lam: OnePSClass) -> dict:
    return {
        "gl_weights": [list(ws) for ws in lam.gl_weights],
        "torus_weights": list(lam.torus_weights),
    }


def stratum_to_json(stratum: StratumClass, report: ConnectivityReport) -> dict:
    return {
        "family": report.family,
        "descriptor": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in stratum.descriptor.items()
        },
        "representative": one_ps_to_json(stratum.representative),
        "m": stratum.m,
        "orbit_dim": stratum.orbit_dim,
        "value": stratum.value,
        "convention": report.convention.value,
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


def report_to_json(report: ConnectivityReport) -> dict:
    # The strata of a 16-vertex thin quiver, 2^15 of them, grow a tree of 22
    # lists and dicts each, and every full collection on the way re-scans
    # all of it.  The tree holds no cycles, so the cyclic collector pauses
    # while it grows; reference counting still frees it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        strata = [stratum_to_json(s, report) for s in report.strata]
    finally:
        if enabled:
            gc.enable()
    payload: dict[str, Any] = {
        **report_head_to_json(report),
        "connectivity": report.connectivity,
        "strata": strata,
        "convention_dependent_fields": list(CONVENTION_DEPENDENT_FIELDS),
    }
    if report.thresholds:
        payload["thresholds"] = dict(report.thresholds)
    return payload


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
