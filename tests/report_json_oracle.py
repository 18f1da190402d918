"""A connectivity report's canonical JSON by way of a dict tree, test-side only.

This is the writer the package used before `serialize.report_to_json`
wrote the text directly: one dict per stratum and per representative,
then `json.dumps` with sorted keys over the whole tree.  The package's
text must equal `oracle_report_text(report)` byte for byte.
"""

import json

from git_topo.connectivity import ConnectivityReport
from git_topo.families import StratumClass
from git_topo.groups import OnePSClass
from git_topo.serialize import CONVENTION_DEPENDENT_FIELDS


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


def oracle_report_dict(report: ConnectivityReport) -> dict:
    payload = {
        "family": report.family,
        "convention": report.convention.value,
        "d_min": report.d_min,
        "homotopy": [
            {"q": q, "group": group.descriptor()} for q, group in report.homotopy
        ],
        "notes": list(report.notes),
        "connectivity": report.connectivity,
        "strata": [stratum_to_json(s, report) for s in report.strata],
        "convention_dependent_fields": list(CONVENTION_DEPENDENT_FIELDS),
    }
    if report.thresholds:
        payload["thresholds"] = dict(report.thresholds)
    return payload


def oracle_report_text(report: ConnectivityReport) -> str:
    return json.dumps(oracle_report_dict(report), sort_keys=True, separators=(",", ":"))
