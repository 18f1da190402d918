"""Model families behind one interface, and the registry that names them.

Each family module owns everything that is particular to its family.  Its
spec class (`QuiverSpec`, `ControlFamily`, `DagFamily`) is the shape of
the family and exposes:

- `name`, `CLI_ARGS` (dest, type, help per flag) and `from_args(args)`;
- `to_json()` and `instance_from_json(data)`, the reader of `check`
  instance files;
- `has_stable_points()`, whether V^st is non-empty;
- `draw_flat(rng, bound)`, `draw_generic(rng, bound)` (the same, minus
  points generic sampling excludes; both refuse a point of more than
  `base.MAX_POINT_ENTRIES` integers), `instance_from_flat(flat)` and
  `is_stable_flat(flat)` on the flat integer encoding the harness
  samples in, `path_suspects(entry_polys, n_samples)`, the samples
  of a quadratic path its certificate mod 2^61 - 1 cannot clear, and
  `check_trial_work(checks)`, which refuses a sampling run too costly
  to start (`base.MAX_TRIAL_WORK`);
- `DEFAULT_CONVENTION`, `strata(convention)`, `thresholds()`, `group()`
  and `weights(lam)`, the (weight, multiplicity) pairs of a 1-PS on V,
  from which `base.strata_from_classes` counts each stratum's m.

Its instance class (`ThinQuiverRep`, `ControlInstance`, `DagInstance`)
is one point and exposes `family()`, `status()` and `to_json()`;
callers ask the instance they hold for its verdict.  `FAMILIES` maps
each name to its spec class.  Outside the family modules only the
DAG-only extras (stabilization, the MLE, constructed degenerates) and
the Kronecker oracle check a family's type.
"""

from __future__ import annotations

from typing import Union

from git_topo.families.base import StabilityStatus, StratumClass, Verdict
from git_topo.families.control import ControlFamily, ControlInstance
from git_topo.families.dag import DagFamily, DagInstance, dag_stabilize
from git_topo.families.quiver import QuiverSpec, ThinQuiverRep, kronecker_spec

FamilySpec = Union[QuiverSpec, ControlFamily, DagFamily]
Instance = Union[ThinQuiverRep, ControlInstance, DagInstance]

FAMILIES: dict[str, type] = {
    cls.name: cls for cls in (QuiverSpec, ControlFamily, DagFamily)
}


__all__ = [
    "FAMILIES",
    "ControlFamily",
    "ControlInstance",
    "DagFamily",
    "DagInstance",
    "FamilySpec",
    "Instance",
    "QuiverSpec",
    "StabilityStatus",
    "StratumClass",
    "ThinQuiverRep",
    "Verdict",
    "dag_stabilize",
    "kronecker_spec",
]
