"""Model families behind one interface, and the registry that names them.

Each family module owns everything that is particular to its family.  Its
spec class (`QuiverSpec`, `ControlFamily`, `DagFamily`) subclasses
`base.FamilySpec`, whose docstring lists the members a family supplies
and the defaults it inherits; its `status_flat` is the one place the
family decides a verdict.  Its instance class (`ThinQuiverRep`,
`ControlInstance`, `DagInstance`) is one point, whose `status()` asks
the spec.  `FAMILIES` maps each name to its spec class.
Outside the family modules only the DAG-only extras (stabilization, the
MLE, constructed degenerates) and the Kronecker oracle check a family's
type.
"""

from __future__ import annotations

from typing import Union

from git_topo.families.base import FamilySpec, StabilityStatus, StratumClass, Verdict
from git_topo.families.control import ControlFamily, ControlInstance
from git_topo.families.dag import DagFamily, DagInstance, dag_stabilize
from git_topo.families.quiver import QuiverSpec, ThinQuiverRep, kronecker_spec

Instance = Union[ThinQuiverRep, ControlInstance, DagInstance]

FAMILIES: dict[str, type[FamilySpec]] = {
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
