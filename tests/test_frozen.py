"""The package's records are plain frozen classes, so a cold start of the
CLI loads neither `dataclasses` nor `inspect`, and each record still
refuses assignment, copies, and compares, and where it did hashes, by
value.  A record whose signature has no defaults is built by `Frozen`
itself, and refuses a wrong number of values as a written-out
constructor would."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from git_topo.connectivity import AbelianGroup, ConnectivityReport
from git_topo.families.base import StabilityStatus, StratumClass
from git_topo.families.control import ControlFamily, ControlInstance
from git_topo.families.dag import DagFamily, DagInstance
from git_topo.families.quiver import ThinQuiverRep, kronecker_spec
from git_topo.groups import GroupSpec, OnePSClass, OrbitConvention
from git_topo.frozen import Frozen
from git_topo.harness import OP_GENERIC_POINTS, HarnessReport, TrialConfig
from git_topo.linalg import ComplexRational, Matrix

SRC = Path(__file__).resolve().parent.parent / "src"

# The modules new to sys.modules once git_topo.cli is imported; modules a
# site hook loads at startup are there before and so do not count.
NEW_MODULES = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "before = set(sys.modules)\n"
    "import git_topo.cli\n"
    "print(*sorted(set(sys.modules) - before))\n"
)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    result = subprocess.run(
        [sys.executable, "-c", NEW_MODULES, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    new = set(result.stdout.split())
    assert "git_topo.cli" in new
    assert not new & {"dataclasses", "inspect"}


# One builder per record: value v gives equal records for equal v and
# unequal ones for distinct v.
RECORDS = {
    "ComplexRational": lambda v: ComplexRational.of(1, v),
    "Matrix": lambda v: Matrix.from_rows([[1, v]]),
    "GroupSpec": lambda v: GroupSpec((2,), v),
    "OnePSClass": lambda v: OnePSClass(((0, -v),), ()),
    "AbelianGroup": lambda v: AbelianGroup(v),
    "ConnectivityReport": lambda v: ConnectivityReport(
        "control", OrbitConvention.PARABOLIC, v, v - 2
    ),
    "TrialConfig": lambda v: TrialConfig(ControlFamily(3, 2), trials=v),
    "HarnessReport": lambda v: HarnessReport(OP_GENERIC_POINTS, None, v),
    "StabilityStatus": lambda v: StabilityStatus.unstable("singular", rank=v),
    "StratumClass": lambda v: StratumClass({"r": 1}, OnePSClass(((0, -1),), ()), v, 0),
    "ControlFamily": lambda v: ControlFamily(3, v),
    "ControlInstance": lambda v: ControlInstance(
        1, 1, Matrix(1, 1, (v,)), Matrix(1, 1, (1,))
    ),
    "DagFamily": lambda v: DagFamily(v, 2),
    "DagInstance": lambda v: DagInstance(1, 1, Matrix(1, 2, (v, 1))),
    "QuiverSpec": lambda v: kronecker_spec((v, -v)),
    "ThinQuiverRep": lambda v: ThinQuiverRep(kronecker_spec(), (v, 1)),
}
HASHABLE = {
    "GroupSpec",
    "OnePSClass",
    "ControlFamily",
    "DagFamily",
    "QuiverSpec",
    "TrialConfig",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_frozen_and_compares_by_value(name):
    build = RECORDS[name]
    first, same, other = build(2), build(2), build(3)
    assert type(first).__name__ == name
    assert first is not same and first == same and first != other
    field = type(first).FIELDS[0]
    with pytest.raises(AttributeError):
        setattr(first, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(first, field)
    assert first == same
    assert copy.copy(first) == pickle.loads(pickle.dumps(first)) == first
    if name in HASHABLE:
        assert hash(first) == hash(same)
        assert len({first, same, other}) == 2


# The records whose constructors take defaults or keywords, and so write
# out their __init__; Frozen builds every other record.
WRITTEN_OUT = {
    "TrialConfig",
    "HarnessReport",
    "ConnectivityReport",
    "GroupSpec",
    "OnePSClass",
}


@pytest.mark.parametrize("name", sorted(set(RECORDS) - WRITTEN_OUT))
def test_record_built_by_frozen_takes_one_value_per_field(name):
    record = RECORDS[name](2)
    cls = type(record)
    assert cls.__init__ is Frozen.__init__
    values = tuple(getattr(record, field) for field in cls.FIELDS)
    assert cls(*values) == record
    for wrong in (values[:-1], values + (values[-1],)):
        with pytest.raises(TypeError, match=name):
            cls(*wrong)
