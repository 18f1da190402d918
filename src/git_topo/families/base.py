"""Shared value types and format primitives for the model families.

Each family contributes two things downstream: a stability verdict for a
point and a table of destabilizing strata (one per 1-PS class that can
occur as a worst destabilizer).  The types here are family-agnostic; the
per-family modules fill them in.  `strata_from_classes` builds a
family's stratum table from its 1-PS classes, counting each class's m
from the family's representation; the quiver family sums the same
per-block counts (`hom_negative_dim`) along one walk instead.  The JSON
and command-line primitives live here too, so each family module can
encode and parse its own shapes.  The rational reader keeps an integer an int (a JSON int, or a
string without a "/"), so a matrix of integer entries reaches the
elimination without a Fraction; only a "p/q" string becomes one.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from git_topo.errors import SchemaError, SizeLimitError
from git_topo.groups import OnePSClass, OrbitConvention, orbit_dim
from git_topo.linalg import ComplexRational, Matrix, is_integer

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# Most work, class count x weights per class, one stratum enumeration
# accepts.  A class's weights are its 1-PS weights on G plus the
# (weight, multiplicity) pairs it has on V.  Control and DAG tables cost
# 0.13-0.3 us a unit.  A thin quiver builds only the rows theta
# destabilizes, so on a 2-CPU x86 machine `analyze quiver --json` on a
# 17-vertex thin path with 15 arrows (2^17 candidates x 32 weights) took
# 1.4-1.6 s and 96 MB with theta = (16, -1, ..., -1), and 2.3-2.8 s and
# 175 MB with theta = 0.
MAX_STRATUM_WORK = 2**22

# Most integers one drawn point may have: n(n + m) for control, n(k + 1)
# for DAG, two per arrow for a quiver.  On a 2-CPU x86 machine a trial at
# the limit drew its point in 20-25 ms and checked it in 10-180 ms:
# 130-180 ms at control (3, 21842), 15-21 ms at DAG (16384, 3), 10-11 ms
# on a 32768-arrow Kronecker quiver.  Square control shapes stay below
# the limit, and with the Krylov certificate mod p a trial there cost
# 7 ms at n = 40, 18 ms at n = 60, 54 ms at n = 100 and 0.42 s at
# n = 250, with m = 1 (exact Bareiss alone took 21 s at n = 100).
MAX_POINT_ENTRIES = 2**16

# Most work, point checks x integers per point, one verify run accepts
# (generic trials plus path points).  On a 2-CPU x86 machine a control
# trial cost 2-21 us per integer of its point: 31 us at (3, 2), 4.7 ms at
# (40, 2), 48 ms at (100, 1), 0.42 s at (250, 1), and the most, 39 ms, at
# (9, 200), below the Krylov certificate's crossover.  So a control run
# at the limit takes half a minute to six minutes; it accepts 2^20 trials
# at (3, 2) and about 1700 at (100, 1).  DAG and thin-quiver trials cost
# about 1 us per integer (38 us at DAG (10, 3), 50 ms at (16384, 3), 26 us
# on a 20-vertex thin cycle), so their runs stop near 11-16 s: 419430
# trials at DAG (10, 3) or on that cycle, 256 at (16384, 3), and every
# Kronecker run under MAX_TRIALS.
MAX_TRIAL_WORK = 2**24


def rational_to_str(value: int | Fraction) -> str:
    if type(value) is int:
        return str(value)
    return str(Fraction(value))


def rational_from_json(value: Any, field: str) -> int | Fraction:
    """A JSON int, or a string in the rational grammar _RATIONAL_RE.

    An integer stays an int; only a "p/q" string becomes a Fraction.
    """
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise SchemaError(f"{field}: malformed rational string {value!r}")
        try:
            return Fraction(value) if "/" in value else int(value)
        except ZeroDivisionError:
            raise SchemaError(f"{field}: zero denominator in {value!r}") from None
        except ValueError as exc:  # past Python's integer digit limit
            raise SchemaError(f"{field}: {exc}") from None
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError(f"{field}: rationals must be strings or integers")
    if isinstance(value, int):
        return value
    raise SchemaError(f"{field}: expected a rational string, got {type(value).__name__}")


def complex_to_json(value: ComplexRational) -> str | list[str]:
    if not value.im:
        return rational_to_str(value.re)
    return [rational_to_str(value.re), rational_to_str(value.im)]


def complex_from_json(value: Any, field: str) -> ComplexRational:
    if isinstance(value, list):
        if len(value) != 2:
            raise SchemaError(f"{field}: complex values are [re, im] pairs")
        return ComplexRational.of(
            rational_from_json(value[0], f"{field}[0]"),
            rational_from_json(value[1], f"{field}[1]"),
        )
    return ComplexRational.of(rational_from_json(value, field))


def matrix_to_json(matrix: Matrix) -> list[list[str]]:
    return [
        [rational_to_str(matrix.at(i, j)) for j in range(matrix.cols)]
        for i in range(matrix.rows)
    ]


def matrix_from_json(value: Any, rows: int, cols: int, field: str) -> Matrix:
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"{field}: expected {rows} rows")
    data = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{field}[{i}]: expected {cols} entries")
        data.append(
            [rational_from_json(e, f"{field}[{i}][{j}]") for j, e in enumerate(row)]
        )
    return Matrix.from_rows(data)


def require_int(value: Any, field: str, minimum: int | None = None) -> int:
    if not is_integer(value):
        raise SchemaError(f"{field}: expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{field}: must be at least {minimum}")
    return value


def require_list(value: Any, field: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{field}: expected a list")
    return value


def int_list(value: Any, field: str) -> tuple[int, ...]:
    return tuple(
        require_int(e, f"{field}[{i}]")
        for i, e in enumerate(require_list(value, field))
    )


def parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """A comma-separated command-line integer list."""
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise SchemaError(f"{flag}: expected comma-separated integers") from None


class Verdict(Enum):
    STABLE = "stable"
    NOT_STABLE = "not_stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityStatus:
    """Outcome of a stability check, with machine-checkable evidence.

    evidence is a small dict of ints and tuples, read-only as stable
    statuses are shared; keys are family-specific (rank for control and
    DAG, support and theta_sum for quiver).
    """

    verdict: Verdict
    reason: str | None = None
    evidence: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    @functools.cache
    def stable(cls, **evidence: Any) -> "StabilityStatus":
        # Memoized: generic sampling asks for one per trial.
        return cls(Verdict.STABLE, None, dict(evidence))

    @classmethod
    def not_stable(cls, reason: str, **evidence: Any) -> "StabilityStatus":
        return cls(Verdict.NOT_STABLE, reason, dict(evidence))

    @classmethod
    def unstable(cls, reason: str | None = None, **evidence: Any) -> "StabilityStatus":
        return cls(Verdict.UNSTABLE, reason, dict(evidence))

    @property
    def is_stable(self) -> bool:
        return self.verdict is Verdict.STABLE


@dataclass(frozen=True, slots=True)
class StratumClass:
    """One destabilizing 1-PS class with its numerical data.

    m is the dimension of the negative-weight subspace at the class's
    representative; value = 2*m - 2*orbit_dim is the contribution the
    class makes to connectivity counting, and is even by construction.
    The family and the orbit convention are the report's.
    """

    descriptor: Mapping[str, Any]
    representative: OnePSClass
    m: int
    orbit_dim: int

    @property
    def value(self) -> int:
        return 2 * self.m - 2 * self.orbit_dim


def check_stratum_work(classes: int, weights_per_class: int) -> None:
    """Refuse, before anything is built, a table past MAX_STRATUM_WORK."""
    if classes * weights_per_class > MAX_STRATUM_WORK:
        raise SizeLimitError(
            f"stratum enumeration refused: {classes} classes x "
            f"{weights_per_class} weights per class exceed the limit of "
            f"{MAX_STRATUM_WORK}"
        )


def check_sampling_work(entries: int, checks: int) -> None:
    """Refuse, before anything is drawn, a point past MAX_POINT_ENTRIES or a
    run of point checks past MAX_TRIAL_WORK."""
    if entries > MAX_POINT_ENTRIES:
        raise SizeLimitError(
            f"a point of {entries} integers refused: the limit is "
            f"{MAX_POINT_ENTRIES}"
        )
    if checks * entries > MAX_TRIAL_WORK:
        raise SizeLimitError(
            f"{checks} point checks x {entries} integers per point refused: "
            f"the limit is {MAX_TRIAL_WORK}"
        )


def _weight_counts(weights: tuple[int, ...]) -> Iterable[tuple[int, int]]:
    """Each distinct weight with its multiplicity; a rank-1 factor skips
    the count."""
    if len(weights) == 1:
        return ((weights[0], 1),)
    return [(w, weights.count(w)) for w in set(weights)]


def hom_negative_dim(
    source_weights: tuple[int, ...], target_weights: tuple[int, ...]
) -> int:
    """The coordinates of Hom(source, target) of negative weight.

    A coordinate has weight w_target - w_source.  Equal weights at an
    endpoint are grouped first, so the count costs one step per pair of
    distinct weights.
    """
    targets = _weight_counts(target_weights)
    m = 0
    for ws, cs in _weight_counts(source_weights):
        for wt, ct in targets:
            if wt < ws:
                m += cs * ct
    return m


def negative_weight_dim(spec, lam: OnePSClass) -> int:
    """m: the dimension of the strictly negative weight space of lam on V.

    V is `spec.representation`; each block adds its multiplicity times
    `hom_negative_dim` of its endpoints' weights, so a control class,
    whose n weights take two values, costs six steps.
    """
    spec.group().check_one_ps(lam)
    # Indexed by endpoint: GL factors, torus coordinates, last TRIVIAL.
    weights = [*lam.gl_weights, *((w,) for w in lam.torus_weights), (0,)]
    return sum(
        mult * hom_negative_dim(weights[source], weights[target])
        for source, target, mult in spec.representation
    )


def strata_from_classes(
    spec, convention: OrbitConvention, classes: Iterable[tuple[dict, OnePSClass]]
) -> list[StratumClass]:
    """One stratum per (descriptor, representative) pair of the family spec."""
    group = spec.group()
    return [
        StratumClass(
            descriptor=descriptor,
            representative=rep,
            m=negative_weight_dim(spec, rep),
            orbit_dim=orbit_dim(group, rep, convention),
        )
        for descriptor, rep in classes
    ]


class FamilySpec:
    """The shape of one model family, and the interface every family implements.

    A family is a frozen dataclass subclass whose fields are its shape, in
    the order of its command-line flags.  It supplies 11 members:

    - `name`, its registry key, and `CLI_ARGS`, a (dest, type, help)
      triple per command-line flag;
    - `DEFAULT_CONVENTION`, `group()`, `representation`, V as a tuple of
      blocks (source, target, multiplicity), each `multiplicity` copies of
      Hom(source, target), and `strata(convention)`.  An endpoint indexes
      a factor of `group()`, its GL factors first and then its torus
      coordinates, or is `groups.TRIVIAL`, the trivial line;
      every m is a sum of `hom_negative_dim` over the blocks;
    - `has_stable_points()`, whether V^st is non-empty;
    - `flat_size`, the integers in the flat encoding of a point that the
      harness samples in, `instance_from_flat(flat)` and
      `status_flat(flat)`, the family's one verdict on such a point;
    - `instance_from_json(data)`, the reader of `check` instance files,
      whose instance exposes `family()`, `to_json()` and `status()`, the
      `status_flat` of the instance cleared to integers.

    The base class gives the rest, which a family overrides where it
    differs: `draw_flat(rng, bound)` draws `flat_size` integers in
    [-bound, bound], `draw_generic` (the same, minus points generic
    sampling excludes) calls `draw_flat`, `path_suspects(entry_polys,
    n_samples)`, the samples of a quadratic path a certificate mod
    2^61 - 1 cannot clear, is every sample, `from_args(args)` passes the
    flags to the constructor in order, `to_json()` writes the name and
    the fields, and `thresholds(convention)` is empty.
    """

    name: str
    CLI_ARGS: tuple[tuple[str, type, str], ...]
    DEFAULT_CONVENTION: OrbitConvention

    @classmethod
    def from_args(cls, args):
        return cls(*(getattr(args, dest) for dest, _, _ in cls.CLI_ARGS))

    def to_json(self) -> dict:
        shape = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"family": self.name, **shape}

    def draw_flat(self, rng, bound: int) -> list[int]:
        return rng.ints(-bound, bound, self.flat_size)

    def draw_generic(self, rng, bound: int) -> list[int]:
        return self.draw_flat(rng, bound)

    def path_suspects(self, entry_polys, n_samples: int) -> Sequence[int]:
        # Every sample, checked pointwise: cheap where a point check is, as
        # for a thin quiver (a cached verdict, or one small minimum cut).
        return range(n_samples)

    def thresholds(self, convention: OrbitConvention) -> tuple[tuple[str, int], ...]:
        return ()
