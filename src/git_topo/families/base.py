"""Shared value types and format primitives for the model families.

Each family contributes two things downstream: a stability verdict for a
point and a table of destabilizing strata (one per 1-PS class that can
occur as a worst destabilizer).  The types here are family-agnostic; the
per-family modules fill them in.  `strata_from_classes` builds every
family's stratum table from its 1-PS classes, counting each class's m
from the family's representation; the quiver family's `d_min` writes
the same rows as texts from one expansion that sums the same per-block
counts (`hom_negative_dim`) level by level.  The JSON
and command-line primitives live here too, so each family module can
encode and parse its own shapes, and so does `StratumTexts`, the one
writer of a stratum row's text line and JSON text.  The rational reader
keeps an integer an int (a JSON int, or a string without a "/"), so a
matrix of integer entries reaches the elimination without a Fraction;
only a "p/q" string becomes one.
`matrix_from_json` decodes a row of plain integers in one pass, under the
same grammar, and reads any other row entry by entry.
"""

from __future__ import annotations

import functools
import json
import re
from enum import Enum
from fractions import Fraction
from typing import Any, Iterable, Sequence

from git_topo.errors import SchemaError, SizeLimitError
from git_topo.frozen import Frozen
from git_topo.groups import OnePSClass, OrbitConvention, orbit_dim, weight_counts
from git_topo.linalg import ComplexRational, Matrix, is_integer

# The one integer grammar of instance files and the command line; int()
# alone would also take other scripts' digits, "_" and spaces.
_INTEGER = r"[+-]?[0-9]+"
_INTEGER_RE = re.compile(_INTEGER)
_RATIONAL_RE = re.compile(_INTEGER + r"(/[0-9]+)?")

# Most work, class count x weights per class, one stratum enumeration
# accepts.  A class's weights are its 1-PS weights on G plus the
# (weight, multiplicity) pairs it has on V.  Control and DAG tables cost
# 0.13-0.3 us a unit.  A thin quiver builds only the rows theta
# destabilizes, so on a 2-CPU x86 machine `analyze quiver --json` on a
# 17-vertex thin path with 15 arrows (2^17 candidates x 32 weights) took
# 0.07-0.11 s and 60 MB with theta = (16, -1, ..., -1), and 0.13-0.20 s
# and 102 MB with theta = 0.  A quiver's d_min alone (`homotopy`, the path gate
# of `verify`) comes from a search that runs unlimited where this limit
# admits the table; past it the search counts, in the same units, only
# the tables it reads (`quiver._levels_work`).  At the limit they took
# 0.13-0.22 s to build (three parallel arrows at dim (87, 87), one at
# (127, 127), one vertex of dim 2047).
MAX_STRATUM_WORK = 2**22

# Most integers one drawn point may have: n(n + m) for control, n(k + 1)
# for DAG, two per arrow for a quiver.  On a 2-CPU x86 machine a trial at
# the limit drew its point in 14-15 ms and checked it in 0.3-4 ms: 0.3 ms
# at control (3, 21842) (the exact rank builds only the Krylov columns it
# reads), 4 ms at DAG (16384, 3) and on a 32768-arrow Kronecker quiver.
# Square control shapes stay below the limit, and with the Krylov
# certificate mod p a trial there cost 7 ms at n = 40, 18 ms at n = 60,
# 54 ms at n = 100 and 0.42 s at n = 250, with m = 1 (exact Bareiss alone
# took 21 s at n = 100).
MAX_POINT_ENTRIES = 2**16

# Most work, point checks x integers per point, one verify run accepts
# (generic trials plus path points).  On a 2-CPU x86 machine a control
# trial cost 0.25-5.4 us per integer of its point: 13 us at (3, 2),
# 3.5 ms at (40, 2), 31 ms at (100, 1), and the most, 0.33-0.34 s, at
# (250, 1); a wide B costs little, since the exact rank reads only the
# Krylov columns it needs (0.52 ms at (9, 200), 16 ms at (3, 21842), most
# of it the draw).  So a control run at the limit takes 4 s to a minute
# and a half; it accepts 2^20 trials at (3, 2) and about 1700 at
# (100, 1).  DAG and thin-quiver trials cost 0.3-0.6 us per integer
# (13 us at DAG (10, 3), 20 ms at (16384, 3), 22 us on a 20-vertex thin
# cycle; a DAG generic trial whose first k rows decide it, 5-6 us at
# (10, 3)), so their runs stop near 5-9 s: 419430 trials at DAG (10, 3) or
# on that cycle, 256 at (16384, 3), and every Kronecker run under
# MAX_TRIALS.
MAX_TRIAL_WORK = 2**24


# The one encoder of canonical JSON text, for whole payloads and for the
# pieces of a report's rows alike.
json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


def _integer_row(row: list) -> list[int] | None:
    """The row as ints when every entry is a JSON int or a string that
    _RATIONAL_RE accepts without a "/"; else None, also when int()
    refuses an entry (past Python's digit limit)."""
    fullmatch = _RATIONAL_RE.fullmatch
    for e in row:
        if type(e) is not int and (type(e) is not str or "/" in e or not fullmatch(e)):
            return None
    try:
        return list(map(int, row))
    except ValueError:
        return None


def matrix_from_json(value: Any, rows: int, cols: int, field: str) -> Matrix:
    """A rows x cols matrix of rationals.  A row of plain integers is
    decoded in one pass; any other row goes entry by entry through
    rational_from_json, which names the entry it refuses."""
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"{field}: expected {rows} rows")
    data = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{field}[{i}]: expected {cols} entries")
        entries = _integer_row(row)
        if entries is None:
            entries = [
                rational_from_json(e, f"{field}[{i}][{j}]") for j, e in enumerate(row)
            ]
        data.append(entries)
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


def integer(text: str) -> int:
    """A command-line integer in the grammar _INTEGER_RE; else ValueError."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """A comma-separated command-line list of `integer`s, spaces allowed."""
    try:
        return tuple(integer(tok.strip(" ")) for tok in text.split(","))
    except ValueError:
        raise SchemaError(f"{flag}: expected comma-separated integers") from None


class Verdict(Enum):
    STABLE = "stable"
    NOT_STABLE = "not_stable"
    UNSTABLE = "unstable"


class StabilityStatus(Frozen):
    """Outcome of a stability check, with machine-checkable evidence.

    evidence is a small dict of ints and tuples, read-only as stable
    statuses are shared; keys are family-specific (rank for control and
    DAG, support and theta_sum for quiver).
    """

    __slots__ = FIELDS = ("verdict", "reason", "evidence")

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


class StratumClass(Frozen):
    """One destabilizing 1-PS class with its numerical data.

    m is the dimension of the negative-weight subspace at the class's
    representative; value = 2*m - 2*orbit_dim is the contribution the
    class makes to connectivity counting, and is even by construction.
    The family and the orbit convention are the report's.
    """

    __slots__ = FIELDS = ("descriptor", "representative", "m", "orbit_dim")

    @property
    def value(self) -> int:
        return 2 * self.m - 2 * self.orbit_dim


def format_value(value) -> str:
    """An int, or a tuple of ints as its repr "(1, 0)", but "(5)" for a
    1-tuple."""
    if isinstance(value, tuple):
        return f"({value[0]})" if len(value) == 1 else str(value)
    return str(value)


class StratumTexts:
    """A stratum table written as text, row by row, while it is built.

    `lines` gets each row's text line and `rows`, unless it is None, the
    row's canonical JSON text.  The line format and the JSON template live
    here and nowhere else, split at the fields that vary per row: a line
    is `line_head`, the descriptor and its line tail; a JSON text is
    `json_head`, the descriptor's JSON, its middle, the comma-joined texts
    of the factors' weight lists and its end.  The tails depend only on
    m, orbit_dim and the torus weights (`tails`).  The template's keys
    are in sorted order, so no dict is built and nothing is sorted per
    row.  A quiver table is written by its expansion, one f-string per row
    from label texts built once per table and tails it builds once per
    (m, orbit_dim); every other table by `add_classes`, which encodes
    each descriptor and weight list with `json_text`.
    """

    line_head = "  "

    def __init__(
        self, family: str, convention: OrbitConvention, with_json: bool
    ) -> None:
        self.lines: list[str] = []
        self.rows: list[str] | None = [] if with_json else None
        self.json_head = f'{{"convention":{json_text(convention.value)},"descriptor":'
        self._family = f',"family":{json_text(family)},"m":'

    def tails(
        self, m: int, orbit_dim: int, torus_weights: str = "[]"
    ) -> tuple[str, str, str]:
        """The line tail, the JSON middle and the JSON end of a row with
        this m and orbit_dim; torus_weights is the JSON text of that list."""
        value = 2 * (m - orbit_dim)
        return (
            f": m={m}, orbit_dim={orbit_dim}, value={value}",
            f'{self._family}{m},"orbit_dim":{orbit_dim},'
            '"representative":{"gl_weights":[',
            f'],"torus_weights":{torus_weights}}},"value":{value}}}',
        )

    def add_classes(self, strata: Iterable[StratumClass]) -> None:
        for s in strata:
            rep = s.representative
            line_tail, middle, end = self.tails(
                s.m, s.orbit_dim, json_text(rep.torus_weights)
            )
            line = ", ".join([f"{k}={format_value(v)}" for k, v in s.descriptor.items()])
            self.lines.append(f"{self.line_head}{line}{line_tail}")
            if self.rows is not None:
                descriptor = json_text(s.descriptor)
                gl_weights = ",".join(map(json_text, rep.gl_weights))
                self.rows.append(f"{self.json_head}{descriptor}{middle}{gl_weights}{end}")


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


def hom_negative_dim(
    source_weights: tuple[int, ...], target_weights: tuple[int, ...]
) -> int:
    """The coordinates of Hom(source, target) of negative weight.

    A coordinate has weight w_target - w_source.  Equal weights at an
    endpoint are grouped first, so the count costs one step per pair of
    distinct weights.
    """
    targets = weight_counts(target_weights)
    m = 0
    for ws, cs in weight_counts(source_weights):
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
            descriptor,
            rep,
            negative_weight_dim(spec, rep),
            orbit_dim(group, rep, convention),
        )
        for descriptor, rep in classes
    ]


class FamilySpec(Frozen):
    """The shape of one model family, and the interface every family implements.

    A family is a subclass whose `FIELDS`, a tuple of attribute names, is
    its shape, in constructor order.  It supplies 12 members:

    - `FIELDS`; `name`, its registry key, and `CLI_ARGS`, a (dest, type,
      help) triple per command-line flag;
    - `DEFAULT_CONVENTION`, `group()`, `representation`, V as a tuple of
      blocks (source, target, multiplicity), each `multiplicity` copies of
      Hom(source, target), and `strata(convention)`.  An endpoint indexes
      a factor of `group()`, its GL factors first and then its torus
      coordinates, or is `groups.TRIVIAL`, the trivial line;
      `strata` lists the family's 1-PS classes through
      `strata_from_classes`, so every m is a sum of `hom_negative_dim`
      over the blocks;
    - `has_stable_points()`, whether V^st is non-empty;
    - `flat_size`, the integers in the flat encoding of a point that the
      harness samples in, `instance_from_flat(flat)` and
      `status_flat(flat)`, the family's one verdict on such a point;
    - `instance_from_json(data)`, the reader of `check` instance files,
      whose instance exposes `family()`, `to_json()` and `status()`, the
      `status_flat` of the instance cleared to integers.

    `frozen.Frozen` builds a spec, as it builds every record, from one
    value per field in `FIELDS` order, and calls `check_shape()`, where a
    family raises DomainError or ShapeError on a shape it refuses and may
    normalize its fields; a spec is frozen, compares and hashes by its
    class and fields, and prints as `Name(field=value, ...)`.  The base
    class gives the rest, which a family overrides where it differs:
    `draw_flat(rng, bound)` draws `flat_size` integers in [-bound,
    bound], `draw_generic` (the same, minus points generic sampling
    excludes) calls `draw_flat`, `draw_generic_block` draws the
    `draw_generic` points of consecutive trials in one packed pass,
    `count_generic_unstable(stream, first, trials, bound)` counts the
    trials of such a block whose point `status_flat` does not call Stable
    (the DAG family decides most trials from the first k rows of the
    parent block, by one k x k rank, and draws the whole point only where
    that block is singular), `path_suspects(entry_polys, n_samples)`, the
    samples of a quadratic path a certificate mod 2^61 - 1 cannot clear,
    is every sample, `from_args(args)` passes the flags to the constructor
    in order, `to_json()` writes the name and the fields,
    `thresholds(convention)` is empty, and `d_min(convention, texts)`, the
    least stratum value, reads it off `strata(convention)` and writes
    those rows to a `StratumTexts` when one is given; the quiver family
    finds the same value and writes the same rows without building a
    `StratumClass`.
    """

    name: str
    CLI_ARGS: tuple[tuple[str, type, str], ...]
    DEFAULT_CONVENTION: OrbitConvention

    @classmethod
    def from_args(cls, args):
        return cls(*(getattr(args, dest) for dest, _, _ in cls.CLI_ARGS))

    def to_json(self) -> dict:
        shape = {name: getattr(self, name) for name in self.FIELDS}
        return {"family": self.name, **shape}

    def draw_flat(self, rng, bound: int) -> list[int]:
        return rng.ints(-bound, bound, self.flat_size)

    def draw_generic(self, rng, bound: int) -> list[int]:
        return self.draw_flat(rng, bound)

    def draw_generic_block(
        self, stream, first: int, trials: int, bound: int
    ) -> list[list[int]]:
        """`[self.draw_generic(stream.split(i), bound) for i in range(first,
        first + trials)]`, the draws packed by `stream.split_ints`.

        A family that overrides `draw_flat` or `draw_generic` overrides
        this too, or each of its trials is drawn by `draw_generic`.
        """
        draws = (type(self).draw_flat, type(self).draw_generic)
        if draws == (FamilySpec.draw_flat, FamilySpec.draw_generic):
            words = stream.split_ints(first, trials, -bound, bound, self.flat_size)
        else:
            words = [None] * trials
        return [
            flat if flat is not None else self.draw_generic(stream.split(i), bound)
            for i, flat in enumerate(words, first)
        ]

    def count_generic_unstable(
        self, stream, first: int, trials: int, bound: int
    ) -> int:
        """How many of the `trials` trials from `first` on draw a point that
        `status_flat` does not call Stable, drawn by `draw_generic_block`.

        A family that can decide a trial from part of its point overrides
        this, and must count exactly the same trials.
        """
        status = self.status_flat
        return sum(
            not status(flat).is_stable
            for flat in self.draw_generic_block(stream, first, trials, bound)
        )

    def path_suspects(self, entry_polys, n_samples: int) -> Sequence[int]:
        # Every sample, checked pointwise: cheap where a point check is, as
        # for a thin quiver (a cached verdict, or one small minimum cut).
        return range(n_samples)

    def thresholds(self, convention: OrbitConvention) -> tuple[tuple[str, int], ...]:
        return ()

    def d_min(
        self, convention: OrbitConvention, texts: StratumTexts | None = None
    ) -> int | None:
        """The least value over `strata(convention)`, None when there is no
        stratum; each row is written to texts when they are given.

        A family may find the least value without its table when texts is
        None, as the quiver family does by branch and bound; it must
        equal the minimum over `strata(convention)` exactly.
        """
        strata = self.strata(convention)
        if texts is not None:
            texts.add_classes(strata)
        return min((s.value for s in strata), default=None)
