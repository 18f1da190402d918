"""Connectivity bounds and homotopy tables from a stratum table.

The pipeline: a family's destabilizing classes each carry a value
2m - 2*dim(orbit); the minimum d over classes makes the stable locus
(d-2)-connected, and inside the validity window q < d-1 the homotopy
groups of the free quotient match those of the group shifted by one.
Unitary homotopy is only trusted in the stable range i <= 2k-1;
everything outside a proven window is reported Unknown, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from git_topo.errors import DomainError, SizeLimitError
from git_topo.families import FamilySpec
from git_topo.families.base import StratumClass, StratumTexts
from git_topo.groups import GroupSpec, OrbitConvention

NO_INFORMATION = "no_information"
CONTRACTIBLE = "contractible"
# Largest max_q a homotopy table accepts.  Every row past 2 * (largest GL
# rank) or past the window q < d - 1 is Unknown, so a longer table says
# nothing new; at the limit the table of a 20-factor group took 0.16 s
# and wrote 118 kB of JSON on a 2-CPU x86 machine.
MAX_HOMOTOPY_DEGREE = 4096


@dataclass(frozen=True)
class AbelianGroup:
    """Zero, free abelian of known rank, or Unknown (rank None)."""

    rank: int | None

    def __post_init__(self) -> None:
        if self.rank is not None and self.rank < 0:
            raise DomainError("group rank cannot be negative")

    @classmethod
    def zero(cls) -> "AbelianGroup":
        return cls(0)

    @classmethod
    def free(cls, rank: int) -> "AbelianGroup":
        if rank < 1:
            raise DomainError("free abelian groups here have rank at least 1")
        return cls(rank)

    @classmethod
    def unknown(cls) -> "AbelianGroup":
        return cls(None)

    @property
    def is_unknown(self) -> bool:
        return self.rank is None

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        if self.is_unknown or other.is_unknown:
            return AbelianGroup.unknown()
        return AbelianGroup(self.rank + other.rank)

    def descriptor(self) -> str:
        if self.rank is None:
            return "unknown"
        if self.rank == 0:
            return "0"
        if self.rank == 1:
            return "Z"
        return f"Z^{self.rank}"


def unitary_group_pi(i: int, k: int) -> AbelianGroup:
    """pi_i(U(k)) in the stable range i <= 2k-1; Unknown beyond it.

    Zero at i = 0, Z in odd degrees, zero in positive even degrees.
    """
    if i < 0:
        raise DomainError("homotopy degree must be a natural number")
    if k < 1:
        raise DomainError("unitary rank must be positive")
    if i == 0:
        return AbelianGroup.zero()
    if i > 2 * k - 1:
        return AbelianGroup.unknown()
    if i % 2 == 1:
        return AbelianGroup.free(1)
    return AbelianGroup.zero()


def quotient_homotopy_group(
    group: GroupSpec, d: int | None, q: int
) -> AbelianGroup:
    """pi_q of the free quotient of the stable locus, via pi_{q-1}(G).

    Only answers inside the validity window q < d-1 (path-connectedness
    at q = 0 already needs d >= 2); outside it, Unknown.  d = None means
    the stable locus is all of V (no destabilizing classes), which
    removes the window bound.  Each GL factor contributes its unitary
    homotopy in degree q-1 and each torus coordinate contributes Z
    exactly at q-1 = 1; one Unknown summand makes the total Unknown.
    """
    if q < 0:
        raise DomainError("homotopy degree must be a natural number")
    if d is not None and q >= d - 1:
        return AbelianGroup.unknown()
    if q == 0:
        return AbelianGroup.zero()
    total = AbelianGroup.zero()
    for n in group.gl_ranks:
        total = total.direct_sum(unitary_group_pi(q - 1, n))
    if q - 1 == 1 and group.torus_rank:
        total = total.direct_sum(AbelianGroup.free(group.torus_rank))
    return total


@dataclass(frozen=True)
class ConnectivityReport:
    """Everything the analyze pipeline knows about one family.

    connectivity is an integer bound, "no_information" when d_min <= 1,
    or "contractible" when there are no destabilizing classes at all.
    thresholds carries family-specific sample-size cutoffs (the DAG
    family reports when path- and simple-connectedness kick in).  The
    rows are in strata, as `StratumClass` records, or in texts, as the
    text `summarize_strata` wrote them in; a report built with no rows
    has neither.
    """

    family: str
    convention: OrbitConvention
    strata: tuple[StratumClass, ...]
    d_min: int | None
    connectivity: int | str
    homotopy: tuple[tuple[int, AbelianGroup], ...] = ()
    thresholds: tuple[tuple[str, int], ...] = ()
    notes: tuple[str, ...] = ()
    texts: StratumTexts | None = None

    def row_texts(self, with_json: bool) -> StratumTexts:
        """The rows as texts, with their JSON texts if with_json is set: those
        written while the table was built, or written now from strata."""
        texts = self.texts
        if texts is None:
            texts = StratumTexts(self.family, self.convention, with_json)
            texts.add_classes(self.strata)
        elif with_json and texts.rows is None:
            raise ValueError("the report's rows were written without their JSON")
        return texts


ROW_FORMS = ("classes", "text", "json", None)


def summarize_strata(
    spec: FamilySpec,
    convention: OrbitConvention | None = None,
    max_q: int | None = None,
    rows: str | None = "classes",
) -> ConnectivityReport:
    """The analyze pipeline for one family spec, under its default
    convention unless one is given: strata, d_min, the connectivity
    bound d_min - 2 (none below d_min = 2), the family's thresholds and,
    when max_q is given, the homotopy table up to q = max_q.  A max_q
    out of range is refused before any stratum is enumerated.

    rows says what the report keeps of the table: "classes", its
    `StratumClass` rows in strata; "text", each row's text line in texts,
    and "json" its JSON text as well, both written as the family's
    `d_min` finds each row; None, nothing but d_min, which `homotopy`
    and the path gate of `verify` read.
    """
    if rows not in ROW_FORMS:
        raise DomainError(f"rows must be one of {ROW_FORMS}, not {rows!r}")
    if max_q is not None and max_q < 0:
        raise DomainError("max_q must be a natural number")
    if max_q is not None and max_q > MAX_HOMOTOPY_DEGREE:
        raise SizeLimitError(
            f"homotopy table up to q = {max_q} refused: "
            f"the limit is {MAX_HOMOTOPY_DEGREE}"
        )
    if convention is None:
        convention = spec.DEFAULT_CONVENTION
    strata: tuple[StratumClass, ...] = ()
    texts = None
    if rows == "classes":
        strata = tuple(spec.strata(convention))
        d = min((s.value for s in strata), default=None)
    else:
        if rows is not None:
            texts = StratumTexts(spec.name, convention, with_json=rows == "json")
        d = spec.d_min(convention, texts)
    notes: tuple[str, ...] = ()
    if d is not None:
        connectivity: int | str = d - 2 if d >= 2 else NO_INFORMATION
    else:
        connectivity = CONTRACTIBLE
        notes = ("no destabilizing classes: V^st = V",)
    homotopy: tuple[tuple[int, AbelianGroup], ...] = ()
    if max_q is not None:
        group = spec.group()
        homotopy = tuple(
            (q, quotient_homotopy_group(group, d, q)) for q in range(max_q + 1)
        )
    return ConnectivityReport(
        family=spec.name,
        convention=convention,
        strata=strata,
        d_min=d,
        connectivity=connectivity,
        homotopy=homotopy,
        thresholds=spec.thresholds(convention),
        notes=notes,
        texts=texts,
    )
