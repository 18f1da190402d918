"""Quiver representations with a King-style stability parameter.

A quiver here is a finite directed multigraph with a dimension vector and
an integer stability parameter theta satisfying the admissibility relation
sum_i theta_i * dim_i = 0.  The group is the product of GL(dim_i) over
vertices of positive dimension; points live in the direct sum of
Hom(C^dim_source, C^dim_target) over arrows.

Point-level checks are implemented for thin representations (all
dimensions 0 or 1), where subrepresentations correspond to arrow-closed
vertex subsets and the stability test is a finite subset scan.  The
stratum enumeration works for arbitrary dimension vectors.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from git_topo.errors import (
    DomainError,
    GitTopoError,
    SchemaError,
    ShapeError,
    SizeLimitError,
)
from git_topo.families.base import (
    StabilityStatus,
    StratumClass,
    check_point_size,
    check_stratum_work,
    complex_from_json,
    complex_to_json,
    int_list,
    negative_weight_dim,  # re-exported: criterion 9 checks m against the weights
    parse_int_list,
    require_int,
    require_list,
    strata_from_classes,
)
from git_topo.groups import GroupSpec, OnePSClass, OrbitConvention
from git_topo.linalg import ComplexRational, is_integer

MAX_VERTICES_FOR_SUBSET_SCAN = 20


@dataclass(frozen=True)
class QuiverSpec:
    """A quiver with dimension vector and admissible stability parameter.

    Arrows are stored 0-based as (source, target) pairs; parallel arrows
    and loops are allowed.  The flat encoding of a thin point is one
    (re, im) integer pair per arrow, pinned at zero on arrows that touch
    a dimension-0 vertex.
    """

    vertex_count: int
    arrows: tuple[tuple[int, int], ...]
    dim_vector: tuple[int, ...]
    theta: tuple[int, ...]

    name = "quiver"
    CLI_ARGS = (
        ("arrows", str, 'arrow list "s->t,s->t" (1-indexed)'),
        ("dim", str, "comma-separated dimension vector"),
        ("theta", str, "comma-separated stability parameter"),
    )
    DEFAULT_CONVENTION = OrbitConvention.PARABOLIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrows", tuple((s, t) for s, t in self.arrows))
        object.__setattr__(self, "dim_vector", tuple(self.dim_vector))
        object.__setattr__(self, "theta", tuple(self.theta))
        for what, values in (
            ("vertex count", (self.vertex_count,)),
            ("arrow endpoint", [v for arrow in self.arrows for v in arrow]),
            ("dimension", self.dim_vector),
            ("stability parameter", self.theta),
        ):
            for value in values:
                if not is_integer(value):
                    raise DomainError(f"{what} {value!r} is not an integer")
        if self.vertex_count < 1:
            raise DomainError("quiver needs at least one vertex")
        for s, t in self.arrows:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise DomainError(
                    f"arrow {s + 1}->{t + 1}: vertex out of range "
                    f"1..{self.vertex_count}"
                )
        if len(self.dim_vector) != self.vertex_count:
            raise ShapeError("dimension vector length must equal vertex count")
        if len(self.theta) != self.vertex_count:
            raise ShapeError("stability parameter length must equal vertex count")
        if any(d < 0 for d in self.dim_vector):
            raise DomainError("dimensions must be non-negative")
        pairing = sum(a * d for a, d in zip(self.theta, self.dim_vector))
        if pairing != 0:
            raise DomainError(
                f"stability parameter is not admissible: theta . dim = {pairing} != 0"
            )

    def positive_vertices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.dim_vector) if d >= 1)

    def support(self) -> tuple[int, ...]:
        """Vertices of dimension exactly 1 (the thin support)."""
        return tuple(i for i, d in enumerate(self.dim_vector) if d == 1)

    def is_thin(self) -> bool:
        return all(d <= 1 for d in self.dim_vector)

    def group(self) -> GroupSpec:
        return GroupSpec(tuple(self.dim_vector[i] for i in self.positive_vertices()))

    def weights(self, lam: OnePSClass) -> Iterator[tuple[int, int]]:
        """(weight, multiplicity) pairs of lam on the arrow Hom spaces.

        An arrow coordinate from basis slot q at the source to slot p at
        the target carries weight w_target[p] - w_source[q].
        """
        positive = self.positive_vertices()
        if len(lam.gl_weights) != len(positive):
            raise ShapeError(
                f"1-PS has {len(lam.gl_weights)} factors, "
                f"quiver group has {len(positive)}"
            )
        if lam.torus_weights:
            raise ShapeError("quiver groups carry no torus factor")
        per_vertex: list[tuple[int, ...]] = [()] * self.vertex_count
        for vertex, ws in zip(positive, lam.gl_weights):
            if len(ws) != self.dim_vector[vertex]:
                raise ShapeError(
                    f"factor at vertex {vertex + 1} needs {self.dim_vector[vertex]} "
                    f"weights, got {len(ws)}"
                )
            per_vertex[vertex] = ws
        for s, t in self.arrows:
            for wp in per_vertex[t]:
                for wq in per_vertex[s]:
                    yield wp - wq, 1

    def live_mask(self) -> tuple[bool, ...]:
        """Per arrow, whether its Hom space is nonzero (both ends thin)."""
        dims = self.dim_vector
        return tuple(dims[s] == 1 and dims[t] == 1 for s, t in self.arrows)

    @classmethod
    def from_args(cls, args) -> "QuiverSpec":
        dim = parse_int_list(args.dim, "--dim")
        theta = parse_int_list(args.theta, "--theta")
        return cls(len(dim), _parse_arrows(args.arrows), dim, theta)

    def to_json(self) -> dict:
        return {
            "family": self.name,
            "vertices": self.vertex_count,
            "arrows": [[s + 1, t + 1] for s, t in self.arrows],
            "dim": list(self.dim_vector),
            "theta": list(self.theta),
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuiverSpec":
        vertices = require_int(data.get("vertices"), "vertices")
        arrows = []
        for i, pair in enumerate(require_list(data.get("arrows"), "arrows")):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"arrows[{i}]: expected a [source, target] pair")
            s = require_int(pair[0], f"arrows[{i}][0]")
            t = require_int(pair[1], f"arrows[{i}][1]")
            arrows.append((s - 1, t - 1))
        dim = int_list(data.get("dim"), "dim")
        theta = int_list(data.get("theta"), "theta")
        try:
            return cls(vertices, tuple(arrows), dim, theta)
        except GitTopoError as exc:
            raise SchemaError(str(exc)) from None

    @classmethod
    def instance_from_json(cls, data: dict) -> "ThinQuiverRep":
        spec = cls.from_json(data)
        raw = require_list(data.get("values"), "values")
        values = tuple(complex_from_json(v, f"values[{i}]") for i, v in enumerate(raw))
        try:
            return ThinQuiverRep(spec, values)
        except GitTopoError as exc:
            raise SchemaError(str(exc)) from None

    def has_stable_points(self) -> bool:
        """Whether the point with every live arrow nonzero is stable.

        No point has fewer closed subsets, so if it is not stable, none is.
        """
        return self.is_stable_flat([v for live in self.live_mask() for v in (live, 0)])

    def draw_flat(self, rng, bound: int) -> list[int]:
        check_point_size(2 * len(self.arrows))
        flat: list[int] = []
        for live in self.live_mask():
            if live:
                flat.append(rng.int_between(-bound, bound))
                flat.append(rng.int_between(-bound, bound))
            else:
                flat.extend((0, 0))
        return flat

    def draw_generic(self, rng, bound: int) -> list[int]:
        """draw_flat, redrawn while it is the origin.

        The origin is the known non-stable point and would otherwise
        pollute generic counts.  A quiver with no live arrow only has the
        origin, so there is nothing to exclude.
        """
        has_live = any(self.live_mask())
        flat = self.draw_flat(rng, bound)
        while has_live and not any(flat):
            flat = self.draw_flat(rng, bound)
        return flat

    def check_trial_work(self, checks: int) -> None:
        """No work limit: the trial and point limits alone bound a quiver run."""

    def instance_from_flat(self, flat: Sequence[int]) -> "ThinQuiverRep":
        values = tuple(
            ComplexRational.of(flat[2 * i], flat[2 * i + 1])
            for i in range(len(self.arrows))
        )
        return ThinQuiverRep(self, values)

    def is_stable_flat(self, flat: Sequence[int]) -> bool:
        live = [bool(flat[2 * a] or flat[2 * a + 1]) for a in range(len(self.arrows))]
        best_sum, _ = _best_closed_subset(self, live)
        return best_sum is None or best_sum < 0

    def path_suspects(
        self, entry_polys: Sequence[Sequence[int]], n_samples: int
    ) -> Sequence[int]:
        """Every sample: thin-quiver paths are checked pointwise.

        A subset scan of a few vertices costs about 4 us, so a path of
        N samples is cheap without a certificate.
        """
        return range(n_samples)

    def strata(self, convention: OrbitConvention) -> list[StratumClass]:
        return enumerate_strata(self, convention)

    def thresholds(self) -> tuple[tuple[str, int], ...]:
        return ()


_ARROW_RE = re.compile(r"^(\d+)->(\d+)$")


def _parse_arrows(text: str) -> tuple[tuple[int, int], ...]:
    """A command-line arrow list "s->t,s->t", 1-indexed, made 0-based."""
    arrows = []
    for token in text.split(","):
        token = token.strip()
        match = _ARROW_RE.match(token)
        if not match:
            raise SchemaError(
                f"--arrows: {token!r} is not of the form 's->t' (1-indexed)"
            )
        arrows.append((int(match.group(1)) - 1, int(match.group(2)) - 1))
    return tuple(arrows)


def kronecker_spec(theta: Sequence[int] = (1, -1)) -> QuiverSpec:
    """Two vertices, two parallel arrows 1->2, thin dimensions."""
    return QuiverSpec(2, ((0, 1), (0, 1)), (1, 1), tuple(theta))


def euler_form(spec: QuiverSpec, d: Sequence[int], e: Sequence[int]) -> int:
    """Euler form <d, e> = sum_i d_i e_i - sum_arrows d_source e_target."""
    if len(d) != spec.vertex_count or len(e) != spec.vertex_count:
        raise ShapeError("dimension vectors must match the vertex count")
    total = sum(di * ei for di, ei in zip(d, e))
    for s, t in spec.arrows:
        total -= d[s] * e[t]
    return total


def sub_dimension_vectors(spec: QuiverSpec) -> Iterator[tuple[int, ...]]:
    """All d' with 0 <= d'_i <= dim_i, excluding 0 and dim, in lex order."""
    full = spec.dim_vector
    for candidate in itertools.product(*(range(d + 1) for d in full)):
        if any(candidate) and candidate != full:
            yield candidate


def one_ps_for_subdim(spec: QuiverSpec, sub: Sequence[int]) -> OnePSClass:
    """Representative 1-PS fixing a subrepresentation of dimension d'.

    At each positive vertex the first d'_i basis slots (the subspace)
    get weight 0 and the remaining ones weight -1, so arrows out of the
    subrepresentation into the quotient are exactly the negative weights.
    """
    factors = []
    for vertex in spec.positive_vertices():
        keep = sub[vertex]
        total = spec.dim_vector[vertex]
        if not (0 <= keep <= total):
            raise DomainError(f"subdimension at vertex {vertex + 1} out of range")
        factors.append((0,) * keep + (-1,) * (total - keep))
    return OnePSClass(tuple(factors), ())


def enumerate_strata(
    spec: QuiverSpec, convention: OrbitConvention
) -> list[StratumClass]:
    """Destabilizing classes, one per admissible subdimension vector.

    A subdimension d' destabilizes when theta . d' >= 0.  Every candidate
    d' is scanned, and each carries sum dim_i weights on G and one weight
    per arrow coordinate on V.
    """
    dims = spec.dim_vector
    if all(d == 0 for d in dims):
        raise DomainError("the zero dimension vector has no strata")
    check_stratum_work(
        math.prod(d + 1 for d in dims),
        sum(dims) + sum(dims[s] * dims[t] for s, t in spec.arrows),
    )
    return strata_from_classes(
        spec,
        convention,
        (
            ({"sub_dim": sub}, one_ps_for_subdim(spec, sub))
            for sub in sub_dimension_vectors(spec)
            if sum(a * d for a, d in zip(spec.theta, sub)) >= 0
        ),
    )


@dataclass(frozen=True)
class ThinQuiverRep:
    """A representation of a thin quiver: one Gaussian rational per arrow.

    Arrows touching a dimension-0 vertex span a zero Hom space, so their
    values must be zero.
    """

    spec: QuiverSpec
    values: tuple[ComplexRational, ...]

    def __post_init__(self) -> None:
        if not self.spec.is_thin():
            raise DomainError("point-level checks require a thin dimension vector")
        object.__setattr__(
            self, "values", tuple(ComplexRational.of(v) for v in self.values)
        )
        if len(self.values) != len(self.spec.arrows):
            raise ShapeError("need exactly one value per arrow")
        for (s, t), v in zip(self.spec.arrows, self.values):
            if v and (self.spec.dim_vector[s] == 0 or self.spec.dim_vector[t] == 0):
                raise DomainError(
                    f"arrow ({s + 1}, {t + 1}) touches a dimension-0 vertex; "
                    "its value must be zero"
                )

    def family(self) -> QuiverSpec:
        return self.spec

    def status(self) -> StabilityStatus:
        return quiver_thin_status(self)

    def to_json(self) -> dict:
        return {
            **self.spec.to_json(),
            "values": [complex_to_json(v) for v in self.values],
        }


def _best_closed_subset(
    spec: QuiverSpec, live: Sequence[bool]
) -> tuple[int | None, int]:
    """The arrow-closed support subset of greatest theta weight.

    live[a] says whether arrow a is nonzero.  A proper nonempty subset S
    of the support spans a subrepresentation exactly when no live arrow
    leaves S.  Returns (theta(S), mask of S) for the first best S in mask
    order, or (None, 0) when no such S exists.
    """
    if not spec.is_thin():
        raise DomainError("point-level checks require a thin dimension vector")
    if spec.vertex_count > MAX_VERTICES_FOR_SUBSET_SCAN:
        raise SizeLimitError(
            f"subset scan refused beyond {MAX_VERTICES_FOR_SUBSET_SCAN} vertices"
        )
    support = spec.support()
    if not support:
        raise DomainError("representation has empty support")
    slot = {v: i for i, v in enumerate(support)}
    live_arrows = [
        (slot[s], slot[t])
        for (s, t), on in zip(spec.arrows, live)
        if on and s in slot and t in slot
    ]
    best_mask = 0
    best_sum = None
    for mask in range(1, (1 << len(support)) - 1):
        closed = True
        for s, t in live_arrows:
            if (mask >> s) & 1 and not (mask >> t) & 1:
                closed = False
                break
        if not closed:
            continue
        theta_sum = sum(
            spec.theta[v] for i, v in enumerate(support) if (mask >> i) & 1
        )
        if best_sum is None or theta_sum > best_sum:
            best_sum = theta_sum
            best_mask = mask
    return best_sum, best_mask


def quiver_thin_status(rep: ThinQuiverRep) -> StabilityStatus:
    """King stability for a thin representation by scanning vertex subsets.

    The point is unstable when some subrepresentation S has theta(S) > 0,
    strictly semistable when the best S has theta(S) = 0, and stable
    otherwise.  Evidence reports the first witness subset in mask order,
    1-based.
    """
    spec = rep.spec
    best_sum, best_mask = _best_closed_subset(spec, [bool(v) for v in rep.values])
    if best_sum is None or best_sum < 0:
        return StabilityStatus.stable()
    support = spec.support()
    witness = tuple(v + 1 for i, v in enumerate(support) if (best_mask >> i) & 1)
    if best_sum > 0:
        return StabilityStatus.unstable(
            reason="a destabilizing subrepresentation has positive weight",
            support=witness,
            theta_sum=best_sum,
        )
    return StabilityStatus.not_stable(
        reason="strictly semistable: a proper subrepresentation has weight zero",
        support=witness,
        theta_sum=0,
    )
