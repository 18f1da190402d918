"""Quiver representations with a King-style stability parameter.

A quiver here is a finite directed multigraph with a dimension vector and
an integer stability parameter theta satisfying the admissibility relation
sum_i theta_i * dim_i = 0.  The group is the product of GL(dim_i) over
vertices of positive dimension; points live in the direct sum of
Hom(C^dim_source, C^dim_target) over arrows.

Point-level checks are implemented for thin representations (all
dimensions 0 or 1), where subrepresentations correspond to arrow-closed
vertex subsets.  The best such subset is a maximum-weight closure, found
by one s-t minimum cut in polynomial time (`_max_closure`), and the
witness subset comes from that flow's residual graph; each spec builds
its closure graph once and caches the verdict of points with no
vanishing arrow.  The stratum enumeration works for arbitrary dimension
vectors.  A sub-dimension vector's m is a sum over arrows of terms that
depend only on the subdimensions at the two ends, and its orbit
dimension a sum over vertices, so the table is one walk over the
vertices of positive dimension that adds these terms as it fixes each
vertex, from tables built once per enumeration, and skips each prefix
that theta already rules out.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from git_topo.errors import (
    DomainError,
    GitTopoError,
    SchemaError,
    ShapeError,
    SizeLimitError,
)
from git_topo.families.base import (
    FamilySpec,
    StabilityStatus,
    StratumClass,
    check_stratum_work,
    complex_from_json,
    complex_to_json,
    hom_negative_dim,
    int_list,
    parse_int_list,
    require_int,
    require_list,
)
from git_topo.groups import (
    GroupSpec,
    OnePSClass,
    OrbitConvention,
    factor_stabilizer_dim,
)
from git_topo.linalg import ComplexRational, check_integers

# Most support vertices plus distinct arcs one thin point check accepts.
# The minimum cut is quadratic on a long path: on a 2-CPU x86 machine
# `check` took 1.8-2.1 s on its worst shape, a 1250-vertex path or cycle
# with every arrow toward vertex 1 and theta = (-1249, 1, ..., 1), size
# 2499-2500; 1.0-1.2 s with the arrows and theta reversed; and 30-40 ms
# on random graphs of that size.
MAX_CLOSURE_GRAPH_SIZE = 2500


@dataclass(frozen=True)
class QuiverSpec(FamilySpec):
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
            check_integers(what, values)
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

    @cached_property
    def positive_vertices(self) -> tuple[int, ...]:
        """The vertices of positive dimension, one GL factor each."""
        return tuple(i for i, d in enumerate(self.dim_vector) if d >= 1)

    @cached_property
    def _subdim_factors(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """Per positive vertex of dimension d, the GL factor of
        `one_ps_for_subdim` keyed by each subdimension k = 0..d, built once
        so that every stratum shares these tuples."""
        return tuple(
            {k: (0,) * k + (-1,) * (d - k) for k in range(d + 1)}
            for d in (self.dim_vector[v] for v in self.positive_vertices)
        )

    def support(self) -> tuple[int, ...]:
        """Vertices of dimension exactly 1 (the thin support)."""
        return tuple(i for i, d in enumerate(self.dim_vector) if d == 1)

    def is_thin(self) -> bool:
        return all(d <= 1 for d in self.dim_vector)

    def group(self) -> GroupSpec:
        return self._group

    @cached_property
    def _group(self) -> GroupSpec:
        return GroupSpec(tuple(self.dim_vector[v] for v in self.positive_vertices))

    @cached_property
    def representation(self) -> tuple[tuple[int, int, int], ...]:
        """Hom(C^d_s, C^d_t) per arrow s -> t between positive vertices."""
        factor = {v: i for i, v in enumerate(self.positive_vertices)}
        return tuple(
            (factor[s], factor[t], 1)
            for s, t in self.arrows
            if s in factor and t in factor
        )

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
    def instance_from_json(cls, data: dict) -> "ThinQuiverRep":
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
            spec = cls(vertices, tuple(arrows), dim, theta)
            raw = require_list(data.get("values"), "values")
            values = tuple(
                complex_from_json(v, f"values[{i}]") for i, v in enumerate(raw)
            )
            return ThinQuiverRep(spec, values)
        except GitTopoError as exc:
            raise SchemaError(str(exc)) from None

    def has_stable_points(self) -> bool:
        """Whether the point with every live arrow nonzero is stable.

        No point has fewer closed subsets, so if it is not stable, none is.
        """
        return self._generic_best[0] is None

    @cached_property
    def _closure(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int, int], ...], int]:
        """The thin support, theta by support slot, the arrows that join two
        distinct support vertices as (arrow, source slot, target slot), and
        the number of distinct (source slot, target slot) arcs among them.

        Loops and arrows touching a dimension-0 vertex never constrain a
        closed subset.  Refuses a non-thin quiver, an empty support, and a
        closure graph of more than MAX_CLOSURE_GRAPH_SIZE support vertices
        and distinct arcs.
        """
        if not self.is_thin():
            raise DomainError("point-level checks require a thin dimension vector")
        support = self.support()
        if not support:
            raise DomainError("representation has empty support")
        slot = {v: i for i, v in enumerate(support)}
        arcs = tuple(
            (a, slot[s], slot[t])
            for a, (s, t) in enumerate(self.arrows)
            if s != t and s in slot and t in slot
        )
        arc_count = len({(s, t) for _, s, t in arcs})
        size = len(support) + arc_count
        if size > MAX_CLOSURE_GRAPH_SIZE:
            raise SizeLimitError(
                f"thin point check refused: {len(support)} support vertices plus "
                f"distinct arcs make {size}, over the limit of "
                f"{MAX_CLOSURE_GRAPH_SIZE}"
            )
        return support, tuple(self.theta[v] for v in support), arcs, arc_count

    @cached_property
    def _generic_best(self) -> tuple[int | None, int]:
        """_max_closure with every arc live, the verdict of almost every point."""
        _, theta, arcs, _ = self._closure
        return _max_closure(theta, dict.fromkeys((s, t) for _, s, t in arcs))

    @property
    def flat_size(self) -> int:
        return 2 * len(self.arrows)

    @cached_property
    def _live_arrows(self) -> tuple[int, ...]:
        return tuple(a for a, live in enumerate(self.live_mask()) if live)

    def draw_flat(self, rng, bound: int) -> list[int]:
        """Two entries per live arrow, drawn in arrow order; zeros elsewhere."""
        live = self._live_arrows
        values = rng.ints(-bound, bound, 2 * len(live))
        if len(live) == len(self.arrows):
            return values
        flat = [0] * self.flat_size
        for j, a in enumerate(live):
            flat[2 * a : 2 * a + 2] = values[2 * j : 2 * j + 2]
        return flat

    def draw_generic(self, rng, bound: int) -> list[int]:
        """draw_flat, redrawn while it is the origin.

        The origin is the known non-stable point and would otherwise
        pollute generic counts.  A quiver with no live arrow only has the
        origin, so there is nothing to exclude.
        """
        has_live = bool(self._live_arrows)
        flat = self.draw_flat(rng, bound)
        while has_live and not any(flat):
            flat = self.draw_flat(rng, bound)
        return flat

    def instance_from_flat(self, flat: Sequence[int]) -> "ThinQuiverRep":
        values = tuple(
            ComplexRational.of(flat[2 * i], flat[2 * i + 1])
            for i in range(len(self.arrows))
        )
        return ThinQuiverRep(self, values)

    def status_flat(self, flat: Sequence[int]) -> StabilityStatus:
        """King stability for a thin point by one minimum cut.

        The point is unstable when some subrepresentation S has
        theta(S) > 0, strictly semistable when the best S has
        theta(S) = 0, and stable otherwise.  Evidence reports the first
        witness subset in mask order, 1-based.  The verdict depends only
        on which arcs carry a nonzero arrow, so a point where every arc
        does gets the spec's cached generic answer.
        """
        support, theta, arcs, arc_count = self._closure
        live = dict.fromkeys(
            (s, t) for a, s, t in arcs if flat[2 * a] or flat[2 * a + 1]
        )
        if len(live) == arc_count:
            best_sum, best_mask = self._generic_best
        else:
            best_sum, best_mask = _max_closure(theta, live)
        if best_sum is None:
            return StabilityStatus.stable()
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

    def strata(self, convention: OrbitConvention) -> list[StratumClass]:
        return enumerate_strata(self, convention)


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
    positive, tables = spec.positive_vertices, spec._subdim_factors
    try:
        factors = [table[sub[v]] for v, table in zip(positive, tables)]
    except KeyError:
        vertex = next(v for v, table in zip(positive, tables) if sub[v] not in table)
        raise DomainError(f"subdimension at vertex {vertex + 1} out of range") from None
    return OnePSClass(tuple(factors), ())


def enumerate_strata(
    spec: QuiverSpec, convention: OrbitConvention
) -> list[StratumClass]:
    """Destabilizing classes, one per admissible subdimension vector.

    A subdimension d' destabilizes when theta . d' >= 0.  The work limit
    counts every candidate d', each with sum dim_i weights on G and one
    weight per arrow coordinate on V.  The table itself is one walk
    (`_walk`) in the lex order of `sub_dimension_vectors`, which never
    enters a subtree that theta rules out.
    """
    dims = spec.dim_vector
    if all(d == 0 for d in dims):
        raise DomainError("the zero dimension vector has no strata")
    check_stratum_work(
        math.prod(d + 1 for d in dims),
        sum(dims) + sum(dims[s] * dims[t] for s, t in spec.arrows),
    )
    zero = (0,) * len(dims)
    group_dim = sum(d * d for d in dims)
    sub_dim = list(zero)
    rows: list[StratumClass] = []

    def keep(m: int, stabilizer: int) -> None:
        sub = tuple(sub_dim)
        if sub != zero and sub != dims:
            rep = one_ps_for_subdim(spec, sub)
            rows.append(StratumClass({"sub_dim": sub}, rep, m, group_dim - stabilizer))

    _walk(_walk_levels(spec, convention), 0, sub_dim, 0, 0, 0, keep)
    return rows


def _walk_levels(spec: QuiverSpec, convention: OrbitConvention) -> list[tuple]:
    """One level per positive vertex, in vertex order, for `_walk`.

    A level is (vertex, theta_vertex, rest, own, stabilizers, pairs).
    rest is the most theta . d' the later levels can add,
    sum max(0, theta_v dim_v).  Indexed by the vertex's subdimension k,
    own[k] is the m of its loops and stabilizers[k] its factor's
    `factor_stabilizer_dim`.  pairs holds (earlier vertex, table) per
    earlier vertex that shares arrows with this one, and table[j][k] is
    the m of those arrows when the earlier vertex has subdimension j.
    Each term is one `hom_negative_dim` of `one_ps_for_subdim`'s weights.
    """
    positive = spec.positive_vertices
    weights = [tuple(table.values()) for table in spec._subdim_factors]
    own = [[0] * len(ws) for ws in weights]
    pairs: list[dict[int, list[list[int]]]] = [{} for _ in positive]
    for source, target, mult in spec.representation:
        if source == target:
            for k, ws in enumerate(weights[source]):
                own[source][k] += mult * hom_negative_dim(ws, ws)
            continue
        earlier, later = sorted((source, target))
        table = pairs[later].setdefault(
            positive[earlier], [[0] * len(weights[later]) for _ in weights[earlier]]
        )
        for j, early in enumerate(weights[earlier]):
            for k, late in enumerate(weights[later]):
                ends = (early, late) if source == earlier else (late, early)
                table[j][k] += mult * hom_negative_dim(*ends)
    levels = []
    rest = 0
    for i in reversed(range(len(positive))):
        vertex = positive[i]
        levels.append((
            vertex,
            spec.theta[vertex],
            rest,
            tuple(own[i]),
            tuple(factor_stabilizer_dim(ws, convention) for ws in weights[i]),
            tuple((u, tuple(map(tuple, table))) for u, table in pairs[i].items()),
        ))
        rest += max(0, spec.theta[vertex] * spec.dim_vector[vertex])
    return levels[::-1]


def _walk(
    levels: list[tuple],
    level: int,
    sub_dim: list[int],
    theta_sum: int,
    m: int,
    stabilizer: int,
    keep: Callable[[int, int], None],
) -> None:
    """Set sub_dim at this level's vertex and every later one, first vertex
    slowest, and call keep(m, stabilizer) on each d' with theta . d' >= 0.

    The sums run over the levels already set.  A value k is skipped when
    theta_sum + theta_vertex * k + rest < 0, as no completion reaches
    theta . d' >= 0; past it, a larger k only lowers the sum unless
    theta_vertex > 0.  Recursion is one frame per positive vertex, and the
    work limit admits at most 17 of them (17 x 2^17 weights).
    """
    vertex, theta_vertex, rest, own, stabilizers, pairs = levels[level]
    deeper = level + 1 < len(levels)
    for k, added in enumerate(own):
        theta_next = theta_sum + theta_vertex * k
        if theta_next + rest < 0:
            if theta_vertex > 0:
                continue
            break
        sub_dim[vertex] = k
        for u, table in pairs:
            added += table[sub_dim[u]][k]
        if deeper:
            _walk(levels, level + 1, sub_dim, theta_next, m + added,
                  stabilizer + stabilizers[k], keep)
        else:
            keep(m + added, stabilizer + stabilizers[k])


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


def _max_closure(
    theta: Sequence[int], arcs: Iterable[tuple[int, int]]
) -> tuple[int | None, int]:
    """The best proper nonempty closed subset of a closure graph, by one min cut.

    Slots 0..n-1 carry weights theta summing to zero; the arcs (s, t) are
    distinct, with s != t.  A subset S is closed when no arc has s in S
    and t outside.  The source feeds each slot of positive weight, each
    slot of negative weight drains to the sink, and each arc is
    uncapacitated, so a maximum flow leaves M = sum(theta+) - flow as the
    best weight of any closed subset (Picard 1976).  The empty and the
    full subset both weigh 0.

    - M > 0: the slots the source reaches in the residual graph form the
      inclusion-minimal maximum closure, which is also the first one in
      mask order.  Dinic's last search found exactly them.
    - M = 0: the flow saturates every source and sink arc, so the
      maximum closures are the subsets closed in the residual graph on
      the slots.  Let u* be the smallest slot that reaches no larger
      slot.  Every nonempty closed subset C contains a terminal strongly
      connected component, whose largest slot reaches no larger one, so
      max C >= u*; if max C > u*, the mask of C exceeds every mask
      within [0, u*], and if max C = u*, C contains all u* reaches.  So
      reach(u*), a subset of [0, u*], is the first witness, unless it is
      every slot.

    Returns (M, mask) when some proper nonempty closed subset weighs
    M >= 0, else (None, 0).
    """
    n = len(theta)
    source, sink = n, n + 1
    positive = sum(w for w in theta if w > 0)
    # An arc of capacity past every cut is never cut and never saturated.
    uncut = positive + 1
    # Arc e runs to head[e] with residual capacity cap[e]; e ^ 1 is its reverse.
    out: list[list[int]] = [[] for _ in range(n + 2)]
    head: list[int] = []
    cap: list[int] = []

    def add(u: int, v: int, c: int) -> None:
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)

    for v, w in enumerate(theta):
        if w > 0:
            add(source, v, w)
        elif w < 0:
            add(v, sink, -w)
    for s, t in arcs:
        add(s, t, uncut)

    flow = 0
    while True:  # Dinic: one level graph per phase, then a blocking flow
        level = [-1] * (n + 2)
        level[source] = 0
        queue = [source]
        for u in queue:
            if level[sink] >= 0 and level[u] + 1 >= level[sink]:
                break  # the rest lie at or past the sink's level
            for e in out[u]:
                v = head[e]
                if cap[e] and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break
        pointer = [0] * (n + 2)
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[e] for e in path)
                flow += push
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                # Resume at the tail of the first saturated arc.
                cut = next(i for i, e in enumerate(path) if not cap[e])
                u = head[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs_out, i, next_level = out[u], pointer[u], level[u] + 1
            while i < len(arcs_out):
                e = arcs_out[i]
                if cap[e] and level[head[e]] == next_level:
                    break
                i += 1
            pointer[u] = i
            if i < len(arcs_out):
                path.append(arcs_out[i])
                u = head[arcs_out[i]]
            elif u == source:
                break
            else:  # dead end: drop the arc into u
                level[u] = -1
                u = head[path.pop() ^ 1]
                pointer[u] += 1

    best = positive - flow
    if best > 0:
        # The last level graph never stopped early, as the sink was out of
        # reach, so it is every slot the source still reaches.
        return best, sum(1 << v for v in range(n) if level[v] >= 0)
    # Top down over reversed residual arcs, label each slot with the
    # largest slot it reaches; the smallest self-labelled slot is first.
    label = [-1] * n
    for top in reversed(range(n)):
        if label[top] < 0:
            first = label[top] = top
            stack = [top]
            while stack:
                for e in out[stack.pop()]:
                    u = head[e]
                    if u < n and cap[e ^ 1] and label[u] < 0:
                        label[u] = top
                        stack.append(u)
    reached = {first}
    stack = [first]
    while stack:
        for e in out[stack.pop()]:
            v = head[e]
            if v < n and cap[e] and v not in reached:
                reached.add(v)
                stack.append(v)
    return (None, 0) if len(reached) == n else (0, sum(1 << v for v in reached))


def quiver_thin_status(rep: ThinQuiverRep) -> StabilityStatus:
    """`QuiverSpec.status_flat` of the numerators of each value's (re, im),
    which are nonzero exactly where the value is."""
    flat = [x.numerator for v in rep.values for x in (v.re, v.im)]
    return rep.spec.status_flat(flat)
