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
vanishing arrow.  The stratum table works for arbitrary dimension
vectors.  `enumerate_strata` lists it through `strata_from_classes`, one
class per sub-dimension vector, as every family does.  `analyze` writes
the same rows as texts from one expansion over the vertices of positive
dimension (`_table`), which adds each arrow's m term and each vertex's
stabilizer term as it fixes a vertex, drops each prefix that theta
already rules out, and carries each row's labels as JSON texts.
`homotopy` and the path gate of `verify` need only the least value,
which a branch and bound over the same levels finds (`_least_row`): it
cuts each prefix that cannot beat the best row found, and it builds no
row.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Sequence

from git_topo.errors import (
    DomainError,
    GitTopoError,
    SchemaError,
    ShapeError,
    SizeLimitError,
)
from git_topo.families.base import (
    MAX_STRATUM_WORK,
    FamilySpec,
    StabilityStatus,
    StratumClass,
    StratumTexts,
    check_stratum_work,
    complex_from_json,
    complex_to_json,
    hom_negative_dim,
    int_list,
    json_text,
    parse_int_list,
    require_int,
    require_list,
    strata_from_classes,
)
from git_topo.groups import (
    GroupSpec,
    OnePSClass,
    OrbitConvention,
    factor_stabilizer_dim,
    group_dim,
)
from git_topo.linalg import ComplexRational, check_integers

# Most support vertices plus distinct arcs one thin point check accepts.
# The minimum cut is quadratic on a long path: on a 2-CPU x86 machine
# `check` took 1.8-2.1 s on its worst shape, a 1250-vertex path or cycle
# with every arrow toward vertex 1 and theta = (-1249, 1, ..., 1), size
# 2499-2500; 1.0-1.2 s with the arrows and theta reversed; and 30-40 ms
# on random graphs of that size.
MAX_CLOSURE_GRAPH_SIZE = 2500

# Most table reads one d_min search (`_least_row`) makes on a quiver whose
# table MAX_STRATUM_WORK refuses: per prefix it extends, one per candidate
# k and one more per earlier vertex sharing arrows with this one.  A thin
# cycle of v vertices with theta = (v - 1, -1, ..., -1) takes about 8v
# (16k at v = 2000), the benchmark's `homotopy` quivers 78-375.  On a
# 2-CPU x86 machine a read cost 0.2-0.5 us, against 0.13-0.3 us a unit of
# MAX_STRATUM_WORK, so that limit would have let a search run 1-2 s.  At
# this one the random quivers that reach it (21-59 vertices, dense arrows)
# were refused after 0.22-0.42 s in-process and 0.35-0.54 s for the whole
# `homotopy` command.  Where MAX_STRATUM_WORK admits the table the search
# visits only prefixes the table lists, and runs with no budget:
# `homotopy` on the 16-vertex thin star with every arrow into its last
# vertex, whose floors never cut, took 0.21-0.22 s in-process.
MAX_SEARCH_READS = 2**20

# Most candidates of the last levels `_table` tabulates once per boundary
# state (`_suffix_table`) instead of expanding them below every prefix.  On
# a 2-CPU x86 machine, `d_min` with JSON rows took its least time at 64
# (or 32) on the benchmark's thin cycles of 10 and 12 vertices, which 128
# slowed by 2-17 % and 256 by 27-44 %.  128 cut the 16-vertex cycle from
# 18.0 to 16.8 ms and a complete 12-vertex quiver, where every prefix has
# a boundary state of its own, from 3.7-4.4 to 3.1-4.4 ms, but saved only
# 0.7-0.9 ms over the benchmark's ten thin analyses, under 1 % of a pass.
SUFFIX_CANDIDATES = 64


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
        return self._scatter(rng.ints(-bound, bound, 2 * len(self._live_arrows)))

    def _scatter(self, values: list[int]) -> list[int]:
        """The flat point with `values` on the live arrows, in arrow order."""
        live = self._live_arrows
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

    def draw_generic_block(
        self, stream, first: int, trials: int, bound: int
    ) -> list[list[int]]:
        """`draw_generic` of each trial from `first` on, its first draw_flat
        packed by `stream.split_ints`.  A trial whose first draw is the
        origin, or holds a rejected word, is redrawn by `draw_generic`."""
        count = 2 * len(self._live_arrows)
        words = stream.split_ints(first, trials, -bound, bound, count)
        return [
            self._scatter(values) if values is not None and any(values)
            else self.draw_generic(stream.split(i), bound)
            for i, values in enumerate(words, first)
        ]

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

    def d_min(
        self, convention: OrbitConvention, texts: StratumTexts | None = None
    ) -> int | None:
        """The least stratum value, 2(m + stabilizer) - 2 dim G at the row
        with the least m + stabilizer.

        Without texts that row is found by `_least_row`'s branch and
        bound, which visits only prefixes that can still beat the best
        row and builds no row.  With texts the table is listed whole
        (`_table`), one call per prefix leaf: each row's text line, and
        its JSON text when texts.rows is a list, is one f-string of the
        leaf's and its suffix entry's labels and the tails `texts.tails`
        builds once per (m, orbit_dim), so no per-row object exists.  The
        least row is found among those (m, orbit_dim) as their tails are
        first built.
        """
        dim_g = group_dim(self.group())
        if texts is None:
            least = _least_row(self, convention)
            return None if least is None else 2 * (least - dim_g)
        lines, rows = texts.lines, texts.rows
        line_head, json_head = texts.line_head, texts.json_head
        # A row's tails by its m * span + orbit_dim, one int, as 0 <=
        # orbit_dim <= dim_g; least is the least m - orbit_dim among them.
        span = dim_g + 1
        tails: dict[int, tuple[str, str, str]] = {}
        least = None

        def keep(theta_sum: int, m: int, stabilizer: int, sub: str, line: str,
                 rep: str, table: list[tuple]) -> None:
            nonlocal least
            key_start = m * span + dim_g - stabilizer
            line_start = f"{line_head}sub_dim=({line}"
            json_start = f'{json_head}{{"sub_dim":[{sub}'
            for theta_part, m_part, stab_part, sub_part, line_part, rep_part in table:
                if theta_sum + theta_part < 0:
                    continue
                key = key_start + m_part * span - stab_part
                row_tails = tails.get(key)
                if row_tails is None:
                    row_m, row_orbit = divmod(key, span)
                    row_tails = tails[key] = texts.tails(row_m, row_orbit)
                    if least is None or row_m - row_orbit < least:
                        least = row_m - row_orbit
                line_tail, middle, end = row_tails
                lines.append(f"{line_start}{line_part}){line_tail}")
                if rows is not None:
                    rows.append(f"{json_start}{sub_part}]}}{middle}{rep}{rep_part}{end}")

        _table(self, convention, keep)
        return None if least is None else 2 * least


_ARROW_RE = re.compile(r"([0-9]+)->([0-9]+)")


def _parse_arrows(text: str) -> tuple[tuple[int, int], ...]:
    """A command-line arrow list "s->t,s->t", 1-indexed, made 0-based."""
    arrows = []
    for token in text.split(","):
        token = token.strip(" ")
        match = _ARROW_RE.fullmatch(token)
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


def enumerate_strata(
    spec: QuiverSpec, convention: OrbitConvention
) -> list[StratumClass]:
    """Destabilizing classes through `strata_from_classes`, one per
    subdimension vector d' with theta . d' >= 0, in the lex order of
    `sub_dimension_vectors`.  The class of d' has weights 0^k (-1)^(d - k)
    at a vertex of dimension d and subdimension k, so the arrows from the
    subspace into the quotient carry the negative weights."""
    _check_table(spec)
    classes = (
        ({"sub_dim": sub}, OnePSClass(tuple(
            (0,) * k + (-1,) * (d - k) for k, d in zip(sub, spec.dim_vector) if d
        )))
        for sub in sub_dimension_vectors(spec)
        if sum(map(operator.mul, spec.theta, sub)) >= 0
    )
    return strata_from_classes(spec, convention, classes)


def _table(
    spec: QuiverSpec,
    convention: OrbitConvention,
    keep: Callable[[int, int, int, str, str, str, list[tuple]], None],
) -> None:
    """The rows of `enumerate_strata`, in its order, as texts: one call
    keep(theta_sum, m, stabilizer, sub, line, rep, table) per prefix leaf,
    whose rows are the entries (theta part, m part, stabilizer part, sub
    part, line part, rep part) of table, in order, whose theta part brings
    theta_sum to 0 or more, each the leaf's sums and labels plus the
    entry's parts.  A level's labels, by its subdimension k, are the
    sub_dim entries from the previous positive vertex (the last level's
    through the last vertex), the same spelled with ", " for the text
    line, and the weight list, as JSON texts with a leading comma past the
    first level, so a row's are its sub_dim and gl_weights lists without
    their brackets.

    The levels split where the last ones, the suffix, hold at most
    SUFFIX_CANDIDATES candidates.  `_expand` lists the prefix's leaves
    and, once per table, every completion of the suffix, from a start
    past the most the suffix can subtract from theta . d', so that none
    is pruned.  A
    suffix row depends on its prefix only through the boundary, the
    subdimensions of the earlier vertices that the suffix's pairs read,
    so each boundary state gets one table of them (`_suffix_table`).  A
    leaf gets it less its first entry, d' = 0 on the suffix, when the
    prefix is all zero, and less its last, d' = dim, when it is full.
    `_check_table` refuses the table first.
    """
    _check_table(spec)
    levels = []
    previous, last = -1, spec.positive_vertices[-1]
    for vertex, *costs, weights in _walk_levels(spec, convention):
        comma = "," if previous >= 0 else ""
        zeros = "0," * (vertex - previous - 1)
        tail = ",0" * (spec.vertex_count - vertex - 1) if vertex == last else ""
        subs = [f"{comma}{zeros}{k}{tail}" for k in range(len(weights))]
        lines = [sub.replace(",", ", ") for sub in subs]
        reps = [comma + json_text(ws) for ws in weights]
        levels.append((vertex, *costs, subs, lines, reps))
        previous = vertex
    split, candidates = len(levels), 1
    while split and candidates * len(levels[split - 1][3]) <= SUFFIX_CANDIDATES:
        split -= 1
        candidates *= len(levels[split][3])
    prefix, suffix = levels[:split], levels[split:]
    start = sum(max(0, -spec.theta[v] * spec.dim_vector[v]) for v, *_ in suffix)
    shared = [
        (theta - start, m, stabilizer, sub, line, rep)
        for _, theta, m, stabilizer, sub, line, rep in _expand(suffix, start)
    ]
    boundary = sorted(
        {u for level in suffix for u, _ in level[5]} - {level[0] for level in suffix}
    )
    slots = [i for i, level in enumerate(prefix) if level[0] in boundary]
    zero = (0,) * split
    full = tuple(spec.dim_vector[v] for v, *_ in prefix)
    tables: dict[tuple[int, ...], list[tuple]] = {}
    for ks, theta_sum, m, stabilizer, sub, line, rep in _expand(prefix, 0):
        key = tuple([ks[i] for i in slots])
        table = tables.get(key)
        if table is None:
            table = tables[key] = _suffix_table(suffix, dict(zip(boundary, key)), shared)
        if ks == zero or ks == full:
            table = table[ks == zero : len(table) - (ks == full)]
        keep(theta_sum, m, stabilizer, sub, line, rep, table)


def _expand(levels: list[tuple], theta_start: int) -> list[tuple]:
    """The leaves of `levels`, in lex order, as (choices, theta, m,
    stabilizer, sub, line, rep): the subdimension chosen at each level,
    theta_start plus theta . d' on these levels, the m of their loops and
    of the arrows among them, their stabilizer, and their labels joined.

    A value k is skipped when theta + theta_vertex * k + rest < 0, as no
    completion reaches theta . d' >= 0; past it, a larger k only lowers
    the sum unless theta_vertex > 0.  So from theta_start = 0 neither
    d' = 0 nor d' = dim is skipped, and no prefix with a kept row is.
    """
    entries = [((), theta_start, 0, 0, "", "", "")]
    at: dict[int, int] = {}
    for vertex, theta_vertex, rest, own, stabilizers, pairs, subs, lines, reps in levels:
        inside = [(at[u], table) for u, table in pairs if u in at]
        at[vertex] = len(at)
        extended = []
        for ks, theta, m, stabilizer, sub, line, rep in entries:
            for k, added in enumerate(own):
                theta_next = theta + theta_vertex * k
                if theta_next + rest < 0:
                    if theta_vertex > 0:
                        continue
                    break
                for j, table in inside:
                    added += table[ks[j]][k]
                extended.append((
                    ks + (k,), theta_next, m + added, stabilizer + stabilizers[k],
                    sub + subs[k], line + lines[k], rep + reps[k],
                ))
        entries = extended
    return entries


def _suffix_table(
    levels: list[tuple], boundary: dict[int, int], shared: list[tuple]
) -> list[tuple]:
    """The completions `shared` of `levels` below a prefix that chose
    boundary[u] at each earlier vertex u those levels share arrows with:
    each m part gains the m of those arrows."""
    m_parts = [0]
    for level in levels:
        added = [0] * len(level[3])
        for u, table in level[5]:
            if u in boundary:
                added = list(map(operator.add, added, table[boundary[u]]))
        m_parts = [m + a for m in m_parts for a in added]
    return [
        (theta, m + m_part, stabilizer, sub, line, rep)
        for (theta, m, stabilizer, sub, line, rep), m_part in zip(shared, m_parts)
    ]


def _check_table(spec: QuiverSpec) -> None:
    """Refuse a table past MAX_STRATUM_WORK, whose work counts every
    candidate d', each with sum dim_i weights on G and one weight per
    arrow coordinate on V; then the zero dimension vector, which has
    none."""
    dims = spec.dim_vector
    check_stratum_work(
        math.prod(d + 1 for d in dims),
        sum(dims) + sum(dims[s] * dims[t] for s, t in spec.arrows),
    )
    if not spec.positive_vertices:
        raise DomainError("the zero dimension vector has no strata")


def _walk_levels(spec: QuiverSpec, convention: OrbitConvention) -> list[tuple]:
    """One level per positive vertex, in vertex order, for `_table` and
    `_least_row`.

    A level is (vertex, theta_vertex, rest, own, stabilizers, pairs,
    weights).  rest is the most theta . d' the later levels can add,
    sum max(0, theta_v dim_v).  Indexed by the vertex's subdimension k,
    weights[k] = 0^k (-1)^(d - k) is its GL factor's weight tuple (the
    subspace gets 0, so arrows into the quotient carry the negative
    weights), own[k] is the m of its loops and stabilizers[k] its
    `factor_stabilizer_dim`.  pairs holds (earlier vertex, table) per
    earlier vertex that shares arrows with this one, and table[j][k] is
    the m of those arrows when the earlier vertex has subdimension j.
    Each term is one `hom_negative_dim` of these weights, counted once
    per pair of weight tuples, and each stabilizer once per weight tuple.
    """
    positive = spec.positive_vertices
    weights = [
        tuple((0,) * k + (-1,) * (d - k) for k in range(d + 1))
        for d in (spec.dim_vector[v] for v in positive)
    ]
    negative = cache(hom_negative_dim)
    stabilizer = cache(factor_stabilizer_dim)
    own = [[0] * len(ws) for ws in weights]
    pairs: list[dict[int, list[list[int]]]] = [{} for _ in positive]
    for source, target, mult in spec.representation:
        if source == target:
            for k, ws in enumerate(weights[source]):
                own[source][k] += mult * negative(ws, ws)
            continue
        earlier, later = sorted((source, target))
        table = pairs[later].setdefault(
            positive[earlier], [[0] * len(weights[later]) for _ in weights[earlier]]
        )
        for j, early in enumerate(weights[earlier]):
            for k, late in enumerate(weights[later]):
                ends = (early, late) if source == earlier else (late, early)
                table[j][k] += mult * negative(*ends)
    levels = []
    rest = 0
    for i in reversed(range(len(positive))):
        vertex = positive[i]
        levels.append((
            vertex,
            spec.theta[vertex],
            rest,
            tuple(own[i]),
            tuple(stabilizer(ws, convention) for ws in weights[i]),
            tuple((u, tuple(map(tuple, table))) for u, table in pairs[i].items()),
            weights[i],
        ))
        rest += max(0, spec.theta[vertex] * spec.dim_vector[vertex])
    return levels[::-1]


def _levels_work(spec: QuiverSpec) -> int:
    """The weights `_walk_levels` computes, in MAX_STRATUM_WORK's units:
    d_v + 1 weight tuples of d_v weights per positive vertex, and per
    arrow between two of them (d_s + 1)(d_t + 1) `hom_negative_dim` terms
    (d_s + 1 for a loop) of d_s + d_t weights each."""
    dims = spec.dim_vector
    work = sum(dims[v] * (dims[v] + 1) for v in spec.positive_vertices)
    return work + sum(
        (dims[s] + 1) * (dims[t] + 1 if s != t else 1) * (dims[s] + dims[t])
        for s, t in spec.arrows
        if dims[s] and dims[t]
    )


def _least_row(spec: QuiverSpec, convention: OrbitConvention) -> int | None:
    """The least m + stabilizer over the rows of `enumerate_strata`, None
    when there is none, by a branch and bound over `_walk_levels`.

    Every m and stabilizer term a level adds is non-negative, so a
    prefix's m + stabilizer plus floors[i], the sum over the levels from
    i on of min over k of own[k] + stabilizers[k], bounds every
    completion from below; a prefix whose bound reaches the best row
    found is cut, so the result is exact.  Otherwise the search keeps
    `_expand`'s rules: it skips the k theta rules out, and drops d' = 0 and
    d' = dim only at the leaves.  It is depth first on an explicit stack,
    the cheapest next k first, so its depth is not bounded by Python's
    recursion limit.

    It visits only prefixes that `_table`'s expansions list and reads the
    same tables at each, so where the table's limit (`_check_table`) admits the
    quiver it runs with no limit of its own.  Past that limit it has two:
    before the levels are built, `_levels_work` up to MAX_STRATUM_WORK,
    and while the search runs, its table reads up to MAX_SEARCH_READS.
    Its refusal names the table's as well.
    """
    budget, table_refusal = math.inf, ""
    try:
        _check_table(spec)
    except SizeLimitError as exc:
        budget, table_refusal = MAX_SEARCH_READS, f"; {exc}"
        tabulated = _levels_work(spec)
        if tabulated > MAX_STRATUM_WORK:
            raise SizeLimitError(
                f"d_min search refused: its tables hold {tabulated} weights, "
                f"over the limit of {MAX_STRATUM_WORK}{table_refusal}"
            ) from None
    levels = [
        (vertex, theta_vertex, rest, tuple(map(operator.add, own, stabilizers)), pairs)
        for vertex, theta_vertex, rest, own, stabilizers, pairs, _ in _walk_levels(
            spec, convention
        )
    ]
    floors = [0] * (len(levels) + 1)
    for i in reversed(range(len(levels))):
        floors[i] = floors[i + 1] + min(levels[i][3])
    sub_dim = [0] * spec.vertex_count
    best = math.inf
    reads = 0
    # (levels set, k at the last of them, theta . d', m + stabilizer,
    # whether d' is 0 and whether it is dim on the levels set)
    stack = [(0, 0, 0, 0, True, True)]
    while stack:
        depth, k, theta_sum, total, zero, full = stack.pop()
        if total + floors[depth] >= best:
            continue
        if depth == len(levels):
            if not (zero or full):
                best = total
            continue
        if depth:
            sub_dim[levels[depth - 1][0]] = k
        _, theta_vertex, rest, costs, pairs = levels[depth]
        reads += len(costs) * (1 + len(pairs))
        if reads > budget:
            raise SizeLimitError(
                f"d_min search refused: past {budget} table reads, "
                f"at level {depth + 1} of {len(levels)}{table_refusal}"
            )
        pair_rows = [table[sub_dim[u]] for u, table in pairs]
        bound = best - floors[depth + 1]
        top = len(costs) - 1
        children = []
        for k, cost in enumerate(costs):
            theta_next = theta_sum + theta_vertex * k
            if theta_next + rest < 0:
                if theta_vertex > 0:
                    continue
                break
            cost += total
            for row in pair_rows:
                cost += row[k]
            if cost < bound:
                children.append((cost, k, theta_next))
        children.sort(reverse=True)
        depth += 1
        stack += [
            (depth, k, theta_next, cost, zero and k == 0, full and k == top)
            for cost, k, theta_next in children
        ]
    return None if best == math.inf else best


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
