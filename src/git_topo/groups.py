"""Reductive group bookkeeping: products of GL factors and a torus.

The groups acted with here are G = GL(n_1) x ... x GL(n_s) x (C*)^t.  A
one-parameter subgroup is recorded by a chosen representative of its
conjugacy class: its integer weights per GL factor, in construction order
(so the representative keeps its stated coordinate alignment), plus one
integer per torus coordinate.  `GroupSpec.check_one_ps` is the one rule
for whether such a record fits G.

Two orbit-dimension conventions coexist downstream, differing in which
subgroup is taken as the stabilizer of the 1-PS class: its centralizer, or
the parabolic it defines.  Both are counted here from weight
multiplicities alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from git_topo.errors import DomainError, ShapeError
from git_topo.linalg import check_integers


# A family's V is a sum of Hom blocks whose endpoints index the factors of
# G, GL factors first, or are TRIVIAL, the line G fixes.
TRIVIAL = -1


class OrbitConvention(Enum):
    CENTRALIZER = "centralizer"
    PARABOLIC = "parabolic"


@dataclass(frozen=True)
class GroupSpec:
    """Shape of G = prod GL(n_i) x (C*)^torus_rank."""

    gl_ranks: tuple[int, ...] = ()
    torus_rank: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gl_ranks", tuple(self.gl_ranks))
        check_integers("GL factor rank", self.gl_ranks)
        check_integers("torus rank", (self.torus_rank,))
        if any(n <= 0 for n in self.gl_ranks):
            raise DomainError("GL factor ranks must be positive")
        if self.torus_rank < 0:
            raise DomainError("torus rank must be non-negative")

    def check_one_ps(self, lam: OnePSClass) -> None:
        """Raise ShapeError unless lam has one weight per coordinate of each
        GL factor and of the torus."""
        ranks = tuple(map(len, lam.gl_weights))
        if ranks != self.gl_ranks or len(lam.torus_weights) != self.torus_rank:
            raise ShapeError(
                f"1-PS with GL factor ranks {ranks} and {len(lam.torus_weights)} "
                f"torus weights does not fit G with GL factor ranks "
                f"{self.gl_ranks} and torus rank {self.torus_rank}"
            )


def group_dim(spec: GroupSpec) -> int:
    """dim G = sum n_i^2 + torus_rank."""
    return sum(n * n for n in spec.gl_ranks) + spec.torus_rank


@dataclass(frozen=True, slots=True)
class OnePSClass:
    """Representative of a conjugacy class of one-parameter subgroups.

    gl_weights[i] lists the diagonal weights on the i-th GL factor in
    construction order; torus_weights has one exponent per torus
    coordinate.  Classes are not reduced on construction: a class and
    its positive multiples are distinct values.
    """

    gl_weights: tuple[tuple[int, ...], ...] = ()
    torus_weights: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gl_weights", tuple(tuple(ws) for ws in self.gl_weights))
        object.__setattr__(self, "torus_weights", tuple(self.torus_weights))
        check_integers("1-PS weight", [w for ws in self.gl_weights for w in ws])
        check_integers("1-PS weight", self.torus_weights)


def orbit_dim(spec: GroupSpec, lam: OnePSClass, convention: OrbitConvention) -> int:
    """dim G minus the dim of lam's stabilizer under the chosen convention.

    Per GL factor of rank n whose weights have multiplicities m_1..m_r,
    the centralizer has dimension S = sum m_i^2 and the parabolic (the
    non-negative weight pairs) S + sum_{i<j} m_i m_j = (n^2 + S) / 2.
    A rank-1 factor has S = 1 and so adds exactly 1 under both
    conventions, without counting its weights.  The torus lies in both.
    """
    if not isinstance(convention, OrbitConvention):
        raise DomainError(f"unknown orbit convention {convention!r}")
    spec.check_one_ps(lam)
    centralizer = convention is OrbitConvention.CENTRALIZER
    stab = spec.torus_rank
    for ws, n in zip(lam.gl_weights, spec.gl_ranks):
        if n == 1:
            stab += 1
            continue
        square = 0
        for w in set(ws):
            mult = ws.count(w)
            square += mult * mult
        stab += square if centralizer else (n * n + square) // 2
    return group_dim(spec) - stab
