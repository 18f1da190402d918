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

import itertools
from enum import Enum
from typing import Iterable

from git_topo.errors import DomainError, ShapeError
from git_topo.frozen import Frozen
from git_topo.linalg import check_integers


# A family's V is a sum of Hom blocks whose endpoints index the factors of
# G, GL factors first, or are TRIVIAL, the line G fixes.
TRIVIAL = -1


class OrbitConvention(Enum):
    CENTRALIZER = "centralizer"
    PARABOLIC = "parabolic"


class GroupSpec(Frozen):
    """Shape of G = prod GL(n_i) x (C*)^torus_rank."""

    __slots__ = FIELDS = ("gl_ranks", "torus_rank")

    def __init__(self, gl_ranks: tuple[int, ...] = (), torus_rank: int = 0) -> None:
        gl_ranks = tuple(gl_ranks)
        object.__setattr__(self, "gl_ranks", gl_ranks)
        object.__setattr__(self, "torus_rank", torus_rank)
        check_integers("GL factor rank", gl_ranks)
        check_integers("torus rank", (torus_rank,))
        if any(n <= 0 for n in gl_ranks):
            raise DomainError("GL factor ranks must be positive")
        if torus_rank < 0:
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


class OnePSClass(Frozen):
    """Representative of a conjugacy class of one-parameter subgroups.

    gl_weights[i] lists the diagonal weights on the i-th GL factor in
    construction order; torus_weights has one exponent per torus
    coordinate.  Classes are not reduced on construction: a class and
    its positive multiples are distinct values.

    The constructor tuples every weight list and refuses a weight that is
    not an exact int.
    """

    __slots__ = FIELDS = ("gl_weights", "torus_weights")

    def __init__(
        self,
        gl_weights: tuple[tuple[int, ...], ...] = (),
        torus_weights: tuple[int, ...] = (),
    ) -> None:
        gl_weights = tuple(map(tuple, gl_weights))
        torus_weights = tuple(torus_weights)
        object.__setattr__(self, "gl_weights", gl_weights)
        object.__setattr__(self, "torus_weights", torus_weights)
        check_integers("1-PS weight", itertools.chain(*gl_weights, torus_weights))


def weight_counts(weights: tuple[int, ...]) -> Iterable[tuple[int, int]]:
    """Each distinct weight with its multiplicity; a rank-1 factor skips
    the count."""
    if len(weights) == 1:
        return ((weights[0], 1),)
    return [(w, weights.count(w)) for w in set(weights)]


def factor_stabilizer_dim(weights: tuple[int, ...], convention: OrbitConvention) -> int:
    """dim of the stabilizer of a 1-PS with these weights in one GL factor.

    With weight multiplicities m_1..m_r the centralizer has dimension
    S = sum m_i^2 and the parabolic (the non-negative weight pairs)
    S + sum_{i<j} m_i m_j = (n^2 + S) / 2, n = len(weights), with the
    m_i from `weight_counts`.  A rank-1 factor has S = 1 and so gives
    exactly 1 under both conventions.
    """
    if not isinstance(convention, OrbitConvention):
        raise DomainError(f"unknown orbit convention {convention!r}")
    square = sum(mult * mult for _, mult in weight_counts(weights))
    if convention is OrbitConvention.CENTRALIZER:
        return square
    n = len(weights)
    return (n * n + square) // 2


def orbit_dim(spec: GroupSpec, lam: OnePSClass, convention: OrbitConvention) -> int:
    """dim G minus the dim of lam's stabilizer under the chosen convention:
    one `factor_stabilizer_dim` per GL factor, and the torus, which lies
    in both stabilizers."""
    if not isinstance(convention, OrbitConvention):  # also where G has no GL factor
        raise DomainError(f"unknown orbit convention {convention!r}")
    spec.check_one_ps(lam)
    stab = spec.torus_rank
    for ws in lam.gl_weights:
        stab += factor_stabilizer_dim(ws, convention)
    return group_dim(spec) - stab
