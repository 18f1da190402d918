"""Reductive group bookkeeping: products of GL factors and a torus.

The groups acted with here are G = GL(n_1) x ... x GL(n_s) x (C*)^t.  A
one-parameter subgroup is recorded, up to conjugacy, by its integer weight
multiset per GL factor plus one integer per torus coordinate.  Weights are
kept in construction order (so a chosen representative keeps its stated
coordinate alignment); equality and hashing sort each GL factor's weights
internally, which is exactly conjugacy-invariance.

Two orbit-dimension conventions coexist downstream, differing in which
subgroup is taken as the stabilizer of the 1-PS class: its centralizer, or
the parabolic it defines.  Both are computed here from weight
multiplicities alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from git_topo.errors import DomainError, ShapeError


class OrbitConvention(Enum):
    CENTRALIZER = "centralizer"
    PARABOLIC = "parabolic"


@dataclass(frozen=True)
class GroupSpec:
    """Shape of G = prod GL(n_i) x (C*)^torus_rank."""

    gl_ranks: tuple[int, ...] = ()
    torus_rank: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gl_ranks", tuple(int(n) for n in self.gl_ranks))
        if any(n <= 0 for n in self.gl_ranks):
            raise DomainError("GL factor ranks must be positive")
        if self.torus_rank < 0:
            raise DomainError("torus rank must be non-negative")


def group_dim(spec: GroupSpec) -> int:
    """dim G = sum n_i^2 + torus_rank."""
    return sum(n * n for n in spec.gl_ranks) + spec.torus_rank


@dataclass(frozen=True, eq=False)
class OnePSClass:
    """Conjugacy class of a one-parameter subgroup of a GroupSpec group.

    gl_weights[i] lists the diagonal weights on the i-th GL factor in
    construction order; torus_weights has one exponent per torus
    coordinate.  Classes are not reduced on construction: a class and
    its positive multiples are distinct values.
    """

    gl_weights: tuple[tuple[int, ...], ...] = ()
    torus_weights: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "gl_weights", tuple(tuple(int(w) for w in ws) for ws in self.gl_weights)
        )
        object.__setattr__(self, "torus_weights", tuple(int(w) for w in self.torus_weights))

    def _conjugacy_key(self) -> tuple:
        return (
            tuple(tuple(sorted(ws, reverse=True)) for ws in self.gl_weights),
            self.torus_weights,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OnePSClass):
            return NotImplemented
        return self._conjugacy_key() == other._conjugacy_key()

    def __hash__(self) -> int:
        return hash(self._conjugacy_key())


def _check_match(spec: GroupSpec, lam: OnePSClass) -> None:
    if len(lam.gl_weights) != len(spec.gl_ranks):
        raise ShapeError(
            f"1-PS has {len(lam.gl_weights)} GL factors, group has {len(spec.gl_ranks)}"
        )
    for idx, (ws, n) in enumerate(zip(lam.gl_weights, spec.gl_ranks)):
        if len(ws) != n:
            raise ShapeError(f"GL factor {idx} has rank {n} but {len(ws)} weights given")
    if len(lam.torus_weights) != spec.torus_rank:
        raise ShapeError(
            f"1-PS has {len(lam.torus_weights)} torus weights, group has rank "
            f"{spec.torus_rank} torus"
        )


def centralizer_dim(spec: GroupSpec, lam: OnePSClass) -> int:
    """dim of the centralizer of lam: sum of squared weight multiplicities."""
    _check_match(spec, lam)
    total = spec.torus_rank
    for ws in lam.gl_weights:
        counts: dict[int, int] = {}
        for w in ws:
            counts[w] = counts.get(w, 0) + 1
        total += sum(m * m for m in counts.values())
    return total


def parabolic_dim(spec: GroupSpec, lam: OnePSClass) -> int:
    """dim of the parabolic defined by lam's non-negative weight pairs.

    Per GL factor with multiplicities m_1..m_r this is sum m_i^2 plus
    sum_{i<j} m_i m_j, which equals (n^2 + sum m_i^2) / 2.
    """
    _check_match(spec, lam)
    total = spec.torus_rank
    for ws, n in zip(lam.gl_weights, spec.gl_ranks):
        counts: dict[int, int] = {}
        for w in ws:
            counts[w] = counts.get(w, 0) + 1
        sq = sum(m * m for m in counts.values())
        total += (n * n + sq) // 2
    return total


def orbit_dim(spec: GroupSpec, lam: OnePSClass, convention: OrbitConvention) -> int:
    """dim of the G-orbit of lam under the chosen stabilizer convention."""
    if convention is OrbitConvention.CENTRALIZER:
        stab = centralizer_dim(spec, lam)
    elif convention is OrbitConvention.PARABOLIC:
        stab = parabolic_dim(spec, lam)
    else:
        raise DomainError(f"unknown orbit convention {convention!r}")
    return group_dim(spec) - stab
