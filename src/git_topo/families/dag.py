"""Star-shaped Gaussian DAG models: k parent columns, one child column.

A point is an n x (k+1) data matrix Y = [X | y] with X the parent block.
The group GL(k) x C* changes parent coordinates and scales the child.
The MLE for the child regression is unique exactly when X has full column
rank k, which is also GIT stability here; rank-deficient X gives a
NotStable verdict (the normal equations stay solvable but stop being
unique, so nothing is ever reported Unstable at the point level).

Destabilizing classes are indexed by the number j of redundant parent
columns; the representative puts weight -1 on those columns and -j on the
torus, leaving the child in non-negative weight.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from git_topo.errors import DomainError, PreconditionError, ShapeError
from git_topo.families.base import (
    FamilySpec,
    StabilityStatus,
    StratumClass,
    check_stratum_work,
    integer,
    matrix_from_json,
    matrix_to_json,
    require_int,
    strata_from_classes,
)
from git_topo.groups import TRIVIAL, GroupSpec, OnePSClass, OrbitConvention
from git_topo.linalg import (
    MAX_MINORS,
    Matrix,
    check_integers,
    column_pivots,
    hadamard_width,
    int_rank,
    integer_columns,
    minor_gcd,
    nullspace,
    pack_poly,
    poly_roots_below,
    solve_square,
)

# Largest parent count k whose quadratic paths get a minor-gcd
# certificate; past it every sample is checked pointwise.  A k x k minor
# of degree 2k packs into 2k w bits, w growing as k, so the certificate
# outgrows 256 pointwise checks (k^3, the elimination stopping after k of
# the n rows): on a 2-CPU x86 machine at n = 2k (median of 9 random
# paths, entries in [-9, 9], certificate against pointwise) it took 47
# against 79 ms at k = 14, 76-79 against 102-106 at k = 15, 123-139
# against 137-157 at k = 16 (level) and 182 against 161 at k = 17.
MAX_CERTIFIED_K = 15


@dataclass(frozen=True)
class DagFamily(FamilySpec):
    """Shape of the family: n samples, k parent variables.

    The flat encoding of a point is Y row-major.
    """

    n: int
    k: int

    name = "dag"
    CLI_ARGS = (
        ("samples", integer, "sample count n"),
        ("parents", integer, "parent count k"),
    )
    DEFAULT_CONVENTION = OrbitConvention.CENTRALIZER

    def __post_init__(self) -> None:
        check_integers("sample count", (self.n,))
        check_integers("parent count", (self.k,))
        if self.n < 1 or self.k < 1:
            raise DomainError("sample count and parent count must be positive")

    def group(self) -> GroupSpec:
        return self._group

    @cached_property
    def _group(self) -> GroupSpec:
        return GroupSpec((self.k,), torus_rank=1)

    @property
    def representation(self) -> tuple[tuple[int, int, int], ...]:
        """Each of the n rows of Y: k parent entries in C^k, and the child,
        on which the torus (factor 1) acts by the inverse of its weight."""
        return ((TRIVIAL, 0, self.n), (1, TRIVIAL, self.n))

    @staticmethod
    def instance_from_json(data: dict) -> "DagInstance":
        n = require_int(data.get("n"), "n", 1)
        k = require_int(data.get("k"), "k", 1)
        return DagInstance(n, k, matrix_from_json(data.get("Y"), n, k + 1, "Y"))

    def has_stable_points(self) -> bool:
        """Whether an n x k parent block can have full column rank k."""
        return self.n >= self.k

    @property
    def flat_size(self) -> int:
        return self.n * (self.k + 1)

    def instance_from_flat(self, flat: Sequence[int]) -> "DagInstance":
        return DagInstance(self.n, self.k, Matrix(self.n, self.k + 1, tuple(flat)))

    def status_flat(self, flat: Sequence[int]) -> StabilityStatus:
        """Stable exactly when the parent block has full column rank k."""
        r = parent_rank_ints(self.n, self.k, flat)
        if r == self.k:
            return StabilityStatus.stable(rank=r)
        return StabilityStatus.not_stable(
            reason=(
                f"parent block has rank {r} < {self.k}; the normal equations "
                "admit infinitely many solutions"
            ),
            rank=r,
        )

    def path_suspects(
        self, entry_polys: Sequence[Sequence[int]], n_samples: int
    ) -> Sequence[int]:
        """Samples of a quadratic path the parent-block minor gcd cannot clear.

        Where the gcd of the first k x k row minors of the parent block,
        packed at x = 2^w (hadamard_width), is nonzero mod p, some minor
        is nonzero over Z, so the parent block has full column rank.
        """
        k = self.k
        if k > MAX_CERTIFIED_K:
            return range(n_samples)
        reads = min(self.n, k + MAX_MINORS - 1)  # the rows the minors read
        rows = [entry_polys[i : i + k] for i in range(0, reads * (k + 1), k + 1)]
        width = hadamard_width([[sum(map(abs, e)) for e in row] for row in rows], k)
        packed = [[pack_poly(e, width) for e in row] for row in rows]
        return poly_roots_below(minor_gcd(packed, width), n_samples)

    def strata(self, convention: OrbitConvention) -> list[StratumClass]:
        return enumerate_strata(self, convention)

    def thresholds(self, convention: OrbitConvention) -> tuple[tuple[str, int], ...]:
        """Sample counts from which the stable locus is path-connected
        (d_min >= 2) and simply connected (d_min >= 3, so d_min >= 4).

        The class with j redundant columns has m = jn and orbit dimension
        2j(k - j) under the centralizer convention, j(k - j) under the
        parabolic one, so its value is 2j(n - 2k + 2j), resp.
        2j(n - k + j), which grows with n.  At n = 2k - 1, resp. k, class
        j has value 2j(2j - 1), resp. 2j^2, so d_min = 2, and one sample
        fewer gives class 1 the value 0; at n = 2k, resp. k + 1, class j
        has 4j^2, resp. 2j(j + 1), so d_min = 4.  So the cutoffs are 2k - 1
        and 2k under the centralizer convention and k and k + 1 under the
        parabolic one.  Keys are kept sorted for canonical serialization.
        """
        first = 2 * self.k - 1 if convention is OrbitConvention.CENTRALIZER else self.k
        return (
            ("path_connected_from_n", first),
            ("simply_connected_from_n", first + 1),
        )


@dataclass(frozen=True)
class DagInstance:
    """One data matrix Y, n x (k+1), last column the child."""

    n: int
    k: int
    y: Matrix

    def __post_init__(self) -> None:
        if (self.y.rows, self.y.cols) != (self.n, self.k + 1):
            raise ShapeError(f"Y must be {self.n}x{self.k + 1}")

    def family(self) -> DagFamily:
        return DagFamily(self.n, self.k)

    def status(self) -> StabilityStatus:
        return dag_status(self)

    def to_json(self) -> dict:
        return {**self.family().to_json(), "Y": matrix_to_json(self.y)}

    def parent_block(self) -> Matrix:
        return Matrix(
            self.n,
            self.k,
            tuple(
                self.y.at(i, j) for i in range(self.n) for j in range(self.k)
            ),
        )


def parent_rank_ints(n: int, k: int, y_flat: Sequence[int]) -> int:
    """Rank of the parent block from flat integer Y entries (fast path)."""
    return int_rank([y_flat[i * (k + 1) : i * (k + 1) + k] for i in range(n)])


def dag_status(inst: DagInstance) -> StabilityStatus:
    """`DagFamily.status_flat` of the instance cleared to integers.

    Each column is cleared of denominators on its own, which keeps the
    rank and keeps the entries of a stabilized sample small outside its
    repaired columns.
    """
    rows, _ = integer_columns(inst.y)
    return inst.family().status_flat([x for row in rows for x in row])


def dag_solve_mle(inst: DagInstance) -> tuple[Fraction, ...]:
    """Solve the normal equations X^T X beta = X^T y exactly.

    Requires a Stable instance.  Over Q the Gram matrix is singular
    exactly when the parent block has rank below k, so the solve itself
    decides stability, and the regression coefficients are then unique.
    With Y cleared column by column into Z = [Z_X | z], X = Z_X D^-1 and
    y = z / s for the column scales D = diag(s_j) and s, so the integer
    system Z_X^T Z_X gamma = Z_X^T z gives beta_j = s_j gamma_j / s.
    """
    k = inst.k
    rows, scales = integer_columns(inst.y)
    cols = list(zip(*rows))
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):  # symmetric: each pair once, mirrored
            gram[i][j] = gram[j][i] = sum(map(operator.mul, cols[i], cols[j]))
    rhs = [sum(map(operator.mul, cols[i], cols[k])) for i in range(k)]
    try:
        gamma = solve_square(Matrix.from_rows(gram), rhs)
    except DomainError:
        raise PreconditionError(
            "MLE solve requires a full-rank parent block; stabilize first"
        ) from None
    return tuple(g * s / scales[k] for g, s in zip(gamma, scales))


def dag_stabilize(inst: DagInstance, eps: Fraction | int) -> DagInstance:
    """Restore full column rank by an eps-perturbation of redundant columns.

    Each non-pivot parent column gets eps times a fresh left-null vector
    of X added to it: the i-th redundant column gets the i-th vector of
    the reduced-row-echelon basis of the null space of X^T.  Those
    directions are orthogonal to the column space, so the pivot columns
    still span the old space and each perturbed column contributes a new
    independent direction; the result is Stable for every nonzero eps.
    Stable inputs come back unchanged.  With r redundant columns, at most
    k - r of X^T's first k columns are pivots, and the reduced row echelon
    form commutes with dropping columns, so its first r null vectors are
    those of its first k columns padded with zeros: only that k x k block
    is eliminated.
    """
    eps = Fraction(eps)
    if eps == 0:
        raise DomainError("perturbation size must be nonzero")
    if inst.n < inst.k:
        raise DomainError(
            f"no {inst.n}x{inst.k} matrix has column rank {inst.k}; "
            "stabilization is impossible with fewer samples than parents"
        )
    pivots = set(column_pivots(inst.parent_block()))
    deficient = [c for c in range(inst.k) if c not in pivots]
    if not deficient:
        return inst
    k = inst.k
    head = Matrix(k, k, tuple(inst.y.at(i, j) for j in range(k) for i in range(k)))
    rows = inst.y.to_rows()
    for col, direction in zip(deficient, nullspace(head)):
        for i, value in enumerate(direction):
            rows[i][col] = Fraction(rows[i][col]) + eps * value
    return DagInstance(inst.n, inst.k, Matrix.from_rows(rows))


def enumerate_strata(fam: DagFamily, convention: OrbitConvention) -> list[StratumClass]:
    """One destabilizing class per redundant-column count j in 1..k.

    Its representative puts the j redundant parent columns in weight -1
    and the torus in weight -j.  Each class has k + 1 weights on G and
    at most three distinct weight pairs on V, which the work limit
    counts as k + 1.
    """
    k = fam.k
    check_stratum_work(k, k + 1)
    classes = (
        ({"redundant_columns": j}, OnePSClass(((-1,) * j + (0,) * (k - j),), (-j,)))
        for j in range(1, k + 1)
    )
    return strata_from_classes(fam, convention, classes)
