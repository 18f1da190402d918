"""Linear control systems (A, B) under the change-of-basis GL(n) action.

A point is a pair of an n x n state matrix A and an n x m input matrix B.
Stability for the determinant character is exactly controllability: the
Krylov columns B, AB, ..., A^(n-1)B must span the state space.  The
destabilizing classes are indexed by the dimension r of a proper nonzero
A-invariant subspace containing the image of B.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from git_topo.errors import DomainError, ShapeError
from git_topo.families.base import (
    FamilySpec,
    StabilityStatus,
    StratumClass,
    check_stratum_work,
    matrix_from_json,
    matrix_to_json,
    require_int,
    strata_from_classes,
)
from git_topo.groups import TRIVIAL, GroupSpec, OnePSClass, OrbitConvention
from git_topo.linalg import (
    PRIME,
    Matrix,
    check_integers,
    int_rank,
    integer_rows,
    minor_gcd,
    poly_dot,
    poly_mod,
    poly_roots_below,
)

# Largest state dimension n whose quadratic paths get a minor-gcd
# certificate; past it every sample is checked pointwise.  A full Krylov
# minor has degree D = n(n + 1), so the certificate grows as n^3 D^2 and
# overtakes 256 pointwise checks: on a 2-CPU x86 machine at m = 1 it took
# 43 ms against 87 ms at n = 8, 82 against 94 ms at n = 9 and 155 against
# 144 ms at n = 10.  m = 2 widens the certificate's lead (137 against
# 276 ms at n = 10), but the cut is set where m = 1 crosses over.
MAX_CERTIFIED_N = 9

# Smallest state dimension n whose rank check first tries the full-rank
# Krylov certificate mod p.  On a 2-CPU x86 machine, with random entries
# in [-9, 9], the certificate took 199 us against 193 us for exact
# Bareiss at n = 10 and m = 2, and 331 against 414 us at n = 11.  The
# nm x n Krylov matrix is tall for m = 2, and the elimination stops after
# n of its rows.  At m = 1 it is square and is read whole, so exact
# Bareiss stays ahead to n = 12: 200 against 134 us at n = 10, 276
# against 251 us at n = 12, 324 against 340 us at n = 13 and 5.7 against
# 61 ms at n = 40.  The cut is set where m = 2 crosses over.
MIN_KRYLOV_CERTIFIED_N = 10


@dataclass(frozen=True)
class ControlFamily(FamilySpec):
    """Shape of the family: state dimension n, input dimension m.

    The flat encoding of a point is A row-major, then B row-major.
    """

    n: int
    m: int

    name = "control"
    CLI_ARGS = (("n", int, "state dimension"), ("m", int, "input dimension"))
    DEFAULT_CONVENTION = OrbitConvention.PARABOLIC

    def __post_init__(self) -> None:
        check_integers("state dimension", (self.n,))
        check_integers("input dimension", (self.m,))
        if self.n < 1 or self.m < 1:
            raise DomainError("state and input dimensions must be positive")

    def group(self) -> GroupSpec:
        return self._group

    @cached_property
    def _group(self) -> GroupSpec:
        return GroupSpec((self.n,))

    @property
    def representation(self) -> tuple[tuple[int, int, int], ...]:
        """A is End(C^n), B is m copies of C^n."""
        return ((0, 0, 1), (TRIVIAL, 0, self.m))

    @staticmethod
    def instance_from_json(data: dict) -> "ControlInstance":
        n = require_int(data.get("n"), "n", 1)
        m = require_int(data.get("m"), "m", 1)
        return ControlInstance(
            n,
            m,
            matrix_from_json(data.get("A"), n, n, "A"),
            matrix_from_json(data.get("B"), n, m, "B"),
        )

    def has_stable_points(self) -> bool:
        """Always: A shifting e_j to e_(j+1) with B = e_1 is controllable."""
        return True

    @property
    def flat_size(self) -> int:
        return self.n * (self.n + self.m)

    def instance_from_flat(self, flat: Sequence[int]) -> "ControlInstance":
        n, m = self.n, self.m
        return ControlInstance(
            n, m, Matrix(n, n, tuple(flat[: n * n])), Matrix(n, m, tuple(flat[n * n :]))
        )

    def status_flat(self, flat: Sequence[int]) -> StabilityStatus:
        """Stable exactly when (A, B) is controllable: Krylov rank n."""
        n, m = self.n, self.m
        a_rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        b_rows = [list(flat[n * n + i * m : n * n + (i + 1) * m]) for i in range(n)]
        r = controllability_rank_ints(n, m, a_rows, b_rows)
        if r == n:
            return StabilityStatus.stable(rank=r)
        return StabilityStatus.unstable(
            reason=f"reachable subspace has dimension {r} < {n}",
            rank=r,
        )

    def path_suspects(
        self, entry_polys: Sequence[Sequence[int]], n_samples: int
    ) -> Sequence[int]:
        """Samples of a quadratic path the Krylov minor gcd cannot clear.

        entry_polys holds one integer polynomial in the sample index per
        flat entry.  The Krylov matrix is built once over F_p[i]; where the
        gcd of its first maximal minors is nonzero mod p, some minor is
        nonzero over Z, so the point is controllable.
        """
        n, m = self.n, self.m
        if n > MAX_CERTIFIED_N:
            return range(n_samples)
        polys = [poly_mod(e) for e in entry_polys]
        a_rows = [polys[i * n : (i + 1) * n] for i in range(n)]
        current = [[polys[n * n + i * m + j] for i in range(n)] for j in range(m)]
        krylov = list(current)
        for _ in range(n - 1):
            current = [[poly_dot(row, col) for row in a_rows] for col in current]
            krylov.extend(current)
        return poly_roots_below(minor_gcd(krylov), n_samples)

    def strata(self, convention: OrbitConvention) -> list[StratumClass]:
        return enumerate_strata(self, convention)


@dataclass(frozen=True)
class ControlInstance:
    """One system: A is n x n, B is n x m, entries exact rationals."""

    n: int
    m: int
    a: Matrix
    b: Matrix

    def __post_init__(self) -> None:
        if (self.a.rows, self.a.cols) != (self.n, self.n):
            raise ShapeError(f"A must be {self.n}x{self.n}")
        if (self.b.rows, self.b.cols) != (self.n, self.m):
            raise ShapeError(f"B must be {self.n}x{self.m}")

    def family(self) -> ControlFamily:
        return ControlFamily(self.n, self.m)

    def status(self) -> StabilityStatus:
        return control_status(self)

    def to_json(self) -> dict:
        return {
            **self.family().to_json(),
            "A": matrix_to_json(self.a),
            "B": matrix_to_json(self.b),
        }


def controllability_rank_ints(
    n: int, m: int, a_rows: list[list[int]], b_rows: list[list[int]]
) -> int:
    """Rank of the controllability matrix for integer A, B (fast path).

    From n = MIN_KRYLOV_CERTIFIED_N on, full rank mod p is tried first:
    it proves full rank over Q.  Every other outcome, and every smaller
    n, runs exact Bareiss on the whole Krylov matrix.
    """
    if n >= MIN_KRYLOV_CERTIFIED_N and _krylov_full_rank_mod_p(n, m, a_rows, b_rows):
        return n
    current = [[b_rows[i][j] for i in range(n)] for j in range(m)]
    krylov = list(current)
    for _ in range(n - 1):
        current = [[sum(map(operator.mul, row, col)) for row in a_rows] for col in current]
        krylov.extend(current)
    return int_rank(krylov)


def _krylov_full_rank_mod_p(
    n: int, m: int, a_rows: list[list[int]], b_rows: list[list[int]]
) -> bool:
    """Whether the Krylov columns B, AB, A^2 B, ... reach rank n modulo p.

    Builds the columns one block at a time into an echelon basis over
    F_p, p = 2^61 - 1.  Only the columns a block adds are multiplied by A
    for the next one: a column that reduces to zero lies in the span so
    far, and so does its image under A.  Stops at rank n, or when a
    whole block adds nothing (the span is then A-invariant and the rank
    mod p is below n).  A nonzero n x n minor mod p is nonzero over Z,
    so True proves controllability.

    A vector is packed into one integer, `size` bytes per entry, so that
    a reduction step or a product with A is one big-integer operation.
    Entries are added in [0, p) and reduced only when read: a column
    takes at most n products below p^2 from A and n more from the
    reduction, and the slot width leaves room for all of them.
    """
    size = (2 * PRIME.bit_length() + 2 * n.bit_length() + 9) // 8
    width = 8 * size
    mask = (1 << width) - 1

    def pack(vec: list[int]) -> int:
        raw = b"".join(x.to_bytes(size, "little") for x in vec)
        return int.from_bytes(raw, "little")

    def unpack(packed: int) -> list[int]:
        raw = packed.to_bytes(n * size, "little")
        return [
            int.from_bytes(raw[i : i + size], "little") % PRIME
            for i in range(0, n * size, size)
        ]

    a_cols = [pack([a_rows[i][j] % PRIME for i in range(n)]) for j in range(n)]
    block = [pack([b_rows[i][j] % PRIME for i in range(n)]) for j in range(m)]
    basis: list[tuple[int, int]] = []
    while block:
        added = []
        for packed in block:
            for pivot, row in basis:
                factor = (packed >> width * pivot & mask) % PRIME
                if factor:
                    packed += (PRIME - factor) * row
            vec = unpack(packed)
            pivot = next((i for i, x in enumerate(vec) if x), None)
            if pivot is None:
                continue
            inv = pow(vec[pivot], -1, PRIME)
            vec = [x * inv % PRIME for x in vec]
            basis.append((pivot, pack(vec)))
            if len(basis) == n:
                return True
            added.append(vec)
        block = [sum(map(operator.mul, vec, a_cols)) for vec in added]
    return False


def control_status(inst: ControlInstance) -> StabilityStatus:
    """`ControlFamily.status_flat` of the instance cleared to integers.

    The rank of the controllability matrix is invariant under scaling A
    and B separately (each Krylov block only picks up a scalar), so each
    is cleared of denominators by one scale.
    """
    rows = integer_rows(inst.a.to_rows()) + integer_rows(inst.b.to_rows())
    return inst.family().status_flat([x for row in rows for x in row])


def invariant_subspace_dim(inst: ControlInstance) -> int:
    """Dimension of the smallest A-invariant subspace containing Im B.

    Independent oracle for control_status: saturates Im B under A with
    exact row-reduced bookkeeping instead of building Krylov blocks.
    """
    n = inst.n
    basis: dict[int, list[Fraction]] = {}

    def reduced(vec: list[Fraction]) -> list[Fraction]:
        out = list(vec)
        for piv, bv in basis.items():
            factor = out[piv]
            if factor:
                out = [x - factor * y for x, y in zip(out, bv)]
        return out

    def insert(vec: list[Fraction]) -> list[Fraction] | None:
        vec = reduced(vec)
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            return None
        lead = vec[pivot]
        normal = [x / lead for x in vec]
        for bv in basis.values():
            factor = bv[pivot]
            if factor:
                bv[:] = [x - factor * y for x, y in zip(bv, normal)]
        basis[pivot] = normal
        return normal

    queue = [[Fraction(x) for x in inst.b.col(j)] for j in range(inst.m)]
    while queue:
        added = insert(queue.pop(0))
        if added is not None:
            image = [
                sum((Fraction(inst.a.at(i, k)) * added[k] for k in range(n)), Fraction(0))
                for i in range(n)
            ]
            queue.append(image)
    return len(basis)


def one_ps_for_subspace(fam: ControlFamily, r: int) -> OnePSClass:
    """Representative fixing an r-dimensional invariant subspace.

    The first r basis slots (the subspace) get weight 0, the quotient
    slots weight -1.
    """
    if not (1 <= r <= fam.n - 1):
        raise DomainError(f"subspace dimension must lie in [1, {fam.n - 1}]")
    return OnePSClass(((0,) * r + (-1,) * (fam.n - r),), ())


def enumerate_strata(
    fam: ControlFamily, convention: OrbitConvention
) -> list[StratumClass]:
    """One destabilizing class per invariant-subspace dimension r in 1..n-1.

    Each class has n weights on G, two of them distinct, so six weight
    pairs on V.
    """
    check_stratum_work(fam.n - 1, fam.n + 6)
    return strata_from_classes(
        fam,
        convention,
        (
            ({"invariant_subspace_dim": r}, one_ps_for_subspace(fam, r))
            for r in range(1, fam.n)
        ),
    )
