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
from typing import Iterable, Sequence

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
    integer_entries,
    minor_gcd,
    poly_dot,
    poly_mod,
    poly_roots_below,
)

# Largest state dimension n whose quadratic paths get a minor-gcd
# certificate; past it every sample is checked pointwise.  A full Krylov
# minor has degree D = n(n + 1), so the certificate grows as n^3 D^2 and
# overtakes 256 pointwise checks.  On a 2-CPU x86 machine, per path
# (median of 21 random paths, entries in [-9, 9], certificate against
# pointwise): at m = 1 it took 43 against 54 ms at n = 8, 60 against 58 ms
# at n = 9 (level, inside the spread of repeated runs), 104 against 79 ms
# at n = 10 and 187 against 111 ms at n = 11 (9 paths); at m = 2, 42
# against 71 ms at n = 8, 48-54 against 63-64 ms at n = 9 and 81 against
# 53 ms at n = 10.  The cut sits where both lose from n = 10 on.
MAX_CERTIFIED_N = 9

# Fewest entries, n x nm, of a Krylov matrix whose rank check first tries
# the full-rank certificate mod p.  On a 2-CPU x86 machine, with random
# entries in [-9, 9] and the same inputs for both (median of 9 draws, in
# us, certificate against exact Bareiss): at m = 1 the matrix is square
# and read whole, and Bareiss stays ahead to n = 12 (419 against 369),
# with the certificate first ahead at n = 13 (442 against 471) and far
# ahead at n = 40 (5.7 against 61 ms).  A wider B gives Bareiss n of nm
# rows of lower degree in A, and the certificate reads only the columns
# it needs, so the crossover falls with m: n = 10-11 at m = 2 (207
# against 198 at 10, 244 against 268 at 11), 8-9 at m = 3, 7 at m = 4,
# 5-6 at m = 6, 3-4 at m = 12 and 1 at m = 200 (8 against 73).  n^2 m
# >= 13^2 follows it to within a step of n.
MIN_KRYLOV_CERTIFIED_ENTRIES = 169


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

    From MIN_KRYLOV_CERTIFIED_ENTRIES entries on, full rank mod p is
    tried first: it proves full rank over Q.  Every other outcome, and
    every smaller Krylov matrix, runs exact Bareiss on the whole of it.
    """
    certified = n * n * m >= MIN_KRYLOV_CERTIFIED_ENTRIES
    if certified and _krylov_full_rank_mod_p(n, m, a_rows, b_rows):
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
    mod p is below n).  B's columns are packed as they are read, so a
    wide B that reaches rank n early is not packed whole.  A nonzero
    n x n minor mod p is nonzero over Z, so True proves controllability.

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
    block: Iterable[int] = (
        pack([b_rows[i][j] % PRIME for i in range(n)]) for j in range(m)
    )
    basis: list[tuple[int, int]] = []
    while True:
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
        if not added:
            return False
        block = [sum(map(operator.mul, vec, a_cols)) for vec in added]


def control_status(inst: ControlInstance) -> StabilityStatus:
    """`ControlFamily.status_flat` of the instance cleared to integers.

    The rank of the controllability matrix is invariant under scaling A
    and B separately (each Krylov block only picks up a scalar), so the
    entries of each are cleared of denominators by one scale.
    """
    flat = integer_entries(inst.a.entries) + integer_entries(inst.b.entries)
    return inst.family().status_flat(flat)


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


def enumerate_strata(
    fam: ControlFamily, convention: OrbitConvention
) -> list[StratumClass]:
    """One destabilizing class per invariant-subspace dimension r in 1..n-1.

    Its representative fixes an r-dimensional invariant subspace: the
    first r basis slots (the subspace) get weight 0, the quotient slots
    weight -1.  Each class has n weights on G, two of them distinct, so
    six weight pairs on V.
    """
    n = fam.n
    check_stratum_work(n - 1, n + 6)
    classes = (
        ({"invariant_subspace_dim": r}, OnePSClass(((0,) * r + (-1,) * (n - r),), ()))
        for r in range(1, n)
    )
    return strata_from_classes(fam, convention, classes)
