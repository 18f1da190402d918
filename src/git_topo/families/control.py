"""Linear control systems (A, B) under the change-of-basis GL(n) action.

A point is a pair of an n x n state matrix A and an n x m input matrix B.
Stability for the determinant character is exactly controllability: the
Krylov columns B, AB, ..., A^(n-1)B must span the state space.  The
destabilizing classes are indexed by the dimension r of a proper nonzero
A-invariant subspace containing the image of B.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from git_topo.errors import DomainError, ShapeError, SizeLimitError
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
from git_topo.frozen import Frozen
from git_topo.groups import TRIVIAL, GroupSpec, OnePSClass, OrbitConvention
from git_topo.linalg import (
    MAX_MINORS,
    PRIME,
    Matrix,
    check_integers,
    echelon_pivots,
    hadamard_width,
    integer_entries,
    minor_gcd,
    pack_poly,
    poly_roots_below,
)

# Largest state dimension n whose quadratic paths get a minor-gcd
# certificate; past it every sample is checked pointwise.  A Krylov minor
# of degree about n^2 packs into an integer of n^2 w bits, w growing with
# n, and CPython divides such integers in quadratic time, so it grows
# about 3x per step in n.  On a 2-CPU x86 machine, per path (median of 21
# random paths, 9 from n = 8, entries in [-9, 9], certificate against
# pointwise, in ms): at m = 1, 4.7 against 12.9 at n = 6, 17 against 21 at
# n = 7, 58 against 31 at n = 8 and 191 against 52 at n = 9; at m = 2, 12
# against 16 at n = 7 and 37 against 24 at n = 8: both lose from n = 8.
# Once `minor_gcd` eliminated the rows its minors share only once, m = 2
# came level at n = 8 (28-42 against 26-55, 7-9 paths), while m = 1,
# whose Krylov matrix is square and has one minor, still lost (65-90
# against 42-69).
MAX_CERTIFIED_N = 7

# Least state dimension n whose Krylov rank check first tries the
# full-rank certificate mod p, at m = 1; a wider B raises it.  On a 2-CPU
# x86 machine, with random entries in [-9, 9] and the same inputs for
# both (median of 9 draws, in us, certificate against exact Bareiss): at
# m = 1 the matrix is square and read whole, and Bareiss stays ahead to
# n = 12 (275 against 244), the two are level at n = 13 (322 against 337,
# and 606 against 605 in a slower run), and the certificate is ahead from
# n = 14 (370 against 434) and far ahead at n = 40 (4.9 against 80 ms).
# Bareiss builds a Krylov column only when it reads it and stops at n
# pivots, so a wider B gives it n columns of lower degree in A, and the
# crossover rises with m: n = 15-16 at m = 2 (790 against 776 at 15, 904
# against 915 at 16), 17 at m = 3, 18-19 at m = 4, 20 at m = 6, 23-24 at
# m = 12, and 30 at m = 43 and at m = 200 (1707 against 1754), where B
# alone holds n columns.  n^4 >= 13^4 min(m, n) follows it to within a
# step of n.
MIN_KRYLOV_CERTIFIED_N = 13

# Largest state dimension n whose Krylov rank falls back to exact Bareiss
# when the certificate mod p does not prove full rank; past it the check
# is refused.  The worst case is m = 1 with rank n - 1, whose n Krylov
# columns all lie in the reachable subspace and grow about log2(9n) bits
# per power of A.  On a 2-CPU x86 machine, entries in [-9, 9], A a random
# (n - 1) x (n - 1) block and B = (b, 0), against 3-11 ms for the
# certificate: 0.05 s at n = 40, 0.23 s at n = 50, 0.70 s at n = 60,
# 1.02 s at n = 64 and 1.9 s at n = 70.
MAX_EXACT_KRYLOV_N = 60


class ControlFamily(FamilySpec):
    """Shape of the family: state dimension n, input dimension m.

    The flat encoding of a point is A row-major, then B row-major.
    """

    FIELDS = ("n", "m")
    name = "control"
    CLI_ARGS = (("n", integer, "state dimension"), ("m", integer, "input dimension"))
    DEFAULT_CONVENTION = OrbitConvention.PARABOLIC

    def check_shape(self) -> None:
        check_integers("state dimension", (self.n,))
        check_integers("input dimension", (self.m,))
        if self.n < 1 or self.m < 1:
            raise DomainError("state and input dimensions must be positive")
        object.__setattr__(self, "_group", GroupSpec((self.n,)))

    def group(self) -> GroupSpec:
        return self._group

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

    def _blocks(self, flat: Sequence[int]) -> tuple[list, list]:
        """A's rows and B's columns, sliced from the flat encoding."""
        n, m = self.n, self.m
        a_rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        return a_rows, [flat[n * n + j :: m] for j in range(m)]

    def status_flat(self, flat: Sequence[int]) -> StabilityStatus:
        """Stable exactly when (A, B) is controllable: Krylov rank n."""
        r = controllability_rank_ints(self.n, self.m, *self._blocks(flat))
        if r == self.n:
            return StabilityStatus.stable(rank=r)
        return StabilityStatus.unstable(
            reason=f"reachable subspace has dimension {r} < {self.n}",
            rank=r,
        )

    def path_suspects(
        self, entry_polys: Sequence[Sequence[int]], n_samples: int
    ) -> Sequence[int]:
        """Samples of a quadratic path the Krylov minor gcd cannot clear.

        entry_polys holds one integer polynomial in the sample index per
        flat entry.  The Krylov columns the minors read are built once in
        integers from the entries packed at x = 2^w, w chosen from the
        same columns built from the entries' l1 norms (l1 is
        submultiplicative).  Where the gcd of the first maximal minors is
        nonzero mod p, some minor is nonzero over Z: controllable.
        """
        n = self.n
        if n > MAX_CERTIFIED_N:
            return range(n_samples)
        count = min(n + MAX_MINORS - 1, n * self.m)
        norms = self._blocks([sum(map(abs, e)) for e in entry_polys])
        width = hadamard_width(_krylov_columns(*norms, count), n)
        packed = self._blocks([pack_poly(e, width) for e in entry_polys])
        rows = list(_krylov_columns(*packed, count))
        return poly_roots_below(minor_gcd(rows, width), n_samples)

    def strata(self, convention: OrbitConvention) -> list[StratumClass]:
        return enumerate_strata(self, convention)


class ControlInstance(Frozen):
    """One system: A is n x n, B is n x m, entries exact rationals."""

    __slots__ = FIELDS = ("n", "m", "a", "b")

    def check_shape(self) -> None:
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
    n: int, m: int, a_rows: Sequence[Sequence[int]], b_cols: Sequence[Sequence[int]]
) -> int:
    """Rank of the controllability matrix for A's rows and B's columns.

    From n^4 >= MIN_KRYLOV_CERTIFIED_N^4 min(m, n) on, full rank mod p
    is tried first: it proves full rank over Q.  Every other outcome, and
    every smaller shape, runs exact Bareiss on the Krylov columns, each
    built only when the elimination reads it (_krylov_columns), and stops
    at n pivots, so a controllable pair never builds the rest.  Past
    n = MAX_EXACT_KRYLOV_N the exact fallback is refused.
    """
    certified = n**4 >= MIN_KRYLOV_CERTIFIED_N**4 * min(m, n)
    if certified and _krylov_full_rank_mod_p(n, m, a_rows, b_cols):
        return n
    if n > MAX_EXACT_KRYLOV_N:
        raise SizeLimitError(
            f"control pair at n = {n} refused, and the check or verify run "
            f"with it: the certificate mod p did not prove it controllable, "
            f"and the exact Krylov rank stops at n = {MAX_EXACT_KRYLOV_N}"
        )
    return len(echelon_pivots(_krylov_columns(a_rows, b_cols, n * m), n))


def _krylov_columns(a_rows, b_cols, count: int) -> Iterator[Sequence[int]]:
    """The first count Krylov columns, each built when it is read: B's
    columns, then column c of A^(t+1) B as A times column c of A^t B."""
    built = list(b_cols[:count])
    yield from built
    for c in range(count - len(built)):
        built.append([sum(map(operator.mul, row, built[c])) for row in a_rows])
        yield built[-1]


def _krylov_full_rank_mod_p(
    n: int, m: int, a_rows: Sequence[Sequence[int]], b_cols: Sequence[Sequence[int]]
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
    block: Iterable[int] = (pack([x % PRIME for x in col]) for col in b_cols)
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
