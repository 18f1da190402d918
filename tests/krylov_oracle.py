"""An integer-only controllability check, test-side only.

A pair (A, B) is controllable exactly when the Krylov matrix
K = [B | AB | ... | A^(n-1) B] has rank n (Kalman).  `certify` answers
with a certificate for K and `certificate_holds` checks it by plain
integer products, so a verdict never rests on the package's rank code:

- controllable: n columns of K whose n x n minor is nonzero;
- uncontrollable: a nonzero integer vector w with w^T K = 0.

Nothing here imports git_topo.  Minors use cofactor expansion along
the first row, which is cheap at the small n the acceptance gate
samples: a 3 x 3 minor is three 2 x 2 ones.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

MINOR = "minor"
KERNEL = "kernel"


def krylov_matrix(a, b):
    """K = [B | AB | ... | A^(n-1) B] as a list of n integer rows."""
    columns = [list(col) for col in zip(*b)]
    block = columns
    for _ in range(len(a) - 1):
        block = [[sum(map(mul, row, col)) for row in a] for col in block]
        columns = columns + block
    return [list(row) for row in zip(*columns)]


def determinant(square):
    return _minor(square, tuple(range(len(square))))


def _minor(rows, cols):
    """det of the square matrix of rows read on cols, by cofactor expansion
    along its first row down to 2 x 2; len(rows) == len(cols)."""
    if len(cols) < 3:
        if len(cols) < 2:
            return rows[0][cols[0]] if cols else 1
        (a, b), (first, second) = cols, rows
        return first[a] * second[b] - first[b] * second[a]
    first, rest = rows[0], rows[1:]
    det = 0
    for i, c in enumerate(cols):
        if first[c]:
            term = first[c] * _minor(rest, cols[:i] + cols[i + 1 :])
            det += -term if i % 2 else term
    return det


def _left_kernel_vector(k):
    """A nonzero integer w with w^T K = 0; K must have rank below n."""
    n = len(k)
    # Gauss-Jordan on K^T, column by column, up to the first column with
    # no pivot.  Rows above it then read off a kernel vector with that
    # coordinate set to 1 and the later ones to 0.
    t = [[Fraction(row[j]) for row in k] for j in range(len(k[0]))]
    for c in range(n):
        p = next((i for i in range(c, len(t)) if t[i][c]), None)
        if p is None:
            break
        t[c], t[p] = t[p], t[c]
        t[c] = [x / t[c][c] for x in t[c]]
        for i, row in enumerate(t):
            if i != c and row[c]:
                t[i] = [x - row[c] * y for x, y in zip(row, t[c])]
    else:
        raise ValueError("K has full row rank: there is no kernel vector")
    w = [-t[i][c] for i in range(c)] + [Fraction(1)] + [Fraction(0)] * (n - c - 1)
    scale = lcm(*(x.denominator for x in w))
    return tuple(int(x * scale) for x in w)


def certify(k):
    """(MINOR, columns) or (KERNEL, w) for the Krylov matrix K."""
    n = len(k)
    for cols in combinations(range(len(k[0])), n):
        if _minor(k, cols):
            return MINOR, cols
    return KERNEL, _left_kernel_vector(k)


def certificate_holds(k, certificate) -> bool:
    """Check a certificate from scratch: the minor is nonzero, or w != 0
    and w^T K = 0."""
    kind, witness = certificate
    if kind == MINOR:
        return (
            len(set(witness)) == len(witness) == len(k)
            and all(0 <= c < len(k[0]) for c in witness)
            and _minor(k, witness) != 0
        )
    if kind == KERNEL:
        return len(witness) == len(k) and any(witness) and all(
            sum(w * row[j] for w, row in zip(witness, k)) == 0
            for j in range(len(k[0]))
        )
    return False
