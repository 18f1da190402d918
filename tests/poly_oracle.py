"""Path certificates over F_p[x] by polynomial arithmetic, test-side only.

This is the certificate the package computed before it packed each
polynomial into one integer: the Krylov columns, or the parent rows, are
built over F_p[x], p = 2^61 - 1, each maximal minor is a Bareiss
elimination over F_p[x], and the gcd is Euclid with a field inverse per
division step.  It imports nothing from `git_topo.linalg` but the prime,
so `path_suspects` is checked against the suspects below, which it must
reproduce exactly.
"""

from itertools import combinations, islice

from git_topo.linalg import PRIME

# The number of maximal minors the certificate takes, stated here again.
MINORS = 4


def poly_mod(coeffs):
    out = [c % PRIME for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def poly_dot(fs, gs):
    """sum(f * g for f, g in zip(fs, gs)) over F_p, reduced once at the end."""
    size = max((len(f) + len(g) - 1 for f, g in zip(fs, gs) if f and g), default=0)
    acc = [0] * size
    for f, g in zip(fs, gs):
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                acc[i + j] += a * b
    return poly_mod(acc)


def _poly_divmod(f, g):
    """Quotient and remainder of f by a nonzero g over F_p."""
    inv = pow(g[-1], -1, PRIME)
    shift = len(g) - 1
    rem = list(f)
    quot = [0] * max(len(f) - shift, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + shift] * inv % PRIME
        quot[k] = c
        if c:
            for j, b in enumerate(g):
                rem[k + j] = (rem[k + j] - c * b) % PRIME
    return poly_mod(quot), poly_mod(rem[:shift])


def poly_det(rows):
    """Determinant of a square matrix over F_p[x] by Bareiss elimination:
    after k steps every remaining entry is a (k+1)-minor, so the division
    by the previous pivot is exact in F_p[x]."""
    data = [list(r) for r in rows]
    n = len(data)
    negate = False
    prev = [1]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if data[r][col]), None)
        if pivot_row is None:
            return []
        if pivot_row != col:
            data[pivot_row], data[col] = data[col], data[pivot_row]
            negate = not negate
        pivot = data[col][col]
        top = data[col]
        for r in range(col + 1, n):
            cur = data[r]
            minus_lead = [-c % PRIME for c in cur[col]]
            for j in range(col + 1, n):
                cross = poly_dot((pivot, minus_lead), (cur[j], top[j]))
                cur[j] = _poly_divmod(cross, prev)[0] if col else cross
        prev = pivot
    det = data[-1][-1]
    return [-c % PRIME for c in det] if negate else det


def poly_gcd(f, g):
    """Monic gcd over F_p by Euclid's remainders."""
    while g:
        f, g = g, _poly_divmod(f, g)[1]
    if not f:
        return []
    inv = pow(f[-1], -1, PRIME)
    return [c * inv % PRIME for c in f]


def oracle_minor_gcd(rows):
    """gcd of the first MINORS lexicographic maximal minors over F_p[x]."""
    g = []
    for chosen in islice(combinations(rows, len(rows[0])), MINORS):
        g = poly_gcd(g, poly_det(chosen))
        if len(g) == 1:
            break
    return g


def roots_below(f, count):
    """The i in range(count) where f vanishes mod p; all of them for f = 0."""
    return [
        i for i in range(count)
        if not sum(c * i**e for e, c in enumerate(f)) % PRIME
    ]


def control_suspects(n, m, entry_polys, n_samples):
    """The samples the Krylov minor gcd over F_p[x] cannot clear."""
    polys = [poly_mod(e) for e in entry_polys]
    a_rows = [polys[i * n : (i + 1) * n] for i in range(n)]
    current = [[polys[n * n + i * m + j] for i in range(n)] for j in range(m)]
    krylov = list(current)
    for _ in range(n - 1):
        current = [[poly_dot(row, col) for row in a_rows] for col in current]
        krylov.extend(current)
    return roots_below(oracle_minor_gcd(krylov), n_samples)


def dag_suspects(n, k, entry_polys, n_samples):
    """The samples the parent-block minor gcd over F_p[x] cannot clear."""
    rows = [[poly_mod(entry_polys[i * (k + 1) + j]) for j in range(k)] for i in range(n)]
    return roots_below(oracle_minor_gcd(rows), n_samples)
