"""The quotient homotopy table by the per-factor rule, test-side only.

pi_q of the free quotient is pi_{q-1}(G/K).  Here it is built the long
way: pi_1 from the scalar kernel K, and every other degree as the direct
sum over the GL factors of pi_{q-1}(U(n)), each summand trusted only in
Bott's stable range and one Unknown summand making the sum Unknown.  It
imports nothing from `git_topo`, so `quotient_homotopy_group`'s closed
form is checked against a rule that shares no code with it.

A group is its rank: an int, or None for Unknown.  A degree below 0 or a
negative rank raises ValueError.
"""


def unitary_pi(i, k):
    """pi_i(U(k)): 0 at i = 0, then Z in odd and 0 in even degrees, in
    the stable range i <= 2k-1; Unknown beyond it."""
    if i < 0 or k < 1:
        raise ValueError(f"pi_{i}(U({k})) is not defined")
    if i == 0:
        return 0
    if i > 2 * k - 1:
        return None
    return i % 2


def direct_sum(ranks):
    total = 0
    for rank in ranks:
        if rank is None:
            return None
        total += rank
    return total


def quotient_pi(gl_ranks, torus_rank, d, q, kernel=()):
    """pi_q of the quotient of the stable locus by G = prod GL(n) x
    (C*)^torus_rank, K given by one gcd per C*, known only inside the
    window q < d - 1 (d None: no window)."""
    if q < 0:
        raise ValueError("homotopy degree must be a natural number")
    if d is not None and q >= d - 1:
        return None
    if q == 0:
        return 0
    if q == 2:
        if any(gcd > 1 for gcd in kernel):
            return None  # pi_1(G/K) has torsion
        rank = len(gl_ranks) + torus_rank - len(kernel)
        if rank < 0:
            raise ValueError("K has more C*s than G has factors")
        return rank
    return direct_sum(unitary_pi(q - 1, n) for n in gl_ranks)


def descriptor(rank):
    if rank is None:
        return "unknown"
    return {0: "0", 1: "Z"}.get(rank, f"Z^{rank}")
