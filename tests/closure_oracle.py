"""Thin-quiver King stability by scanning every vertex subset, test-side only.

This is the 2^v scan the package's point check ran before it became one
minimum cut: try every proper nonempty subset of the thin support in
increasing mask order, keep those no live arrow leaves, and remember the
first one of greatest theta weight.  It shares no code with
`git_topo.families.quiver`, so `QuiverSpec.status_flat`, the package's
one thin verdict, and `quiver_thin_status`, which clears an instance to
it, are checked against `oracle_status` below, which gives the verdict,
witness and theta sum the package must reproduce exactly.
"""

from typing import Sequence


def best_closed_subset(
    dims: Sequence[int],
    theta: Sequence[int],
    arrows: Sequence[tuple[int, int]],
    live: Sequence[bool],
) -> tuple[int | None, int]:
    """(theta(S), mask of S) for the first best closed S, or (None, 0).

    live[a] says whether arrow a is nonzero.  A proper nonempty subset S
    of the support spans a subrepresentation exactly when no live arrow
    leaves S.  The mask numbers support vertices in increasing order.
    """
    support = [v for v, d in enumerate(dims) if d == 1]
    slot = {v: i for i, v in enumerate(support)}
    live_arrows = [
        (slot[s], slot[t])
        for (s, t), on in zip(arrows, live)
        if on and s in slot and t in slot
    ]
    best_mask = 0
    best_sum = None
    for mask in range(1, (1 << len(support)) - 1):
        if any((mask >> s) & 1 and not (mask >> t) & 1 for s, t in live_arrows):
            continue
        theta_sum = sum(theta[v] for i, v in enumerate(support) if (mask >> i) & 1)
        if best_sum is None or theta_sum > best_sum:
            best_sum = theta_sum
            best_mask = mask
    return best_sum, best_mask


def oracle_status(
    dims: Sequence[int],
    theta: Sequence[int],
    arrows: Sequence[tuple[int, int]],
    live: Sequence[bool],
) -> tuple[str, tuple[int, ...], int | None]:
    """(verdict value, 1-based witness support, theta sum) of a thin point."""
    best_sum, best_mask = best_closed_subset(dims, theta, arrows, live)
    if best_sum is None or best_sum < 0:
        return "stable", (), None
    support = [v for v, d in enumerate(dims) if d == 1]
    witness = tuple(v + 1 for i, v in enumerate(support) if (best_mask >> i) & 1)
    return ("unstable" if best_sum > 0 else "not_stable"), witness, best_sum
