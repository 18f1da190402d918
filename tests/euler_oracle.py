"""The Euler form of a quiver, the oracle for its stratum values.

For a sub-dimension vector d' of d, the parabolic value 2m - 2 orbit_dim
of the stratum the package builds from the weights must equal
-2 <d', d - d'>, a count that never looks at a one-parameter subgroup.
"""

from typing import Sequence

from git_topo.errors import ShapeError
from git_topo.families.quiver import QuiverSpec


def euler_form(spec: QuiverSpec, d: Sequence[int], e: Sequence[int]) -> int:
    """Euler form <d, e> = sum_i d_i e_i - sum_arrows d_source e_target."""
    if len(d) != spec.vertex_count or len(e) != spec.vertex_count:
        raise ShapeError("dimension vectors must match the vertex count")
    total = sum(di * ei for di, ei in zip(d, e))
    for s, t in spec.arrows:
        total -= d[s] * e[t]
    return total
