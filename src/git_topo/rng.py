"""Deterministic counter-based pseudo-random streams.

The verification harness needs a stronger reproducibility property than a
single sequential PRNG gives: trial i of a seeded run must depend only on
(seed, i), so that any trial can be recomputed in isolation and a run can
be split across workers without changing a single draw.  CounterRng keys
an independent splitmix64 stream off an arbitrary tuple of integers.

Not cryptographic.  Do not use for anything security-sensitive.
"""

from __future__ import annotations

from git_topo.errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64 output function (Steele, Lea, Flood 2014)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class CounterRng:
    """A splitmix64 stream keyed by a tuple of integers."""

    def __init__(self, *key: int) -> None:
        state = 0
        for part in key:
            state = _mix(state ^ _mix(part & _MASK64))
        self._state = state

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Uses rejection to stay exactly uniform; the loop terminates fast
        since the acceptance region covers almost all of 2**64.
        """
        if hi < lo:
            raise DomainError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            draw = self.next64()
            if draw < limit:
                return lo + (draw % span)
