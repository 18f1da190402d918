"""Deterministic counter-based pseudo-random streams.

The verification harness needs a stronger reproducibility property than a
single sequential PRNG gives: trial i of a seeded run must depend only on
(seed, i), so that any trial can be recomputed in isolation and a run can
be split across workers without changing a single draw.  CounterRng keys
an independent splitmix64 stream off an arbitrary tuple of integers.

`int_between` defines the stream: one splitmix64 word per attempt,
rejected above the largest multiple of the range's size.  `ints(lo, hi,
count)` is its packed equivalent: it returns the same list as `count`
calls of `int_between` and leaves the stream in the same state, but
computes up to 64 words at once, one per 128-bit lane of a single Python
integer, and hands any block with a rejected word back to `int_between`.
`split(part)` shares a key prefix: on the stream keyed by `key` it returns
the stream keyed by `(*key, part)` without mixing `key` again, so a run
keys its prefix once and splits it per trial.

Not cryptographic.  Do not use for anything security-sensitive.
"""

from __future__ import annotations

import struct

from git_topo.errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# The packed block: lane j holds bits [128 j, 128 j + 128) of one integer,
# so a lane's 64-bit word times a 64-bit constant never carries into the
# next lane.  _ONES has a 1 in each lane and _STEPS the counter offset
# (j + 1) * golden of lane j; a block of c words slices both to its
# first c lanes.  Each constant is built by one bytes join, in linear time.
_LANES = 64
_LANE_BITS = 128


def _lanes(words) -> int:
    return int.from_bytes(b"".join(struct.pack("<QQ", w, 0) for w in words), "little")


_ONES = _lanes([1] * _LANES)
_STEPS = _lanes((j + 1) * _GOLDEN & _MASK64 for j in range(_LANES))
_LANE_MASK = _MASK64 * _ONES


def _mix(z: int) -> int:
    """splitmix64 output function (Steele, Lea, Flood 2014)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix_lanes(state: int, count: int) -> tuple[int, ...]:
    """The next `count` (at most 64) splitmix64 words after `state`.

    Every step of `_mix` is one big-integer operation on all lanes; a
    right shift moves the next lane's low bits into this lane's high
    half, which the mask before each multiply clears.  The last shift
    leaves them there, and the unpack reads only each lane's low word.
    """
    window = (1 << _LANE_BITS * count) - 1
    z = (state * (_ONES & window) + (_STEPS & window)) & _LANE_MASK
    z = ((z ^ (z >> 30)) & _LANE_MASK) * _MUL1 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * _MUL2 & _LANE_MASK
    z ^= z >> 31
    return struct.unpack(f"<{2 * count}Q", z.to_bytes(16 * count, "little"))[::2]


class CounterRng:
    """A splitmix64 stream keyed by a tuple of integers."""

    def __init__(self, *key: int) -> None:
        state = 0
        for part in key:
            state = _mix(state ^ _mix(part & _MASK64))
        self._key_state = self._state = state

    def split(self, part: int) -> "CounterRng":
        """The fresh stream CounterRng(*key, part), at any point of this one."""
        child = object.__new__(type(self))
        child._key_state = child._state = _mix(self._key_state ^ _mix(part & _MASK64))
        return child

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

    def ints(self, lo: int, hi: int, count: int) -> list[int]:
        """`[self.int_between(lo, hi) for _ in range(count)]`, packed.

        Draws 64 words per block.  A block with a word in the rejection
        zone, and every block after it, is drawn by `int_between` instead,
        so the list and the final state are exactly the unpacked ones.
        """
        if hi < lo:
            raise DomainError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        out: list[int] = []
        state = self._state
        for start in range(0, count, _LANES):
            size = min(count - start, _LANES)
            words = _mix_lanes(state, size)
            if max(words) >= limit:
                self._state = state
                return out + [self.int_between(lo, hi) for _ in range(count - start)]
            out += [lo + w % span for w in words]
            state = (state + size * _GOLDEN) & _MASK64
        self._state = state
        return out
