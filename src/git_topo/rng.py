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
keys its prefix once and splits it per trial.  `split_ints(first, trials,
lo, hi, count)` draws the first `count` integers of the streams of many
consecutive trials at once, 64 trials per block: trial i's words are a
function of (key, i) alone, so one packed pass keys the block's streams
and one more draws every word of the block.  A trial with a rejected
word is left to its caller, who redraws it through `split(i)`.  The
draw of trial i never depends on how many trials a run has, so the
first 500 trials of a 10000-trial run are the 500-trial run.

Not cryptographic.  Do not use for anything security-sensitive.
"""

from __future__ import annotations

import functools
import struct
import sys

from git_topo.errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# The packed block: lane j holds bits [128 j, 128 j + 128) of one integer,
# so a lane's 64-bit word times a 64-bit constant never carries into the
# next lane.  _ONES has a 1 in each lane, _INDEX the index j of lane j and
# _STEPS the counter offset (j + 1) * golden of lane j; a block of c words
# slices them to its first c lanes.  Each constant is built by one bytes
# join, in linear time.  A block of `split_ints` holds at most 64 trials
# of at most 64 words each, so at most 4096 lanes (64 KB).
_LANES = 64
_LANE_BITS = 128


def _lanes(words) -> int:
    return int.from_bytes(b"".join(struct.pack("<QQ", w, 0) for w in words), "little")


_ONES = _lanes([1] * _LANES)
_INDEX = _lanes(range(_LANES))
_STEPS = _lanes((j + 1) * _GOLDEN & _MASK64 for j in range(_LANES))
_LANE_MASK = _MASK64 * _ONES


def _mix(z: int) -> int:
    """splitmix64 output function (Steele, Lea, Flood 2014)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix_packed(z: int, mask: int) -> int:
    """`_mix` of the low word of every lane of z, whose high halves are zero.

    Every step is one big-integer operation on all lanes; a right shift
    moves the next lane's low bits into this lane's high half, which the
    mask before each multiply clears.  The last shift leaves them there,
    so a caller masks again before it mixes the result a second time; an
    unpack reads only each lane's low word.
    """
    z = ((z ^ (z >> 30)) & mask) * _MUL1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MUL2 & mask
    return z ^ (z >> 31)


# Lane j's low word is the integer's 64-bit word 2j, counted from its low
# end: in its bytes in this machine's order, read as native words, every
# other word from the first on a little-endian machine, and from the last
# on a big-endian one.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _unpack(z: int, lanes: int) -> list[int]:
    """The low word of each of the first `lanes` lanes of z."""
    raw = z.to_bytes(16 * lanes, sys.byteorder)
    return memoryview(raw).cast("Q")[_LOW_WORDS].tolist()


def _mix_lanes(state: int, count: int) -> list[int]:
    """The next `count` (at most 64) splitmix64 words after `state`."""
    window = (1 << _LANE_BITS * count) - 1
    z = (state * (_ONES & window) + (_STEPS & window)) & _LANE_MASK
    return _unpack(_mix_packed(z, _LANE_MASK), count)


def _key_states(key_state: int, first: int, trials: int) -> list[int]:
    """`split(i)._key_state` for the `trials` (at most 64) parts i from
    `first` on, each `_mix(key_state ^ _mix(i))`, in two lane passes."""
    window = (1 << _LANE_BITS * trials) - 1
    ones = _ONES & window
    z = ((first & _MASK64) * ones + (_INDEX & window)) & _LANE_MASK
    z = (_mix_packed(z, _LANE_MASK) & _LANE_MASK) ^ key_state * ones
    return _unpack(_mix_packed(z, _LANE_MASK), trials)


def _span_limit(lo: int, hi: int) -> tuple[int, int]:
    """The size of [lo, hi], and the bound below which a word is accepted:
    the largest multiple of the size up to 2^64.  A range of more than
    2^64 values has no such multiple, and no word would ever be accepted."""
    if hi < lo:
        raise DomainError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    if span > 1 << 64:
        raise DomainError(f"range [{lo}, {hi}] holds more than 2^64 values")
    return span, (1 << 64) - ((1 << 64) % span)


@functools.cache
def _block_steps(count: int) -> tuple[int, int]:
    """The counter offsets of a block of 64 trials of `count` words, lane
    t * count + w holding (w + 1) * golden, and the block's lane mask.
    Built on first use for each count."""
    words = _STEPS.to_bytes(16 * _LANES, "little")[: 16 * count]
    lanes = _LANES * count
    return (
        int.from_bytes(words * _LANES, "little"),
        int.from_bytes(struct.pack("<QQ", _MASK64, 0) * lanes, "little"),
    )


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
        span, limit = _span_limit(lo, hi)
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
        span, limit = _span_limit(lo, hi)
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

    def split_ints(
        self, first: int, trials: int, lo: int, hi: int, count: int
    ) -> list[list[int] | None]:
        """`[self.split(i).ints(lo, hi, count) for i in range(first, first +
        trials)]`, packed, except that a trial with a word in the rejection
        zone is None: its caller redraws it through `split(i)`.

        Draws 64 trials per block: one lane pass keys the block's streams,
        a bytes join lays each key state into `count` lanes, and one more
        lane pass draws every word of the block.  A point of more than 64
        words, or of none, is drawn trial by trial.
        """
        span, limit = _span_limit(lo, hi)
        if not 0 < count <= _LANES:
            parts = range(first, first + trials)
            return [self.split(i).ints(lo, hi, count) for i in parts]
        steps, mask = _block_steps(count)
        out: list[list[int] | None] = []
        for start in range(first, first + trials, _LANES):
            size = min(first + trials - start, _LANES)
            states = _key_states(self._key_state, start, size)
            spread = b"".join([struct.pack("<QQ", s, 0) * count for s in states])
            lanes = size * count
            if size < _LANES:
                steps &= (1 << _LANE_BITS * lanes) - 1  # the last block only
            z = (int.from_bytes(spread, "little") + steps) & mask
            words = _unpack(_mix_packed(z, mask), lanes)
            if max(words) < limit:
                values = [lo + w % span for w in words]
                out += [values[j : j + count] for j in range(0, lanes, count)]
                continue
            for j in range(0, lanes, count):
                trial = words[j : j + count]
                accepted = max(trial) < limit
                out.append([lo + w % span for w in trial] if accepted else None)
        return out
