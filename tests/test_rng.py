"""The packed draw and the key split are the `int_between` stream.

`CounterRng.int_between` defines every seeded stream; `ints` computes 64
words per big-integer pass and `split` reuses a mixed key prefix.  Both
must give the same integers and leave the same stream state as the plain
calls, including when words land in the rejection zone.
"""

import time

import pytest

from git_topo.errors import DomainError
from git_topo.rng import CounterRng

KEYS = [(0,), (0, 0, 0), (42, 0, 4062), (7, 1), (2**64 - 1, 2, 99)]
RANGES = [(-9, 9), (0, 1), (-(2**63), 2**63 - 1), (0, 2**63)]
COUNTS = [0, 1, 63, 64, 65, 300]


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("lo, hi", RANGES)
def test_ints_is_the_int_between_list(key, lo, hi):
    for count in COUNTS:
        for skip in (0, 5):  # fresh, and part-way through the stream
            packed, plain = CounterRng(*key), CounterRng(*key)
            for rng in (packed, plain):
                for _ in range(skip):
                    rng.next64()
            got = packed.ints(lo, hi, count)
            assert got == [plain.int_between(lo, hi) for _ in range(count)]
            assert packed._state == plain._state, (count, skip)
            assert packed.next64() == plain.next64()


def test_a_rejected_word_falls_back_to_int_between():
    # [0, 2^63] has 2^63 + 1 values, so about half of all words are
    # rejected: the stream moves past `count` words and stays equal.
    packed, plain = CounterRng(3, 1), CounterRng(3, 1)
    got = packed.ints(0, 2**63, 300)
    assert got == [plain.int_between(0, 2**63) for _ in range(300)]
    fresh = CounterRng(3, 1)
    for _ in range(300):
        fresh.next64()
    assert packed._state == plain._state != fresh._state


@pytest.mark.parametrize("key", KEYS)
def test_split_after_draws_is_the_full_key(key):
    parent = CounterRng(*key)
    parent.ints(-9, 9, 70)
    parent.int_between(0, 5)
    for part in (0, 1, 4062, 2**64 - 1, -1):
        child = parent.split(part)
        full = CounterRng(*key, part)
        assert child.ints(-9, 9, 20) == full.ints(-9, 9, 20)
        assert child._state == full._state
        assert child.split(3).next64() == CounterRng(*key, part, 3).next64()


def test_a_point_limit_draw_is_linear_time():
    rng, again = CounterRng(5, 0, 1), CounterRng(5, 0, 1)
    start = time.perf_counter()
    values = rng.ints(-9, 9, 2**16)
    assert time.perf_counter() - start < 1.0
    assert values == [again.int_between(-9, 9) for _ in range(2**16)]


def test_ints_refuses_an_empty_range_with_a_package_error():
    with pytest.raises(DomainError, match=r"empty range \[1, 0\]"):
        CounterRng(0).ints(1, 0, 3)
