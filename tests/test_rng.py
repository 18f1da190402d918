"""The packed draws and the key split are the `int_between` stream.

`CounterRng.int_between` defines every seeded stream; `ints` computes 64
words per big-integer pass, `split` reuses a mixed key prefix and
`split_ints` draws the first words of many split streams at once.  Each
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


def test_a_range_past_2_to_the_64_values_is_refused_before_any_word():
    # 2^64 + 1 values leave no multiple of the span up to 2^64, so every
    # word would be rejected and the draw would never return.
    rng = CounterRng(1)
    state = rng._state
    message = r"range \[0, 18446744073709551616\] holds more than 2\^64 values"
    for draw in (
        lambda: rng.int_between(0, 2**64),
        lambda: rng.ints(0, 2**64, 3),
        lambda: rng.split_ints(0, 3, 0, 2**64, 4),
        lambda: rng.split_ints(0, 3, 0, 2**64, 65),
    ):
        with pytest.raises(DomainError, match=message):
            draw()
    assert rng._state == state
    # Exactly 2^64 values accept every word.
    lo, hi = -(2**63), 2**63 - 1
    again = CounterRng(1)
    assert rng.int_between(lo, hi) == lo + again.next64()
    assert all(lo <= x <= hi for x in rng.ints(lo, hi, 70))
    assert all(lo <= x <= hi for t in rng.split_ints(0, 3, lo, hi, 4) for x in t)


# `split_ints` draws the streams of consecutive trials in packed blocks of
# 64; a trial with a rejected word comes back as None for its caller to
# redraw through `split(i)`.
BLOCK_COUNTS = [1, 4, 15, 40, 64]
BLOCK_TRIALS = [1, 63, 64]


def expected_block(stream, first, trials, lo, hi, count):
    """Per trial, split(i).ints(lo, hi, count), or None where one of the
    trial's first `count` words is rejected."""
    span = hi - lo + 1
    limit = (1 << 64) - (1 << 64) % span
    out = []
    for i in range(first, first + trials):
        words = stream.split(i)
        rejected = any(words.next64() >= limit for _ in range(count))
        out.append(None if rejected else stream.split(i).ints(lo, hi, count))
    return out


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("lo, hi", RANGES)
def test_split_ints_is_the_per_trial_split(key, lo, hi):
    stream = CounterRng(*key)
    stream.ints(-9, 9, 3)  # part-way through the parent stream
    state = stream._state
    for count in BLOCK_COUNTS:
        for trials in BLOCK_TRIALS:
            for first in (0, 4000):
                got = stream.split_ints(first, trials, lo, hi, count)
                assert got == expected_block(stream, first, trials, lo, hi, count), (
                    count, trials, first
                )
    assert stream._state == state  # the block draw leaves the parent as it was


def test_split_ints_leaves_exactly_the_rejected_trials_to_the_caller():
    # [0, 2^63] rejects about half of all words, so at one word per trial
    # about half of a block comes back None, and only those trials.
    stream = CounterRng(3, 1)
    got = stream.split_ints(0, 130, 0, 2**63, 1)
    rejected = [stream.split(i).next64() > 2**63 for i in range(130)]
    assert [words is None for words in got] == rejected
    assert 30 < sum(rejected) < 100
    for i, words in enumerate(got):
        if words is not None:
            assert words == stream.split(i).ints(0, 2**63, 1)


def test_split_ints_draws_points_past_a_block_trial_by_trial():
    stream = CounterRng(9)
    for count in (0, 65, 300):
        assert stream.split_ints(7, 3, -9, 9, count) == [
            stream.split(i).ints(-9, 9, count) for i in range(7, 10)
        ]
    with pytest.raises(DomainError, match=r"empty range \[1, 0\]"):
        stream.split_ints(0, 3, 1, 0, 4)


# A trial's first c words do not depend on how many more it draws: while
# none of them is rejected, `ints` consumes one word per integer, so the
# c-word block draw is the start of the trial's whole C-word point.  DAG
# generic sampling decides most trials from such a prefix.
PREFIX_RANGES = [(-9, 9), (-1, 1), (-(2**62), 2**62)]


@pytest.mark.parametrize("lo, hi", PREFIX_RANGES)
@pytest.mark.parametrize("c, big_c", [(1, 2), (3, 8), (11, 40), (29, 120)])
def test_a_block_prefix_is_the_start_of_the_whole_point(lo, hi, c, big_c):
    stream = CounterRng(8, 0)
    span = hi - lo + 1
    limit = (1 << 64) - (1 << 64) % span
    inside = after = 0
    for first, trials in ((0, 64), (64, 70), (4000, 1)):
        got = stream.split_ints(first, trials, lo, hi, c)
        for i, prefix in enumerate(got, first):
            words = stream.split(i)
            rejected = [words.next64() >= limit for _ in range(big_c)]
            if prefix is None:
                assert any(rejected[:c])
                inside += 1
                continue
            assert prefix == stream.split(i).ints(lo, hi, big_c)[:c]
            after += any(rejected[c:])
    if hi == 2**62:
        # [-2^62, 2^62] has 2^63 + 1 values, so about half of all words are
        # rejected: most prefixes hold a rejected word, and of the 1 in 2^c
        # that do not, most see one after them.
        assert inside
        assert after or c > 3
    else:
        assert inside == after == 0
