"""The fee layer's fast paths against the references in fee_reference.py."""

import math
import random
from fractions import Fraction

import pytest

import fee_reference
from htlcrace.chain import available_space
from htlcrace.fees import (
    FeerateSeries,
    SeriesError,
    running_minimum,
    synthetic_blocks,
    victim_available_space,
)


def random_series(rng):
    """A step series of 1-12 samples, gaps of 1-20 blocks, few levels (so
    equal estimates in a row, which must not count as dips, are common)."""
    h = rng.randint(-20, 20)
    points = []
    for _ in range(rng.randint(1, 12)):
        points.append((h, rng.choice((300, 500, 800, 800, 1_200, 5_000)), 1))
        h += rng.randint(1, 20)
    return FeerateSeries(points)


def both(series, rate, start, stop):
    """Each side's dips, or the error it raised."""
    out = []
    for run in (lambda: running_minimum(series, rate, start, stop),
                lambda: fee_reference.running_minimum(series, rate, range(start, stop))):
        try:
            out.append(list(run()))
        except SeriesError as exc:
            out.append(("SeriesError", str(exc)))
    return out


def test_running_minimum_matches_per_height_reference():
    rng = random.Random(20_20)
    seen = dict.fromkeys(("empty", "before-first", "between-samples", "on-sample",
                          "past-last", "dips"), 0)
    for _ in range(3_000):
        series = random_series(rng)
        heights = [p[0] for p in series.points]
        start = rng.randint(heights[0] - 5, heights[-1] + 5)
        stop = start + rng.randint(-2, 60)
        rate = rng.choice((250, 800, 1_000, 6_000))
        got, want = both(series, rate, start, stop)
        assert got == want, (series.points, rate, start, stop)
        if stop <= start:
            seen["empty"] += 1
        elif start < heights[0]:
            seen["before-first"] += 1
            assert got[0] == "SeriesError"
        else:
            seen["on-sample" if start in heights else "between-samples"] += 1
            seen["past-last"] += stop > heights[-1] + 1
            seen["dips"] += len(got) > 1
    for what, n in seen.items():
        assert n > 100, seen


BLOCK_PARAMS = [
    {},
    {"blockmaxweight": 1_000_000, "fill_low": 0.0, "fill_high": 0.2},
    {"feerate_low": 700, "feerate_high": 700},  # one value: still one draw each
    {"feerate_low": 1, "feerate_high": 2, "fill_low": 0.9},
    # Small blocks: the weight is clipped to what the target leaves, and a
    # remainder under 100 ends the block.
    {"blockmaxweight": 5_000, "fill_low": 0.5, "fill_high": 1.0},
    {"blockmaxweight": 41_000, "feerate_low": 3_000, "feerate_high": 3_001},
    # A room of exactly 100 takes one last entry of weight 100.
    {"blockmaxweight": 100, "fill_low": 1.0, "fill_high": 1.0},
]


@pytest.mark.parametrize("params", BLOCK_PARAMS)
def test_synthetic_blocks_match_randint_reference(params):
    for seed in (0, 1, 7, 12_345):
        got = synthetic_blocks(seed, 50, 40, **params)
        want = fee_reference.synthetic_blocks(seed, 50, 40, **params)
        assert list(got) == list(want)
        for h in want:
            assert got[h].weight_used == want[h].weight_used
            assert got[h].entries == [(t.fee, t.weight, 1) for t in want[h].txs]


def test_memoized_window_spaces_equal_per_block_spaces():
    blocks = synthetic_blocks(11, 0, 60, blockmaxweight=400_000)
    spaces = {}
    rng = random.Random(4)
    for _ in range(300):
        feerate = rng.choice((500, 2_000, 9_000, 15_000))
        launch = rng.randint(-1, 45)
        window = rng.randint(1, 14)
        got = victim_available_space(blocks, feerate, launch, window, 400_000, spaces)
        want = [available_space(feerate, blocks[h].entries, 400_000)
                for h in range(launch + 1, launch + window + 1)]
        assert list(got.per_block) == want
        assert got.avg_available_space == sum(want) / window
    assert all(space == available_space(feerate, blocks[h].entries, 400_000)
               for feerate, at_rate in spaces.items() for h, space in at_rate.items())


def test_memoized_spaces_still_need_every_block():
    blocks = synthetic_blocks(2, 0, 10)
    spaces = {}
    victim_available_space(blocks, 1_000, 0, 9, spaces=spaces)
    with pytest.raises(SeriesError, match="missing height 10"):
        victim_available_space(blocks, 1_000, 0, 10, spaces=spaces)
    with pytest.raises(SeriesError, match="window must be positive"):
        victim_available_space(blocks, 1_000, 0, 0, spaces=spaces)


def reference_space(feerate, entries, blockmaxweight):
    """Block space by exact rationals: an entry takes its weight once per
    member when its feerate fee/weight is above feerate/1000 sat/WU."""
    above = Fraction(feerate, 1000)
    return blockmaxweight - sum(weight * count for fee, weight, count in entries
                                if Fraction(fee, weight) > above)


def test_available_space_matches_fraction_reference():
    rng = random.Random(8)
    seen = dict.fromkeys(("tie", "tie-above-1", "above", "below", "count>1"), 0)
    for _ in range(2_000):
        feerate = rng.choice((0, 1, rng.randint(2, 30_000)))
        entries = []
        step = 1000 // math.gcd(feerate, 1000)  # weights where feerate * weight / 1000 is whole
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.3:
                weight = step * rng.randint(1, 50_000 // step)
                fee = feerate * weight // 1000  # exactly at the feerate
            else:
                weight = rng.randint(1, 50_000)
                fee = max(0, feerate * weight // 1000 + rng.randint(-3, 3))
            entries.append((fee, weight, rng.choice((1, 1, 2, 500))))
        blockmaxweight = rng.choice((4_000_000, 100_000))
        assert available_space(feerate, entries, blockmaxweight) \
            == reference_space(feerate, entries, blockmaxweight), (feerate, entries)
        for fee, weight, count in entries:
            cross = fee * 1000 - feerate * weight
            seen["tie" if cross == 0 else "above" if cross > 0 else "below"] += 1
            seen["tie-above-1"] += cross == 0 and feerate > 1
            seen["count>1"] += count > 1
    for what, n in seen.items():
        assert n > 100, seen
