"""The fee layer's fast paths against the references in fee_reference.py."""

import math
import random
from fractions import Fraction

import pytest

import fee_reference
from htlcrace.chain import available_space
from htlcrace.fees import (
    ConfigError,
    FeerateSeries,
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
        except ConfigError as exc:
            out.append(("ConfigError", str(exc)))
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
            assert got[0] == "ConfigError"
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
            assert sum(weight for _, weight, _ in got[h]) == want[h].weight_used
            assert got[h] == [(t.fee, t.weight, 1) for t in want[h].txs]


def window_spaces(blocks, launches, window, blockmaxweight):
    """Each launch's window average as the sum of its blocks' spaces, one
    window at a time, or the error the batch must raise."""
    if window <= 0:
        return ("ConfigError", "window must be positive")
    reads = [h for launch, _ in launches for h in range(launch + 1, launch + window + 1)]
    missing = [h for h in reads if h not in blocks]
    if missing:
        return ("ConfigError", f"insufficient block data: missing height {min(missing)}")
    return [sum(available_space(feerate, blocks[h], blockmaxweight)
                for h in range(launch + 1, launch + window + 1)) / window
            for launch, feerate in launches]


def test_window_spaces_equal_per_block_sums():
    blocks = synthetic_blocks(11, 0, 80, blockmaxweight=400_000)
    rng = random.Random(4)
    seen = dict.fromkeys(("ok", "window-error", "missing-error", "reused-far",
                          "step-wider", "overlap", "repeat"), 0)
    for _ in range(1_000):
        window = rng.choice((0, rng.randint(1, 4), rng.randint(1, 14), rng.randint(1, 14)))
        h = rng.randint(-4, 40)
        launches = []
        for _ in range(rng.randint(1, 10)):
            launches.append((h, rng.choice((500, 2_000, 9_000, 15_000))))
            h += rng.choice((0, 1, rng.randint(1, 8), rng.randint(1, 20)))
        rng.shuffle(launches)  # answers come back in the order asked
        want = window_spaces(blocks, launches, window, 400_000)
        try:
            got = victim_available_space(blocks, launches, window, 400_000)
        except ConfigError as exc:
            got = ("ConfigError", str(exc))
        assert got == want, (launches, window)
        if want[0] != "ConfigError":
            seen["ok"] += 1
        else:
            seen["window-error" if window <= 0 else "missing-error"] += 1
        if window <= 0:
            continue
        gaps = {(b[0] - a[0], a[1] == b[1]) for a in launches for b in launches if b[0] > a[0]}
        seen["reused-far"] += any(same and gap > window for gap, same in gaps)
        seen["step-wider"] += any(gap > window for gap, _ in gaps)
        seen["overlap"] += any(gap < window for gap, _ in gaps)
        seen["repeat"] += len(set(launches)) < len(launches)
    for what, n in seen.items():
        assert n >= 50, seen


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
