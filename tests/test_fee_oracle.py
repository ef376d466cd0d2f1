"""The fee layer's fast paths, and the traffic fillers' inline draw, against
the references in fee_reference.py and random.randint."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import fee_reference
from htlcrace.attack import AttackConfig, TrafficSpec, run_attack
from htlcrace.chain import ChainState
from htlcrace.fees import (
    ConfigError,
    FeeAnalysisConfig,
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
    {"block_feerate_low": 700, "block_feerate_high": 700},  # one value: still one draw each
    {"block_feerate_low": 1, "block_feerate_high": 2, "fill_low": 0.9},
    # Small blocks: the weight is clipped to what the target leaves, and a
    # remainder under 100 ends the block.
    {"blockmaxweight": 5_000, "fill_low": 0.5, "fill_high": 1.0},
    {"blockmaxweight": 41_000, "block_feerate_low": 3_000, "block_feerate_high": 3_001},
    # A room of exactly 100 takes one last entry of weight 100.
    {"blockmaxweight": 100, "fill_low": 1.0, "fill_high": 1.0},
]


def reference_space(feerate, entries, blockmaxweight):
    """Block space by exact rationals: an entry takes its weight once per
    member when its feerate fee/weight is above feerate/1000 sat/WU."""
    above = Fraction(feerate, 1000)
    return blockmaxweight - sum(weight * count for fee, weight, count in entries
                                if Fraction(fee, weight) > above)


def entries(block):
    return [(t.fee, t.weight, t.count) for t in block.txs]


def boundaries(block):
    """Per filler, the highest feerate it outbids and the lowest it does
    not; the second is its fee * 1000 / weight when that is whole."""
    return {rate for t in block.txs
            for rate in ((t.fee * 1_000 - 1) // t.weight, (t.fee * 1_000 - 1) // t.weight + 1)}


def compare_with_reference(params, seen):
    """Draw each seed's blocks both ways, read at 0, 1, 2, 3 or all of each
    block's filler boundaries, 0 and a random feerate, and compare every
    space with reference_space over the randint blocks."""
    for seed in (0, 1, 7, 12_345):
        cfg = FeeAnalysisConfig(blocks_seed=seed, **params)
        blocks = fee_reference.synthetic_blocks(cfg, 50, 40)
        drawn = fee_reference.fillers(cfg, 50, 40)
        rng = random.Random(seed)
        feerates = {49: [1_000], 90: [1_000]}  # outside the draw: measured by neither
        for h, block in blocks.items():
            rates = sorted(boundaries(block) | {0, rng.randint(1, 25_000)})
            feerates[h] = sorted(rng.sample(rates, min(rng.choice((0, 1, 2, 3, 99)), len(rates))))
        got = synthetic_blocks(cfg, 50, 40, feerates)
        assert got == {(rate, h): reference_space(rate, entries(block), cfg.blockmaxweight)
                       for h, block in blocks.items() for rate in feerates[h]}, (params, seed)
        for h, block in blocks.items():
            read = feerates[h]
            seen["unread" if not read else "one-rate" if len(read) == 1
                 else "two-rates" if len(read) == 2 else "three-or-more"] += 1
            for t, (weight, feerate) in zip(block.txs, drawn[h]):
                seen["tie"] += t.fee * 1_000 % t.weight == 0 and t.fee * 1_000 // t.weight in read
                seen["just-outbid"] += (t.fee * 1_000 - 1) // t.weight in read
                # drawn one above a read feerate that its rounded-down fee does not outbid
                seen["light-one-above"] += weight < 1_000 and feerate - 1 in read \
                    and t.fee * 1_000 <= (feerate - 1) * weight
            last = block.txs[-1] if block.txs else None
            seen["room-100"] += last is not None and last.weight == 100 \
                and block.weight_used == cfg.blockmaxweight and any(
                    last.fee * 1_000 > rate * 100 for rate in read)


@pytest.mark.parametrize("params", BLOCK_PARAMS)
def test_synthetic_blocks_match_randint_reference(params):
    seen = Counter()
    compare_with_reference(params, seen)
    assert seen["unread"] + seen["one-rate"] + seen["two-rates"] + seen["three-or-more"] == 160


def test_randint_reference_reaches_every_bucket_boundary():
    """Over every parameter set: heights read by 0, 1 and 3 or more
    feerates, feerates exactly at a filler's fee * 1000 / weight (a tie it
    does not outbid) and one below that (the highest it outbids), the room
    of exactly 100 filled by a last entry a feerate reads, and fillers
    under 1,000 weight, drawn or clipped, read one below their drawn
    feerate, which their rounded-down fee does not outbid."""
    seen = Counter()
    for params in BLOCK_PARAMS:
        compare_with_reference(params, seen)
    for what in ("unread", "one-rate", "three-or-more", "tie", "just-outbid", "room-100",
                 "light-one-above"):
        assert seen[what] >= 50, seen


@pytest.mark.parametrize("weight, outbids", [(999, False), (1_000, True)])
def test_the_drawn_feerate_decides_from_1000_weight(weight, outbids):
    """A filler drawn at 1,001 sat/kWU, clipped to a block of `weight`,
    pays 999 sat at 999 weight, a tie at 1,000 sat/kWU that leaves it its
    room, and 1,001 sat at 1,000 weight, which outbids 1,000."""
    cfg = FeeAnalysisConfig(blocks_seed=0, blockmaxweight=weight, fill_low=1.0, fill_high=1.0,
                            block_feerate_low=1_001, block_feerate_high=1_001)
    assert fee_reference.fillers(cfg, 0, 1) == {0: [(weight, 1_001)]}
    got = synthetic_blocks(cfg, 0, 1, {0: [999, 1_000, 1_001]})
    assert got == {(999, 0): 0, (1_000, 0): 0 if outbids else weight, (1_001, 0): weight}
    [block] = fee_reference.synthetic_blocks(cfg, 0, 1).values()
    assert got == {key: reference_space(key[0], entries(block), weight) for key in got}


# Ranges of size 1, a power of two, one above it, and the workloads': the
# fee analysis' block feerates (its weights are 400-40,000 in every draw),
# and the mitigation matrix's traffic weights and feerates.  From 1,000
# weight a filler's fee tells its feerate.
DRAW_RANGES = [((1_500, 1_500), (700, 700)), ((500, 1_523), (500, 1_523)),
               ((500, 1_524), (500, 1_524)), ((400, 40_000), (500, 20_000)),
               ((500, 20_000), (500, 8_000))]


@pytest.mark.parametrize("weights, feerates", DRAW_RANGES)
def test_both_inline_draws_are_randint_draw_for_draw(monkeypatch, weights, feerates):
    """fees.synthetic_blocks and attack._Run._background_pass each inline
    randint as a getrandbits rejection loop.  The traffic fillers handed to
    ChainState.submit have the weights and fees of random.Random(seed)'s
    randint pairs, one pair per filler.  The fee analysis keeps no filler,
    so each block's drawn weights and feerates are read back from its space
    at every feerate of the range and one below, against randint's draws."""
    submitted = []
    submit = ChainState.submit
    monkeypatch.setattr(ChainState, "submit", lambda chain, tx: submitted.append(tx)
                        or submit(chain, tx))
    traffic = TrafficSpec(txs_per_tick=5, weight_low=weights[0], weight_high=weights[1],
                          feerate_low=feerates[0], feerate_high=feerates[1])
    run_attack(AttackConfig(num_victim_channels=1, seed=3, background_traffic=traffic))
    rng = random.Random(3)
    fillers = [(tx.weight, tx.fee) for tx in submitted if tx.id.startswith("bg")]
    assert len(fillers) >= 100
    for got in fillers:
        weight = rng.randint(*weights)
        assert got == (weight, rng.randint(*feerates) * weight // 1_000)

    cfg = FeeAnalysisConfig(blocks_seed=3, blockmaxweight=1_000_000,
                            block_feerate_low=feerates[0], block_feerate_high=feerates[1])
    rates = range(feerates[0] - 1, feerates[1] + 1)
    got = synthetic_blocks(cfg, 0, 4, dict.fromkeys(range(4), rates))
    for h, drawn in fee_reference.fillers(cfg, 0, 4).items():
        # a filler takes its weight at the feerates below its fee * 1000 / weight
        tops = [(math.ceil(Fraction(feerate * weight // 1_000 * 1_000, weight)) - 1, weight)
                for weight, feerate in drawn]
        assert [got[rate, h] for rate in rates] == [
            1_000_000 - sum(weight for top, weight in tops if top >= rate) for rate in rates], h


def window_spaces(blocks, reads, launches, window, blockmaxweight):
    """Each launch's window average as the sum of its blocks' reference
    spaces, one window at a time, or the error the batch must raise: a
    height is missing at a feerate `reads` does not read it at."""
    if window <= 0:
        return ("ConfigError", "window must be positive")
    missing = [h for launch, feerate in launches
               for h in range(launch + 1, launch + window + 1) if not reads(feerate, h)]
    if missing:
        return ("ConfigError", f"insufficient block data: missing height {min(missing)}")
    return [sum(reference_space(feerate, entries(blocks[h]), blockmaxweight)
                for h in range(launch + 1, launch + window + 1)) / window
            for launch, feerate in launches]


def test_window_spaces_equal_per_block_sums():
    cfg = FeeAnalysisConfig(blocks_seed=11, blockmaxweight=400_000)
    blocks = fee_reference.synthetic_blocks(cfg, 0, 80)

    def reads(feerate, h):  # 15,000 is read only below height 60
        return h in blocks and (feerate != 15_000 or h < 60)

    spaces = synthetic_blocks(cfg, 0, 80, {h: [r for r in (500, 2_000, 9_000, 15_000)
                                               if reads(r, h)] for h in blocks})
    rng = random.Random(4)
    seen = dict.fromkeys(("ok", "window-error", "missing-error", "unread-feerate", "reused-far",
                          "step-wider", "overlap", "repeat"), 0)
    for _ in range(1_000):
        window = rng.choice((0, rng.randint(1, 4), rng.randint(1, 14), rng.randint(1, 14)))
        h = rng.randint(-4, 40)
        launches = []
        for _ in range(rng.randint(1, 10)):
            launches.append((h, rng.choice((500, 2_000, 9_000, 15_000))))
            h += rng.choice((0, 1, rng.randint(1, 8), rng.randint(1, 20)))
        rng.shuffle(launches)  # answers come back in the order asked
        want = window_spaces(blocks, reads, launches, window, 400_000)
        try:
            got = victim_available_space(spaces, launches, window)
        except ConfigError as exc:
            got = ("ConfigError", str(exc))
        assert got == want, (launches, window)
        if want[0] != "ConfigError":
            seen["ok"] += 1
        else:
            seen["window-error" if window <= 0 else "missing-error"] += 1
            seen["unread-feerate"] += window > 0 and 0 <= int(want[1].split()[-1]) < 80
        if window <= 0:
            continue
        gaps = {(b[0] - a[0], a[1] == b[1]) for a in launches for b in launches if b[0] > a[0]}
        seen["reused-far"] += any(same and gap > window for gap, same in gaps)
        seen["step-wider"] += any(gap > window for gap, _ in gaps)
        seen["overlap"] += any(gap < window for gap, _ in gaps)
        seen["repeat"] += len(set(launches)) < len(launches)
    for what, n in seen.items():
        assert n >= 50, seen
