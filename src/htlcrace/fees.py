"""Fee-estimate series, the attacker's channel-feerate strategies, and
victim block-space analysis over synthetic filler blocks.

A FeerateSeries is a step function from block height to the fee estimator's
suggestion (sat/kWU).  The attacker either takes the estimate at channel-open
time ("naive") or keeps channels open for a while first, ratcheting the
channel feerate down with update_fee every time the estimate dips but never
raising it ("minimize:<blocks>").  Victims accept any proposal that matches
their own estimator within tolerance, so the minimized rate is exactly the
running minimum of the estimate over the waiting window.

FeeAnalysisConfig, plan_fee_analysis and run_fee_analysis compare both
strategies' claim space after each launch: each filler block is measured at
the feerates its windows read while it is drawn, and never stored.
"""
from __future__ import annotations

import csv
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable

from .chain import DEFAULT_BLOCKMAXWEIGHT

SAT_PER_VB_TO_KWU = 250  # 1 vbyte == 4 weight units => sat/vB * 1000/4
MAX_REGIME_RUN = 144  # longest run of blocks a synthetic estimate holds


class ConfigError(ValueError):
    """The user's configuration is wrong: the command line exits 2 on it."""


class FeerateSeries:
    """Strictly height-sorted (height, feerate, conf_target) samples."""

    def __init__(self, points):
        pts = [(int(h), int(f), int(c)) for h, f, c in points]
        if not pts:
            raise ConfigError("empty feerate series")
        heights = [p[0] for p in pts]
        if any(b <= a for a, b in zip(heights, heights[1:])):
            raise ConfigError("series heights must be strictly increasing")
        if any(p[1] <= 0 for p in pts):
            raise ConfigError("feerates must be positive")
        self.points = pts
        self._heights = heights

    @property
    def first_height(self) -> int:
        return self._heights[0]

    def estimate_at(self, height: int) -> int:
        """Latest sample at or before `height` (step function)."""
        i = bisect_right(self._heights, height)
        if i == 0:
            raise ConfigError(
                f"height {height} precedes first sample {self._heights[0]}")
        return self.points[i - 1][1]


def ingest_feerate_csv(path) -> FeerateSeries:
    """Parse `height,feerate,unit,conf_target` rows.  Units: sat_kwu is taken
    as-is, sat_vb is converted (x250).  Raises ConfigError with the offending
    line number on malformed input."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["height", "feerate", "unit", "conf_target"]:
            raise ConfigError(f"{path}: expected header height,feerate,unit,conf_target")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise ConfigError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                height, rate, conf = int(row[0]), float(row[1]), int(row[3])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            unit = row[2].strip()
            if unit == "sat_vb":
                rate *= SAT_PER_VB_TO_KWU
            elif unit != "sat_kwu":
                raise ConfigError(f"{path}:{lineno}: unknown unit {unit!r}")
            if not math.isfinite(rate):  # inf, -inf, nan, or past float range once scaled
                raise ConfigError(f"{path}:{lineno}: feerate must be finite")
            feerate = int(round(rate))
            if feerate <= 0:
                raise ConfigError(f"{path}:{lineno}: feerate must be positive")
            points.append((height, feerate, conf))
    try:
        return FeerateSeries(points)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_strategy(strategy: str) -> tuple[str, int]:
    """Normalize 'naive' | 'minimize:<blocks>'."""
    if strategy == "naive":
        return "naive", 0
    if not (isinstance(strategy, str) and strategy.startswith("minimize:")):
        raise ConfigError(f"unknown feerate strategy {strategy!r}")
    try:
        dur = int(strategy.removeprefix("minimize:"))
    except ValueError:  # no integer duration
        raise ConfigError(f"unknown feerate strategy {strategy!r}") from None
    if dur < 0:
        raise ConfigError("minimize duration must be non-negative")
    return "minimize", dur


def running_minimum(series: FeerateSeries, rate: int, start: int, stop: int):
    """Yield (height, estimate) at each height in [start, stop), in order,
    where the estimate dips strictly below `rate` and every estimate yielded
    before: the feerates a channel that never raises its feerate moves to.
    The estimate changes only at a sample, so only `start` and the samples
    after it are read."""
    if start >= stop:
        return
    estimate = series.estimate_at(start)  # raises if start precedes the series
    if estimate < rate:
        rate = estimate
        yield start, estimate
    heights, points = series._heights, series.points
    for i in range(bisect_right(heights, start), bisect_left(heights, stop)):
        estimate = points[i][1]
        if estimate < rate:
            rate = estimate
            yield heights[i], estimate


def simulate_feerate_strategy(series: FeerateSeries, strategy, open_height: int) -> int:
    """Channel feerate in force when the attack launches.

    naive: the estimate at open_height; attack launches immediately.
    minimize:<d>: open at open_height, propose every dip in the estimate for d
    blocks (victims accept them: each proposal is their own estimate), and
    launch at open_height + d.  The rate never rises.
    """
    _, duration = parse_strategy(strategy)  # naive has duration 0: no dips
    rate = series.estimate_at(open_height)
    dips = running_minimum(series, rate, open_height + 1, open_height + duration + 1)
    return min((dip for _, dip in dips), default=rate)


# -- block-space analysis --------------------------------------------------


def victim_available_space(spaces: dict[tuple[int, int], int],
                           launches: list[tuple[int, int]], window: int) -> list[float]:
    """For each (launch_height, feerate) in `launches`, in order: the average
    of the blocks' {(feerate, height): space} over the `window` blocks after
    launch, a difference of running sums in key order.  A missing space raises
    ConfigError naming the lowest height any window misses."""
    if window <= 0:
        raise ConfigError("window must be positive")
    before, total = {}, 0  # (feerate, height) -> (rank, sum of the spaces before it)
    for rank, key in enumerate(sorted(spaces)):
        before[key], total = (rank, total), total + spaces[key]
    averages = []
    for launch, feerate in launches:
        first, last = before.get((feerate, launch + 1)), before.get((feerate, launch + window))
        if first is None or last is None or last[0] - first[0] != window - 1:  # a gap
            missing = min(h for at, rate in launches for h in range(at + 1, at + window + 1)
                          if (rate, h) not in spaces)
            raise ConfigError(f"insufficient block data: missing height {missing}")
        averages.append((last[1] + spaces[feerate, launch + window] - first[1]) / window)
    return averages


def fraction_of_time_above(values, threshold: float) -> float:
    vals = list(values)
    if not vals:
        raise ConfigError("no samples")
    return sum(1 for v in vals if v >= threshold) / len(vals)


@dataclass(frozen=True)
class FeeAnalysisConfig:
    """Launches every launch_step from launch_from (default: the series' first
    height plus minimize_duration) to launch_to, over blocks from blocks_seed."""
    blocks_seed: int
    window: int = 10
    minimize_duration: int = 1008
    launch_from: int | None = None
    launch_to: int | None = None
    launch_step: int = 1
    blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT
    thresholds: tuple[int, ...] = tuple(range(500_000, 4_000_001, 500_000))
    fill_low: float = 0.3
    fill_high: float = 1.0
    block_feerate_low: int = 500
    block_feerate_high: int = 20_000


def plan_fee_analysis(cfg: FeeAnalysisConfig, series: FeerateSeries
                      ) -> tuple[range, list[tuple[int, int]], dict[tuple[int, int], int]]:
    """The launch heights, the (launch, feerate) pairs (naive, then minimized
    from minimize_duration blocks before), and the spaces the pairs' windows
    read; ConfigError if cfg cannot run."""
    duration = cfg.minimize_duration
    if duration < 0:
        raise ConfigError("minimize duration must be non-negative")
    launch_from = series.first_height + duration if cfg.launch_from is None else cfg.launch_from
    if cfg.launch_to is None or cfg.launch_to < launch_from:
        raise ConfigError("[fee_analysis] needs launch_to >= launch_from")
    if cfg.launch_step < 1 or cfg.window < 1:
        raise ConfigError("[fee_analysis] needs launch_step >= 1, window >= 1")
    if launch_from - duration < series.first_height:
        raise ConfigError(
            f"launch_from {launch_from} leaves no room for a {duration}-block "
            f"minimization before it (series starts at {series.first_height})")
    if not cfg.thresholds:
        raise ConfigError("[fee_analysis] needs at least one threshold")
    launches = range(launch_from, cfg.launch_to + 1, cfg.launch_step)
    pairs = [(h, simulate_feerate_strategy(series, strategy, h - d)) for strategy, d
             in (("naive", 0), (f"minimize:{duration}", duration)) for h in launches]
    heights = range(launch_from, launches[-1] + cfg.window + 1)
    reads: dict[int, list[int]] = {h: [] for h in heights}  # height -> feerates read
    ends: dict[int, int] = {}  # feerate -> the height past its last window so far
    for launch, feerate in sorted(pairs):  # each height once per feerate
        start, ends[feerate] = max(launch + 1, ends.get(feerate, launch)), launch + cfg.window + 1
        for h in range(start, ends[feerate]):
            reads[h].append(feerate)
    # From launch_from, which no window reads: dropping it would shift every draw.
    return launches, pairs, synthetic_blocks(cfg, launch_from, len(heights), reads)


def run_fee_analysis(cfg: FeeAnalysisConfig, pairs: list[tuple[int, int]],
                     spaces: dict[tuple[int, int], int]
                     ) -> tuple[list[float], list[float], list[tuple]]:
    """The naive and the minimized spaces of plan_fee_analysis's pairs, one
    per launch, and the rows (threshold, fraction naive, fraction minimized)."""
    averages = victim_available_space(spaces, pairs, cfg.window)
    naive, mini = averages[:len(pairs) // 2], averages[len(pairs) // 2:]
    return naive, mini, [(t, fraction_of_time_above(naive, t), fraction_of_time_above(mini, t))
                         for t in cfg.thresholds]


# -- synthetic inputs --------------------------------------------------------


def synthetic_feerate_series(seed: int, length: int, start_height: int = 0,
                             low: int = 500, high: int = 20_000) -> FeerateSeries:
    """Piecewise-constant regime series: the estimator holds a level for a
    random run of blocks, then jumps.  Deterministic in `seed`."""
    if not 1 <= low <= high:
        raise ConfigError(f"synthetic feerate range [{low}, {high}] is empty or below 1")
    rng = random.Random(seed)
    points, h = [], start_height
    while h < start_height + length:
        points.append((h, rng.randint(low, high), 1))  # the level, then its run
        h += rng.randint(1, MAX_REGIME_RUN)
    return FeerateSeries(points)


def synthetic_blocks(cfg: FeeAnalysisConfig, start_height: int, count: int,
                     feerates: dict[int, Iterable[int]]) -> dict[tuple[int, int], int]:
    """Draw `count` filler blocks from start_height, each filling a uniform
    share in [fill_low, fill_high] of blockmaxweight, and measure each as it
    is drawn, a filler of 1,000 weight or more bucketed by its drawn feerate:
    {(feerate, height): blockmaxweight less the fillers' weight paying
    strictly more} for each feerate (sat/kWU) in feerates[height]."""
    low, high = cfg.block_feerate_low, cfg.block_feerate_high
    if not 1 <= low <= high:
        raise ConfigError(f"block feerate range [{low}, {high}] is empty or below 1")
    if not (0 <= cfg.fill_low <= cfg.fill_high <= 1 and cfg.blockmaxweight >= 1):
        raise ConfigError("need 0 <= fill_low <= fill_high <= 1 and blockmaxweight >= 1")
    # Each randint(a, b) is inlined as a + r, r the first getrandbits(k)
    # draw below n = b - a + 1 with k = n.bit_length(): what the standard
    # library's randint does, draw for draw, at a fraction of its cost.
    n_fee = high - low + 1
    k_fee = n_fee.bit_length()
    n_weight = 40_000 - 400 + 1
    k_weight = n_weight.bit_length()
    rng = random.Random(cfg.blocks_seed)
    getrandbits = rng.getrandbits
    spaces = {}
    for h in range(start_height, start_height + count):
        room = int(cfg.blockmaxweight * rng.uniform(cfg.fill_low, cfg.fill_high))
        rates = sorted(feerates.get(h, ()))
        cuts = [rate - low for rate in rates]
        outbid = [0] * (len(rates) + 1)  # [i]: weight paying above exactly rates[:i]
        while room > 0:
            while (r := getrandbits(k_weight)) >= n_weight:
                pass
            weight = 400 + r  # clipped to the room left; under 100 left ends the block
            if weight > room:
                if room < 100:
                    break
                weight = room
            while (r := getrandbits(k_fee)) >= n_fee:
                pass
            # At the drawn f = low + r, fee = f * weight // 1000 outbids exactly
            # the rates at or below (fee * 1000 - 1) // weight.  As f * weight -
            # fee * 1000 <= 999 < weight from 1,000 weight, those are the rates
            # below f, the cuts below r.  Tight: 999 weight at 1,001 pays 999, a tie at 1,000.
            outbid[bisect_left(cuts, r) if weight >= 1000 else bisect_right(
                rates, ((low + r) * weight // 1000 * 1000 - 1) // weight)] += weight
            room -= weight
        space = cfg.blockmaxweight - sum(outbid)
        for rate, taken in zip(rates, outbid):
            space += taken
            spaces[rate, h] = space
    return spaces
