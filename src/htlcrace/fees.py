"""Fee-estimate series, the attacker's channel-feerate strategies, and
victim block-space analysis over filler blocks of (fee, weight, 1) entries.

A FeerateSeries is a step function from block height to the fee estimator's
suggestion (sat/kWU).  The attacker either takes the estimate at channel-open
time ("naive") or keeps channels open for a while first, ratcheting the
channel feerate down with update_fee every time the estimate dips but never
raising it ("minimize:<blocks>").  Victims accept any proposal that matches
their own estimator within tolerance, so the minimized rate is exactly the
running minimum of the estimate over the waiting window.

victim_available_space answers all of an analysis's launches at once, and
computes each (feerate, height) block space their windows read only once.
"""
from __future__ import annotations

import bisect
import csv
import math
import random

from .chain import DEFAULT_BLOCKMAXWEIGHT, available_space

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
        i = bisect.bisect_right(self._heights, height)
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
                height = int(row[0])
                rate = float(row[1])
                conf = int(row[3])
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
    for i in range(bisect.bisect_right(heights, start),
                   bisect.bisect_left(heights, stop)):
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


def victim_available_space(blocks: dict[int, list[tuple[int, int, int]]],
                           launches: list[tuple[int, int]], window: int,
                           blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT) -> list[float]:
    """For each (launch_height, feerate) in `launches`, in order: the average
    weight per block still open to transactions at that (fixed) claim
    feerate over the `window` blocks after launch, as the difference of two
    running sums of the feerate's spaces.  A missing block raises
    ConfigError naming the lowest missing height any window reads."""
    if window <= 0:
        raise ConfigError("window must be positive")
    reads: dict[int, set[int]] = {}  # feerate -> every height its windows read
    for launch, feerate in launches:
        reads.setdefault(feerate, set()).update(range(launch + 1, launch + window + 1))
    missing = set().union(*reads.values()) - blocks.keys()
    if missing:
        raise ConfigError(f"insufficient block data: missing height {min(missing)}")
    sums = {}  # (feerate, h) -> the feerate's spaces summed over the heights read to h
    for feerate, read in reads.items():
        total = 0
        for h in sorted(read):
            sums[feerate, h - 1] = total  # through h - 1, where a window may start
            total += available_space(feerate, blocks[h], blockmaxweight)
            sums[feerate, h] = total
    return [(sums[feerate, launch + window] - sums[feerate, launch]) / window
            for launch, feerate in launches]


def fraction_of_time_above(values, threshold: float) -> float:
    vals = list(values)
    if not vals:
        raise ConfigError("no samples")
    return sum(1 for v in vals if v >= threshold) / len(vals)


# -- synthetic inputs --------------------------------------------------------


def synthetic_feerate_series(seed: int, length: int, start_height: int = 0,
                             low: int = 500, high: int = 20_000) -> FeerateSeries:
    """Piecewise-constant regime series: the estimator holds a level for a
    random run of blocks, then jumps.  Deterministic in `seed`."""
    rng = random.Random(seed)
    points = []
    h = start_height
    end = start_height + length
    while h < end:
        level = rng.randint(low, high)
        run = rng.randint(1, MAX_REGIME_RUN)
        points.append((h, level, 1))
        h += run
    return FeerateSeries(points)


def synthetic_blocks(seed: int, start_height: int, count: int,
                     blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT,
                     fill_low: float = 0.3, fill_high: float = 1.0,
                     feerate_low: int = 500, feerate_high: int = 20_000
                     ) -> dict[int, list[tuple[int, int, int]]]:
    """Filler blocks for space analysis: per height, (fee, weight, 1) entries
    whose weights fill a uniform share in [fill_low, fill_high] of blockmaxweight."""
    if not 1 <= feerate_low <= feerate_high:
        raise ConfigError(f"block feerate range [{feerate_low}, {feerate_high}] is empty or below 1")
    if not (0 <= fill_low <= fill_high <= 1 and blockmaxweight >= 1):
        raise ConfigError("need 0 <= fill_low <= fill_high <= 1 and blockmaxweight >= 1")
    # Each randint(a, b) is inlined as a + r, r the first getrandbits(k)
    # draw below n = b - a + 1 with k = n.bit_length(): what the standard
    # library's randint does, draw for draw, at a fraction of its cost.
    n_fee = feerate_high - feerate_low + 1
    k_fee = n_fee.bit_length()
    n_weight = 40_000 - 400 + 1
    k_weight = n_weight.bit_length()
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    blocks = {}
    for h in range(start_height, start_height + count):
        room = int(blockmaxweight * rng.uniform(fill_low, fill_high))
        entries = []
        while room > 0:
            r = getrandbits(k_weight)
            while r >= n_weight:
                r = getrandbits(k_weight)
            weight = 400 + r  # clipped to the room left; under 100 left ends the block
            if weight > room:
                if room < 100:
                    break
                weight = room
            r = getrandbits(k_fee)
            while r >= n_fee:
                r = getrandbits(k_fee)
            entries.append(((feerate_low + r) * weight // 1000, weight, 1))
            room -= weight
        blocks[h] = entries
    return blocks
