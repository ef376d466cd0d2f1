"""Fee-estimate series, the attacker's channel-feerate strategies, and
victim block-space analysis.

A FeerateSeries is a step function from block height to the fee estimator's
suggestion (sat/kWU).  The attacker either takes the estimate at channel-open
time ("naive") or keeps channels open for a while first, ratcheting the
channel feerate down with update_fee every time the estimate dips but never
raising it ("minimize:<blocks>").  Victims accept any proposal that matches
their own estimator within tolerance, so the minimized rate is exactly the
running minimum of the estimate over the waiting window.
"""
from __future__ import annotations

import bisect
import csv
import random
from dataclasses import dataclass

from .chain import DEFAULT_BLOCKMAXWEIGHT, Block, Transaction, available_space

SAT_PER_VB_TO_KWU = 250  # 1 vbyte == 4 weight units => sat/vB * 1000/4
MAX_REGIME_RUN = 144  # longest run of blocks a synthetic estimate holds


class SeriesError(ValueError):
    pass


class FeerateSeries:
    """Strictly height-sorted (height, feerate, conf_target) samples."""

    def __init__(self, points):
        pts = [(int(h), int(f), int(c)) for h, f, c in points]
        if not pts:
            raise SeriesError("empty feerate series")
        heights = [p[0] for p in pts]
        if any(b <= a for a, b in zip(heights, heights[1:])):
            raise SeriesError("series heights must be strictly increasing")
        if any(p[1] <= 0 for p in pts):
            raise SeriesError("feerates must be positive")
        self.points = pts
        self._heights = heights

    def __len__(self):
        return len(self.points)

    @property
    def first_height(self) -> int:
        return self._heights[0]

    def estimate_at(self, height: int) -> int:
        """Latest sample at or before `height` (step function)."""
        i = bisect.bisect_right(self._heights, height)
        if i == 0:
            raise SeriesError(
                f"height {height} precedes first sample {self._heights[0]}")
        return self.points[i - 1][1]


def ingest_feerate_csv(path) -> FeerateSeries:
    """Parse `height,feerate,unit,conf_target` rows.  Units: sat_kwu is taken
    as-is, sat_vb is converted (x250).  Raises SeriesError with the offending
    line number on malformed input."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["height", "feerate", "unit", "conf_target"]:
            raise SeriesError(f"{path}: expected header height,feerate,unit,conf_target")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise SeriesError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                height = int(row[0])
                rate = float(row[1])
                conf = int(row[3])
            except ValueError as exc:
                raise SeriesError(f"{path}:{lineno}: {exc}") from None
            unit = row[2].strip()
            if unit == "sat_kwu":
                feerate = int(round(rate))
            elif unit == "sat_vb":
                feerate = int(round(rate * SAT_PER_VB_TO_KWU))
            else:
                raise SeriesError(f"{path}:{lineno}: unknown unit {unit!r}")
            if feerate <= 0:
                raise SeriesError(f"{path}:{lineno}: feerate must be positive")
            points.append((height, feerate, conf))
    try:
        return FeerateSeries(points)
    except SeriesError as exc:
        raise SeriesError(f"{path}: {exc}") from None


def parse_strategy(strategy: str) -> tuple[str, int]:
    """Normalize 'naive' | 'minimize:<blocks>'."""
    if strategy == "naive":
        return "naive", 0
    if not (isinstance(strategy, str) and strategy.startswith("minimize:")):
        raise SeriesError(f"unknown feerate strategy {strategy!r}")
    dur = int(strategy.split(":", 1)[1])
    if dur < 0:
        raise SeriesError("minimize duration must be non-negative")
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


@dataclass(frozen=True)
class StrategyOutcome:
    strategy: str
    open_height: int
    launch_height: int
    final_feerate: int
    trace: tuple[tuple[int, int], ...]  # (height, feerate in force) at each change


def simulate_feerate_strategy(series: FeerateSeries, strategy, open_height: int) -> StrategyOutcome:
    """Channel feerate in force when the attack launches.

    naive: the estimate at open_height; attack launches immediately.
    minimize:<d>: open at open_height, propose every dip in the estimate for d
    blocks (victims accept them: each proposal is their own estimate), and
    launch at open_height + d.  The rate never rises.
    """
    kind, duration = parse_strategy(strategy)
    current = series.estimate_at(open_height)
    trace = [(open_height, current)]
    if kind == "naive":
        return StrategyOutcome("naive", open_height, open_height, current, tuple(trace))
    trace += running_minimum(series, current, open_height + 1,
                             open_height + duration + 1)
    return StrategyOutcome(f"minimize:{duration}", open_height,
                           open_height + duration, trace[-1][1], tuple(trace))


# -- block-space analysis --------------------------------------------------


@dataclass(frozen=True)
class SpaceAnalysis:
    launch_height: int
    channel_feerate: int
    window: int
    per_block: tuple[int, ...]
    avg_available_space: float


def victim_available_space(blocks: dict[int, Block], channel_feerate: int,
                           launch_height: int, window: int,
                           blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT,
                           spaces: dict[int, dict[int, int]] | None = None
                           ) -> SpaceAnalysis:
    """Average weight per block still open to transactions at the victims'
    (fixed) claim feerate over the `window` blocks following launch.

    `spaces` memoizes each block's space across calls, as feerate -> height
    -> space; share one dict only between calls over the same blocks and
    blockmaxweight."""
    if window <= 0:
        raise SeriesError("window must be positive")
    at_rate = {} if spaces is None else spaces.setdefault(channel_feerate, {})
    per = []
    for h in range(launch_height + 1, launch_height + window + 1):
        space = at_rate.get(h)
        if space is None:
            block = blocks.get(h)
            if block is None:
                raise SeriesError(f"insufficient block data: missing height {h}")
            space = at_rate[h] = available_space(channel_feerate, block, blockmaxweight)
        per.append(space)
    return SpaceAnalysis(launch_height, channel_feerate, window,
                         tuple(per), sum(per) / window)


def fraction_of_time_above(values, threshold: float) -> float:
    vals = list(values)
    if not vals:
        raise SeriesError("no samples")
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
                     feerate_low: int = 500, feerate_high: int = 20_000) -> dict[int, Block]:
    """Standalone filler blocks for space analysis (never enter a ChainState,
    so their transactions carry no spendable inputs)."""
    # Each randint(a, b) is inlined as a + r, r the first getrandbits(k)
    # draw below n = b - a + 1 with k = n.bit_length(): what the standard
    # library's randint does, draw for draw, at a fraction of its cost.
    n_fee = feerate_high - feerate_low + 1
    if n_fee < 1:
        raise ValueError(f"empty block feerate range [{feerate_low}, {feerate_high}]")
    k_fee = n_fee.bit_length()
    n_weight = 40_000 - 400 + 1
    k_weight = n_weight.bit_length()
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    blocks: dict[int, Block] = {}
    for h in range(start_height, start_height + count):
        target = int(blockmaxweight * rng.uniform(fill_low, fill_high))
        used = 0
        txs = []
        while used < target:
            r = getrandbits(k_weight)
            while r >= n_weight:
                r = getrandbits(k_weight)
            weight = min(400 + r, target - used)
            if weight < 100:
                break
            r = getrandbits(k_fee)
            while r >= n_fee:
                r = getrandbits(k_fee)
            fee = (feerate_low + r) * weight // 1000
            txs.append(Transaction(f"filler-{h}-{len(txs)}", (), (), weight, fee))
            used += weight
        blocks[h] = Block(h, tuple(txs), used)
    return blocks
