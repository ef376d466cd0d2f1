"""Independent references for the fee layer's fast paths.

Both are the straightforward versions the fast ones must agree with, draw
for draw and height for height: a running minimum that reads the estimate at
every height of the range, and filler blocks drawn with `random.randint` and
kept whole, with each filler's drawn weight and feerate, to be measured by
tests/test_fee_oracle.py's reference_space.
They share no code with `htlcrace.fees` beyond `FeerateSeries.estimate_at`
and the chain's `Block` and `Transaction`.
"""

import random

from htlcrace.chain import Block, Transaction


def running_minimum(series, rate, heights):
    """Yield (height, estimate) at each of `heights`, in order, where the
    estimate dips strictly below `rate` and every estimate yielded before."""
    estimate_at = series.estimate_at
    for h in heights:
        estimate = estimate_at(h)
        if estimate < rate:
            rate = estimate
            yield h, estimate


def fillers(cfg, start_height, count):
    """{height: [(weight, feerate), ...]}: the filler draws of a
    FeeAnalysisConfig's blocks_seed, blockmaxweight, fill_low, fill_high,
    block_feerate_low and block_feerate_high.  Per block a uniform fill
    target, then per filler a weight draw clipped to the room left, the
    `< 100` break, and a feerate draw."""
    rng = random.Random(cfg.blocks_seed)
    drawn = {}
    for h in range(start_height, start_height + count):
        target = int(cfg.blockmaxweight * rng.uniform(cfg.fill_low, cfg.fill_high))
        used = 0
        block = drawn[h] = []
        while used < target:
            weight = min(rng.randint(400, 40_000), target - used)
            if weight < 100:
                break
            block.append((weight, rng.randint(cfg.block_feerate_low, cfg.block_feerate_high)))
            used += weight
    return drawn


def synthetic_blocks(cfg, start_height, count):
    """The blocks of `fillers`, each filler a transaction paying its
    feerate times its weight, rounded down."""
    return {h: Block(h, tuple(Transaction(id=f"filler-{h}-{i}", inputs=(), outputs=(),
                                          weight=weight, fee=feerate * weight // 1000)
                              for i, (weight, feerate) in enumerate(block)),
                     sum(weight for weight, _ in block))
            for h, block in fillers(cfg, start_height, count).items()}
