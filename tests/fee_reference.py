"""Independent references for the fee layer's fast paths.

Both are the straightforward versions the fast ones must agree with, draw
for draw and height for height: a running minimum that reads the estimate at
every height of the range, and filler blocks drawn with `random.randint` and
kept whole, to be measured by tests/test_fee_oracle.py's reference_space.
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


def synthetic_blocks(cfg, start_height, count):
    """The filler blocks of a FeeAnalysisConfig's blocks_seed, blockmaxweight,
    fill_low, fill_high, block_feerate_low and block_feerate_high: per block
    a uniform fill target, then per transaction a weight draw, the `< 100`
    break, and a feerate draw."""
    rng = random.Random(cfg.blocks_seed)
    blocks = {}
    for h in range(start_height, start_height + count):
        target = int(cfg.blockmaxweight * rng.uniform(cfg.fill_low, cfg.fill_high))
        used = 0
        txs = []
        while used < target:
            weight = min(rng.randint(400, 40_000), target - used)
            if weight < 100:
                break
            feerate = rng.randint(cfg.block_feerate_low, cfg.block_feerate_high)
            fee = feerate * weight // 1000
            txs.append(Transaction(id=f"filler-{h}-{len(txs)}", inputs=(),
                                   outputs=(), weight=weight, fee=fee))
            used += weight
        blocks[h] = Block(h, tuple(txs), used)
    return blocks
