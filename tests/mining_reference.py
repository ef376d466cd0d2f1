"""Independent reference model for greedy block assembly.

Deliberately written against a plain list of pending transactions in
submission order (no fee classes, no dependency counts, no spent index), so
it shares no code with ChainState.mine_block: every step rescans the whole
list for the best transaction that may go in next.
"""

import random

from htlcrace.chain import MAX_TX_WEIGHT, ChainState, OutputRef, Transaction, TxOutput
from test_chain import flat_outputs


def _better(a, a_pos, b, b_pos):
    """Exact block-assembly order: higher fee/weight first (cross-multiplied),
    then lighter, then earlier submitted."""
    lhs, rhs = a.fee * b.weight, b.fee * a.weight
    if lhs != rhs:
        return lhs > rhs
    if a.weight != b.weight:
        return a.weight < b.weight
    return a_pos < b_pos


def oracle_block(pending, blockmaxweight):
    """Ids of the block mined from `pending` (submission order), in order.

    Repeatedly takes the best transaction that still fits and whose pending
    parents are all already in the block.  A transaction that does not fit
    now never fits later in the same block, so this is the greedy that skips
    what does not fit."""
    pending_ids = {t.id for t in pending}
    chosen = []
    chosen_ids = set()
    room = blockmaxweight
    while True:
        best = best_pos = None
        for pos, tx in enumerate(pending):
            if tx.id in chosen_ids or tx.weight > room:
                continue
            if any(ref.txid in pending_ids and ref.txid not in chosen_ids
                   for ref in tx.inputs):
                continue
            if best is None or _better(tx, pos, best, best_pos):
                best, best_pos = tx, pos
        if best is None:
            return chosen
        chosen.append(best.id)
        chosen_ids.add(best.id)
        room -= best.weight


FEERATES = (1_000, 2_000, 2_500, 5_000)   # few rates and weights: many ties
WEIGHTS = (400, 500, 800, 1_000, 2_000)


def random_session(seed):
    """Drive a chain with random submissions and blocks, mining until the
    mempool stops changing.  Returns one (mined ids, reference ids, pending
    list) triple per block, the pending list being what the block was
    assembled from.

    Transactions spend grants or outputs of earlier ones (parent/child
    chains, children often paying more than their parents), share a few
    (fee, weight) classes with near-ties one satoshi apart, sometimes exceed
    the block limit, and sometimes replace a pending transaction, so mining
    meets entries whose transaction was evicted."""
    rng = random.Random(seed)
    limit = rng.choice((3_000, 6_000, 12_000))
    chain = ChainState(limit)
    values = {}     # live outpoint -> value
    for i in range(rng.randint(3, 7)):
        v = rng.randint(50_000, 400_000)
        values[chain.grant(f"g{i}", v)] = v
    pending = []    # accepted, not mined or evicted, in submission order
    spender = {}    # outpoint -> id of the pending transaction spending it
    blocks = []

    def mine():
        want = oracle_block(pending, limit)
        block = chain.mine_block()
        blocks.append(([t.id for t in block.txs], want, list(pending)))
        mined = {t.id for t in block.txs}
        for tx in block.txs:
            for ref in tx.inputs:
                del values[ref]
                del spender[ref]
        pending[:] = [t for t in pending if t.id not in mined]
        return mined

    for j in range(rng.randint(15, 45)):
        if rng.random() < 0.25:
            mine()
            continue
        free = [r for r in values if r not in spender]
        taken = list(spender)
        if taken and rng.random() < 0.15:
            picks = [rng.choice(taken)]
        elif free:
            picks = rng.sample(free, k=min(len(free), rng.randint(1, 2)))
        else:
            continue
        total = sum(values[r] for r in picks)
        if rng.random() < 0.05:
            weight = rng.randint(limit + 1, min(MAX_TX_WEIGHT, 4 * limit))
        else:
            weight = rng.choice(WEIGHTS)
        fee = rng.choice(FEERATES) * weight // 1000 + rng.choice((0, 0, 0, 1, -1))
        fee = max(0, min(fee, total - 2))
        share = (total - fee) // 2
        if rng.random() < 0.5:
            outputs = ((0, 1, TxOutput(total - fee, "n")),)
        elif share == total - fee - share:  # alike outputs: one run
            outputs = ((0, 2, TxOutput(share, "n")),)
        else:
            outputs = ((0, 1, TxOutput(share, "n")), (1, 2, TxOutput(total - fee - share, "n")))
        tx = Transaction(f"t{seed}-{j}", tuple(picks), outputs, weight, fee,
                         rng.random() < 0.7)
        result = chain.submit(tx)
        if not result.ok:
            continue
        gone = set(result.evicted)
        for old in pending:
            if old.id in gone:
                for k in range(len(flat_outputs(old))):
                    values.pop(OutputRef(old.id, k), None)
                for ref in old.inputs:
                    if spender.get(ref) == old.id:
                        del spender[ref]
        pending[:] = [t for t in pending if t.id not in gone]
        pending.append(tx)
        for ref in picks:
            spender[ref] = tx.id
        for k, out in enumerate(flat_outputs(tx)):
            values[OutputRef(tx.id, k)] = out.value
    while mine():
        pass
    return blocks
