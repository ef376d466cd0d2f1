"""Independent reference model for mempool replacement decisions.

Deliberately written against plain transaction lists (no spent_index, no
seq bookkeeping) so it shares no code with the production policy: conflicts,
ancestor signaling and descendant eviction are all recomputed from scratch
by scanning input/output edges.
"""

import random

from htlcrace.chain import ChainState, OutputRef, Transaction, TxOutput
from test_chain import flat_outputs


def _parents_of(tx, by_id):
    return [by_id[ref.txid] for ref in tx.inputs if ref.txid in by_id]


def _is_replaceable(tx, by_id):
    """rbf_signal on the tx or any unconfirmed ancestor, by brute walk."""
    seen = set()
    frontier = [tx]
    while frontier:
        cur = frontier.pop()
        if cur.id in seen:
            continue
        seen.add(cur.id)
        if cur.rbf_signal:
            return True
        frontier.extend(_parents_of(cur, by_id))
    return False


def _descendant_closure(roots, pending):
    """Fixpoint: anything spending an output of the set joins the set."""
    out = set(roots)
    changed = True
    while changed:
        changed = False
        for tx in pending:
            if tx.id in out:
                continue
            if any(ref.txid in out for ref in tx.inputs):
                out.add(tx.id)
                changed = True
    return out


def oracle_submit(pending, utxo_refs, tx):
    """(status, reason, evicted-id frozenset) per the replacement rules."""
    if len(set(tx.inputs)) != len(tx.inputs):
        return "rejected", "double-spend-of-own-input", frozenset()
    by_id = {t.id: t for t in pending}
    for ref in tx.inputs:
        parent = by_id.get(ref.txid)
        if ref not in utxo_refs and (
                parent is None or not 0 <= ref.index < len(flat_outputs(parent))):
            return "rejected", "missing-input", frozenset()
    conflicts = [t for t in pending if set(t.inputs) & set(tx.inputs)]
    if not conflicts:
        return "accepted", None, frozenset()
    for c in conflicts:
        if not _is_replaceable(c, by_id):
            return "rejected", "conflict-not-replaceable", frozenset()
    evicted = _descendant_closure({c.id for c in conflicts}, pending)
    if any(ref.txid in evicted for ref in tx.inputs):
        return "rejected", "missing-input", frozenset()
    evicted_txs = [by_id[i] for i in evicted]
    if tx.fee <= sum(t.fee for t in evicted_txs):
        return "rejected", "insufficient-replacement-fee", frozenset()
    for t in evicted_txs:
        if not tx.fee * t.weight > t.fee * tx.weight:
            return "rejected", "insufficient-replacement-fee", frozenset()
    return "replaced", None, frozenset(evicted)


def _spend(txid, inputs, total, fee, weight, rbf, owner="w"):
    return Transaction(txid, tuple(inputs),
                       ((0, 1, TxOutput(total - fee, owner, "plain")),),
                       weight, fee, rbf)


def random_case(seed):
    """Build a random small mempool plus one probe transaction.

    Returns (chain, pending-before-probe, confirmed-refs, probe).  The
    mempool itself is conflict-free by construction so every setup submit
    is a plain accept; all the interesting policy branches are exercised
    by the probe.
    """
    rng = random.Random(seed)
    chain = ChainState()
    values = {}
    for i in range(rng.randint(2, 5)):
        v = rng.randint(40_000, 300_000)
        values[chain.grant(f"g{i}", v)] = v
    confirmed = set(values)
    pending = []
    spent = set()
    for j in range(rng.randint(0, 6)):
        free = [r for r in values if r not in spent]
        if not free:
            break
        ins = rng.sample(free, k=min(len(free), rng.randint(1, 2)))
        total = sum(values[r] for r in ins)
        fee = rng.randint(0, total // 4)
        tx = _spend(f"m{seed}-{j}", ins, total, fee,
                    rng.randint(400, 3_000), rng.random() < 0.5)
        assert chain.submit(tx).status == "accepted"
        pending.append(tx)
        spent.update(ins)
        for k, out in enumerate(flat_outputs(tx)):
            values[OutputRef(tx.id, k)] = out.value

    candidates = list(values)
    picks = []
    for _ in range(rng.randint(1, 3)):
        pool = [r for r in candidates if r not in picks]
        if not pool:
            break
        conflicting = [r for r in pool if r in spent]
        if conflicting and rng.random() < 0.75:
            picks.append(rng.choice(conflicting))
        else:
            picks.append(rng.choice(pool))
    if rng.random() < 0.05:
        picks = picks[:-1] + [OutputRef(f"ghost{seed}", 0)]
        values[picks[-1]] = 10_000  # budget for fee math; resolution will fail
    total = sum(values[r] for r in picks)
    package_fees = sum(t.fee for t in pending)
    fee_choices = [
        rng.randint(0, max(total // 2, 1)),
        min(total, package_fees),
        min(total, package_fees + rng.randint(1, 2_000)),
    ]
    fee = rng.choice(fee_choices)
    probe = _spend(f"probe{seed}", picks, total, fee,
                   rng.randint(300, 2_500), rng.random() < 0.5)
    return chain, pending, confirmed, probe
