"""Block assembly vs the brute-force reference, session by randomized session."""

from collections import Counter

from htlcrace.chain import ChainState, Transaction, TxOutput
from mining_reference import oracle_block, random_session


def test_random_sessions_mine_what_the_reference_mines():
    seen = Counter()
    for seed in range(300):
        for got, want, pending in random_session(31_337 + seed):
            assert got == want, (seed, got, want)
            by_id = {t.id: t for t in pending}
            seen["blocks"] += 1
            seen["oversize"] += any(t.weight > 12_000 for t in pending)
            picked = [by_id[i] for i in got]
            seen["child-with-parent"] += any(
                ref.txid in got[:k] for k, t in enumerate(picked) for ref in t.inputs)
            seen["feerate-tie"] += any(
                a.fee * b.weight == b.fee * a.weight
                for k, a in enumerate(picked) for b in picked[k + 1:])
    # The generator must exercise the ordering rules, not just empty blocks.
    assert seen["blocks"] > 1_000
    for what in ("oversize", "child-with-parent", "feerate-tie"):
        assert seen[what] > 50, seen


def test_float_feerate_tie_is_broken_exactly():
    # As floats both feerates are 2,449,499.99984... sat/kWU, but the first
    # is strictly higher: 7,788,721,690 * 3,179,717 exceeds
    # 7,788,716,791 * 3,179,719 by one.  Only one fits a 4M-weight block, so
    # a float key with the weight tie-break would mine the lighter second.
    chain = ChainState()
    pair = []
    for txid, fee, weight in (("richer", 7_788_721_690, 3_179_719),
                              ("lighter", 7_788_716_791, 3_179_717)):
        ref = chain.grant(txid, fee + 1_000)
        pair.append(Transaction(txid, (ref,), ((0, 1, TxOutput(1_000, "n")),), weight, fee))
    for tx in reversed(pair):
        assert chain.submit(tx).status == "accepted"
    assert oracle_block(list(reversed(pair)), chain.blockmaxweight) == ["richer"]
    assert [t.id for t in chain.mine_block().txs] == ["richer"]
    assert [t.id for t in chain.mine_block().txs] == ["lighter"]
