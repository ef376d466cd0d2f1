"""Base-layer tests: mempool acceptance, BIP-125-style replacement, greedy
block assembly and the available-space metric.

The worked examples freeze small hand-checked scenarios; the property tests
fuzz longer sessions and lean on ChainState.audit() as the ground truth for
conservation and double-spend freedom.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htlcrace.chain import (
    DEFAULT_BLOCKMAXWEIGHT,
    MAX_TX_WEIGHT,
    Block,
    ChainState,
    OutputRef,
    Transaction,
    TxOutput,
    available_space,
)


def spend(txid, inputs, in_value, fee, weight, rbf=False, owner="node"):
    """One-output transaction spending `inputs` worth `in_value` total."""
    return Transaction(
        id=txid,
        inputs=tuple(inputs),
        outputs=(TxOutput(in_value - fee, owner, "plain"),),
        weight=weight,
        fee=fee,
        rbf_signal=rbf,
    )


# ---------------------------------------------------------------------------
# replacement policy
# ---------------------------------------------------------------------------


def test_replace_directly_signaling_conflict():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    assert chain.submit(spend("A", [ref], 100_000, 1_000, 700, rbf=True)).status == "accepted"
    res = chain.submit(spend("B", [ref], 100_000, 2_000, 700))
    assert res.status == "replaced"
    assert res.evicted == ("A",)
    assert "A" not in chain.mempool and "B" in chain.mempool


def test_nonsignaling_conflict_is_final():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    chain.submit(spend("A", [ref], 100_000, 1_000, 700, rbf=False))
    res = chain.submit(spend("B", [ref], 100_000, 50_000, 700))
    assert res.status == "rejected"
    assert res.reason == "conflict-not-replaceable"
    assert "A" in chain.mempool


def test_replaceability_is_inherited_from_unconfirmed_ancestor():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    chain.submit(spend("A", [ref], 100_000, 1_000, 700, rbf=True))
    # C does not signal, but its unconfirmed parent A does.
    chain.submit(spend("C", [OutputRef("A", 0)], 99_000, 500, 500, rbf=False))
    res = chain.submit(spend("B", [OutputRef("A", 0)], 99_000, 2_000, 500))
    assert res.status == "replaced"
    assert res.evicted == ("C",)
    assert "A" in chain.mempool  # only the conflicting branch dies


def test_equal_fee_is_not_enough():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    chain.submit(spend("A", [ref], 100_000, 1_000, 700, rbf=True))
    res = chain.submit(spend("B", [ref], 100_000, 1_000, 700))
    assert (res.status, res.reason) == ("rejected", "insufficient-replacement-fee")


def test_higher_fee_but_lower_feerate_rejected():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    chain.submit(spend("A", [ref], 100_000, 1_000, 700, rbf=True))
    # 1100 sat over 2000 wu = 550 sat/kWU, below A's ~1428: fails the
    # feerate leg even though the absolute fee rises.
    res = chain.submit(spend("B", [ref], 100_000, 1_100, 2_000))
    assert (res.status, res.reason) == ("rejected", "insufficient-replacement-fee")


def test_replacement_fee_must_beat_whole_evicted_package():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    chain.submit(spend("A", [ref], 100_000, 1_000, 700, rbf=True))
    chain.submit(spend("C", [OutputRef("A", 0)], 99_000, 900, 500))
    # Conflicts with A, so A's descendant C is evicted too: the bar is
    # fee > 1900 and feerate above both members.
    low = chain.submit(spend("B1", [ref], 100_000, 1_500, 500))
    assert (low.status, low.reason) == ("rejected", "insufficient-replacement-fee")
    res = chain.submit(spend("B2", [ref], 100_000, 2_000, 1_000))
    assert res.status == "replaced"
    assert set(res.evicted) == {"A", "C"}
    assert len(chain.mempool) == 1


def test_replacement_cannot_spend_output_it_evicts():
    chain = ChainState()
    ref = chain.grant("alice", 200_000)
    chain.submit(spend("A", [ref], 200_000, 1_000, 700, rbf=True))
    bad = Transaction(
        id="B",
        inputs=(ref, OutputRef("A", 0)),
        outputs=(TxOutput(100_000, "node", "plain"),),
        weight=900,
        fee=299_000,
        rbf_signal=False,
    )
    res = chain.submit(bad)
    assert (res.status, res.reason) == ("rejected", "missing-input")
    assert "A" in chain.mempool


def test_missing_input_and_own_double_spend():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    ghost = chain.submit(spend("G", [OutputRef("nope", 0)], 100_000, 100, 400))
    assert (ghost.status, ghost.reason) == ("rejected", "missing-input")
    dup = chain.submit(spend("D", [ref, ref], 200_000, 100, 400))
    assert (dup.status, dup.reason) == ("rejected", "double-spend-of-own-input")


def test_malformed_transactions_raise():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    with pytest.raises(ValueError):
        chain.submit(spend("W", [ref], 100_000, 100, 0))  # zero weight
    with pytest.raises(ValueError):
        chain.submit(spend("W2", [ref], 100_000, 100, MAX_TX_WEIGHT + 1))
    with pytest.raises(ValueError):
        # declared fee disagrees with inputs - outputs
        chain.submit(Transaction("F", (ref,), (TxOutput(90_000, "x", "plain"),),
                                 400, 5_000, False))
    chain.submit(spend("A", [ref], 100_000, 1_000, 700))
    with pytest.raises(ValueError):
        chain.submit(spend("A", [ref], 100_000, 2_000, 700))  # duplicate id


# ---------------------------------------------------------------------------
# block assembly
# ---------------------------------------------------------------------------


def test_greedy_skips_what_does_not_fit():
    chain = ChainState()
    ra = chain.grant("a", 1_000_000)
    rb = chain.grant("b", 1_000_000)
    chain.submit(spend("A", [ra], 1_000_000, 20_000, 2_000_000))  # 10 sat/kWU
    chain.submit(spend("B", [rb], 1_000_000, 15_000, 3_000_000))  # 5 sat/kWU
    block = chain.mine_block()
    assert [t.id for t in block.txs] == ["A"]
    assert "B" in chain.mempool
    assert [t.id for t in chain.mine_block().txs] == ["B"]


def test_empty_block_is_fine():
    chain = ChainState()
    block = chain.mine_block()
    assert block.txs == () and block.weight_used == 0
    assert block.height == 1
    assert chain.mine_block().height == 2


def test_child_waits_for_parent_selection():
    chain = ChainState()
    rp = chain.grant("p", 500_000)
    rx = chain.grant("x", 500_000)
    chain.submit(spend("P", [rp], 500_000, 200, 200_000, rbf=True))       # 1 sat/kWU
    chain.submit(spend("C", [OutputRef("P", 0)], 499_800, 20_000, 200_000))  # 100
    chain.submit(spend("X", [rx], 500_000, 185_000, 3_700_000))           # 50
    block = chain.mine_block()
    # X first on feerate, then P; C would follow its parent but no longer fits.
    assert [t.id for t in block.txs] == ["X", "P"]
    assert [t.id for t in chain.mine_block().txs] == ["C"]


def test_child_rides_along_when_space_remains():
    chain = ChainState()
    rp = chain.grant("p", 500_000)
    rx = chain.grant("x", 500_000)
    chain.submit(spend("P", [rp], 500_000, 200, 200_000, rbf=True))
    chain.submit(spend("C", [OutputRef("P", 0)], 499_800, 20_000, 200_000))
    chain.submit(spend("X", [rx], 500_000, 180_000, 3_600_000))
    block = chain.mine_block()
    assert [t.id for t in block.txs] == ["X", "P", "C"]
    assert block.weight_used == 4_000_000


def test_feerate_ties_break_by_weight_then_submission():
    chain = ChainState()
    refs = [chain.grant("n", 100_000) for _ in range(3)]
    chain.submit(spend("first", [refs[0]], 100_000, 100, 1_000))
    chain.submit(spend("second", [refs[1]], 100_000, 100, 1_000))
    chain.submit(spend("light", [refs[2]], 100_000, 50, 500))
    # equal 100 sat/kWU everywhere: lighter tx first, then submission order.
    assert [t.id for t in chain.mine_block().txs] == ["light", "first", "second"]


# ---------------------------------------------------------------------------
# available space
# ---------------------------------------------------------------------------


def filler(txid, weight, feerate):
    return Transaction(txid, (), (), weight, feerate * weight // 1000)


def test_available_space_examples():
    empty = Block(0, (), 0)
    assert available_space(1, empty) == 4_000_000
    block = Block(1, (filler("h", 1_000_000, 8), filler("l", 500_000, 3)), 1_500_000)
    assert available_space(5, block) == 3_000_000
    assert available_space(8, block) == 4_000_000  # strictly-above excludes ties
    assert available_space(0, block) == 2_500_000
    assert available_space(5, block, blockmaxweight=2_000_000) == 1_000_000


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_available_space_nondecreasing_in_feerate(seed):
    rng = random.Random(seed)
    txs = tuple(filler(f"t{i}", rng.randint(400, 600_000), rng.randint(1, 5_000))
                for i in range(rng.randint(0, 12)))
    block = Block(0, txs, sum(t.weight for t in txs))
    rates = sorted(rng.randint(0, 6_000) for _ in range(6))
    spaces = [available_space(f, block) for f in rates]
    assert spaces == sorted(spaces)


# ---------------------------------------------------------------------------
# randomized sessions: conservation, determinism, replacement monotonicity
# ---------------------------------------------------------------------------


def run_session(seed, steps=60, blockmaxweight=1_000_000):
    """Drive a chain with random submissions and mining; returns the chain
    and every (accepted tx, evicted txs) replacement observed."""
    rng = random.Random(seed)
    chain = ChainState(blockmaxweight=blockmaxweight)
    known = {}
    for i in range(5):
        value = rng.randint(50_000, 400_000)
        known[chain.grant(f"u{i}", value)] = value
    replacements = []
    counter = 0
    for _ in range(steps):
        if rng.random() < 0.7:
            live = [r for r in known if r.index in chain.utxo.get(r.txid, {})
                    or r.txid in chain.mempool.pending]
            if not live:
                continue
            picks = rng.sample(live, k=min(len(live), rng.randint(1, 2)))
            total = sum(known[r] for r in picks)
            fee = rng.randint(0, max(total // 3, 1))
            weight = rng.randint(400, 4_000)
            txid = f"s{seed}-{counter}"
            counter += 1
            snapshot = dict(chain.mempool.pending)
            tx = spend(txid, picks, total, fee, weight, rbf=rng.random() < 0.5)
            res = chain.submit(tx)
            if res.status == "replaced":
                replacements.append((tx, [snapshot[e] for e in res.evicted]))
            if res.ok:
                known[OutputRef(txid, 0)] = total - fee
        else:
            block = chain.mine_block()
            assert block.weight_used <= blockmaxweight
    return chain, replacements


@given(st.integers(0, 5_000))
@settings(max_examples=50)
def test_random_sessions_conserve_value(seed):
    chain, _ = run_session(seed)
    chain.audit()  # raises on any conservation/double-spend/weight breach


@given(st.integers(0, 5_000))
@settings(max_examples=50)
def test_replacements_strictly_dominate(seed):
    _, replacements = run_session(seed)
    for accepted, evicted in replacements:
        assert accepted.fee > sum(e.fee for e in evicted)
        for e in evicted:
            assert accepted.outranks(e)


@given(st.integers(0, 2_000))
@settings(max_examples=25)
def test_identical_sessions_mine_identical_chains(seed):
    a, _ = run_session(seed, steps=50)
    b, _ = run_session(seed, steps=50)
    assert [(blk.height, tuple(t.id for t in blk.txs)) for blk in a.blocks] == \
           [(blk.height, tuple(t.id for t in blk.txs)) for blk in b.blocks]
    assert a.utxo == b.utxo


def test_default_limits():
    assert DEFAULT_BLOCKMAXWEIGHT == 4_000_000
    assert MAX_TX_WEIGHT == 4_000_000


def test_transaction_is_frozen_and_fully_initialised():
    tx = Transaction("t", (), (TxOutput(5, "n"),), 400, 10)
    every = {f.name: getattr(tx, f.name) for f in dataclasses.fields(Transaction)}
    assert every == {"id": "t", "inputs": (), "outputs": (TxOutput(5, "n"),),
                     "weight": 400, "fee": 10, "rbf_signal": False, "count": 1}
    assert tx == Transaction(id="t", inputs=(), outputs=(TxOutput(5, "n"),),
                             weight=400, fee=10, rbf_signal=False)
    assert hash(tx) == hash(dataclasses.replace(tx))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tx.fee = 11
    assert dataclasses.replace(tx, fee=11).fee == 11
