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
    _rank,
)


def utxo_of(chain):
    """The chain's unspent outputs as OutputRef -> TxOutput, expanded from its
    runs txid by txid in the chain's order, index by index."""
    return {OutputRef(txid, i): out for txid, runs in chain.utxo.items()
            for first, end, out in runs for i in range(first, end)}


def flat_outputs(tx):
    """tx's outputs expanded from their runs, one TxOutput per output index."""
    return tuple(out for first, end, out in tx.outputs for _ in range(first, end))


def set_utxo(chain, outputs):
    """Make the chain's live unspent set exactly `outputs` (as utxo_of
    gives it), as sorted runs joined where alike outputs meet."""
    chain.utxo = {}
    for ref, out in sorted(outputs.items()):
        runs = chain.utxo.setdefault(ref.txid, [])
        if runs and runs[-1][1] == ref.index and runs[-1][2] == out:
            runs[-1] = (runs[-1][0], ref.index + 1, out)
        else:
            runs.append((ref.index, ref.index + 1, out))


def spend(txid, inputs, in_value, fee, weight, rbf=False, owner="node"):
    """One-output transaction spending `inputs` worth `in_value` total."""
    return Transaction(
        id=txid,
        inputs=tuple(inputs),
        outputs=((0, 1, TxOutput(in_value - fee, owner, "plain")),),
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
    assert "A" not in chain.mempool.pending and "B" in chain.mempool.pending


def test_nonsignaling_conflict_is_final():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    chain.submit(spend("A", [ref], 100_000, 1_000, 700, rbf=False))
    res = chain.submit(spend("B", [ref], 100_000, 50_000, 700))
    assert res.status == "rejected"
    assert res.reason == "conflict-not-replaceable"
    assert "A" in chain.mempool.pending


def test_replaceability_is_inherited_from_unconfirmed_ancestor():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    chain.submit(spend("A", [ref], 100_000, 1_000, 700, rbf=True))
    # C does not signal, but its unconfirmed parent A does.
    chain.submit(spend("C", [OutputRef("A", 0)], 99_000, 500, 500, rbf=False))
    res = chain.submit(spend("B", [OutputRef("A", 0)], 99_000, 2_000, 500))
    assert res.status == "replaced"
    assert res.evicted == ("C",)
    assert "A" in chain.mempool.pending  # only the conflicting branch dies


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
        outputs=((0, 1, TxOutput(100_000, "node", "plain")),),
        weight=900,
        fee=299_000,
        rbf_signal=False,
    )
    res = chain.submit(bad)
    assert (res.status, res.reason) == ("rejected", "missing-input")
    assert "A" in chain.mempool.pending


def test_missing_input_and_own_double_spend():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    ghost = chain.submit(spend("G", [OutputRef("nope", 0)], 100_000, 100, 400))
    assert (ghost.status, ghost.reason) == ("rejected", "missing-input")
    dup = chain.submit(spend("D", [ref, ref], 200_000, 100, 400))
    assert (dup.status, dup.reason) == ("rejected", "double-spend-of-own-input")


def test_chain_refuses_non_positive_sizes():
    for blockmaxweight in (0, -1):
        with pytest.raises(ValueError, match="^blockmaxweight must be positive$"):
            ChainState(blockmaxweight)
    chain = ChainState()
    for value, count in ((0, 1), (-5, 1), (100, 0)):
        with pytest.raises(ValueError, match="^grant value and count must be positive$"):
            chain.grant("alice", value, count)
    assert not chain.utxo  # a refused grant mints nothing
    assert chain.grant("alice", 1).txid == "grant-0"


def test_malformed_transactions_raise():
    chain = ChainState()
    ref = chain.grant("alice", 100_000)
    with pytest.raises(ValueError):
        chain.submit(spend("W", [ref], 100_000, 100, 0))  # zero weight
    with pytest.raises(ValueError):
        chain.submit(spend("W2", [ref], 100_000, 100, MAX_TX_WEIGHT + 1))
    with pytest.raises(ValueError):
        # declared fee disagrees with inputs - outputs
        chain.submit(Transaction("F", (ref,), ((0, 1, TxOutput(90_000, "x", "plain")),),
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
    assert "B" in chain.mempool.pending
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


def test_cohort_goes_one_member_at_a_time_only_while_its_members_have_spenders():
    # K spends P's member 0 only, so P's members 1-3 go in at once; K, at a
    # lower feerate, no longer fits.
    chain = ChainState(1_600)
    g = chain.grant("g", 10_000, count=4)
    assert chain.submit(cohort("P", [g], 9_000, 1_000, 4, True)).ok
    assert chain.submit(cohort("K", [OutputRef("P", 0)], 8_800, 200, 1)).ok
    assert [(t.id, t.first, t.count) for t in chain.mine_block().txs] == [("P", 0, 1), ("P", 1, 3)]
    assert [(t.id, t.first, t.count) for t in chain.mine_block().txs] == [("K", 0, 1)]
    chain.audit()


def test_feerate_ties_break_by_weight_then_submission():
    chain = ChainState()
    refs = [chain.grant("n", 100_000) for _ in range(3)]
    chain.submit(spend("first", [refs[0]], 100_000, 100, 1_000))
    chain.submit(spend("second", [refs[1]], 100_000, 100, 1_000))
    chain.submit(spend("light", [refs[2]], 100_000, 50, 500))
    # equal 100 sat/kWU everywhere: lighter tx first, then submission order.
    assert [t.id for t in chain.mine_block().txs] == ["light", "first", "second"]


# The mining queue's integer rank orders feerates exactly as cross-multiplied
# fee / weight comparisons do, for every weight submit accepts.


def same_order(f1, w1, f2, w2):
    cross = (f1 * w2 > f2 * w1) - (f1 * w2 < f2 * w1)  # +1: f1 / w1 is higher
    ranked = (_rank(f1, w1) < _rank(f2, w2)) - (_rank(f1, w1) > _rank(f2, w2))
    return cross == ranked


@settings(max_examples=500, deadline=None)
@given(st.integers(1, MAX_TX_WEIGHT), st.integers(1, MAX_TX_WEIGHT),
       st.integers(0, 2**64), st.integers(0, 2**64), st.integers(-2, 2), st.booleans())
def test_rank_orders_feerates_exactly(w1, w2, f1, f2, step, near):
    if near:  # f2 / w2 within 2 / w2 of f1 / w1, and equal to it where it can be
        f2 = max(0, f1 * w2 // w1 + step)
    assert same_order(f1, w1, f2, w2)


@pytest.mark.parametrize("t", [0, 1, 10**6, 2**40, (2**64 - 2) // MAX_TX_WEIGHT])
def test_rank_separates_adjacent_fractions_at_the_largest_weights(t):
    big = MAX_TX_WEIGHT
    assert big ** 2 < 1 << 44  # what makes the rank exact
    # hi / big exceeds lo / (big - 1) by 1 / (big * (big - 1)), the least
    # two feerates at these weights can differ by
    hi, lo = big - 1 + t * big, big - 2 + t * (big - 1)
    assert hi * (big - 1) - lo * big == 1
    assert _rank(hi, big) < _rank(lo, big - 1)
    assert _rank(2 * t, big) == _rank(t, big // 2)
    for f1, w1, f2, w2 in ((hi, big, lo, big - 1), (t, big, t, big - 1),
                           (t + 1, big, t, big), (t + 1, big - 1, t, big - 1)):
        assert same_order(f1, w1, f2, w2) and same_order(f2, w2, f1, w1)


# ---------------------------------------------------------------------------
# audit: each breach of the replayed history or the live state must raise
# ---------------------------------------------------------------------------


def audited_chain():
    """Three mined blocks: a cohort of six cut into parts of five and one, a
    two-output single beside the second part, and a cohort of three spending
    members 1..3 of the first.  Cohort outputs stay unspent on both sides of
    that gap."""
    chain = ChainState(blockmaxweight=2_000)
    g = chain.grant("g", 10_000, count=6)
    h = chain.grant("h", 50_000)
    cohort = Transaction("C", (g,), ((0, 1, TxOutput(9_000, "n")),), 400, 1_000, count=6)
    single = Transaction("P", (h,), ((0, 1, TxOutput(20_000, "a")), (1, 2, TxOutput(29_000, "b"))),
                         800, 1_000)
    assert chain.submit(cohort).ok and chain.submit(single).ok
    chain.mine_block()
    chain.mine_block()
    kid = Transaction("K", (OutputRef("C", 1),), ((0, 1, TxOutput(8_000, "k")),), 400, 1_000,
                      count=3)
    assert chain.submit(kid).ok
    chain.mine_block()
    assert [[(t.id, t.first, t.count) for t in b.txs] for b in chain.blocks] == [
        [("C", 0, 5)], [("C", 5, 1), ("P", 0, 1)], [("K", 0, 3)]]
    chain.audit()
    return chain


def forge(chain, height, *txs):
    """Put `txs` in block `height` (one past the tip appends a block), with
    weight_used that matches them."""
    block = Block(height, txs, sum(t.weight * t.count for t in txs))
    chain.blocks[height - 1:height] = [block]


def test_audit_passes_the_live_state_written_back_unchanged():
    chain = audited_chain()
    outputs = utxo_of(chain)
    assert [r for r in outputs if r.txid == "C"] == [OutputRef("C", i) for i in (0, 4, 5)]
    set_utxo(chain, outputs)
    chain.audit()


@pytest.mark.parametrize("height,delta", [(1, 1), (1, -1), (2, 1), (3, -400)])
def test_audit_rejects_a_block_weight_that_is_off(height, delta):
    chain = audited_chain()
    block = chain.blocks[height - 1]
    chain.blocks[height - 1] = dataclasses.replace(block, weight_used=block.weight_used + delta)
    with pytest.raises(AssertionError, match="weight bookkeeping"):
        chain.audit()


def test_audit_rejects_a_block_over_the_weight_limit():
    chain = audited_chain()
    chain.blockmaxweight = 1_999  # block 1's part of five takes 2,000
    with pytest.raises(AssertionError, match="weight bookkeeping"):
        chain.audit()


def spends_again(chain):
    cohort = chain.blocks[0].txs[0]
    kid = chain.blocks[2].txs[0]
    return {
        # a grant member the first part of C spent
        "single": Transaction("X", (OutputRef(cohort.inputs[0].txid, 2),),
                              ((0, 1, TxOutput(9_000, "x")),), 400, 1_000),
        # members 3..4 of C again, as a part of C itself
        "slice": cohort._replace(first=3, count=2),
        # K's last member again: C's output 3
        "kid-slice": kid._replace(first=2, count=1),
        # a cohort over C's outputs 2..5, of which 2 and 3 are spent
        "cohort": Transaction("Y", (OutputRef("C", 2),), ((0, 1, TxOutput(8_000, "y")),),
                              400, 1_000, count=4),
        # an output that never existed
        "never-made": Transaction("Z", (OutputRef("C", 6),), ((0, 1, TxOutput(8_000, "z")),),
                                  400, 1_000),
    }


@pytest.mark.parametrize("case", ["single", "slice", "kid-slice", "cohort", "never-made"])
def test_audit_rejects_a_member_spent_twice_across_blocks(case):
    chain = audited_chain()
    forge(chain, 4, spends_again(chain)[case])
    with pytest.raises(AssertionError, match="missing or double-spent"):
        chain.audit()


def test_audit_rejects_a_member_spent_twice_within_one_block():
    chain = audited_chain()
    kid = chain.blocks[2].txs[0]
    forge(chain, 3, kid, kid._replace(first=1, count=1))  # C's output 2 again
    with pytest.raises(AssertionError, match="missing or double-spent"):
        chain.audit()


@pytest.mark.parametrize("height,at,cohort", [(1, 0, True), (2, 0, True), (2, 1, False),
                                              (3, 0, True)])
def test_audit_rejects_a_fee_mismatch_in_a_confirmed_entry(height, at, cohort):
    chain = audited_chain()
    txs = list(chain.blocks[height - 1].txs)
    tx = txs[at]
    txs[at] = tx._replace(fee=tx.fee + 1)
    part = tx.count < {"C": 6, "P": 1, "K": 3}[tx.id]  # the counts audited_chain submits
    assert (txs[at].count > 1 or part) == cohort
    forge(chain, height, *txs)
    with pytest.raises(AssertionError, match="fee mismatch"):
        chain.audit()


LIVE_TAMPERING = {
    "member-added-to-a-run": lambda o: o.update({OutputRef("C", 6): TxOutput(9_000, "n")}),
    "member-added-in-a-gap": lambda o: o.update({OutputRef("C", 2): TxOutput(9_000, "n")}),
    "txid-added": lambda o: o.update({OutputRef("ghost", 0): TxOutput(1, "n")}),
    "member-dropped-mid-run": lambda o: o.pop(OutputRef("K", 1)),
    "member-dropped-at-run-end": lambda o: o.pop(OutputRef("C", 5)),
    "txid-dropped": lambda o: [o.pop(r) for r in (OutputRef("P", 0), OutputRef("P", 1))],
    "value-changed": lambda o: o.update({OutputRef("C", 4): TxOutput(9_001, "n")}),
    "value-changed-single": lambda o: o.update({OutputRef("P", 1): TxOutput(29_001, "b")}),
    "owner-changed": lambda o: o.update({OutputRef("K", 2): TxOutput(8_000, "x")}),
}


@pytest.mark.parametrize("case", sorted(LIVE_TAMPERING))
def test_audit_rejects_a_live_unspent_set_that_diverges(case):
    chain = audited_chain()
    outputs = utxo_of(chain)
    LIVE_TAMPERING[case](outputs)
    set_utxo(chain, outputs)
    with pytest.raises(AssertionError, match="diverges from live state"):
        chain.audit()


def test_audit_rejects_a_broken_conservation_total():
    chain = audited_chain()
    chain._granted_total += 1
    with pytest.raises(AssertionError, match="conservation"):
        chain.audit()
    chain = audited_chain()
    chain._grants["ghost"] = (TxOutput(7, "x"), 3)  # value never granted
    with pytest.raises(AssertionError, match="conservation"):
        chain.audit()


# ---------------------------------------------------------------------------
# output runs: a cohort's outputs and spends cost per run, not per member
# ---------------------------------------------------------------------------


def check_runs(index, bound):
    """Each txid's runs are sorted, non-empty and disjoint, joined where alike
    items meet, and at most `bound` of them."""
    for txid, runs in index.items():
        assert 0 < len(runs) <= bound, (txid, runs)
        assert all(a < b for a, b, _ in runs), (txid, runs)
        for (_, b, x), (c, _, y) in zip(runs, runs[1:]):
            assert b < c or (b == c and x != y), (txid, runs)


@pytest.mark.parametrize("n", [483, 200])
def test_a_channel_sized_cohort_life_holds_a_bounded_number_of_runs(n):
    commit_weight = 1_000 + 172 * n
    chain = ChainState(blockmaxweight=commit_weight)  # about n / 4 claims per block
    local, remote = TxOutput(500_000, "bob", "to_local"), TxOutput(300_000, "alice", "to_remote")
    htlc = TxOutput(10_000, "chan", "htlc")
    fund = chain.grant("alice", 800_000 + 10_000 * n + 5_000)
    commit = Transaction("commit", (fund,), ((0, 1, local), (1, 2, remote), (2, 2 + n, htlc)),
                         commit_weight, 5_000)
    assert chain.submit(commit).ok
    chain.mine_block()
    assert chain.utxo["commit"] == [(0, 1, local), (1, 2, remote), (2, 2 + n, htlc)]

    won, lost = TxOutput(9_300, "bob", "claim"), TxOutput(8_600, "alice", "claim")
    claim = Transaction("A", (OutputRef("commit", 2),), ((0, 1, won),), 700, 700, True, count=n)
    assert chain.submit(claim).status == "accepted"
    assert chain.mempool.spent == {"commit": [(2, 2 + n, "A")]}
    q, half = n // 4, n // 2  # the replacement takes members q .. q + half - 1
    rival = Transaction("B", (OutputRef("commit", 2 + q),), ((0, 1, lost),), 700, 1_400,
                        count=half)
    result = chain.submit(rival)
    assert (result.status, result.evicted) == ("replaced", ("A",))
    assert chain.mempool.spent == {"commit": [(2, 2 + q, "A"), (2 + q, 2 + q + half, "B"),
                                              (2 + q + half, 2 + n, "A")]}
    parts = 0
    while chain.mempool.pending:
        block = chain.mine_block()
        parts += sum(tx.count < {"A": n, "B": half}[tx.id] for tx in block.txs)
        check_runs(chain.utxo, 5)  # to_local, to_remote and three HTLC stretches
        check_runs(chain.mempool.spent, 3)
        assert len(utxo_of(chain)) == 2 + n  # each claim replaces the output it spends
    assert parts >= 4
    assert chain.mempool.spent == {}
    assert chain.utxo == {"commit": [(0, 1, local), (1, 2, remote)],
                          "A": [(0, q, won), (q + half, n, won)], "B": [(0, half, lost)]}
    chain.audit()


A, B = TxOutput(100, "a"), TxOutput(200, "b")


@pytest.mark.parametrize("outputs", [
    ((1, 2, A),), ((0, 1, A), (2, 3, B)), ((0, 2, A), (1, 3, B)), ((0, 1, A), (1, 1, B)),
    ((0, 0, A),), ((1, 2, B), (0, 1, A)), ((0, 1, A), (1, 2, A)),
], ids=["not-from-0", "gap", "overlap", "empty-run", "empty-only-run", "unsorted", "unjoined"])
def test_submit_refuses_outputs_that_are_not_runs_from_0(outputs):
    chain = ChainState()
    g = chain.grant("g", 10_000)
    # a fee that adds up, so only the outputs' shape is wrong
    fee = 10_000 - sum((b - a) * out.value for a, b, out in outputs)
    with pytest.raises(ValueError, match="runs from 0"):
        chain.submit(Transaction("T", (g,), outputs, 400, fee))
    assert not chain.mempool.pending and not chain.mempool.spent


def test_submit_refuses_a_negative_output():
    # Without inputs a -100 output would pay for a +100 one: value from nothing.
    chain = ChainState()
    outputs = ((0, 1, TxOutput(-100, "x")), (1, 2, TxOutput(100, "thief")))
    with pytest.raises(ValueError, match="output value -100 is negative"):
        chain.submit(Transaction("mint", (), outputs, 400, 0))
    g = chain.grant("g", 1_000)
    with pytest.raises(ValueError, match="negative"):
        chain.submit(Transaction("T", (g,), ((0, 2, TxOutput(-1, "x")),), 400, 1_002))
    assert not chain.mempool.pending and not chain.mempool.spent and len(chain.mempool) == 0
    chain.mine_block()
    chain.audit()
    assert utxo_of(chain) == {g: TxOutput(1_000, "g", "grant")}


@settings(max_examples=80)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3_000)), min_size=1, max_size=4),
       st.integers(1, 6), st.integers(0, 10**6), st.booleans())
def test_cohort_output_runs_expand_member_by_member(shape, k, pick, child):
    # Member m of a cohort owns (id, m * nout + j), nout the last run's end;
    # a single child may spend any one of them while the cohort is pending.
    runs, nout = [], 0
    for j, (length, value) in enumerate(shape):  # owners keep neighbours apart
        runs.append((nout, nout + length, TxOutput(value, f"o{j}")))
        nout += length
    cohort = Transaction("C", (), tuple(runs), 400, 400, count=k)
    flat = flat_outputs(cohort)
    chain = ChainState(blockmaxweight=1_000)  # at most two members a block
    g = chain.grant("g", sum(o.value for o in flat) + 400, count=k)
    assert chain.submit(cohort._replace(inputs=(g,))).status == "accepted"
    want = {OutputRef("C", m * nout + j): flat[j] for m in range(k) for j in range(nout)}
    if child:
        ref = OutputRef("C", pick % (k * nout))
        out = TxOutput(want.pop(ref).value, "k")
        assert chain.submit(Transaction("K", (ref,), ((0, 1, out),), 400, 0)).ok
        want[OutputRef("K", 0)] = out
    while chain.mempool.pending:
        chain.mine_block()
    assert utxo_of(chain) == want
    chain.audit()


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
            utxo = utxo_of(chain)
            live = [r for r in known if r in utxo or r.txid in chain.mempool.pending]
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
            assert accepted.fee * e.weight > e.fee * accepted.weight


@given(st.integers(0, 2_000))
@settings(max_examples=25)
def test_identical_sessions_mine_identical_chains(seed):
    a, _ = run_session(seed, steps=50)
    b, _ = run_session(seed, steps=50)
    assert [(blk.height, tuple(t.id for t in blk.txs)) for blk in a.blocks] == \
           [(blk.height, tuple(t.id for t in blk.txs)) for blk in b.blocks]
    assert utxo_of(a) == utxo_of(b)


def test_default_limits():
    assert DEFAULT_BLOCKMAXWEIGHT == 4_000_000
    assert MAX_TX_WEIGHT == 4_000_000


def test_transaction_is_frozen_and_fully_initialised():
    tx = Transaction("t", (), ((0, 1, TxOutput(5, "n")),), 400, 10)
    assert Transaction._fields == ("id", "inputs", "outputs", "weight", "fee",
                                   "rbf_signal", "count", "first")
    every = {name: getattr(tx, name) for name in Transaction._fields}
    assert every == {"id": "t", "inputs": (), "outputs": ((0, 1, TxOutput(5, "n")),),
                     "weight": 400, "fee": 10, "rbf_signal": False, "count": 1, "first": 0}
    assert tx == Transaction(id="t", inputs=(), outputs=((0, 1, TxOutput(5, "n")),),
                             weight=400, fee=10, rbf_signal=False)
    assert hash(tx) == hash(tx._replace())
    with pytest.raises(AttributeError):
        tx.fee = 11
    assert tx._replace(fee=11).fee == 11
    assert tx.fee == 10


@pytest.mark.parametrize("first", [1, 3])
def test_submit_refuses_a_cohort_that_does_not_start_at_member_0(first):
    chain = ChainState()
    g = chain.grant("g", 10_000, count=4)
    tx = Transaction("C", (g,), ((0, 1, TxOutput(9_000, "n")),), 400, 1_000, count=2, first=first)
    with pytest.raises(ValueError, match=f"from member {first}"):
        chain.submit(tx)
    assert "C" not in chain.mempool.pending and not chain.mempool.spent
    assert chain.submit(tx._replace(first=0)).status == "accepted"


# ---------------------------------------------------------------------------
# cohort refusals: submit raises (the caller splits the cohort) or refuses
# ---------------------------------------------------------------------------


def cohort(txid, inputs, value, fee, count, rbf=False, nout=1):
    """A cohort of `count` members, each with `nout` alike outputs of `value`."""
    return Transaction(txid, tuple(inputs), ((0, nout, TxOutput(value, "n")),), 400, fee,
                       rbf, count)


def raised(chain, tx):
    """The message of the ValueError submit raises for tx, which stays out."""
    with pytest.raises(ValueError) as exc:
        chain.submit(tx)
    assert tx.id not in chain.mempool.pending
    return str(exc.value)


def test_cohort_whose_members_spend_one_anothers_inputs_raises():
    chain = ChainState()
    g = chain.grant("g", 10_000, count=4)
    tx = cohort("C", [g, OutputRef(g.txid, 1)], 19_000, 1_000, 2)  # member 0 spends g:1 too
    assert raised(chain, tx) == "members of cohort 'C' spend one another's inputs"
    assert not chain.mempool.spent


def test_cohort_spending_members_with_several_outputs_raises():
    chain = ChainState()
    g = chain.grant("g", 10_000, count=2)
    assert chain.submit(cohort("P", [g], 4_000, 2_000, 2, nout=2)).ok
    tx = cohort("K", [OutputRef("P", 0)], 3_000, 1_000, 2)  # both outputs of P's member 0
    assert raised(chain, tx) == "cohort spends members of 'P', which have several outputs"


def test_cohort_larger_than_the_outputs_it_spends_raises():
    chain = ChainState()
    g = chain.grant("g", 10_000, count=2)
    assert raised(chain, cohort("C", [g], 9_000, 1_000, 3)) == \
        "cohort inputs at OutputRef(txid='grant-0', index=0) differ or only partly exist"


def test_cohort_clashing_with_members_of_another_out_of_line_raises():
    # Y's member 1 spends g:1 and g:3, its member 0 g:0 and g:2: the
    # newcomer's members clash with Y's members 1 and 0, in that order.
    chain = ChainState()
    g = chain.grant("g", 10_000, count=4)
    assert chain.submit(cohort("Y", [g, OutputRef(g.txid, 2)], 19_000, 1_000, 2, True)).ok
    tx = cohort("N", [OutputRef(g.txid, 1)], 5_000, 5_000, 2)
    assert raised(chain, tx) == \
        "cohort members conflict unevenly at OutputRef(txid='grant-0', index=1)"
    assert chain.mempool.parts("Y", 0, 2) == [(0, 2)]


def test_cohort_spending_the_members_it_evicts_is_missing_its_input():
    chain = ChainState()
    g = chain.grant("g", 10_000, count=3)
    assert chain.submit(cohort("P", [g], 9_000, 1_000, 3, True)).ok
    res = chain.submit(cohort("N", [g, OutputRef("P", 0)], 14_000, 5_000, 3))
    assert (res.status, res.reason) == ("rejected", "missing-input")
    assert chain.mempool.parts("P", 0, 3) == [(0, 3)] and "N" not in chain.mempool.pending


def test_cohort_whose_members_differ_in_replaceability_raises():
    # R's member 1 inherits replaceability from P's pending member 1; its
    # member 0 spends P's confirmed member 0 and does not.
    chain = ChainState(blockmaxweight=400)
    g = chain.grant("g", 10_000, count=2)
    assert chain.submit(cohort("P", [g], 9_000, 1_000, 2, True)).ok
    assert [(t.id, t.first, t.count) for t in chain.mine_block().txs] == [("P", 0, 1)]
    assert chain.submit(cohort("R", [OutputRef("P", 0)], 8_000, 1_000, 2)).ok
    tx = cohort("N", [OutputRef("P", 0)], 6_000, 3_000, 2)
    assert raised(chain, tx) == "members of 'R' differ in replaceability"


def test_cohort_clashing_with_two_rivals_raises():
    chain = ChainState()
    g = chain.grant("g", 10_000, count=2)
    assert chain.submit(cohort("A", [g], 9_000, 1_000, 1, True)).ok
    assert chain.submit(cohort("B", [OutputRef(g.txid, 1)], 9_000, 1_000, 1, True)).ok
    assert raised(chain, cohort("N", [g], 5_000, 5_000, 2)) == \
        "cohort members conflict unevenly at OutputRef(txid='grant-0', index=0)"


def test_cohort_clashing_with_what_is_only_partly_spent_raises():
    chain = ChainState()
    g = chain.grant("g", 10_000, count=2)
    assert chain.submit(cohort("A", [g], 9_000, 1_000, 1, True)).ok
    assert raised(chain, cohort("N", [g], 5_000, 5_000, 2)) == \
        "cohort members conflict unevenly at OutputRef(txid='grant-0', index=0)"


def test_cohort_clashing_with_a_partly_evicted_rival_raises():
    # X evicts R's member 0 and Z evicts X: only R's member 1 still spends g.
    chain = ChainState()
    g = chain.grant("g", 10_000, count=2)
    h = chain.grant("h", 10_000)
    assert chain.submit(cohort("R", [g], 9_000, 1_000, 2, True)).ok
    assert chain.submit(cohort("X", [g, h], 18_000, 2_000, 1, True)).evicted == ("R",)
    assert chain.submit(cohort("Z", [h], 5_000, 5_000, 1)).evicted == ("X",)
    assert raised(chain, cohort("N", [g], 5_000, 5_000, 2)) == \
        "cohort members conflict unevenly at OutputRef(txid='grant-0', index=0)"
    assert chain.mempool.parts("R", 0, 2) == [(1, 2)] and len(chain.mempool) == 2


def test_cohort_whose_evicted_descendants_do_not_line_up_raises():
    # K spends P's member 0 only: evicting P would take one member of K
    # for the newcomer's two.
    chain = ChainState()
    g = chain.grant("g", 10_000, count=2)
    assert chain.submit(cohort("P", [g], 9_000, 1_000, 2, True)).ok
    assert chain.submit(cohort("K", [OutputRef("P", 0)], 8_000, 1_000, 1)).ok
    assert raised(chain, cohort("N", [g], 5_000, 5_000, 2)) == \
        "descendants of 'P' do not line up"


def test_cohort_evicting_one_descendant_along_two_paths_raises():
    # The newcomer clashes with A's members 0-1 and B's members 1-2; K's
    # member 1 spends both A's member 1 and B's member 1.
    chain = ChainState()
    g = chain.grant("g", 10_000, count=3)
    h = chain.grant("h", 10_000, count=3)
    assert chain.submit(cohort("A", [g], 9_000, 1_000, 3, True)).ok
    assert chain.submit(cohort("B", [h], 9_000, 1_000, 3, True)).ok
    assert chain.submit(cohort("K", [OutputRef("A", 0), OutputRef("B", 0)], 17_000, 1_000, 3)).ok
    tx = cohort("N", [g, OutputRef(h.txid, 1)], 15_000, 5_000, 2)
    assert raised(chain, tx) == "cohort members would evict the same transactions"


def test_pending_transaction_without_outputs_is_replaced_and_mined():
    chain = ChainState()
    g = chain.grant("g", 10_000)
    h = chain.grant("h", 30_000)
    assert chain.submit(Transaction("P", (g,), (), 400, 10_000, True)).ok
    res = chain.submit(Transaction("N", (g,), ((0, 1, TxOutput(1, "n")),), 400, 9_999))
    assert (res.status, res.reason) == ("rejected", "insufficient-replacement-fee")
    res = chain.submit(Transaction("N", (g, h), ((0, 1, TxOutput(1, "n")),), 400, 39_999))
    assert (res.status, res.evicted) == ("replaced", ("P",))
    assert [t.id for t in chain.mine_block().txs] == ["N"]
    chain.audit()


# ---------------------------------------------------------------------------
# filler: an input-less, output-less transaction whose fee is granted when mined
# ---------------------------------------------------------------------------


def test_submit_refuses_a_malformed_filler():
    chain = ChainState()
    with pytest.raises(ValueError, match="^filler 'F' has outputs$"):
        chain.submit(Transaction("F", (), ((0, 1, TxOutput(0, "x")),), 400, 0))
    with pytest.raises(ValueError, match="^filler 'F' has outputs$"):
        chain.submit(Transaction("F", (), ((0, 1, TxOutput(5, "x")),), 400, 5))
    with pytest.raises(ValueError, match="^tx 'F': fee -1 is negative$"):
        chain.submit(Transaction("F", (), (), 400, -1))
    assert not chain.mempool.pending and chain.mempool.seq == 0
    assert chain.submit(Transaction("F", (), (), 400, 0)).status == "accepted"
    with pytest.raises(ValueError, match="^duplicate transaction id 'F'$"):
        chain.submit(Transaction("F", (), (), 400, 5))
    assert [t.id for t in chain.mine_block().txs] == ["F"]
    with pytest.raises(ValueError, match="^duplicate transaction id 'F'$"):
        chain.submit(Transaction("F", (), (), 400, 5))  # confirmed
    assert chain.mempool.seq == 1 and not chain.utxo


def filler_chain():
    """Two mined blocks in which fillers tie on feerate with spends: a
    single filler, a cohort of three cut by the block limit, a zero-fee
    filler, and a spend of a grant at the cohort's feerate."""
    chain = ChainState(blockmaxweight=2_000)
    g = chain.grant("g", 10_000)
    fillers = (Transaction("F", (), (), 400, 2_000),
               Transaction("Fs", (), (), 600, 600, count=3),
               Transaction("Z", (), (), 400, 0))
    for tx in fillers:
        assert chain.submit(tx).status == "accepted"
    assert chain.submit(spend("S", [g], 10_000, 400, 400)).ok
    assert chain.mempool.seq == 6  # one per member, fillers included
    chain.mine_block()
    chain.mine_block()
    assert [[(t.id, t.first, t.count) for t in b.txs] for b in chain.blocks] == [
        [("F", 0, 1), ("S", 0, 1), ("Fs", 0, 2)], [("Fs", 2, 1), ("Z", 0, 1)]]
    return chain


def test_mined_fillers_grant_their_fees_and_audit_clean():
    chain = filler_chain()
    chain.audit()
    assert list(chain.utxo) == ["S"]  # fillers leave nothing unspent
    assert chain._granted_total == 10_000 + 2_000 + 3 * 600
    assert chain._fees_confirmed == 2_000 + 400 + 3 * 600
    assert not chain.mempool.pending and len(chain.mempool) == 0


@pytest.mark.parametrize("height,at", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_audit_rejects_an_altered_filler_fee(height, at):
    chain = filler_chain()
    block = chain.blocks[height - 1]
    txs = list(block.txs)
    txs[at] = txs[at]._replace(fee=txs[at].fee + 1)
    chain.blocks[height - 1] = dataclasses.replace(block, txs=tuple(txs))
    with pytest.raises(AssertionError, match="replayed value conservation"):
        chain.audit()


@pytest.mark.parametrize("gain,message", [
    ({"outputs": ((0, 1, TxOutput(1, "x")),)}, "fee mismatch in confirmed tx"),
    ({"outputs": ((0, 1, TxOutput(0, "x")),)}, "replayed UTXO set diverges"),
    ({"inputs": (OutputRef("nowhere", 0),)}, "missing or double-spent input"),
], ids=["output", "zero-output", "input"])
@pytest.mark.parametrize("height,at", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_audit_rejects_a_filler_record_that_is_no_filler(height, at, gain, message):
    # A record that gained an output run or an input is no filler, and the
    # audit must check it as the spend it now claims to be.
    chain = filler_chain()
    block = chain.blocks[height - 1]
    txs = list(block.txs)
    txs[at] = txs[at]._replace(**gain)
    chain.blocks[height - 1] = dataclasses.replace(block, txs=tuple(txs))
    with pytest.raises(AssertionError, match=message):
        chain.audit()


@pytest.mark.parametrize("height,at", [(1, 0), (1, 2), (2, 1)])
def test_audit_rejects_an_altered_filler_weight(height, at):
    chain = filler_chain()
    block = chain.blocks[height - 1]
    txs = list(block.txs)
    txs[at] = txs[at]._replace(weight=txs[at].weight - 1)
    chain.blocks[height - 1] = dataclasses.replace(block, txs=tuple(txs))
    with pytest.raises(AssertionError, match="weight bookkeeping"):
        chain.audit()
