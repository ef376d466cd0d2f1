"""Channel state machine tests: funding, HTLC lifecycle, commitment and
claim-transaction arithmetic, fee renegotiation, force close."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htlcrace.chain import ChainState, OutputRef, TxOutput
from htlcrace.channel import (
    FUNDING_TX_WEIGHT,
    PROFILES,
    Channel,
    ChannelError,
    ChannelParams,
    Htlcs,
    WeightSchedule,
    fee_for_weight,
    open_channel,
    profile_params,
)
from test_chain import flat_outputs, utxo_of


def htlcs(ch):
    """Each HTLC as id -> (amount, expiry, offerer, who knows its preimage,
    state, preimage), expanded from the channel's runs."""
    return {hid: (h.amount, h.expiry_height, h.offerer, sorted(h.known_by),
                  h.state, hid + h.preimage_offset)
            for lo, hi, h in ch.runs for hid in range(lo, hi)}


def pending(ch):
    """Ids of the HTLCs not settled off-chain."""
    return [hid for hid, h in htlcs(ch).items() if h[4] != "fulfilled-offchain"]


def in_flight(ch):
    return sum(htlcs(ch)[hid][0] for hid in pending(ch))


def fresh_channel(funding=1_000_000, feerate=2_500, chain=None,
                  initiator_params=None, peer_params=None):
    chain = chain or ChainState()
    params = ChannelParams(channel_feerate=feerate)
    ch = open_channel(chain, "chan", "alice", "bob", funding,
                      initiator_params or params, peer_params or params)
    chain.mine_block()
    return chain, ch


# ---------------------------------------------------------------------------
# funding
# ---------------------------------------------------------------------------


def test_open_assigns_full_balance_to_initiator():
    chain, ch = fresh_channel(funding=1_000_000)
    assert ch.balances == {"alice": 1_000_000, "bob": 0}
    ref = ch.funding_outpoint
    assert utxo_of(chain)[ref].value == 1_000_000


def test_open_spends_one_grant_of_funding_plus_fee_whole():
    chain = ChainState()
    params = ChannelParams(channel_feerate=2_500)
    ch = open_channel(chain, "chan", "alice", "bob", 1_000_000, params, params)
    fund = chain.mempool.pending[ch.funding_outpoint.txid]
    fee = fee_for_weight(2_500, FUNDING_TX_WEIGHT)
    assert fund.fee == fee and fund.weight == FUNDING_TX_WEIGHT
    [grant] = fund.inputs
    assert utxo_of(chain)[grant] == TxOutput(1_000_000 + fee, "alice", "grant")
    assert fund.outputs == ((0, 1, TxOutput(1_000_000, "chan", "funding")),)  # no change
    chain.mine_block()
    assert not any(r.txid == grant.txid for r in utxo_of(chain))


@pytest.mark.parametrize("funding", [0, -1])
def test_open_refuses_a_non_positive_funding(funding):
    chain = ChainState()
    p = ChannelParams()
    with pytest.raises(ValueError, match="^funding must be positive$"):
        open_channel(chain, "chan", "alice", "bob", funding, p, p)
    assert not chain.utxo and not chain.mempool.pending  # no grant, no funding


@pytest.mark.parametrize("field, value, message", [
    ("channel_feerate", 0, "channel_feerate must be positive"),
    ("channel_feerate", -1, "channel_feerate must be positive"),
    ("max_htlc_value_in_flight", -1, "max_htlc_value_in_flight must be non-negative"),
    ("htlc_minimum", -1, "htlc_minimum must be non-negative"),
])
def test_channel_params_refuse_out_of_range_values(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ChannelParams(**{field: value})
    # Each bound itself is accepted.
    ChannelParams(channel_feerate=1, max_htlc_value_in_flight=0, htlc_minimum=0)


def test_two_channels_two_outpoints():
    chain = ChainState()
    p = ChannelParams()
    c1 = open_channel(chain, "one", "alice", "bob", 1_000_000, p, p)
    c2 = open_channel(chain, "two", "alice", "carol", 1_000_000, p, p)
    chain.mine_block()
    assert c1.funding_outpoint != c2.funding_outpoint
    for ref in (c1.funding_outpoint, c2.funding_outpoint):
        assert ref in utxo_of(chain)


# ---------------------------------------------------------------------------
# commitment arithmetic
# ---------------------------------------------------------------------------


def test_commitment_weight_and_fee_hand_checked():
    w = WeightSchedule()
    assert w.commitment_weight(0) == 724
    assert w.commitment_weight(483) == 724 + 483 * 172 == 83_800
    chain, ch = fresh_channel(funding=2_000_000, feerate=2_500)
    empty = ch.build_commitment("alice")
    assert empty.weight == 724
    assert empty.fee == 2_500 * 724 // 1000 == 1_810
    for k in range(483):
        ch.add_htlc("alice", 2_000, k, 100)
    full = ch.build_commitment("alice")
    assert full.weight == 83_800
    assert full.fee == 2_500 * 83_800 // 1000 == 209_500
    local, remote = 2_000_000 - 483 * 2_000 - full.fee, 0
    assert full.outputs == ((0, 1, TxOutput(local, "alice", "to_local")),
                            (1, 2, TxOutput(remote, "bob", "to_remote")),
                            (2, 2 + 483, TxOutput(2_000, ch.channel_id, "htlc")))
    assert len(flat_outputs(full)) == 2 + 483


def test_commitment_weight_linear_in_htlc_count():
    chain, ch = fresh_channel(funding=2_000_000)
    weights = []
    for k in range(6):
        weights.append(ch.build_commitment("alice").weight)
        ch.add_htlc("alice", 5_000, k, 100)
    assert [b - a for a, b in zip(weights, weights[1:])] == [172] * 5


def test_commitment_conserves_funding():
    chain, ch = fresh_channel(funding=1_000_000, feerate=2_500)
    for k in range(7):
        ch.add_htlc("alice", 11_000 + k, k, 100)
    for holder in ("alice", "bob"):
        tx = ch.build_commitment(holder)
        assert sum(o.value for o in flat_outputs(tx)) + tx.fee == 1_000_000


def test_both_commitments_carry_identical_htlc_sets():
    chain, ch = fresh_channel(funding=1_000_000)
    amounts = [7_000, 9_000, 7_000, 12_345]
    for k, a in enumerate(amounts):
        ch.add_htlc("alice", a, k, 100)
    mine = sorted(o.value for o in flat_outputs(ch.build_commitment("alice"))
                  if o.kind == "htlc")
    theirs = sorted(o.value for o in flat_outputs(ch.build_commitment("bob"))
                    if o.kind == "htlc")
    assert mine == theirs == sorted(amounts)


def test_fee_always_comes_out_of_initiator_output():
    chain, ch = fresh_channel(funding=1_000_000, feerate=2_500)
    ours = ch.build_commitment("alice")
    to_local = flat_outputs(ours)[0]
    assert to_local.kind == "to_local" and to_local.owner == "alice"
    assert to_local.value == 1_000_000 - ours.fee
    theirs = ch.build_commitment("bob")
    to_remote = next(o for o in flat_outputs(theirs) if o.owner == "alice")
    assert to_remote.value == 1_000_000 - theirs.fee


# ---------------------------------------------------------------------------
# HTLC lifecycle off-chain
# ---------------------------------------------------------------------------


def test_htlc_count_limit():
    chain, ch = fresh_channel(funding=10_000_000)
    for k in range(483):
        ch.add_htlc("alice", 2_049, k, 100)
    assert in_flight(ch) == 483 * 2_049 == 989_667
    assert len(ch.runs) == 1  # identical HTLCs join into one run
    with pytest.raises(ChannelError, match="^too-many-htlcs:"):
        ch.add_htlc("alice", 2_049, 483, 100)


def test_zero_amount_htlc_is_legal_by_default():
    chain, ch = fresh_channel()
    hid = ch.add_htlc("alice", 0, 0, 100)
    assert htlcs(ch)[hid][4] == "pending"


def test_minimum_htlc_policy_knob():
    params = ChannelParams(htlc_minimum=1)
    chain, ch = fresh_channel(peer_params=params)
    with pytest.raises(ChannelError, match="^below-minimum:"):
        ch.add_htlc("alice", 0, 0, 100)


def test_value_in_flight_cap():
    params = ChannelParams(max_htlc_value_in_flight=10_000)
    chain, ch = fresh_channel(peer_params=params)
    ch.add_htlc("alice", 9_000, 0, 100)
    with pytest.raises(ChannelError, match="^in-flight-exceeded:"):
        ch.add_htlc("alice", 1_001, 1, 100)


def test_htlc_needs_balance_beyond_new_commitment_fee():
    chain, ch = fresh_channel(funding=100_000, feerate=2_500)
    fee_with_one = fee_for_weight(2_500, 724 + 172)
    with pytest.raises(ChannelError, match="^insufficient-balance:"):
        ch.add_htlc("alice", 100_000 - fee_with_one + 1, 0, 100)
    ch.add_htlc("alice", 100_000 - fee_with_one, 0, 100)  # exact fit


def test_fulfill_moves_balance():
    chain, ch = fresh_channel()
    hid = ch.add_htlc("alice", 40_000, 7, 100)
    ch.fulfill_htlc_offchain(hid, 7)
    assert ch.balances == {"alice": 960_000, "bob": 40_000}
    assert htlcs(ch)[hid][4] == "fulfilled-offchain"
    assert ch.pending_count == 0 and not pending(ch)


def test_wrong_preimage_rejected():
    chain, ch = fresh_channel()
    hid = ch.add_htlc("alice", 40_000, 7, 100)
    with pytest.raises(ChannelError, match="^unknown-preimage:"):
        ch.fulfill_htlc_offchain(hid, 8)


@given(st.integers(0, 3_000))
@settings(max_examples=40)
def test_random_offchain_traffic_conserves_funding(seed):
    rng = random.Random(seed)
    chain, ch = fresh_channel(funding=1_000_000)
    ch.balances["bob"] = 400_000
    ch.balances["alice"] -= 400_000
    for step in range(30):
        party = rng.choice(("alice", "bob"))
        action = rng.random()
        if action < 0.6:
            amount = rng.randint(0, 30_000)
            try:
                ch.add_htlc(party, amount, step, 100)
            except ChannelError as exc:
                assert str(exc).startswith("insufficient-balance:"), exc
        elif pending(ch):
            hid = rng.choice(pending(ch))
            ch.fulfill_htlc_offchain(hid, htlcs(ch)[hid][5])
        assert ch.balances["alice"] + ch.balances["bob"] + in_flight(ch) == 1_000_000
        assert min(ch.balances.values()) >= 0
        tx = ch.build_commitment("bob")
        assert sum(o.value for o in flat_outputs(tx)) + tx.fee == 1_000_000


# ---------------------------------------------------------------------------
# fee renegotiation
# ---------------------------------------------------------------------------


def test_update_fee_tracks_oracle():
    chain, ch = fresh_channel(feerate=2_500)
    assert ch.update_fee("alice", 1_950, oracle_estimate=2_000) is None
    assert ch.feerate == 1_950
    assert ch.build_commitment("alice").fee == fee_for_weight(1_950, 724)


def test_update_fee_rejects_non_initiator():
    chain, ch = fresh_channel()
    with pytest.raises(ChannelError, match="^not-initiator:"):
        ch.update_fee("bob", 2_000, oracle_estimate=2_000)
    assert ch.feerate == 2_500


def test_update_fee_rejects_unreasonable_proposal():
    chain, ch = fresh_channel()
    with pytest.raises(ChannelError, match="^unreasonable-feerate:"):
        ch.update_fee("alice", 20_000, oracle_estimate=2_000)
    ch.update_fee("alice", 2_200, oracle_estimate=2_000)  # exactly +10%
    assert ch.feerate == 2_200


def test_update_fee_rejects_bad_and_unaffordable_feerates():
    chain, ch = fresh_channel(funding=10_000)
    with pytest.raises(ChannelError, match="^invalid-feerate:"):
        ch.update_fee("alice", 0, oracle_estimate=0)
    with pytest.raises(ChannelError, match="^cannot-afford-fee:"):
        ch.update_fee("alice", 20_000, oracle_estimate=20_000)  # 14,480 sat > 10,000
    assert ch.feerate == 2_500


def test_update_fee_refused_once_closing():
    chain, ch = fresh_channel()
    ch.force_close(chain, "alice")
    with pytest.raises(ChannelError, match="^channel-not-open:"):
        ch.update_fee("alice", 1_000, oracle_estimate=1_000)


# ---------------------------------------------------------------------------
# force close and claims
# ---------------------------------------------------------------------------


def closing_channel(profile_name, n_htlcs=3, feerate=2_500, funding=1_000_000):
    """Channel where bob (the `profile_name` node) has n incoming HTLCs with
    known preimages, none settled off-chain, and bob force-closes."""
    chain = ChainState()
    params = profile_params(profile_name, channel_feerate=feerate)
    ch = open_channel(chain, "chan", "alice", "bob", funding,
                      replace_feerate(params, feerate), params)
    chain.mine_block()
    for k in range(n_htlcs):
        ch.add_htlc("alice", 10_000, k, expiry_height=60,
                    known_to=("bob",))
    return chain, ch


def replace_feerate(params, feerate):
    from dataclasses import replace
    return replace(params, channel_feerate=feerate)


def test_waiting_profile_closes_without_claims():
    chain, ch = closing_channel("lnd")
    commit = ch.force_close(chain, "bob")
    assert commit.id == ch.published.txid
    assert len(chain.mempool) == 1


def test_zero_htlc_close_is_commitment_only_even_when_eager():
    # Publishing an eager profile's claims is the engine's job (see
    # tests/test_attack.py); force_close only ever publishes the commitment.
    for n_htlcs in (0, 3):
        chain, ch = closing_channel("eclair", n_htlcs=n_htlcs)
        assert ch.force_close(chain, "bob").id == ch.published.txid
        assert len(chain.mempool) == 1


def test_success_local_claim_fee_is_fixed_by_both_signatures():
    chain, ch = closing_channel("lnd", n_htlcs=1, feerate=2_500)
    ch.force_close(chain, "bob")
    hid = 0  # the commitment's only HTLC
    claim = ch.build_htlc_claim("bob", hid, "success-local", chain.height)
    assert claim.weight == 703
    assert claim.fee == 2_500 * 703 // 1000 == 1_757
    assert claim.rbf_signal is True  # pre-signed with replaceable flags
    with pytest.raises(ChannelError, match="^pre-signed:"):
        ch.build_htlc_claim("bob", hid, "success-local", chain.height,
                            fee_override=9_999)
    with pytest.raises(ChannelError, match="^pre-signed:"):
        ch.build_htlc_claim("bob", hid, "success-local", chain.height,
                            extra_input=OutputRef("spare", 0), extra_value=50_000)


def test_remote_side_timeout_claim_is_free_form():
    # alice published nothing; bob closed, so alice's claims are
    # single-signer spends of bob's commitment: fee and signal at will.
    chain, ch = closing_channel("lnd", n_htlcs=1)
    ch.force_close(chain, "bob")
    hid = 0  # the commitment's only HTLC
    claim = ch.build_htlc_claim("alice", hid, "timeout-remote", height=60,
                                fee_override=4_321, rbf_signal=True)
    assert claim.weight == 663
    assert claim.fee == 4_321
    assert claim.rbf_signal is True
    unsignaled = ch.build_htlc_claim("alice", hid, "timeout-remote", height=60,
                                     fee_override=4_321)
    assert unsignaled.rbf_signal is False  # default for single-signer claims


def test_timeout_before_expiry_is_premature():
    chain, ch = closing_channel("lnd", n_htlcs=1)
    ch.force_close(chain, "bob")
    hid = 0  # the commitment's only HTLC
    with pytest.raises(ChannelError, match="^premature-timeout:"):
        ch.build_htlc_claim("alice", hid, "timeout-remote", height=59)


def test_claim_fee_rigid_after_close():
    chain, ch = closing_channel("lnd", n_htlcs=1, feerate=2_500)
    ch.update_fee("alice", 2_400, oracle_estimate=2_400)  # still open
    ch.force_close(chain, "bob")
    hid = 0  # the commitment's only HTLC
    first = ch.build_htlc_claim("bob", hid, "success-local", chain.height)
    with pytest.raises(ChannelError, match="^channel-not-open:"):
        ch.update_fee("alice", 1_000, oracle_estimate=1_000)
    again = ch.build_htlc_claim("bob", hid, "success-local", chain.height)
    assert again.fee == first.fee == fee_for_weight(2_400, 703)


def test_mark_claimed_exactly_once():
    chain, ch = closing_channel("lnd", n_htlcs=1)
    hid = 0  # the commitment's only HTLC
    ch.force_close(chain, "bob")
    ch.mark_claimed(hid, by_timeout=True)
    assert htlcs(ch)[hid][4] == "claimed-by-timeout"
    with pytest.raises(AssertionError):
        ch.mark_claimed(hid, by_timeout=False)


def test_mark_claimed_needs_a_force_closed_channel():
    chain, ch = closing_channel("lnd", n_htlcs=3)
    with pytest.raises(ChannelError, match="^no-commitment:"):
        ch.mark_claimed(0, by_timeout=False, count=3)
    assert [h[4] for h in htlcs(ch).values()] == ["pending"] * 3
    assert ch.pending_count == 3
    ch.fulfill_htlcs_offchain(0, range(3))  # still settles off-chain
    assert [h[4] for h in htlcs(ch).values()] == ["fulfilled-offchain"] * 3
    ch.force_close(chain, "bob")
    with pytest.raises(AssertionError):  # nothing left pending to claim
        ch.mark_claimed(0, by_timeout=False)


def test_node_profile_table():
    assert PROFILES["lnd"].max_accepted_htlcs == 483
    assert (PROFILES["lnd"].commitment_broadcast_delta,
            PROFILES["lnd"].htlc_expiry_delta) == (10, 40)
    assert PROFILES["lnd"].wait_for_commit_confirmation
    assert (PROFILES["c-lightning"].max_accepted_htlcs,
            PROFILES["c-lightning"].commitment_broadcast_delta,
            PROFILES["c-lightning"].htlc_expiry_delta) == (30, 7, 14)
    assert (PROFILES["eclair"].max_accepted_htlcs,
            PROFILES["eclair"].commitment_broadcast_delta,
            PROFILES["eclair"].htlc_expiry_delta) == (30, 6, 144)
    assert not PROFILES["eclair"].wait_for_commit_confirmation
    with pytest.raises(ValueError):
        profile_params("raiden")
    lnd = PROFILES["lnd"]
    assert profile_params(lnd) is lnd  # parameters pass through as they are
    assert profile_params(lnd, max_accepted_htlcs=30) == \
        profile_params("lnd", max_accepted_htlcs=30)


# ---------------------------------------------------------------------------
# batch operations against their one-at-a-time definitions
# ---------------------------------------------------------------------------


def _channel_state(ch):
    return dict(ch.balances), htlcs(ch), list(ch.runs), ch.pending_count, ch.next_htlc_id


def test_add_htlcs_is_all_or_nothing_add_htlc_in_a_row():
    outcomes = {"added": 0, "refused": 0}
    for seed in range(400):
        rng = random.Random(seed)
        alice = ChannelParams(channel_feerate=2_500, max_accepted_htlcs=rng.randint(1, 12),
                              htlc_minimum=rng.choice((0, 0, 5_000)))
        bob = ChannelParams(channel_feerate=2_500, max_accepted_htlcs=rng.randint(1, 12),
                            max_htlc_value_in_flight=rng.choice((None, rng.randint(0, 300_000))),
                            htlc_minimum=rng.choice((0, 0, 5_000)))
        funding = rng.randint(20_000, 600_000)
        bob_share = rng.randint(0, funding // 2)
        earlier = rng.randint(0, 3)
        offerer = rng.choice(("alice", "bob"))
        amount = rng.randint(0, 60_000)
        count = rng.randint(1, 14)
        preimages = range(count)

        def twin():
            _, ch = fresh_channel(funding=funding, initiator_params=alice,
                                  peer_params=bob)
            ch.balances["bob"] += bob_share
            ch.balances["alice"] -= bob_share
            for k in range(earlier):
                try:
                    ch.add_htlc("alice", 1_000, 1_000 + k, 100)
                except ChannelError:
                    pass
            return ch

        batch, single = twin(), twin()
        before = _channel_state(batch)
        first_error = None
        for k in range(count):
            try:
                single.add_htlc(offerer, amount, preimages[k], 100, known_to=("carol",))
            except ChannelError as exc:
                first_error = exc
                break
        try:
            batch.add_htlcs(offerer, amount, preimages, 100, known_to=("carol",))
        except ChannelError as exc:
            assert (type(exc), str(exc)) == (type(first_error), str(first_error)), seed
            assert _channel_state(batch) == before, seed
            outcomes["refused"] += 1
        else:
            assert first_error is None, seed
            assert _channel_state(batch) == _channel_state(single), seed
            outcomes["added"] += 1
    assert min(outcomes.values()) > 50, outcomes


def claims_channel():
    """bob holds four incoming HTLCs, three with known preimages, and one
    outgoing HTLC whose preimage alice knows; bob force-closes."""
    chain, ch = closing_channel("lnd", n_htlcs=3)
    ch.add_htlc("alice", 10_000, 3, expiry_height=60)
    ch.balances["bob"] += 50_000
    ch.balances["alice"] -= 50_000
    ch.add_htlc("bob", 10_000, 4, expiry_height=60, known_to=("alice",))
    ch.force_close(chain, "bob")
    return chain, ch


def members(cohort):
    """The cohort as the plain transactions it stands for, ids aside."""
    return [(tuple(OutputRef(r.txid, r.index + m) for r in cohort.inputs),
             cohort.outputs, cohort.weight, cohort.fee, cohort.rbf_signal)
            for m in range(cohort.count)]


def plain(tx):
    return members(tx)[0]


@pytest.mark.parametrize("rbf", [None, True, False])
def test_claimable_successes_equal_build_htlc_claim_per_htlc(rbf):
    chain, batch = claims_channel()
    _, single = claims_channel()
    got = batch.claimable_successes("bob", chain.height, rbf_signal=rbf)
    want = [single.build_htlc_claim("bob", hid, "success-local", chain.height,
                                    rbf_signal=rbf)
            for hid in (0, 1, 2)]
    assert list(got) == [0]  # one cohort, from HTLC 0 on
    assert members(got[0]) == [plain(tx) for tx in want]
    assert got[0].id.startswith("chan-sl")
    # alice's success claim on bob's commitment
    with pytest.raises(ChannelError, match="^wrong-claim:"):
        batch.claimable_successes("alice", chain.height)


def test_claimable_successes_split_where_amounts_differ():
    chain, ch = closing_channel("lnd", n_htlcs=0)
    for k, amount in enumerate((10_000, 10_000, 20_000, 10_000)):
        ch.add_htlc("alice", amount, k, expiry_height=60, known_to=("bob",))
    ch.force_close(chain, "bob")
    got = ch.claimable_successes("bob", chain.height)
    assert {first: tx.count for first, tx in got.items()} == {0: 2, 2: 1, 3: 1}
    for first, tx in got.items():
        assert members(tx) == [plain(ch.build_htlc_claim("bob", hid, "success-local",
                                                         chain.height))
                               for hid in range(first, first + tx.count)]


def test_claimable_successes_skip_claimed_htlcs_on_a_second_call():
    chain, ch = closing_channel("lnd", n_htlcs=6)
    ch.force_close(chain, "bob")
    first = ch.claimable_successes("bob", chain.height)
    assert {hid: tx.count for hid, tx in first.items()} == {0: 6}
    ch.mark_claimed(0, by_timeout=False, count=2)
    ch.mark_claimed(3, by_timeout=True)
    again = ch.claimable_successes("bob", chain.height)
    assert {hid: tx.count for hid, tx in again.items()} == {2: 1, 4: 2}
    for hid, tx in again.items():
        assert members(tx) == [plain(ch.build_htlc_claim("bob", h, "success-local",
                                                         chain.height))
                               for h in range(hid, hid + tx.count)]
    assert [tx.inputs[0].index for tx in again.values()] == [4, 6]  # vouts of HTLCs 2, 4
    ch.mark_claimed(2, by_timeout=False)
    ch.mark_claimed(4, by_timeout=False, count=2)
    assert ch.claimable_successes("bob", chain.height) == {}


def test_claims_refuse_htlcs_already_claimed_on_chain():
    chain, ch = closing_channel("lnd", n_htlcs=4)
    ch.reveal_preimages(0, range(4))
    ch.force_close(chain, "bob")
    ch.mark_claimed(0, by_timeout=False, count=3)
    for claimer, kind in (("bob", "success-local"), ("alice", "timeout-remote")):
        with pytest.raises(ChannelError, match="^not-pending: 0$"):
            ch.build_htlc_claims(claimer, 0, 3, kind, 60)
        with pytest.raises(ChannelError, match="^not-pending: 2$"):  # the first claimed one
            ch.build_htlc_claims(claimer, 2, 2, kind, 60)
        assert ch.build_htlc_claims(claimer, 3, 1, kind, 60).count == 1


def test_timeout_cohort_equals_single_claims_and_checks_every_member():
    chain, ch = claims_channel()
    cohort = ch.build_htlc_claims("alice", 0, 3, "timeout-remote", 60,
                                  fee_override=5_000, rbf_signal=True,
                                  extra_input=OutputRef("spare", 7), extra_value=1_000)
    for m, member in enumerate(members(cohort)):
        single = ch.build_htlc_claim("alice", m, "timeout-remote", 60, fee_override=5_000,
                                     rbf_signal=True, extra_input=OutputRef("spare", 7 + m),
                                     extra_value=1_000)
        assert member == plain(single)
    with pytest.raises(ChannelError, match="^wrong-claim:"):  # HTLC 4 is bob's own offer
        ch.build_htlc_claims("alice", 2, 3, "timeout-remote", 60)
    with pytest.raises(ChannelError, match="^premature-timeout:"):
        ch.build_htlc_claims("alice", 0, 3, "timeout-remote", 59)
    with pytest.raises(ChannelError, match="^not-pending:"):
        ch.build_htlc_claims("alice", 3, 4, "timeout-remote", 60)


def test_reveal_preimages_reaches_both_sides_of_a_silent_channel():
    chain, ch = closing_channel("lnd", n_htlcs=2)
    ch.reveal_preimages(0, range(2))
    for hid in (0, 1):
        assert htlcs(ch)[hid][3] == ["alice", "bob"]
    with pytest.raises(ChannelError, match="^unknown-preimage:"):
        ch.reveal_preimages(0, range(1, 2))
    assert pending(ch) == [0, 1]


def test_identical_htlcs_hold_one_run_per_stretch():
    chain, ch = fresh_channel(funding=10_000_000)
    assert ch.add_htlcs("alice", 2_049, range(483), 100) == range(483)
    assert len(ch.runs) == 1
    ch.reveal_preimages(0, range(483))
    ch.force_close(chain, "bob")
    assert ch.runs == \
        [(0, 483, Htlcs(0, 2_049, 100, "alice", frozenset({"alice", "bob"}), "pending"))]
    for lo, hi, by_timeout in ((0, 100, False), (300, 483, True), (100, 250, False),
                               (250, 300, True)):
        ch.mark_claimed(lo, by_timeout, hi - lo)
    assert [(lo, hi - lo, h.state) for lo, hi, h in ch.runs] == \
        [(0, 250, "claimed-by-success"), (250, 233, "claimed-by-timeout")]
