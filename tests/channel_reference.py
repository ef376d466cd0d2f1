"""Per-HTLC reference model of a payment channel.

The channel as it was before it held HTLCs as runs: one `Htlc` object per
HTLC with its own payment hash, preimage and set of parties that know it,
and a published commitment that maps every HTLC id to its output.  Kept
as the reference `tests/test_channel_oracle.py` drives the run-based
`htlcrace.channel.Channel` against; it shares only the declarations
(parameters, weights, the ChannelError type) with it, and states each
refusal's reason code itself.  It builds a commitment's outputs one per
HTLC and hands them to the chain as the output runs a Transaction holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, contains

from htlcrace.chain import ChainState, OutputRef, Transaction, TxOutput
from htlcrace.channel import (
    ANCHOR_INPUT_WEIGHT, CLAIM_KINDS, FUNDING_TX_WEIGHT,
    ChannelError, ChannelParams, WeightSchedule, fee_for_weight,
)

# How far from its own estimate a peer accepts, stated in floats: the channel
# states it in integers, so the oracle compares the two forms on every draw.
FEE_UPDATE_TOLERANCE = 0.10

# Builds a named tuple from a ready tuple of all its fields, skipping the
# Python-level __new__: about half the cost, for the commitment output built
# per HTLC.
_tuple_new = tuple.__new__

_KIND_CODE = {"success-local": "sl", "success-remote": "sr",
              "timeout-local": "tl", "timeout-remote": "tr"}
_amount_of = attrgetter("amount")
_offerer_of = attrgetter("offerer")
_known_by = attrgetter("preimage_known_by")
_expiry_of = attrgetter("expiry_height")


@dataclass(slots=True)
class Htlc:
    id: int
    amount: int
    payment_hash: str
    preimage: str
    preimage_known_by: set[str]
    expiry_height: int
    offerer: str
    state: str = "pending"  # pending | fulfilled-offchain |
                            # claimed-by-success | claimed-by-timeout


@dataclass(frozen=True, slots=True)
class PublishedCommitment:
    holder: str
    txid: str
    htlc_index: dict[int, int]  # htlc id -> output index on the commitment


@dataclass
class Channel:
    channel_id: str
    initiator: str
    peer: str
    funding_value: int
    funding_outpoint: OutputRef
    params: dict[str, ChannelParams]
    weights: WeightSchedule

    def __post_init__(self):
        self.feerate = self.params[self.initiator].channel_feerate  # commitment's, now
        self.status = "open"  # open | force-closing | closed
        self.balances = {self.initiator: self.funding_value, self.peer: 0}
        self.pending_htlcs: dict[int, Htlc] = {}
        self.all_htlcs: dict[int, Htlc] = {}
        self.published: PublishedCommitment | None = None
        self._next_htlc_id = 0
        self._offered_count = {self.initiator: 0, self.peer: 0}
        self._offered_value = {self.initiator: 0, self.peer: 0}
        self._build_count = 0

    def other(self, party: str) -> str:
        return self.peer if party == self.initiator else self.initiator

    def commitment_fee(self, htlc_count: int) -> int:
        return fee_for_weight(self.feerate, self.weights.commitment_weight(htlc_count))

    # -- off-chain operations ---------------------------------------------

    def add_htlc(self, offerer: str, amount: int, payment_hash: str,
                 preimage: str, expiry_height: int, known_to=()) -> Htlc:
        return self.add_htlcs(offerer, amount, (payment_hash,), (preimage,),
                              expiry_height, known_to)[0]

    def add_htlcs(self, offerer: str, amount: int, payment_hashes, preimages,
                  expiry_height: int, known_to=()) -> list[Htlc]:
        """Offer one HTLC of `amount` per (payment hash, preimage) pair, in
        order.  Either all are added or none: if adding them one at a time
        would fail, this raises what the first failing add would raise and
        changes nothing."""
        if self.status != "open":
            raise ChannelError(f"channel-not-open: {self.channel_id} is closing")
        count = len(payment_hashes)
        if len(preimages) != count:
            raise ValueError("one preimage per payment hash")
        if count == 0:
            return []
        # Pending count, in-flight value and commitment fee only grow with
        # each add and the offerer's balance only shrinks (amount >= minimum
        # >= 0), so if the checks pass for the last add they pass for all.
        try:
            self._check_add(offerer, amount, count - 1)
        except ChannelError:
            for k in range(count - 1):
                self._check_add(offerer, amount, k)  # the first failing add
            raise

        known = frozenset(known_to)
        first = self._next_htlc_id
        htlcs = [Htlc(first + k, amount, payment_hash, preimage, set(known),
                      expiry_height, offerer)
                 for k, (payment_hash, preimage) in enumerate(zip(payment_hashes, preimages))]
        self._next_htlc_id = first + count
        self.balances[offerer] -= amount * count
        ids = range(first, first + count)
        self.pending_htlcs.update(zip(ids, htlcs))
        self.all_htlcs.update(zip(ids, htlcs))
        self._offered_count[offerer] += count
        self._offered_value[offerer] += amount * count
        return htlcs

    def _check_add(self, offerer: str, amount: int, k: int) -> None:
        """Raise if adding one more HTLC of `amount` would be refused after
        `k` such HTLCs had already been added."""
        receiver = self.other(offerer)
        accept = self.params[receiver]
        if amount < accept.htlc_minimum:
            raise ChannelError(f"below-minimum: {amount} < {accept.htlc_minimum}")
        if self._offered_count[offerer] + k >= accept.max_accepted_htlcs:
            raise ChannelError(f"too-many-htlcs: {accept.max_accepted_htlcs} already pending")
        cap = accept.max_htlc_value_in_flight
        if cap is not None and self._offered_value[offerer] + (k + 1) * amount > cap:
            raise ChannelError(f"in-flight-exceeded: in-flight cap {cap}")
        new_fee = self.commitment_fee(len(self.pending_htlcs) + k + 1)
        balance = self.balances[offerer] - k * amount
        if offerer == self.initiator:
            if balance < amount + new_fee:
                raise ChannelError(
                    f"insufficient-balance: {offerer} has {balance}, needs {amount + new_fee}")
        else:
            if balance < amount:
                raise ChannelError(
                    f"insufficient-balance: {offerer} has {balance}, needs {amount}")
            if self.balances[self.initiator] < new_fee:
                raise ChannelError(
                    f"insufficient-balance: initiator cannot cover fee {new_fee}")

    def fulfill_htlc_offchain(self, htlc_id: int, preimage: str) -> None:
        """Receiver redeems with the preimage, and the offerer co-signs the
        updated commitment: the HTLC's amount moves to the receiver."""
        self.fulfill_htlcs_offchain(((htlc_id, preimage),))

    def fulfill_htlcs_offchain(self, preimages) -> None:
        """fulfill_htlc_offchain for each (htlc id, preimage) pair, in order,
        stopping at the first that raises."""
        if self.status != "open":
            raise ChannelError(f"channel-not-open: {self.channel_id} is closing")
        for htlc_id, preimage in preimages:
            htlc = self._reveal(htlc_id, preimage)
            self._resolve(htlc, credit_to=self.other(htlc.offerer),
                          state="fulfilled-offchain")

    def reveal_preimages(self, preimages) -> None:
        """The one-way half of settlement, for each (htlc id, preimage) pair
        in order: the preimage reaches both parties.  Unlike fulfilling, it
        needs no cooperation."""
        if self.status != "open":
            raise ChannelError(f"channel-not-open: {self.channel_id} is closing")
        for htlc_id, preimage in preimages:
            self._reveal(htlc_id, preimage)

    def _reveal(self, htlc_id: int, preimage: str) -> Htlc:
        htlc = self.pending_htlcs.get(htlc_id)
        if htlc is None:
            raise ChannelError(f"not-pending: {htlc_id}")
        if preimage != htlc.preimage:
            raise ChannelError(f"unknown-preimage: {htlc.payment_hash}")
        htlc.preimage_known_by.add(self.other(htlc.offerer))
        htlc.preimage_known_by.add(htlc.offerer)
        return htlc

    def _resolve(self, htlc: Htlc, credit_to: str, state: str) -> None:
        self.balances[credit_to] += htlc.amount
        htlc.state = state
        del self.pending_htlcs[htlc.id]
        self._offered_count[htlc.offerer] -= 1
        self._offered_value[htlc.offerer] -= htlc.amount

    def update_fee(self, proposer: str, new_feerate: int, oracle_estimate: int):
        """Initiator-only feerate renegotiation.  The counterparty accepts
        any proposal that tracks its own fee estimate within
        FEE_UPDATE_TOLERANCE."""
        if self.status != "open":
            return False, "channel-not-open"
        if proposer != self.initiator:
            return False, "not-initiator"
        if new_feerate <= 0:
            return False, "invalid-feerate"
        if abs(new_feerate - oracle_estimate) > FEE_UPDATE_TOLERANCE * oracle_estimate:
            return False, "unreasonable-feerate"
        new_fee = fee_for_weight(new_feerate,
                                 self.weights.commitment_weight(len(self.pending_htlcs)))
        if self.balances[self.initiator] < new_fee:
            return False, "cannot-afford-fee"
        self.feerate = new_feerate
        return True, None

    # -- on-chain transactions ---------------------------------------------

    def build_commitment(self, holder: str) -> Transaction:
        """Holder's current commitment: to_local, to_remote, then one output
        per pending HTLC in id order.  Fee comes out of the initiator's
        output (guaranteed non-negative by add_htlc)."""
        other = self.other(holder)
        weight = self.weights.commitment_weight(len(self.pending_htlcs))
        fee = fee_for_weight(self.feerate, weight)
        local = self.balances[holder] - (fee if holder == self.initiator else 0)
        remote = self.balances[other] - (fee if other == self.initiator else 0)
        if local < 0 or remote < 0:
            raise ChannelError(
                "insufficient-balance: initiator balance cannot cover commitment fee")
        outputs = [TxOutput(local, holder, "to_local"),
                   TxOutput(remote, other, "to_remote")]
        outputs += [_tuple_new(TxOutput, (htlc.amount, self.channel_id, "htlc"))
                    for htlc in self.pending_htlcs.values()]
        runs = []  # the outputs as the chain takes them: alike neighbours joined
        for k, out in enumerate(outputs):
            if runs and runs[-1][2] == out:
                runs[-1] = (runs[-1][0], k + 1, out)
            else:
                runs.append((k, k + 1, out))
        self._build_count += 1
        return Transaction(
            id=f"{self.channel_id}-commit{self._build_count}-{holder}",
            inputs=(self.funding_outpoint,),
            outputs=tuple(runs),
            weight=weight,
            fee=fee,
            rbf_signal=False,
        )

    def force_close(self, chain: ChainState, closer: str) -> Transaction:
        """Publish the closer's commitment.  Its HTLC claims are the
        caller's to build and submit, when the closer's profile says."""
        if self.status != "open":
            raise ChannelError(f"already-closing: {self.channel_id} is closing")
        commit = self.build_commitment(closer)
        result = chain.submit(commit)
        if not result.ok:
            raise AssertionError(f"commitment rejected: {result.reason}")
        self.status = "force-closing"
        index = {hid: 2 + i for i, hid in enumerate(self.pending_htlcs)}
        self.published = PublishedCommitment(closer, commit.id, index)
        return commit

    def claimable_successes(self, claimer: str, height: int,
                            rbf_signal: bool | None = None) -> dict[int, Transaction]:
        """Success-local claims for every pending incoming HTLC whose
        preimage the claimer knows, one cohort per run of consecutive HTLC
        ids of one amount on consecutive commitment outputs, keyed by the
        run's first HTLC id: what build_htlc_claims builds for each run."""
        index = self.published.htlc_index if self.published is not None else {}
        runs: dict[int, int] = {}
        first = end = amount = None
        for hid, htlc in self.pending_htlcs.items():
            if htlc.state != "pending" or htlc.offerer == claimer \
                    or claimer not in htlc.preimage_known_by:
                continue
            if hid == end and htlc.amount == amount and \
                    index.get(hid, hid) == index.get(first, first) + hid - first:
                runs[first] += 1
            else:
                first, amount = hid, htlc.amount
                runs[first] = 1
            end = hid + 1
        return {first: self.build_htlc_claims(claimer, first, count, "success-local",
                                              height, rbf_signal=rbf_signal)
                for first, count in runs.items()}

    def build_htlc_claim(self, claimer: str, htlc_id: int, kind: str, height: int,
                         fee_override: int | None = None, rbf_signal: bool | None = None,
                         extra_input: OutputRef | None = None, extra_value: int = 0,
                         anchor: bool = False) -> Transaction:
        return self.build_htlc_claims(claimer, htlc_id, 1, kind, height, fee_override,
                                      rbf_signal, extra_input, extra_value, anchor)

    def build_htlc_claims(self, claimer: str, htlc_id: int, count: int, kind: str,
                          height: int, fee_override: int | None = None,
                          rbf_signal: bool | None = None, extra_input: OutputRef | None = None,
                          extra_value: int = 0, anchor: bool = False) -> Transaction:
        """One cohort of `kind` claims on HTLCs htlc_id .. htlc_id + count - 1,
        which must share an amount and sit on consecutive commitment
        outputs: member m claims HTLC htlc_id + m and, given extra_input, also
        spends (extra_input.txid, extra_input.index + m).  Raises what
        building the first failing member alone would."""
        if kind not in CLAIM_KINDS:
            raise ChannelError(f"wrong-claim: unknown claim kind {kind!r}")
        published = self.published
        if published is None:
            raise ChannelError(f"no-commitment: {self.channel_id} has published none")
        ids = range(htlc_id, htlc_id + count)
        htlcs = list(map(self.all_htlcs.get, ids))
        vouts = list(map(published.htlc_index.get, ids))
        missing = [hid for hid, h, v in zip(ids, htlcs, vouts)
                   if h is None or v is None or h.state != "pending"]
        if missing:
            raise ChannelError(f"not-pending: {missing[0]}")
        amounts = set(map(_amount_of, htlcs))
        if len(amounts) != 1 or vouts != list(range(vouts[0], vouts[0] + count)):
            raise ValueError(f"HTLCs {htlc_id}..{htlc_id + count - 1} differ in amount "
                             "or are not on consecutive outputs")
        success = kind.startswith("success")
        local = kind.endswith("local")
        if local != (published.holder == claimer):
            raise ChannelError(
                f"wrong-claim: {kind} does not match published commitment holder")
        offerers = set(map(_offerer_of, htlcs))
        if success:
            if claimer in offerers:
                raise ChannelError("wrong-claim: success claims redeem incoming HTLCs only")
            known = list(map(contains, map(_known_by, htlcs), repeat(claimer)))
            if not all(known):
                raise ChannelError(
                    f"preimage-missing: {htlcs[known.index(False)].payment_hash}")
        else:
            if offerers != {claimer}:
                raise ChannelError("wrong-claim: timeout claims refund the offerer only")
            expiry = max(map(_expiry_of, htlcs))
            if height < expiry:
                expiry = next(e for e in map(_expiry_of, htlcs) if height < e)
                raise ChannelError(f"premature-timeout: height {height} < expiry {expiry}")
        weight = self.weights.htlc_success if success else self.weights.htlc_timeout
        if local and not anchor:
            # Both signatures commit to this exact transaction, so neither the
            # fee nor the input set can change afterwards.  (An anchor-style
            # commitment signs its claims with flags that leave room for the
            # claimer to add an input and raise the fee.)
            if fee_override is not None:
                raise ChannelError("pre-signed: claim fee is fixed by both signatures")
            if extra_input is not None:
                raise ChannelError("pre-signed: claim cannot gain inputs")
        fee = fee_for_weight(self.feerate, weight) if fee_override is None else fee_override
        # Claims both parties sign signal replaceability unless told otherwise.
        rbf = local if rbf_signal is None else bool(rbf_signal)
        inputs = [OutputRef(published.txid, vouts[0])]
        total_in = amounts.pop() + extra_value
        if extra_input is not None:
            inputs.append(extra_input)
            weight += ANCHOR_INPUT_WEIGHT
        fee = min(fee, total_in)
        self._build_count += 1
        return Transaction(
            f"{self.channel_id}-{_KIND_CODE[kind]}{self._build_count}-h{htlc_id}",
            tuple(inputs), ((0, 1, TxOutput(total_in - fee, claimer, "claim")),),
            weight, fee, rbf, count)

    def mark_claimed(self, htlc_id: int, by_timeout: bool, count: int = 1) -> None:
        """Record the on-chain outcome of contested HTLCs htlc_id ..
        htlc_id + count - 1 of a force-closed channel (each exactly once)."""
        if self.published is None:
            raise ChannelError(f"no-commitment: {self.channel_id} has published none")
        state = "claimed-by-timeout" if by_timeout else "claimed-by-success"
        for hid in range(htlc_id, htlc_id + count):
            htlc = self.all_htlcs[hid]
            if htlc.state != "pending":
                raise AssertionError(f"HTLC {hid} already terminal: {htlc.state}")
            htlc.state = state


def open_channel(chain: ChainState, channel_id: str, initiator: str, peer: str,
                 funding: int, initiator_params: ChannelParams,
                 peer_params: ChannelParams,
                 weights: WeightSchedule | None = None) -> Channel:
    """Fund a channel from one grant to the initiator of exactly `funding`
    plus the funding fee, spent whole.  The funding transaction is submitted
    here; it confirms with the next mined block."""
    if funding <= 0:
        raise ValueError("funding must be positive")
    fee = fee_for_weight(initiator_params.channel_feerate, FUNDING_TX_WEIGHT)
    tx = Transaction(f"{channel_id}-fund", (chain.grant(initiator, funding + fee),),
                     ((0, 1, TxOutput(funding, channel_id, "funding")),), FUNDING_TX_WEIGHT, fee)
    result = chain.submit(tx)
    if not result.ok:
        raise AssertionError(f"funding tx rejected: {result.reason}")
    return Channel(channel_id, initiator, peer, funding, OutputRef(tx.id, 0),
                   {initiator: initiator_params, peer: peer_params},
                   weights or WeightSchedule())
