"""Payment-channel model: balances, HTLCs, commitment transactions and the
four HTLC claim transactions.

A channel holds its HTLCs in a run map (htlcrace.runs) from HTLC id to
Htlcs: amount, expiry, offerer, who knows the preimages and state, alike for
a run of consecutive ids whose preimages are consecutive integers.  Adding a
batch puts one run; settling, revealing and recording claims restate id
ranges, so they cost per run, not per HTLC.

The asymmetry the whole simulation turns on lives in build_htlc_claim: claims
spending the *claimer's own* published commitment (success-local /
timeout-local) carry both parties' signatures, so their fee is frozen at the
channel feerate and cannot be overridden after the fact.  Claims spending the
*counterparty's* commitment (success-remote / timeout-remote) need only the
claimer's signature, so that party may attach any fee it likes.

Weights follow the standard BOLT-3 estimates; second-stage HTLC transactions
are collapsed into single direct claims.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from . import runs
from .chain import ChainState, OutputRef, Transaction, TxOutput

COMMITMENT_BASE_WEIGHT = 724
HTLC_OUTPUT_WEIGHT = 172
HTLC_SUCCESS_WEIGHT = 703
HTLC_TIMEOUT_WEIGHT = 663
FUNDING_TX_WEIGHT = 800
ANCHOR_INPUT_WEIGHT = 280  # the wallet input an anchor-style claim may add

_KIND_CODE = {"success-local": "sl", "success-remote": "sr",
              "timeout-local": "tl", "timeout-remote": "tr"}
CLAIM_KINDS = tuple(_KIND_CODE)


def _settled(htlcs) -> bool:
    return htlcs.state == "fulfilled-offchain"


class ChannelError(Exception):
    """A channel operation refused; the message starts with a kebab-case
    reason code, e.g. "too-many-htlcs: 483 already pending"."""


def fee_for_weight(feerate: int, weight: int) -> int:
    """Satoshi fee at `feerate` sat/kWU, rounded down."""
    return feerate * weight // 1000


@dataclass(frozen=True, slots=True)
class WeightSchedule:
    commitment_base: int = COMMITMENT_BASE_WEIGHT
    per_htlc_output: int = HTLC_OUTPUT_WEIGHT
    htlc_success: int = HTLC_SUCCESS_WEIGHT
    htlc_timeout: int = HTLC_TIMEOUT_WEIGHT

    def __post_init__(self):
        for name in ("commitment_base", "per_htlc_output", "htlc_success", "htlc_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def commitment_weight(self, htlc_count: int) -> int:
        return self.commitment_base + self.per_htlc_output * htlc_count


@dataclass(frozen=True, slots=True)
class ChannelParams:
    """Per-side channel policy.  Deltas are in blocks: htlc_expiry_delta is
    the minimum slack this side demands between accepting an HTLC and its
    expiry; commitment_broadcast_delta is how many blocks before the earliest
    expiry it unilaterally closes."""
    max_accepted_htlcs: int = 483
    max_htlc_value_in_flight: int | None = None
    channel_feerate: int = 2000
    commitment_broadcast_delta: int = 10
    htlc_expiry_delta: int = 40
    wait_for_commit_confirmation: bool = True
    htlc_minimum: int = 0

    def __post_init__(self):
        if self.max_accepted_htlcs < 1:
            raise ValueError("max_accepted_htlcs must be at least 1")
        if self.channel_feerate <= 0:
            raise ValueError("channel_feerate must be positive")
        if not 0 < self.commitment_broadcast_delta <= self.htlc_expiry_delta:
            raise ValueError("commitment_broadcast_delta must be in (0, htlc_expiry_delta]")
        if self.max_htlc_value_in_flight is not None and self.max_htlc_value_in_flight < 0:
            raise ValueError("max_htlc_value_in_flight must be non-negative")
        if self.htlc_minimum < 0:
            raise ValueError("htlc_minimum must be non-negative")


# Defaults observed in the three mainstream node implementations.
PROFILES: dict[str, ChannelParams] = {
    "lnd": ChannelParams(),  # ChannelParams' defaults are lnd's
    "c-lightning": ChannelParams(max_accepted_htlcs=30, commitment_broadcast_delta=7,
                                 htlc_expiry_delta=14),
    "eclair": ChannelParams(max_accepted_htlcs=30, commitment_broadcast_delta=6,
                            htlc_expiry_delta=144, wait_for_commit_confirmation=False),
}


def profile_params(profile: str | ChannelParams, **overrides) -> ChannelParams:
    """The named profile, or `profile` itself if it is already parameters,
    with `overrides` applied; with no overrides, that very object."""
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ValueError(f"unknown node profile {profile!r}; know {sorted(PROFILES)}")
        profile = PROFILES[profile]
    return replace(profile, **overrides) if overrides else profile


class Htlcs(NamedTuple):
    """What a run of HTLCs share: an HTLC's preimage is its id plus
    preimage_offset, and its state pending, fulfilled-offchain,
    claimed-by-success or claimed-by-timeout."""
    preimage_offset: int
    amount: int
    expiry_height: int
    offerer: str
    known_by: frozenset[str]  # who knows the preimages
    state: str = "pending"


@dataclass(frozen=True, slots=True)
class PublishedCommitment:
    holder: str
    txid: str


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
        self.balances = {self.initiator: self.funding_value, self.peer: 0}
        self.runs: list[tuple[int, int, Htlcs]] = []  # every HTLC added, by id
        self.next_htlc_id = 0
        self.published: PublishedCommitment | None = None
        self._build_count = 0

    def other(self, party: str) -> str:
        return self.peer if party == self.initiator else self.initiator

    @property
    def pending_count(self) -> int:
        """HTLCs not settled off-chain: the HTLC outputs of a commitment."""
        return sum(hi - lo for lo, hi, h in self.runs if not _settled(h))

    def commitment_fee(self, htlc_count: int) -> int:
        return fee_for_weight(self.feerate, self.weights.commitment_weight(htlc_count))

    # -- off-chain operations ---------------------------------------------

    def add_htlc(self, offerer: str, amount: int, preimage: int, expiry_height: int,
                 known_to=()) -> int:
        return self.add_htlcs(offerer, amount, range(preimage, preimage + 1),
                              expiry_height, known_to).start

    def add_htlcs(self, offerer: str, amount: int, preimages: range,
                  expiry_height: int, known_to=()) -> range:
        """Offer one HTLC of `amount` per preimage in `preimages` (step 1), in
        order, as one run; the ids they get.  Either all are added or none:
        if adding them one at a time would fail, this raises what the first
        failing add would raise and changes nothing."""
        if self.published is not None:
            raise ChannelError(f"channel-not-open: {self.channel_id} is closing")
        first = self.next_htlc_id
        count = len(preimages)
        if count == 0:
            return range(first, first)
        # Pending count, in-flight value and commitment fee only grow with
        # each add and the offerer's balance only shrinks (amount >= minimum
        # >= 0), so if the checks pass for the last add they pass for all.
        try:
            self._check_add(offerer, amount, count - 1)
        except ChannelError:
            for k in range(count - 1):
                self._check_add(offerer, amount, k)  # the first failing add
            raise

        self.next_htlc_id = first + count
        runs.put(self.runs, first, first + count, Htlcs(
            preimages.start - first, amount, expiry_height, offerer, frozenset(known_to)))
        self.balances[offerer] -= amount * count
        return range(first, first + count)

    def _check_add(self, offerer: str, amount: int, k: int) -> None:
        """Raise if adding one more HTLC of `amount` would be refused after
        `k` such HTLCs had already been added."""
        receiver = self.other(offerer)
        accept = self.params[receiver]
        if amount < accept.htlc_minimum:
            raise ChannelError(f"below-minimum: {amount} < {accept.htlc_minimum}")
        offered = [(hi - lo, h.amount) for lo, hi, h in self.runs
                   if h.offerer == offerer and not _settled(h)]
        if sum(n for n, _ in offered) + k >= accept.max_accepted_htlcs:
            raise ChannelError(f"too-many-htlcs: {accept.max_accepted_htlcs} already pending")
        cap = accept.max_htlc_value_in_flight
        if cap is not None and \
                sum(n * value for n, value in offered) + (k + 1) * amount > cap:
            raise ChannelError(f"in-flight-exceeded: in-flight cap {cap}")
        new_fee = self.commitment_fee(self.pending_count + k + 1)
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

    def fulfill_htlc_offchain(self, htlc_id: int, preimage: int) -> None:
        """Receiver redeems with the preimage, and the offerer co-signs the
        updated commitment: the HTLC's amount moves to the receiver."""
        self.fulfill_htlcs_offchain(htlc_id, range(preimage, preimage + 1))

    def fulfill_htlcs_offchain(self, htlc_id: int, preimages: range) -> None:
        """fulfill_htlc_offchain for HTLCs htlc_id, htlc_id + 1, ... with
        `preimages` (step 1) in order, stopping at the first that raises."""
        self._release(htlc_id, preimages, settle=True)

    def reveal_preimages(self, htlc_id: int, preimages: range) -> None:
        """The one-way half of settlement, for HTLCs htlc_id, htlc_id + 1, ...
        with `preimages` (step 1) in order: each reaches both parties.  Unlike
        fulfilling, it needs no cooperation: a caller models an offerer that
        will not co-sign by revealing without ever fulfilling."""
        self._release(htlc_id, preimages, settle=False)

    def _release(self, lo: int, preimages: range, settle: bool) -> None:
        """Reveal, and if `settle` also fulfil, HTLCs lo, lo + 1, ... one at a
        time: what happens before the first that raises happens, then it
        raises."""
        if self.published is not None:
            raise ChannelError(f"channel-not-open: {self.channel_id} is closing")
        end, offset = lo + len(preimages), preimages.start - lo
        hi, stop = self._scan(lo, end, lambda h: _settled(h) or h.preimage_offset != offset)
        both = {self.initiator, self.peer}
        runs.restate(self.runs, lo, hi, lambda h: h._replace(known_by=h.known_by | both))
        if settle:
            for a, b, h in runs.overlap(self.runs, lo, hi):
                self.balances[self.other(h.offerer)] += h.amount * (b - a)
            runs.restate(self.runs, lo, hi, lambda h: h._replace(state="fulfilled-offchain"))
        if stop is not None and not _settled(stop):
            raise ChannelError(f"unknown-preimage: HTLC {hi}")
        if hi < end:
            raise ChannelError(f"not-pending: {hi}")

    def _scan(self, lo: int, hi: int, stop_at) -> tuple[int, Htlcs | None]:
        """The first of HTLC ids lo .. hi - 1 never added or whose Htlcs meet
        `stop_at`, with those Htlcs (None if never added); else (hi, None)."""
        if lo < 0:
            return min(lo, hi), None
        for a, _, h in runs.overlap(self.runs, lo, hi):
            if stop_at(h):
                return a, h
        return min(hi, max(lo, self.next_htlc_id)), None

    def update_fee(self, proposer: str, new_feerate: int, oracle_estimate: int) -> None:
        """Initiator-only feerate renegotiation.  The counterparty accepts
        any proposal within a tenth of its own fee estimate."""
        if self.published is not None:
            raise ChannelError(f"channel-not-open: {self.channel_id} is closing")
        if proposer != self.initiator:
            raise ChannelError(f"not-initiator: {proposer} did not open {self.channel_id}")
        if new_feerate <= 0:
            raise ChannelError(f"invalid-feerate: {new_feerate}")
        if 10 * abs(new_feerate - oracle_estimate) > oracle_estimate:
            raise ChannelError(
                f"unreasonable-feerate: {new_feerate} strays from estimate {oracle_estimate}")
        new_fee = fee_for_weight(new_feerate, self.weights.commitment_weight(self.pending_count))
        if self.balances[self.initiator] < new_fee:
            raise ChannelError(f"cannot-afford-fee: commitment fee {new_fee}")
        self.feerate = new_feerate

    # -- on-chain transactions ---------------------------------------------

    def build_commitment(self, holder: str) -> Transaction:
        """Holder's current commitment: to_local, to_remote, then one output
        per pending HTLC in id order, as one output run per stretch of alike
        HTLC outputs.  Fee comes out of the initiator's output (guaranteed
        non-negative by add_htlc)."""
        other = self.other(holder)
        weight = self.weights.commitment_weight(self.pending_count)
        fee = fee_for_weight(self.feerate, weight)
        local = self.balances[holder] - (fee if holder == self.initiator else 0)
        remote = self.balances[other] - (fee if other == self.initiator else 0)
        if local < 0 or remote < 0:
            raise ChannelError(
                "insufficient-balance: initiator balance cannot cover commitment fee")
        outputs = [(0, 1, TxOutput(local, holder, "to_local")),
                   (1, 2, TxOutput(remote, other, "to_remote"))]
        for lo, hi, h in self.runs:
            if not _settled(h):
                at = outputs[-1][1]
                runs.put(outputs, at, at + hi - lo, TxOutput(h.amount, self.channel_id, "htlc"))
        self._build_count += 1
        return Transaction(
            id=f"{self.channel_id}-commit{self._build_count}-{holder}",
            inputs=(self.funding_outpoint,),
            outputs=tuple(outputs),
            weight=weight,
            fee=fee,
            rbf_signal=False,
        )

    def force_close(self, chain: ChainState, closer: str) -> Transaction:
        """Publish the closer's commitment.  Its HTLC claims are the
        caller's to build and submit, when the closer's profile says."""
        if self.published is not None:
            raise ChannelError(f"already-closing: {self.channel_id} is closing")
        commit = self.build_commitment(closer)
        result = chain.submit(commit)
        if not result.ok:
            raise AssertionError(f"commitment rejected: {result.reason}")
        self.published = PublishedCommitment(closer, commit.id)
        return commit

    def claimable_successes(self, claimer: str, height: int,
                            rbf_signal: bool | None = None) -> dict[int, Transaction]:
        """Success-local claims for every pending incoming HTLC whose
        preimage the claimer knows, one cohort per stretch of consecutive
        HTLC ids of one amount, keyed by the stretch's first HTLC id: what
        build_htlc_claims builds for each stretch."""
        stretches: list[tuple[int, int, int]] = []  # a run map of amounts
        for lo, hi, h in self.runs:
            if h.state == "pending" and h.offerer != claimer and claimer in h.known_by:
                runs.put(stretches, lo, hi, h.amount)
        return {lo: self.build_htlc_claims(claimer, lo, hi - lo, "success-local",
                                           height, rbf_signal=rbf_signal)
                for lo, hi, _ in stretches}

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
        end = htlc_id + count
        # Nothing settles once closing: the HTLCs not settled are those on
        # the commitment, and a stretch of them sits on consecutive outputs.
        # Those already claimed on chain have no output left to claim.
        missing, _ = self._scan(htlc_id, end, lambda h: h.state != "pending")
        if missing < end:
            raise ChannelError(f"not-pending: {missing}")
        claimed = [h for _, _, h in runs.overlap(self.runs, htlc_id, end)]
        if len({h.amount for h in claimed}) != 1:
            raise ValueError(f"HTLCs {htlc_id}..{end - 1} differ in amount "
                             "or are not on consecutive outputs")
        success = kind.startswith("success")
        local = kind.endswith("local")
        if local != (published.holder == claimer):
            raise ChannelError(
                f"wrong-claim: {kind} does not match published commitment holder")
        offerers = {h.offerer for h in claimed}
        if success:
            if claimer in offerers:
                raise ChannelError("wrong-claim: success claims redeem incoming HTLCs only")
            unknown, _ = self._scan(htlc_id, end, lambda h: claimer not in h.known_by)
            if unknown < end:
                raise ChannelError(f"preimage-missing: HTLC {unknown}")
        else:
            if offerers != {claimer}:
                raise ChannelError("wrong-claim: timeout claims refund the offerer only")
            late = [h.expiry_height for h in claimed if height < h.expiry_height]
            if late:
                raise ChannelError(f"premature-timeout: height {height} < expiry {late[0]}")
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
        # HTLC outputs follow to_local and to_remote in id order.
        vout = 2 + sum(b - a for a, b, h in runs.overlap(self.runs, 0, htlc_id) if not _settled(h))
        inputs = [OutputRef(published.txid, vout)]
        total_in = claimed[0].amount + extra_value
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
        htlc_id + count - 1 of a force-closed channel, each once: those before
        the first not pending are marked, and then that one raises."""
        if self.published is None:
            raise ChannelError(f"no-commitment: {self.channel_id} has published none")
        end = htlc_id + count
        stop, h = self._scan(htlc_id, end, lambda h: h.state != "pending")
        state = "claimed-by-timeout" if by_timeout else "claimed-by-success"
        runs.restate(self.runs, htlc_id, stop, lambda h: h._replace(state=state))
        if stop < end:
            if h is None:
                raise KeyError(stop)
            raise AssertionError(f"HTLC {stop} already terminal: {h.state}")


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
