"""End-to-end attack simulation.

The adversary controls both endpoints of every payment: a *source* node that
opens a channel to each victim, and a *target* node the victims forward to.
The run proceeds in four phases:

  I.   open source->victim channels (attacker-funded) and victim->target
       channels (victim-funded), optionally sitting out a feerate-
       minimization window first;
  II.  load every source->victim channel with the maximum number of HTLCs it
       will carry, all sized identically and all expiring at the same height;
  III. the target settles every forwarded HTLC off-chain -- handing the
       victims the preimages -- while the source goes silent, which the
       engine models by never settling an incoming channel, so the incoming
       HTLCs can only be redeemed on-chain;
  IV.  victims force-close when expiry minus their broadcast delta arrives
       and race to confirm success claims; at the expiry height the attacker
       broadcasts single-signer timeout claims, once, replacing any victim
       claim still in the mempool that it can outbid.

Accounting: an HTLC is stolen when the attacker's timeout claim confirms, or
-- if the chain stalls -- when at quiescence the attacker holds the only live
claim on it: victims submit nothing from the expiry height on, so nothing
can displace it.
"""
from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

from . import runs
from .chain import (
    ChainState, DEFAULT_BLOCKMAXWEIGHT, MAX_TX_WEIGHT, OutputRef, REJECT_NOT_REPLACEABLE,
    Transaction, TxOutput, replacement_floor,
)
from .channel import (
    ANCHOR_INPUT_WEIGHT, FUNDING_TX_WEIGHT, Channel, ChannelParams, WeightSchedule,
    fee_for_weight, open_channel, profile_params,
)
from .fees import ConfigError, FeerateSeries, parse_strategy, running_minimum

SOURCE = "attacker-source"
TARGET = "attacker-target"
CPFP_CHILD_WEIGHT = 400
CPFP_CHILD_FEERATE = 25_000


def compute_htlc_value(balance: int, max_in_flight: int | None,
                       max_htlcs: int, commitment_fee: int) -> int:
    """Largest uniform HTLC amount that lets `max_htlcs` payments fit in the
    offerer's balance net of the commitment fee (and under the receiver's
    in-flight cap)."""
    if max_htlcs < 1:
        raise ConfigError("max_htlcs must be at least 1")
    if balance <= commitment_fee:
        raise ConfigError(
            f"balance {balance} does not cover commitment fee {commitment_fee}")
    spendable = balance - commitment_fee
    if max_in_flight is not None:
        spendable = min(spendable, max_in_flight)
    return spendable // max_htlcs


@dataclass(frozen=True)
class TrafficSpec:
    """Synthetic competing traffic: `txs_per_tick` fillers per tick with
    weight and feerate drawn uniformly from the given ranges, active on
    heights in [start_height, end_height)."""
    txs_per_tick: int = 0
    weight_low: int = 500
    weight_high: int = 20_000
    feerate_low: int = 500
    feerate_high: int = 20_000
    start_height: int = 0
    end_height: int | None = None


@dataclass
class AttackConfig:
    num_victim_channels: int
    victim_profile: str | ChannelParams = "lnd"
    htlc_expiry_height: int = 44
    channel_funding: int = 10_000_000
    channel_feerate: int = 2_000
    attacker_fee_bump_increment: int = 1
    blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT
    weights: WeightSchedule = field(default_factory=WeightSchedule)
    seed: int = 0
    min_htlc_amount: int = 1
    feerate_strategy: str = "naive"
    feerate_series: FeerateSeries | None = None
    background_traffic: TrafficSpec | None = None
    preimage_release: str = "batch"  # batch | staggered (one channel per tick)
    # Victim-side behavior knobs; a mitigation policy may switch these on.
    victim_claims_replaceable: bool = True
    dynamic_delta: tuple[Fraction | float, int] | None = None  # (blocks per pending HTLC, cap)
    anchor_mode: bool = False
    victim_bump_feerate: int = 25_000
    victim_bump_offset: int = 2  # the anchor bump is due this many blocks before expiry
    cpfp_demo: bool = False
    victim_first_at_expiry: bool = False  # the victims' bids at expiry go before the attacker's
    drain_cap: int = 300

    def victim_params(self) -> ChannelParams:
        return profile_params(self.victim_profile)


@dataclass(frozen=True, slots=True)
class TraceRow:
    height: int
    weight_used: int
    victim_claims_confirmed: int
    attacker_claims_confirmed: int


@dataclass(frozen=True)
class AttackReport:
    num_victim_channels: int
    htlcs_per_channel: int
    htlc_value: int
    total_htlcs: int
    stolen_htlcs: int
    victim_claimed_htlcs: int
    unresolved_htlcs: int
    stolen_value: int
    victim_fees_paid: int
    attacker_cost: int
    launch_feerate: int
    end_height: int
    per_channel_stolen: tuple[int, ...]
    trace: tuple[TraceRow, ...]


class _Span(NamedTuple):
    """Where an unresolved HTLC stands in the race: the pending claim cohort
    on it and whose it is, and whether the victim bumped its fee (`kid`: its
    CPFP child)."""
    claim: str = ""
    side: str = ""  # "" | "victim" | "attacker"
    bumped: bool = False
    kid: str = ""


class _Plan(NamedTuple):
    """Set-up as the config decides it: the block count that confirms every
    funding, the feerate the channels open at, the minimize window's dips
    (height -> feerate), the launch height and the HTLC value."""
    funded: int
    feerate: int
    dips: dict[int, int]
    launch: int
    htlc_value: int


def validate_config(cfg: AttackConfig) -> _Plan:
    """Raise ConfigError for a config the run would refuse, set-up included;
    otherwise return its set-up plan (a _Plan), which the run carries out."""
    if cfg.num_victim_channels < 1:
        raise ConfigError("num_victim_channels must be at least 1")
    if cfg.channel_funding <= 0:
        raise ConfigError("channel_funding must be positive")
    if cfg.channel_feerate <= 0:
        raise ConfigError("channel_feerate must be positive")
    if cfg.attacker_fee_bump_increment < 1:
        raise ConfigError("attacker_fee_bump_increment must be at least 1")
    if cfg.blockmaxweight < FUNDING_TX_WEIGHT:  # set-up could never confirm the funding
        raise ConfigError(f"blockmaxweight must be at least {FUNDING_TX_WEIGHT}, "
                          "the funding transaction's weight")
    if cfg.min_htlc_amount < 0:
        raise ConfigError("min_htlc_amount must be non-negative")
    if cfg.drain_cap < 0:
        raise ConfigError("drain_cap must be non-negative")
    if cfg.preimage_release not in ("batch", "staggered"):
        raise ConfigError(f"unknown preimage_release {cfg.preimage_release!r}")
    kind, duration = parse_strategy(cfg.feerate_strategy)
    series = cfg.feerate_series
    if kind == "minimize" and series is None:
        raise ConfigError("minimize strategy requires a feerate_series")
    if series is not None and series.first_height > 0:
        raise ConfigError(f"feerate series starts at height {series.first_height}, "
                          "after the channels open at height 0")
    if cfg.anchor_mode and not cfg.victim_claims_replaceable:
        raise ConfigError("anchor_mode needs replaceable victim claims to re-issue them")
    if cfg.dynamic_delta is not None:
        per_htlc, cap = cfg.dynamic_delta
        if not (per_htlc >= 0 and cap >= 1):  # NaN fails too
            raise ConfigError("dynamic_delta needs slope >= 0 and cap >= 1")
    spec = cfg.background_traffic
    if spec is not None and not (0 < spec.weight_low <= spec.weight_high <= MAX_TX_WEIGHT
                                 and 0 <= spec.feerate_low <= spec.feerate_high
                                 and spec.txs_per_tick >= 0
                                 and (spec.end_height is None
                                      or spec.start_height <= spec.end_height)):
        raise ConfigError(f"traffic needs 0 < weight_low <= weight_high <= {MAX_TX_WEIGHT}, "
                          "0 <= feerate_low <= feerate_high, txs_per_tick >= 0 and "
                          "end_height >= start_height")
    try:
        victim = cfg.victim_params()
    except ValueError as exc:  # an unknown profile name
        raise ConfigError(str(exc)) from exc
    w = cfg.weights
    count = victim.max_accepted_htlcs
    heaviest = max(w.commitment_weight(count), w.htlc_timeout,
                   w.htlc_success + (ANCHOR_INPUT_WEIGHT if cfg.anchor_mode else 0))
    if heaviest > MAX_TX_WEIGHT:
        raise ConfigError(f"the run would build a transaction of weight {heaviest}, "
                          f"over MAX_TX_WEIGHT {MAX_TX_WEIGHT}")
    # Only the 2n fundings are pending at height 0, all of one weight and
    # feerate, so each block confirms as many as fit.  Naive has no window.
    n = cfg.num_victim_channels
    funded = -(-2 * n // (cfg.blockmaxweight // FUNDING_TX_WEIGHT))
    launch = funded + duration
    feerate = cfg.channel_feerate if series is None else series.estimate_at(0)
    dips = dict(running_minimum(series, feerate, funded, launch))
    if dips:  # no HTLC is loaded yet; dips only fall, so the first binds
        dip = next(iter(dips.values()))
        fee = fee_for_weight(dip, w.commitment_weight(0))
        if cfg.channel_funding < fee:
            raise ConfigError(f"channel_funding {cfg.channel_funding} cannot pay "
                              f"the commitment fee {fee} at feerate {dip}")
    # The victims' expiry delta after launch, and a block per staggered release.
    needed = victim.htlc_expiry_delta + 1 + (n if cfg.preimage_release == "staggered" else 0)
    if cfg.htlc_expiry_height - launch < needed:
        raise ConfigError(
            f"htlc_expiry_height {cfg.htlc_expiry_height} leaves less than {needed} "
            f"blocks after setup ends at height {launch}")
    if cfg.anchor_mode and not 0 <= cfg.victim_bump_offset <= cfg.htlc_expiry_height - launch:
        raise ConfigError(f"victim_bump_offset {cfg.victim_bump_offset} puts the anchor bump "
                          f"outside the race, heights {launch} to {cfg.htlc_expiry_height}")
    value = compute_htlc_value(
        cfg.channel_funding, victim.max_htlc_value_in_flight, count,
        fee_for_weight(min(dips.values(), default=feerate), w.commitment_weight(count)))
    floor, which = max((cfg.min_htlc_amount, "configured minimum"),
                       (victim.htlc_minimum, "victim's htlc_minimum"))
    if value < floor:
        raise ConfigError(f"HTLC value {value} below {which} {floor}")
    return _Plan(funded, feerate, dips, launch, value)


@contextmanager
def _cyclic_gc_paused():
    """A run allocates millions of long-lived objects (claims, UTXO
    entries) and no reference cycles, so the cyclic collector would traverse
    them again and again and free nothing: about a third of a run's time.
    It is paused for the run; reference counting frees whatever the run
    drops, and the run's own objects are gone before it resumes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_attack(cfg: AttackConfig) -> AttackReport:
    with _cyclic_gc_paused():
        return _Run(cfg).execute()


class _Run:
    def __init__(self, cfg: AttackConfig):
        self.cfg = cfg
        self.plan = validate_config(cfg)
        self.rng = random.Random(cfg.seed)
        self.chain = ChainState(cfg.blockmaxweight)
        self.weights = cfg.weights
        self.victim_params = replace(cfg.victim_params(), channel_feerate=self.plan.feerate)
        self.expiry = cfg.htlc_expiry_height
        self.channels: list[tuple[Channel, Channel, str]] = []  # (incoming, outgoing, victim)
        self.meta: dict[str, tuple[str, int, int]] = {}  # txid -> (kind, channel, first htlc id)
        # Per channel: a run map from unresolved HTLC ids to _Spans.
        self.spans: list[list[tuple[int, int, _Span]]] = []
        # The race's schedule: (height, stage) -> channels, where stage 0
        # releases a channel's preimages, 1 closes it, 2 sends its claims and
        # 3 on are its bids, in the order _race gives them.
        self.due: dict[tuple[int, int], list[int]] = {}
        self.victim_fees = 0
        self.attacker_cost = 0
        self.trace: list[TraceRow] = []

    # -- phases ------------------------------------------------------------

    def execute(self) -> AttackReport:
        self._open_channels()
        self._minimize_feerate()
        self._load_htlcs()
        self._race()
        self.chain.audit()   # conservation + double-spend replay, every run
        return self._classify()

    def _open_channels(self) -> None:
        cfg = self.cfg
        victim = self.victim_params
        feerate = victim.channel_feerate
        source_params = ChannelParams(channel_feerate=feerate)
        target_params = ChannelParams(
            max_accepted_htlcs=max(1000, victim.max_accepted_htlcs),
            channel_feerate=feerate, commitment_broadcast_delta=1, htlc_expiry_delta=1)
        for i in range(cfg.num_victim_channels):
            name = f"victim{i:03d}"
            ch_in = open_channel(self.chain, f"a{i:03d}", SOURCE, name, cfg.channel_funding,
                                 source_params, victim, self.weights)
            ch_out = open_channel(self.chain, f"b{i:03d}", name, TARGET, cfg.channel_funding,
                                  victim, target_params, self.weights)
            self.meta[ch_in.funding_outpoint.txid] = ("fund", i, -1)
            self.channels.append((ch_in, ch_out, name))
        for _ in range(self.plan.funded):
            self._mine()
        if len(self.chain.mempool):
            raise AssertionError("a funding transaction is unconfirmed after set-up's blocks")

    def _minimize_feerate(self) -> None:
        for h in range(self.plan.funded, self.plan.launch):  # one block per height
            feerate = self.plan.dips.get(h)
            if feerate is not None:
                # Every node watches the same fee market, so the victims
                # renegotiate their outgoing channels in step with the
                # attacker's proposals on the incoming ones.
                for ch_in, ch_out, name in self.channels:
                    ch_in.update_fee(SOURCE, feerate, feerate)
                    ch_out.update_fee(name, feerate, feerate)
            self._background_pass()
            self._mine()

    def _load_htlcs(self) -> None:
        victim = self.victim_params
        out_expiry = self.expiry - victim.htlc_expiry_delta
        value = self.plan.htlc_value
        for i, (ch_in, ch_out, name) in enumerate(self.channels):
            ids = ch_in.add_htlcs(SOURCE, value, self._preimages(i), self.expiry)
            ch_out.add_htlcs(name, value, self._preimages(i), out_expiry, known_to=(TARGET,))
            self.spans.append([(ids.start, ids.stop, _Span())])

    def _release_channel(self, i: int) -> None:
        """Phase III for one channel: the target settles the forwarded HTLCs,
        revealing every preimage to the victim, while the source has gone
        silent.  The engine models that silence by never settling ch_in, so
        the victim's incoming HTLCs can only be redeemed on-chain."""
        ch_in, ch_out, name = self.channels[i]
        # Both were loaded fresh: a payment's HTLCs have one id, from 0.
        ch_out.fulfill_htlcs_offchain(0, self._preimages(i))
        # The victim now holds the preimages of the matching incoming HTLCs.
        ch_in.reveal_preimages(0, self._preimages(i))
        # Nothing settles on the incoming channel from here on, so its delta,
        # dynamic or not, and with it its close height, are fixed now.
        at = max(self.expiry - self._victim_delta(ch_in), self.chain.height)
        self.due.setdefault((at, 1), []).append(i)

    def _preimages(self, i: int) -> range:
        """Channel pair i's payment preimages, one per HTLC, each shared by
        the incoming HTLC and the outgoing one it is forwarded as."""
        count = self.victim_params.max_accepted_htlcs
        return range(i * count, (i + 1) * count)

    # -- phase IV ------------------------------------------------------------

    def _race(self) -> None:
        cfg = self.cfg
        expiry = self.expiry
        mempool = self.chain.mempool
        # Each bid is due on every channel at its own height: the attacker's
        # and the CPFP child's at expiry, the anchor bump victim_bump_offset
        # blocks before.  Bids due at one height go in stage order: the
        # attacker's first, or last when victim_first_at_expiry.
        bids = [(expiry, self._attacker_pass)]
        if cfg.anchor_mode:
            bids.append((expiry - cfg.victim_bump_offset, self._anchor_bumps))
        if cfg.cpfp_demo:
            bids.append((expiry, self._cpfp_bumps))
        if cfg.victim_first_at_expiry:
            bids.append(bids.pop(0))
        stages = (self._release_channel, self._close_channel, self._claim_channel,
                  *(act for _, act in bids))
        # Channel i is released (phase III) at the loading height, plus i
        # when staggered, and each of its bids is due at the bid's height.
        staggered = cfg.preimage_release == "staggered"
        for i in range(len(self.channels)):
            self.due.setdefault((self.chain.height + i * staggered, 0), []).append(i)
            for stage, (at, _) in enumerate(bids, 3):
                self.due.setdefault((at, stage), []).append(i)
        quiet = 0
        while True:
            h = self.chain.height
            seq = mempool.seq
            # A stage may schedule a later one at this height.  Channels go
            # in index order: submission order breaks ties in the mining queue.
            for stage, act in enumerate(stages):
                for i in sorted(self.due.pop((h, stage), ())):
                    act(i)
            self._background_pass()
            block = self._mine()
            if self.chain.height > expiry:
                if not any(self.spans):
                    break  # every HTLC has a confirmed claim; report is final
                # Quiet: the mempool accepted nothing and the block is empty.
                quiet = quiet + 1 if mempool.seq == seq and not block.weight_used else 0
                if quiet >= 2:
                    break  # quiescent: whatever is left can never advance
            if self.chain.height >= expiry + cfg.drain_cap:
                break

    def _victim_delta(self, ch: Channel) -> int:
        base = self.victim_params.commitment_broadcast_delta
        if self.cfg.dynamic_delta is None:
            return base
        per_htlc, cap = self.cfg.dynamic_delta
        # Capped before int(): a huge slope makes the product infinite.
        return int(min(base + per_htlc * ch.pending_count, cap))

    def _close_channel(self, i: int) -> None:
        """The victim force-closes channel i; an eager victim claims after this
        height's closes, a waiting one once the commitment confirms (_mine)."""
        ch_in, _, name = self.channels[i]
        self.meta[ch_in.force_close(self.chain, name).id] = ("commit", i, -1)
        if not self.victim_params.wait_for_commit_confirmation:
            self.due.setdefault((self.chain.height, 2), []).append(i)

    def _claim_channel(self, i: int) -> None:
        ch_in, _, name = self.channels[i]
        claims = ch_in.claimable_successes(
            name, self.chain.height, rbf_signal=self.cfg.victim_claims_replaceable)
        for first, tx in claims.items():
            self._post(i, first, tx, "vclaim", claim=tx.id, side="victim")

    def _post(self, i: int, lo: int, tx: Transaction, kind: str, *allowed: str, **span) -> None:
        """Submit `tx`, a claim or fee bump on channel i's HTLCs from lo on, one
        per member; record it as `kind` and set `span` on their spans.  A
        refusal for a reason not in `allowed` is a fault; one in it is a no-op."""
        result = self.chain.submit(tx)
        if not result.ok:
            if result.reason in allowed:
                return
            raise AssertionError(f"{kind} {tx.id} rejected: {result.reason}")
        self.meta[tx.id] = (kind, i, lo)
        runs.restate(self.spans[i], lo, lo + tx.count, lambda s: s._replace(**span))

    def _unbumped_victim_spans(self, i: int):
        """(lo, hi, span) for every span of channel i with a pending victim
        claim not yet fee-bumped."""
        return [(lo, hi, span) for lo, hi, span in self.spans[i]
                if span.side == "victim" and not span.bumped]

    def _attacker_pass(self, i: int) -> None:
        """Timeout-remote claims for every HTLC output of channel i not yet
        confirmed-spent, replacing the pending victim claims (and fee-bump
        children) it can outbid.  It runs once, at expiry: nothing it could
        take appears later, as victims submit no new claim and nothing spends
        an attacker claim."""
        pending = self.chain.mempool.pending
        w_timeout = self.weights.htlc_timeout
        ch_in = self.channels[i][0]
        for lo, hi, span in list(self.spans[i]):
            fee = fee_for_weight(ch_in.feerate, w_timeout)
            if span.side == "victim":  # a member evicts one of the claim and of its kid
                evicted = [(pending[x], 1) for x in (span.claim, span.kid) if x]
                least = replacement_floor(evicted, w_timeout)
                if least > self.plan.htlc_value:
                    continue  # no fee the HTLC can pay outbids the claim
                paid = sum(e.fee for e, _ in evicted)
                fee = max(fee, least, paid + self.cfg.attacker_fee_bump_increment)
            tx = ch_in.build_htlc_claims(SOURCE, lo, hi - lo, "timeout-remote",
                                         self.chain.height, fee_override=fee)
            self._post(i, lo, tx, "aclaim", REJECT_NOT_REPLACEABLE,
                       claim=tx.id, side="attacker", kid="")

    def _anchor_bumps(self, i: int) -> None:
        """With anchor-style commitments the success claim is no longer
        fee-frozen: the victim re-issues channel i's claims with an extra
        wallet input at an aggressive feerate, `victim_bump_offset` blocks
        before expiry."""
        cfg, chain = self.cfg, self.chain
        ch_in, _, name = self.channels[i]
        weight = self.weights.htlc_success + ANCHOR_INPUT_WEIGHT
        for lo, hi, span in self._unbumped_victim_spans(i):
            fee = max(fee_for_weight(cfg.victim_bump_feerate, weight),
                      replacement_floor([(chain.mempool.pending[span.claim], 1)], weight))
            spare = chain.grant(name, fee, count=hi - lo)
            tx = ch_in.build_htlc_claims(
                name, lo, hi - lo, "success-local", chain.height, fee_override=fee,
                rbf_signal=True, extra_input=spare, extra_value=fee, anchor=True)
            self._post(i, lo, tx, "vclaim", claim=tx.id, bumped=True)

    def _cpfp_bumps(self, i: int) -> None:
        """Futile child-pays-for-parent attempt at expiry on channel i's
        still-unconfirmed claims: the attacker's replacement of a claim
        evicts the child with it, as a descendant of the replaced claim.
        Nothing can refuse a child: nothing else spends the claim outputs it
        spends."""
        name = self.channels[i][2]
        for lo, hi, span in self._unbumped_victim_spans(i):
            parent = self.chain.mempool.pending[span.claim]
            member = lo - self.meta[span.claim][2]
            out_value = parent.outputs[0][2].value  # a claim's one output
            fee = min(fee_for_weight(CPFP_CHILD_FEERATE, CPFP_CHILD_WEIGHT), out_value)
            child = Transaction(
                id=f"{parent.id}-bump{member}", inputs=(OutputRef(parent.id, member),),
                outputs=((0, 1, TxOutput(out_value - fee, name, "claim")),),
                weight=CPFP_CHILD_WEIGHT, fee=fee, rbf_signal=True, count=hi - lo)
            self._post(i, lo, child, "bump", bumped=True, kid=child.id)

    def _background_pass(self) -> None:
        spec = self.cfg.background_traffic
        if spec is None or spec.txs_per_tick <= 0:
            return
        chain = self.chain
        h = chain.height
        if h < spec.start_height:
            return
        if spec.end_height is not None and h >= spec.end_height:
            return
        # Each randint(a, b) inlined as in fees.synthetic_blocks: a + r, r the
        # first getrandbits(k) draw below n = b - a + 1, k = n.bit_length().
        getrandbits = self.rng.getrandbits
        n_weight = spec.weight_high - spec.weight_low + 1
        n_fee = spec.feerate_high - spec.feerate_low + 1
        k_weight, k_fee = n_weight.bit_length(), n_fee.bit_length()
        # A filler is an input-less, output-less transaction whose fee the chain
        # grants when it is mined: nothing spends or replaces it, nor refuses it.
        for j in range(spec.txs_per_tick):
            while (r := getrandbits(k_weight)) >= n_weight:
                pass
            weight = spec.weight_low + r
            while (r := getrandbits(k_fee)) >= n_fee:
                pass
            fee = fee_for_weight(spec.feerate_low + r, weight)
            chain.submit(Transaction(f"bg{h}.{j}", (), (), weight, fee))

    def _mine(self):
        block = self.chain.mine_block()
        meta = self.meta
        victim_conf = attacker_conf = victim_fees = attacker_cost = 0
        for tx in block.txs:
            entry = meta.get(tx.id)
            if entry is None:
                continue
            kind, i, first = entry
            count = tx.count
            if kind == "commit" and self.victim_params.wait_for_commit_confirmation \
                    and block.height < self.expiry:  # claims at the race's next height
                self.due.setdefault((block.height, 2), []).append(i)
            if kind == "vclaim" or kind == "bump":
                victim_fees += tx.fee * count
            else:
                attacker_cost += tx.fee * count
            if kind == "vclaim" or kind == "aclaim":
                lo = first + tx.first
                self.channels[i][0].mark_claimed(lo, kind == "aclaim", count)
                runs.take(self.spans[i], lo, lo + count)
                if kind == "aclaim":
                    attacker_conf += count
                else:
                    victim_conf += count
        self.victim_fees += victim_fees
        self.attacker_cost += attacker_cost
        self.trace.append(TraceRow(block.height, block.weight_used,
                                   victim_conf, attacker_conf))
        return block

    # -- reporting -----------------------------------------------------------

    def _classify(self) -> AttackReport:
        unresolved = 0
        per_channel = []
        for i, (ch_in, _, _) in enumerate(self.channels):
            for lo, hi, span in self.spans[i]:
                if span.side == "attacker":
                    # Quiescent but decided: the attacker's claim is the only
                    # live spend, and victims submit nothing from the expiry
                    # height on, so nothing can displace it.
                    ch_in.mark_claimed(lo, True, hi - lo)
                else:
                    unresolved += hi - lo
            per_channel.append(sum(hi - lo for lo, hi, h in ch_in.runs
                                   if h.state == "claimed-by-timeout"))
        stolen = sum(per_channel)
        victim_claimed = sum(row.victim_claims_confirmed for row in self.trace)
        total = sum(c[0].next_htlc_id for c in self.channels)
        if stolen + victim_claimed + unresolved != total:
            raise AssertionError("theft accounting does not add up")
        return AttackReport(
            num_victim_channels=self.cfg.num_victim_channels,
            htlcs_per_channel=self.victim_params.max_accepted_htlcs,
            htlc_value=self.plan.htlc_value,
            total_htlcs=total,
            stolen_htlcs=stolen,
            victim_claimed_htlcs=victim_claimed,
            unresolved_htlcs=unresolved,
            stolen_value=stolen * self.plan.htlc_value,
            victim_fees_paid=self.victim_fees,
            attacker_cost=self.attacker_cost,
            launch_feerate=self.channels[0][0].feerate,
            end_height=self.chain.height,
            per_channel_stolen=tuple(per_channel),
            trace=tuple(self.trace),
        )


# -- closed form and sweeps ---------------------------------------------------


def min_channels_guaranteed_theft(victim_params: ChannelParams | str,
                                  weights: WeightSchedule | None = None,
                                  blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT,
                                  window: int | None = None) -> int:
    """Channels that provably overflow the victims' claim window: with `n`
    channels the victims need n * (commitment + per-HTLC claim) weight inside
    `window` blocks, so the smallest n whose demand exceeds the window's
    capacity guarantees at least one theft even in the attacker's worst case."""
    victim_params = profile_params(victim_params)
    weights = weights or WeightSchedule()
    if window is None:
        window = victim_params.commitment_broadcast_delta
    if window < 0:
        raise ConfigError("window must be non-negative")
    count = victim_params.max_accepted_htlcs
    per_channel = weights.commitment_weight(count) + count * weights.htlc_success
    return window * blockmaxweight // per_channel + 1


def _sweep_one(cfg: AttackConfig) -> tuple[int, AttackReport]:
    return cfg.num_victim_channels, run_attack(cfg)


def sweep_channels(template: AttackConfig, n_values, jobs: int = 1):
    """Independent runs over channel counts; per-run seeds derive from the
    template seed and n, so curves reproduce regardless of `jobs`."""
    configs = [replace(template, num_victim_channels=n, seed=template.seed + 7919 * n)
               for n in n_values]
    return map_runs(_sweep_one, configs, jobs)


def map_runs(run, items: list, jobs: int) -> list:
    """[run(item) for item in items], in order; with jobs > 1, spread over
    `jobs` forked worker processes, one at most per item."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(items) > 1:
        import multiprocessing  # only parallel runs pay for importing it
        with multiprocessing.get_context("fork").Pool(min(jobs, len(items))) as pool:
            return pool.map(run, items)
    return [run(item) for item in items]


def break_even_channels(curve) -> int | None:
    """Smallest n on the curve with any theft."""
    for n, report in curve:
        if report.stolen_htlcs > 0:
            return n
    return None
