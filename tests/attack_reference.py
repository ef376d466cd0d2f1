"""Per-HTLC reference engine for the whole attack.

The race as it was before claims became cohorts: one claim transaction per
HTLC, and per HTLC a record of its pending claim, whose it is, whether the
attacker was refused and whether the victim bumped its fee.  There are no
spans, runs or cohorts.  It runs on the per-HTLC channel of
channel_reference.py and on a chain made of a plain list of pending
transactions in submission order: acceptance and replacement are
rbf_reference.oracle_submit's verdicts and every block is
mining_reference.oracle_block's.  So it shares nothing with htlcrace.chain
but its transaction and output types, nothing with htlcrace.runs, and
nothing with htlcrace.attack but its declarations.  It takes an
AttackConfig and returns the AttackReport htlcrace.attack.run_attack must
return for it, or raises ConfigError where the funding cannot confirm or
pay a minimize dip's commitment fee, or set-up leaves the HTLCs too little
time or value; it does not repeat
validate_config's other checks.

`seen` counts the paths a run took, for tests/test_attack_oracle.py.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import channel_reference as ref
import fee_reference
from htlcrace.attack import (
    CPFP_CHILD_FEERATE, CPFP_CHILD_WEIGHT, SOURCE, TARGET, AttackConfig, AttackReport,
    ConfigError, TraceRow,
)
from htlcrace.chain import OutputRef, Transaction, TxOutput
from htlcrace.channel import ANCHOR_INPUT_WEIGHT, ChannelParams, fee_for_weight
from mining_reference import oracle_block
from rbf_reference import oracle_submit
from test_chain import flat_outputs


class Result(NamedTuple):
    status: str
    reason: str | None = None
    evicted: frozenset = frozenset()

    @property
    def ok(self) -> bool:
        return self.status != "rejected"


class Block(NamedTuple):
    height: int
    txs: tuple
    weight_used: int


class Chain:
    """Confirmed outputs by outpoint, pending transactions in submission
    order, one block per mine_block."""

    def __init__(self, blockmaxweight: int):
        self.blockmaxweight = blockmaxweight
        self.height = 0
        self.utxo: dict[OutputRef, TxOutput] = {}
        self.pending: list[Transaction] = []
        self.confirmed: set[str] = set()
        self.grants = 0

    def grant(self, owner: str, value: int) -> OutputRef:
        out = OutputRef(f"grant-{self.grants}", 0)
        self.grants += 1
        self.utxo[out] = TxOutput(value, owner, "grant")
        return out

    def submit(self, tx: Transaction) -> Result:
        status, reason, evicted = oracle_submit(self.pending, self.utxo, tx)
        if status != "rejected":
            self.pending = [t for t in self.pending if t.id not in evicted] + [tx]
        return Result(status, reason, evicted)

    def mine_block(self) -> Block:
        ids = oracle_block(self.pending, self.blockmaxweight)
        by_id = {t.id: t for t in self.pending}
        txs = tuple(by_id[txid] for txid in ids)
        for tx in txs:
            for spent in tx.inputs:
                del self.utxo[spent]
            for k, out in enumerate(flat_outputs(tx)):
                self.utxo[OutputRef(tx.id, k)] = out
        self.confirmed.update(ids)
        self.pending = [t for t in self.pending if t.id not in self.confirmed]
        self.height += 1
        return Block(self.height, txs, sum(t.weight for t in txs))


class Claim:
    """One unresolved HTLC's place in the race."""
    __slots__ = ("txid", "side", "blocked", "bumped", "kid")

    def __init__(self):
        self.txid = ""    # its pending claim
        self.side = ""    # "" | "victim" | "attacker"
        self.blocked = False
        self.bumped = False
        self.kid = ""     # the victim's CPFP child of its claim


def run_reference(cfg: AttackConfig, seen: Counter | None = None) -> AttackReport:
    return _Run(cfg, Counter() if seen is None else seen).execute()


class _Run:
    def __init__(self, cfg: AttackConfig, seen: Counter):
        self.cfg = cfg
        self.seen = seen
        self.rng = random.Random(cfg.seed)
        self.chain = Chain(cfg.blockmaxweight)
        self.victim = cfg.victim_params()
        self.expiry = cfg.htlc_expiry_height
        self.channels = []       # (incoming, outgoing, victim name)
        self.meta = {}           # txid -> (kind, channel, htlc id)
        self.claims: list[dict[int, Claim]] = []  # per channel: unresolved HTLCs
        self.values: list[int] = []
        self.stolen: list[int] = []
        self.claims_released: dict[int, None] = {}  # channels, in release order
        self.released: set[int] = set()
        self.victim_fees = self.attacker_cost = 0
        self.trace: list[TraceRow] = []

    def execute(self) -> AttackReport:
        self.open_channels()
        launch = self.minimize()
        self.load()
        if self.cfg.preimage_release == "batch":
            for i in range(len(self.channels)):
                self.release(i)
        self.race()
        return self.classify(launch)

    def open_channels(self):
        cfg, chain = self.cfg, self.chain
        feerate = cfg.channel_feerate
        if cfg.feerate_series is not None:
            feerate = cfg.feerate_series.estimate_at(0)
        self.victim = victim = replace(self.victim, channel_feerate=feerate)
        source = ChannelParams(channel_feerate=feerate)
        target = ChannelParams(max_accepted_htlcs=max(1000, victim.max_accepted_htlcs),
                               channel_feerate=feerate, commitment_broadcast_delta=1,
                               htlc_expiry_delta=1)
        for i in range(cfg.num_victim_channels):
            name = f"victim{i:03d}"
            ch_in = ref.open_channel(chain, f"a{i:03d}", SOURCE, name, cfg.channel_funding,
                                     source, victim, cfg.weights)
            ch_out = ref.open_channel(chain, f"b{i:03d}", name, TARGET, cfg.channel_funding,
                                      victim, target, cfg.weights)
            self.meta[ch_in.funding_outpoint.txid] = ("fund", i, -1)
            self.channels.append((ch_in, ch_out, name))
        funds = {c.funding_outpoint.txid for pair in self.channels for c in pair[:2]}
        while not funds <= chain.confirmed:
            if self.mine().weight_used == 0:
                raise ConfigError("funding transactions cannot confirm under this blockmaxweight")

    def minimize(self) -> int:
        current = self.channels[0][0].feerate
        strategy = self.cfg.feerate_strategy
        if strategy == "naive":
            return current
        start = self.chain.height
        heights = range(start, start + int(strategy.split(":")[1]))
        dips = dict(fee_reference.running_minimum(self.cfg.feerate_series, current, heights))
        for h in heights:
            if h in dips:
                current = dips[h]
                self.seen["minimize:dip"] += 1
                for ch_in, ch_out, name in self.channels:
                    for ch, proposer in ((ch_in, SOURCE), (ch_out, name)):
                        ok, why = ch.update_fee(proposer, current, current)
                        if why == "cannot-afford-fee":
                            raise ConfigError("the funding cannot pay a dip's commitment fee")
                        assert (ok, why) == (True, None)
            self.background()
            self.mine()
        return current

    def load(self):
        cfg, victim = self.cfg, self.victim
        needed = victim.htlc_expiry_delta + 1
        if cfg.preimage_release == "staggered":
            needed += cfg.num_victim_channels
        if self.expiry - self.chain.height < needed:
            raise ConfigError("HTLC expiry too close")
        count = victim.max_accepted_htlcs
        for i, (ch_in, ch_out, name) in enumerate(self.channels):
            balance = ch_in.balances[SOURCE]
            fee = ch_in.commitment_fee(count)
            if balance <= fee:
                raise ConfigError("balance does not cover the commitment fee")
            spendable = balance - fee
            if victim.max_htlc_value_in_flight is not None:
                spendable = min(spendable, victim.max_htlc_value_in_flight)
            value = spendable // count
            if value < cfg.min_htlc_amount:
                raise ConfigError("HTLC value below configured minimum")
            hashes = [f"h{i}.{k}" for k in range(count)]
            preimages = [f"p{i}.{k}" for k in range(count)]
            htlcs = ch_in.add_htlcs(SOURCE, value, hashes, preimages, self.expiry)
            ch_out.add_htlcs(name, value, hashes, preimages,
                             self.expiry - victim.htlc_expiry_delta, known_to=(TARGET,))
            self.claims.append({htlc.id: Claim() for htlc in htlcs})
            self.values.append(value)
            self.stolen.append(0)

    def release(self, i: int):
        ch_in, ch_out, name = self.channels[i]
        preimages = [(hid, h.preimage) for hid, h in ch_out.pending_htlcs.items()]
        ch_out.fulfill_htlcs_offchain(preimages)
        ch_in.reveal_preimages(preimages)
        self.released.add(i)

    # -- the race ------------------------------------------------------------

    def race(self):
        cfg, chain, expiry = self.cfg, self.chain, self.expiry
        load_height = chain.height
        quiet = 0
        while True:
            h = chain.height
            if cfg.preimage_release == "staggered":
                i = h - load_height
                if 0 <= i < len(self.channels) and i not in self.released:
                    self.release(i)
            subs = self.close_pass(h) + self.claim_pass(h)
            if cfg.victim_first_at_expiry:
                subs += self.bump_pass(h)
                subs += self.attacker_pass(h) if h >= expiry else 0
            else:
                subs += self.attacker_pass(h) if h >= expiry else 0
                subs += self.bump_pass(h)
            subs += self.background()
            block = self.mine()
            if chain.height > expiry:
                if not any(self.claims):
                    self.seen["stop:all-resolved"] += 1
                    return
                if subs == 0 and not chain.pending:
                    self.seen["stop:empty-mempool"] += 1
                    return
                if subs == 0 and block.weight_used == 0:
                    quiet += 1
                    if quiet >= 2:
                        self.seen["stop:quiescent"] += 1
                        return
                else:
                    quiet = 0
            if chain.height >= expiry + cfg.drain_cap:
                self.seen["stop:drain-cap"] += 1
                return

    def close_pass(self, h: int) -> int:
        subs = 0
        base = self.victim.commitment_broadcast_delta
        for i, (ch_in, _, name) in enumerate(self.channels):
            if ch_in.status != "open" or not ch_in.pending_htlcs or i not in self.released:
                continue
            delta = base
            if self.cfg.dynamic_delta is not None:
                slope, cap = self.cfg.dynamic_delta
                delta = int(min(base + slope * len(ch_in.pending_htlcs), cap))
            if h < self.expiry - delta:
                continue
            commit = ch_in.force_close(self.chain, name)
            self.meta[commit.id] = ("commit", i, -1)
            self.seen["close"] += 1
            subs += 1
            if not self.victim.wait_for_commit_confirmation:
                self.seen["close:claims-at-once"] += 1
                subs += self.victim_claims(i, h)
        return subs

    def claim_pass(self, h: int) -> int:
        if not self.victim.wait_for_commit_confirmation or h >= self.expiry:
            return 0
        subs = 0
        for i, (ch_in, _, _) in enumerate(self.channels):
            if ch_in.status == "force-closing" and i not in self.claims_released \
                    and ch_in.published.txid in self.chain.confirmed:
                subs += self.victim_claims(i, h)
        return subs

    def victim_claims(self, i: int, h: int) -> int:
        ch_in, _, name = self.channels[i]
        subs = 0
        for hid, htlc in ch_in.pending_htlcs.items():
            if htlc.state != "pending" or htlc.offerer == name \
                    or name not in htlc.preimage_known_by:
                continue
            tx = ch_in.build_htlc_claim(name, hid, "success-local", h,
                                        rbf_signal=self.cfg.victim_claims_replaceable)
            assert self.chain.submit(tx).ok
            self.meta[tx.id] = ("vclaim", i, hid)
            claim = self.claims[i][hid]
            claim.txid, claim.side = tx.id, "victim"
            subs += 1
        self.claims_released[i] = None
        return subs

    def attacker_pass(self, h: int) -> int:
        cfg = self.cfg
        by_id = {t.id: t for t in self.chain.pending}
        w_timeout = cfg.weights.htlc_timeout
        subs = 0
        for i, claims in enumerate(self.claims):
            ch_in = self.channels[i][0]
            if ch_in.published is None:
                continue
            for hid, claim in claims.items():
                if claim.blocked or claim.side == "attacker":
                    continue
                fee = fee_for_weight(ch_in.feerate, w_timeout)
                if claim.side == "victim":
                    evicted = [by_id[claim.txid]] + ([by_id[claim.kid]] if claim.kid else [])
                    paid = sum(e.fee for e in evicted)
                    least = max([paid + 1] + [e.fee * w_timeout // e.weight + 1
                                              for e in evicted])
                    if least > self.values[i]:
                        self.seen["attacker:outbid-impossible"] += 1
                        continue
                    fee = max(fee, least, paid + cfg.attacker_fee_bump_increment)
                tx = ch_in.build_htlc_claim(SOURCE, hid, "timeout-remote", h,
                                            fee_override=fee)
                result = self.chain.submit(tx)
                self.seen["attacker:after-expiry-acted"] += h > self.expiry
                if result.ok:
                    self.seen[f"attacker:{result.status}"] += 1
                    self.meta[tx.id] = ("aclaim", i, hid)
                    for gone in result.evicted:
                        by_id.pop(gone)
                    by_id[tx.id] = tx
                    claim.txid, claim.side, claim.kid = tx.id, "attacker", ""
                    subs += 1
                else:
                    assert result.reason == "conflict-not-replaceable", result
                    self.seen["attacker:blocked"] += 1
                    claim.blocked = True
        return subs

    def unbumped(self):
        """(channel, HTLC id, claim) for every pending victim claim not yet
        bumped, channels in the order the victims submitted claims."""
        for i in self.claims_released:
            for hid, claim in list(self.claims[i].items()):
                if claim.side == "victim" and not claim.bumped:
                    yield i, hid, claim

    def bump_pass(self, h: int) -> int:
        cfg = self.cfg
        subs = 0
        if cfg.anchor_mode and h == self.expiry - cfg.victim_bump_offset:
            subs += self.anchor_bumps(h)
        if cfg.cpfp_demo and h == self.expiry:
            subs += self.cpfp_bumps()
        return subs

    def anchor_bumps(self, h: int) -> int:
        cfg, chain = self.cfg, self.chain
        subs = 0
        for i, hid, claim in self.unbumped():
            ch_in, _, name = self.channels[i]
            old = next(t for t in chain.pending if t.id == claim.txid)
            weight = cfg.weights.htlc_success + ANCHOR_INPUT_WEIGHT
            fee = max(fee_for_weight(cfg.victim_bump_feerate, weight),
                      old.fee + 1, old.fee * weight // old.weight + 1)
            tx = ch_in.build_htlc_claim(name, hid, "success-local", h, fee_override=fee,
                                        rbf_signal=True, extra_input=chain.grant(name, fee),
                                        extra_value=fee, anchor=True)
            assert chain.submit(tx).ok
            self.meta[tx.id] = ("vclaim", i, hid)
            self.seen["victim:anchor-bump"] += 1
            claim.txid, claim.bumped = tx.id, True
            subs += 1
        return subs

    def cpfp_bumps(self) -> int:
        chain = self.chain
        subs = 0
        for i, hid, claim in self.unbumped():
            name = self.channels[i][2]
            parent = next(t for t in chain.pending if t.id == claim.txid)
            out_value = flat_outputs(parent)[0].value
            fee = min(fee_for_weight(CPFP_CHILD_FEERATE, CPFP_CHILD_WEIGHT), out_value)
            child = Transaction(f"{parent.id}-bump", (OutputRef(parent.id, 0),),
                                ((0, 1, TxOutput(out_value - fee, name, "claim")),),
                                CPFP_CHILD_WEIGHT, fee, True)
            if chain.submit(child).ok:
                self.meta[child.id] = ("bump", i, hid)
                self.seen["victim:cpfp-child"] += 1
                claim.bumped, claim.kid = True, child.id
                subs += 1
        return subs

    def background(self) -> int:
        spec = self.cfg.background_traffic
        if spec is None or spec.txs_per_tick <= 0:
            return 0
        chain, rng = self.chain, self.rng
        h = chain.height
        if h < spec.start_height or spec.end_height is not None and h >= spec.end_height:
            return 0
        for j in range(spec.txs_per_tick):
            weight = rng.randint(spec.weight_low, spec.weight_high)
            fee = fee_for_weight(rng.randint(spec.feerate_low, spec.feerate_high), weight)
            tx = Transaction(f"bg{h}.{j}", (chain.grant("background", 1000 + fee),),
                             ((0, 1, TxOutput(1000, "background", "plain")),), weight, fee)
            assert chain.submit(tx).ok
        return spec.txs_per_tick

    def mine(self) -> Block:
        block = self.chain.mine_block()
        victim = attacker = 0
        for tx in block.txs:
            entry = self.meta.get(tx.id)
            if entry is None:
                continue
            kind, i, hid = entry
            if kind in ("vclaim", "bump"):
                self.victim_fees += tx.fee
            else:
                self.attacker_cost += tx.fee
            if kind in ("vclaim", "aclaim"):
                self.channels[i][0].mark_claimed(hid, kind == "aclaim")
                del self.claims[i][hid]
                if kind == "aclaim":
                    attacker += 1
                    self.stolen[i] += 1
                else:
                    victim += 1
        self.trace.append(TraceRow(block.height, block.weight_used, victim, attacker))
        return block

    def classify(self, launch: int) -> AttackReport:
        per_channel = []
        unresolved = 0
        for i, (ch_in, _, _) in enumerate(self.channels):
            taken = self.stolen[i]
            for hid, claim in self.claims[i].items():
                if claim.side == "attacker":
                    self.seen["classify:pending-attacker-claim"] += 1
                    ch_in.mark_claimed(hid, True)
                    taken += 1
                else:
                    unresolved += 1
            per_channel.append(taken)
        stolen = sum(per_channel)
        self.seen["stolen" if stolen else "no-theft"] += 1
        self.seen["unresolved"] += unresolved > 0
        return AttackReport(
            num_victim_channels=self.cfg.num_victim_channels,
            htlcs_per_channel=self.victim.max_accepted_htlcs,
            htlc_value=self.values[-1],
            total_htlcs=sum(len(c[0].all_htlcs) for c in self.channels),
            stolen_htlcs=stolen,
            victim_claimed_htlcs=sum(row.victim_claims_confirmed for row in self.trace),
            unresolved_htlcs=unresolved,
            stolen_value=sum(t * v for t, v in zip(per_channel, self.values)),
            victim_fees_paid=self.victim_fees,
            attacker_cost=self.attacker_cost,
            launch_feerate=launch,
            end_height=self.chain.height,
            per_channel_stolen=tuple(per_channel),
            trace=tuple(self.trace),
        )
