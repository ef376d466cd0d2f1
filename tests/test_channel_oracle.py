"""The run-based Channel against the per-HTLC reference in
channel_reference.py: both are driven through the same seeded random
operations, and after each one every outcome, balance and HTLC must agree."""

import random
from collections import Counter

import channel_reference as ref
from htlcrace.chain import ChainState, OutputRef
from htlcrace.channel import (
    CLAIM_KINDS, ChannelError, ChannelParams, open_channel,
)
from test_chain import flat_outputs
from test_channel import htlcs as expand

PARTIES = ("alice", "bob")
# These codes' details name a payment hash in the reference and an HTLC id here.
HASH_MESSAGES = ("unknown-preimage", "preimage-missing")


def tx_fields(tx):
    """tx's fields, its outputs expanded one per index; the output runs must
    meet end to start, with alike neighbours joined."""
    runs = tx.outputs
    assert all(b == c and x != y for (_, b, x), (c, _, y) in zip(runs, runs[1:])), runs
    return tuple(tx._replace(outputs=flat_outputs(tx)))


def outcome(call):
    """("ok", value) or ("raise", type, message)."""
    try:
        return ("ok", call())
    except Exception as exc:
        return ("raise", type(exc), str(exc))


def reason(got):
    """The path an outcome took: "ok", a ChannelError's reason code, or
    another exception's type name."""
    if got[0] == "ok":
        return "ok"
    return got[2].split(":")[0] if got[1] is ChannelError else got[1].__name__


def reference_htlcs(old):
    """The reference's HTLCs as test_channel.htlcs expands the runs."""
    return {hid: (h.amount, h.expiry_height, h.offerer, sorted(h.preimage_known_by),
                  h.state, h.preimage)
            for hid, h in old.all_htlcs.items()}


class Twin:
    """One random channel, run-based (`new`) and per-HTLC (`old`), each on
    its own chain."""

    def __init__(self, rng):
        self.rng = rng
        params = [ChannelParams(
            channel_feerate=rng.choice((1_000, 2_500)),
            max_accepted_htlcs=rng.randint(1, 60),
            max_htlc_value_in_flight=rng.choice((None, None, rng.randint(10_000, 600_000))),
            htlc_minimum=rng.choice((0, 0, 1_000))) for _ in PARTIES]
        funding = rng.randint(50_000, 2_000_000)
        share = rng.randint(0, funding // 2)
        self.chains = ChainState(), ChainState()
        self.new = open_channel(self.chains[0], "chan", *PARTIES, funding, *params)
        self.old = ref.open_channel(self.chains[1], "chan", *PARTIES, funding, *params)
        for chain, ch in zip(self.chains, (self.new, self.old)):
            chain.mine_block()
            ch.balances["bob"] += share
            ch.balances["alice"] -= share
        self.next_preimage = 0

    def both(self, new_call, old_call, same=lambda value: value):
        """Run the call on each side; the two outcomes, the old side's value
        mapped by `same` into the new side's terms."""
        got, want = outcome(new_call), outcome(old_call)
        if want[0] == "ok":
            want = ("ok", same(want[1]))
        if reason(got) in HASH_MESSAGES:  # compare the code only
            got, want = got[:2] + (reason(got),), want[:2] + (reason(want),)
        assert got == want
        return got

    def check(self):
        new, old = self.new, self.old
        assert new.balances == old.balances
        assert (new.published is None, new.feerate, new._build_count, new.next_htlc_id) == \
            (old.status == "open", old.feerate, old._build_count, old._next_htlc_id)
        htlcs = expand(new)
        assert htlcs == reference_htlcs(old)
        # One run per stretch of alike HTLCs: no empty run, no alike neighbours.
        assert all(lo < hi for lo, hi, _ in new.runs)
        assert all(a[2] != b[2] for a, b in zip(new.runs, new.runs[1:]))
        unsettled = [hid for hid, h in htlcs.items() if h[4] != "fulfilled-offchain"]
        assert unsettled == list(old.pending_htlcs)
        assert new.pending_count == len(old.pending_htlcs)
        assert sum(htlcs[hid][0] for hid in unsettled) == \
            sum(h.amount for h in old.pending_htlcs.values())
        if old.published is None:
            assert new.published is None
        else:
            assert (new.published.holder, new.published.txid) == \
                (old.published.holder, old.published.txid)
            assert old.published.htlc_index == {hid: 2 + k for k, hid in enumerate(unsettled)}

    # -- choices -------------------------------------------------------------

    def some_id(self):
        """Mostly a run's first id or one inside it; now and then none."""
        rng, runs = self.rng, self.new.runs
        r = rng.random()
        if r < 0.1 or not runs:
            return rng.choice((-1, self.new.next_htlc_id))
        lo, hi, _ = rng.choice(runs)
        return lo if r < 0.5 else rng.randint(lo, hi - 1)

    def some_count(self, lo):
        """Often to the end of the run holding lo, or a little past it; now
        and then 0 or -1."""
        rng = self.rng
        if rng.random() < 0.05:
            return rng.choice((0, -1))
        run = self.run_at(lo)
        if run is not None and rng.random() < 0.5:
            return max(1, run[1] - lo + rng.choice((0, 0, -1, 1)))
        return rng.randint(1, 4)

    def run_at(self, hid):
        return next((r for r in self.new.runs if r[0] <= hid < r[1]), None)

    # -- operations ----------------------------------------------------------

    def add(self, seen):
        rng = self.rng
        offerer = rng.choice(PARTIES)
        amount = rng.choice((5_000, 5_000, 8_000, rng.randint(0, 60_000)))
        n = rng.choice((0, 1, rng.randint(1, 12), rng.randint(1, 40)))
        expiry = rng.choice((60, 60, 70))
        known_to = rng.choice(((), ("carol",), (rng.choice(PARTIES),)))
        values = range(self.next_preimage, self.next_preimage + n)
        got = self.both(
            lambda: list(self.new.add_htlcs(offerer, amount, values, expiry, known_to)),
            lambda: self.old.add_htlcs(offerer, amount, [f"h{v}" for v in values],
                                       list(values), expiry, known_to),
            lambda htlcs: [htlc.id for htlc in htlcs])
        if got[0] == "ok":  # the next batch's preimages follow on, or jump
            self.next_preimage += n + rng.choice((0, 0, 5))
        seen["add:" + ("ok" if got[0] == "ok" else "refused")] += 1

    def release(self, seen, settle):
        rng = self.rng
        lo = self.some_id()
        ids = range(lo, lo + self.some_count(lo))
        run = self.run_at(lo)
        start = lo + (run[2].preimage_offset if run else 0)  # right for lo's run
        if rng.random() < 0.2:
            start += rng.choice((-1, 1, 50))
        given = range(start, start + len(ids))
        inside = run is not None and (run[0] < lo or ids.stop < run[1])
        before = expand(self.new)
        if settle:
            got = self.both(lambda: self.new.fulfill_htlcs_offchain(lo, given),
                            lambda: self.old.fulfill_htlcs_offchain(zip(ids, given)))
        else:
            got = self.both(lambda: self.new.reveal_preimages(lo, given),
                            lambda: self.old.reveal_preimages(zip(ids, given)))
        op = "fulfill" if settle else "reveal"
        seen[f"{op}:{reason(got)}"] += 1
        seen[f"{op}:inside-a-run"] += inside and got[0] == "ok"
        seen[f"{op}:partial-then-raise"] += got[0] == "raise" and expand(self.new) != before

    def update_fee(self, seen):
        rng = self.rng
        proposer = rng.choice(PARTIES)
        estimate = rng.randint(500, 6_000)
        r = rng.random()
        if r < 0.15:  # non-positive
            rate = rng.choice((0, -1, -rng.randint(2, 9_000)))
        elif r < 0.35:  # at, or one off, the lowest rate whose fee the initiator cannot pay
            ch = self.new
            weight = ch.weights.commitment_weight(ch.pending_count)
            rate = -(-(ch.balances[ch.initiator] + 1) * 1000 // weight) + rng.choice((-1, 0, 1))
            estimate = max(rate, 1)
        else:
            rate = rng.choice((estimate, estimate + rng.randint(-700, 700),
                               rng.randint(-5, 9_000)))
        got = outcome(lambda: self.new.update_fee(proposer, rate, estimate))
        ok, why = self.old.update_fee(proposer, rate, estimate)
        # The reference refuses with (False, code); here the code heads a ChannelError.
        assert (got == ("ok", None)) if ok else (reason(got) == why)
        seen["update_fee:" + reason(got)] += 1

    def commitment(self, seen):
        holder = self.rng.choice(PARTIES)
        got = self.both(lambda: tx_fields(self.new.build_commitment(holder)),
                        lambda: self.old.build_commitment(holder), tx_fields)
        seen["commitment:" + reason(got)] += 1

    def force_close(self, seen):
        closer = self.rng.choice(PARTIES)
        got = self.both(lambda: tx_fields(self.new.force_close(self.chains[0], closer)),
                        lambda: self.old.force_close(self.chains[1], closer), tx_fields)
        seen["force_close:" + (closer if got[0] == "ok" else reason(got))] += 1

    def claimable(self, seen):
        rng = self.rng
        claimer = rng.choice(PARTIES)
        height = rng.randint(50, 75)
        rbf = rng.choice((None, True, False))

        def claims(ch):
            return {first: tx_fields(tx) for first, tx in
                    ch.claimable_successes(claimer, height, rbf_signal=rbf).items()}
        got = self.both(lambda: claims(self.new), lambda: claims(self.old))
        if got[0] == "ok":
            seen[f"claimable:{min(len(got[1]), 2)}-cohorts"] += 1
            seen["claimable:after-claims"] += any(
                h[4].startswith("claimed") for h in expand(self.new).values())
        else:
            seen["claimable:" + reason(got)] += 1

    def claim(self, seen):
        rng = self.rng
        lo = self.some_id()
        count = self.some_count(lo)
        claimer = rng.choice(PARTIES)
        holder = self.new.published.holder if self.new.published else rng.choice(PARTIES)
        run = self.run_at(lo)
        if rng.random() < 0.8:
            kind = ("timeout-" if run is not None and run[2].offerer == claimer else "success-") \
                + ("local" if claimer == holder else "remote")
        else:
            kind = rng.choice(CLAIM_KINDS + ("refund",))
        extra = rng.choice((None, None, OutputRef("spare", rng.randint(0, 5))))
        args = dict(fee_override=rng.choice((None, None, rng.randint(0, 20_000))),
                    rbf_signal=rng.choice((None, True, False)), extra_input=extra,
                    extra_value=rng.randint(0, 5_000) if extra else 0,
                    anchor=rng.random() < 0.3)
        height = rng.randint(55, 75)
        got = self.both(
            lambda: tx_fields(self.new.build_htlc_claims(claimer, lo, count, kind, height,
                                                         **args)),
            lambda: self.old.build_htlc_claims(claimer, lo, count, kind, height, **args),
            tx_fields)
        if got[0] == "ok":
            seen[f"claim:{kind}"] += 1
            seen["claim:fee-override"] += args["fee_override"] is not None
            seen["claim:extra-input"] += extra is not None
            seen["claim:anchor"] += args["anchor"]
            seen["claim:cohort"] += count > 1
        else:
            seen["claim:" + reason(got)] += 1

    def mark(self, seen):
        rng = self.rng
        lo = self.some_id()
        count = self.some_count(lo)
        run = self.run_at(lo)
        splits = run is not None and (run[0] < lo or lo + count < run[1])
        by_timeout = rng.random() < 0.5
        got = self.both(lambda: self.new.mark_claimed(lo, by_timeout, count),
                        lambda: self.old.mark_claimed(lo, by_timeout, count))
        seen["mark:" + reason(got)] += 1
        seen["mark:split"] += splits and got[0] == "ok"

    OPEN = (("add", 6), ("fulfill", 3), ("reveal", 3), ("update_fee", 2),
            ("commitment", 1), ("force_close", 1), ("claimable", 1), ("claim", 1),
            ("mark", 1))
    CLOSING = (("claim", 8), ("claimable", 4), ("mark", 5), ("commitment", 1), ("add", 1),
               ("fulfill", 1), ("reveal", 1), ("force_close", 1), ("update_fee", 1))

    def step(self, seen):
        table = self.OPEN if self.new.published is None else self.CLOSING
        name = self.rng.choices([n for n, _ in table], [w for _, w in table])[0]
        if name == "fulfill" or name == "reveal":
            self.release(seen, settle=name == "fulfill")
        else:
            getattr(self, name)(seen)
        self.check()


def test_run_channel_matches_per_htlc_reference():
    seen = Counter()
    for seed in range(2000):
        rng = random.Random(seed)
        twin = Twin(rng)
        for _ in range(rng.randint(10, 60)):
            twin.step(seen)
    need = ["add:ok", "add:refused", "fulfill:ok", "fulfill:not-pending",
            "fulfill:unknown-preimage", "fulfill:channel-not-open", "fulfill:inside-a-run",
            "fulfill:partial-then-raise", "reveal:ok", "reveal:not-pending",
            "reveal:unknown-preimage", "reveal:inside-a-run",
            "reveal:partial-then-raise", "update_fee:ok",
            "update_fee:unreasonable-feerate", "update_fee:invalid-feerate",
            "update_fee:cannot-afford-fee", "commitment:ok", "force_close:alice",
            "force_close:bob", "force_close:already-closing", "claimable:1-cohorts",
            "claimable:2-cohorts", "claimable:no-commitment",
            "claimable:wrong-claim", "claim:success-local", "claim:success-remote",
            "claim:timeout-local", "claim:timeout-remote", "claim:fee-override",
            "claim:extra-input", "claim:anchor", "claim:cohort",
            "claim:not-pending", "claim:ValueError", "claim:wrong-claim",
            "claim:preimage-missing", "claim:premature-timeout",
            "claim:pre-signed", "claim:no-commitment",
            "mark:ok", "mark:split", "mark:AssertionError", "mark:KeyError",
            "mark:no-commitment", "claimable:after-claims"]
    for path in need:
        assert seen[path] >= 20, (path, seen)
