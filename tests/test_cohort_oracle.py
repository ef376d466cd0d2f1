"""Cohorts vs the member-by-member references.

A cohort of k is meant to be exactly k member transactions submitted in a
row.  Each randomized session here drives a ChainState with cohorts of 1 to
500 members -- feerate ties, parent/child chains, blocks that take part of a
cohort, replacements of part of a cohort and the evictions they cause --
and replays every step, expanded member by member, through the brute-force
references of tests/mining_reference.py and tests/rbf_reference.py.  Submit
verdicts, evicted members and mined blocks must agree, and so must the block
space available_space reports.  Where the chain
raises ValueError (members whose conflicts, evictions or inputs do not line
up, so that they might not share a verdict), the session submits the two
halves of the cohort instead, as a caller splitting it would, and those
must agree too.
"""

import random
from collections import Counter

from htlcrace.chain import (
    ChainState, OutputRef, Transaction, TxOutput, available_space,
)
from mining_reference import oracle_block
from rbf_reference import oracle_submit
from test_chain import flat_outputs, utxo_of

FEERATES = (1_000, 2_000, 2_500, 5_000)
WEIGHTS = (400, 500, 800, 1_000)


class Session:
    """A chain plus its member-by-member mirror."""

    def __init__(self, rng):
        self.rng = rng
        self.limit = rng.choice((20_000, 60_000, 200_000))
        self.chain = ChainState(self.limit)
        self.cohorts = {}    # id -> Transaction, for every submitted cohort
        self.pending = []    # expanded pending members, in submission order
        self.seen = Counter()
        self.counter = 0
        self.commitments = set()  # ids of commitment-shaped singles

    # -- expansion ---------------------------------------------------------

    def member_id(self, txid, m):
        tx = self.cohorts.get(txid)
        return txid if tx is None or tx.count == 1 else f"{txid}#{m}"

    def expand_ref(self, txid, index):
        tx = self.cohorts.get(txid)
        if tx is None or tx.count == 1:
            return OutputRef(txid, index)
        nout = len(flat_outputs(tx))
        return OutputRef(self.member_id(txid, index // nout), index % nout)

    def members(self, tx, first=0, count=None):
        count = tx.count if count is None else count
        return [Transaction(self.member_id(tx.id, m),
                            tuple(self.expand_ref(r.txid, r.index + m) for r in tx.inputs),
                            tx.outputs, tx.weight, tx.fee, tx.rbf_signal)
                for m in range(first, first + count)]

    def confirmed_refs(self):
        return {self.expand_ref(*ref) for ref in utxo_of(self.chain)}

    # -- steps ---------------------------------------------------------------

    def submit(self, tx):
        """Submit a cohort, checking it against the references member by
        member; on ValueError submit its two halves instead."""
        self.cohorts[tx.id] = tx
        parents = {r.txid for r in tx.inputs} & self.commitments
        pending_parents = parents & set(self.chain.mempool.pending)
        confirmed = self.confirmed_refs()
        mirror = list(self.pending)
        verdicts = []
        for member in self.members(tx):
            status, reason, evicted = oracle_submit(mirror, confirmed, member)
            verdicts.append((status, reason))
            if status != "rejected":
                mirror = [t for t in mirror if t.id not in evicted] + [member]
        try:
            result = self.chain.submit(tx)
        except ValueError as exc:
            del self.cohorts[tx.id]
            self.check_readiness()
            if tx.count == 1:  # inputs that do not add up to outputs plus fee
                assert "fee" in str(exc), exc
                self.seen["malformed"] += 1
                return
            self.seen["split"] += 1
            self.seen["split-uniform"] += len(set(verdicts)) == 1
            half = tx.count // 2
            for tag, first, count in (("a", 0, half), ("b", half, tx.count - half)):
                self.submit(Transaction(
                    tx.id + tag, tuple(OutputRef(r.txid, r.index + first) for r in tx.inputs),
                    tx.outputs, tx.weight, tx.fee, tx.rbf_signal, count))
            return
        assert set(verdicts) == {(result.status, result.reason)}, (tx.id, verdicts, result)
        if result.ok:
            gone = {t.id for t in self.pending} - {t.id for t in mirror}
            cohorts_gone = {self.cohort_of(i) for i in gone}
            assert set(result.evicted) == cohorts_gone, (result.evicted, gone)
            self.pending = mirror
            self.seen["cohort" if tx.count > 1 else "single"] += 1
            self.seen["large-cohort"] += tx.count >= 200
            self.seen["commitment"] += tx.id in self.commitments
            for parent in parents if tx.count > 1 else ():
                self.seen["commitment-child-" + (
                    "pending" if parent in pending_parents else "confirmed")] += 1
            if result.status == "replaced":
                self.seen["replaced"] += 1
                self.seen["evicted-members"] += len(gone)
                self.seen["partial-replacement"] += any(
                    self.partly_pending(c) for c in cohorts_gone)
        else:
            del self.cohorts[tx.id]
            self.seen[result.reason] += 1
        self.check_readiness()

    def cohort_of(self, member_id):
        return member_id.split("#")[0]

    def partly_pending(self, txid):
        ids = {t.id for t in self.pending}
        tx = self.cohorts[txid]
        return tx.count > 1 and any(self.member_id(txid, m) in ids for m in range(tx.count))

    def mine(self):
        want = oracle_block(self.pending, self.limit)
        block = self.chain.mine_block()
        got = []
        for tx in block.txs:
            got += [t.id for t in self.members(self.cohorts[tx.id], tx.first, tx.count)]
            self.seen["part-mined"] += tx.count != self.cohorts[tx.id].count
        assert got == want
        cohorts = [(t.fee, t.weight, t.count) for t in block.txs]
        flat = [(m.fee, m.weight, m.count) for tx in block.txs
                for m in self.members(self.cohorts[tx.id], tx.first, tx.count)]
        for feerate in (0, 999, 2_000, 2_500, 4_999, 10**6):
            assert available_space(feerate, cohorts, self.limit) == \
                available_space(feerate, flat, self.limit)
        mined = set(got)
        self.seen["ties"] += len({(t.fee, t.weight) for t in self.pending if t.id in mined}) \
            < len({self.cohort_of(i) for i in mined})
        self.pending = [t for t in self.pending if t.id not in mined]
        self.check_readiness()
        return mined

    def check_readiness(self):
        """A live piece waits exactly when its members spend outputs of
        pending members, member by member, and a piece that does not wait
        is queued for mining.  The pending members the mempool's spender
        walk names over a piece's outputs are exactly those whose inputs
        spend the piece's members, and the mempool counts every pending
        member."""
        mempool = self.chain.mempool
        assert len(mempool) == len(self.pending)
        pending = {t.id for t in self.pending}
        spenders = {}  # member id -> pending member ids spending its outputs
        for t in self.pending:
            for ref in t.inputs:
                spenders.setdefault(ref.txid, set()).add(t.id)
        queued = {entry[3] for entry in mempool._queue}
        for txid, pieces in mempool.pieces.items():
            tx = self.cohorts[txid]
            nout = len(flat_outputs(tx))
            for p in pieces:  # every listed piece is live: lo < hi
                assert p.lo < p.hi, (txid, p.lo)
                for member in self.members(tx, p.lo, p.hi - p.lo):
                    waiting = any(ref.txid in pending for ref in member.inputs)
                    assert waiting == bool(p.waits), (member.id, p.waits)
                assert p.waits or p in queued, (txid, p.lo, p.hi)
                named = {self.member_id(kid, m)
                         for kid, a, b in mempool._spenders(txid, p.lo * nout, p.hi * nout)
                         for x, y in mempool.parts(kid, a, b) for m in range(x, y)}
                want = set().union(*(spenders.get(self.member_id(txid, m), ())
                                     for m in range(p.lo, p.hi)))
                assert named == want, (txid, p.lo, p.hi)

    # -- random cohorts --------------------------------------------------------

    def runs(self):
        """(txid, first index, length, value) runs of spendable or pending
        outputs that a cohort may spend, one value per run."""
        out = []
        for (txid, i), o in utxo_of(self.chain).items():
            if out and out[-1][0] == txid and out[-1][1] + out[-1][2] == i \
                    and out[-1][3] == o.value:
                out[-1] = (txid, out[-1][1], out[-1][2] + 1, o.value)
            else:
                out.append((txid, i, 1, o.value))
        for txid, tx in self.chain.mempool.pending.items():
            flat = flat_outputs(tx)
            if txid in self.commitments:
                out += [(txid, a, b - a, o.value) for a, b, o in tx.outputs]
            elif tx.count == 1:
                out += [(txid, k, 1, o.value) for k, o in enumerate(flat)]
            elif len(flat) == 1:
                out += [(txid, a, b - a, flat[0].value)
                        for a, b in self.chain.mempool.parts(txid, 0, tx.count)]
        return out

    def value_at(self, ref, utxo):
        """Value of the output at `ref`, confirmed (in `utxo`, as utxo_of
        gives it) or pending; any value if there is none (the submission is
        then refused as missing-input)."""
        if ref in utxo:
            return utxo[ref].value
        tx = self.chain.mempool.pending.get(ref.txid)
        flat = flat_outputs(tx) if tx is not None else ()
        if flat and ref.index < tx.count * len(flat):
            return flat[ref.index % len(flat)].value
        return 1_000

    def conflicting(self):
        """Inputs of pending members of one cohort: a replacement target."""
        pend = self.chain.mempool.pending
        if not pend:
            return None
        tx = pend[self.rng.choice(sorted(pend))]
        a, b = self.rng.choice(self.chain.mempool.parts(tx.id, 0, tx.count))
        lo = self.rng.randint(a, b - 1)
        hi = self.rng.randint(lo + 1, b)
        refs = [OutputRef(r.txid, r.index + lo) for r in tx.inputs]
        refs = self.rng.sample(refs, k=self.rng.randint(1, len(refs)))
        return refs, hi - lo, tx

    def commitment(self):
        """A single shaped like a commitment, spending one spendable output:
        to_local and to_remote, then 1 to 60 alike HTLC outputs."""
        rng = self.rng
        runs = self.runs()
        if not runs:
            return None
        txid_, start, _, value = rng.choice(runs)
        htlcs = rng.randint(1, 60)
        if value < 2 * (htlcs + 2):
            return None
        self.counter += 1
        txid = f"k{self.counter}"
        weight = rng.choice(WEIGHTS)
        fee = min(rng.choice(FEERATES) * weight // 1000, value // 2)
        amount = rng.randint(1, (value - fee) // (htlcs + 2))
        local = (value - fee - htlcs * amount) // 2
        self.commitments.add(txid)
        return Transaction(txid, (OutputRef(txid_, start),),
                           ((0, 1, TxOutput(local, "a", "to_local")),
                            (1, 2, TxOutput(value - fee - htlcs * amount - local, "b",
                                            "to_remote")),
                            (2, 2 + htlcs, TxOutput(amount, "n", "htlc"))),
                           weight, fee, rng.random() < 0.7)

    def random_cohort(self, among=None):
        """A random cohort; given `among`, one spending stretches of outputs
        of those txids only."""
        rng = self.rng
        self.counter += 1
        txid = f"c{self.counter}"
        target = None
        if among is None and rng.random() < 0.3 and (found := self.conflicting()) is not None:
            refs, count, target = found
            if rng.random() < 0.2:  # shift: members clash with the wrong ones
                refs = [OutputRef(r.txid, r.index + rng.choice((-1, 1))) for r in refs]
            utxo = utxo_of(self.chain)
            total = sum(self.value_at(ref, utxo) for ref in refs)
        else:
            runs = [r for r in self.runs() if among is None or r[0] in among and r[2] > 1]
            if not runs:
                return None
            picks = rng.sample(runs, k=min(len(runs), rng.choice((1, 1, 2))))
            count = min(n for _, _, n, _ in picks)
            count = rng.choice((1, count, rng.randint(1, count)))
            refs, total = [], 0
            for txid_, start, n, value in picks:
                first = start + rng.randint(0, n - count)
                refs.append(OutputRef(txid_, first))
                total += value
        weight = rng.choice(WEIGHTS)
        rate = rng.choice(FEERATES)
        if target is not None and rng.random() < 0.6:
            rate = target.fee * 1000 // target.weight * rng.choice((1, 2, 3))
        fee = rate * weight // 1000 + rng.choice((0, 0, 1, -1))
        fee = max(0, min(fee, total - 2))
        if count == 1 and rng.random() < 0.3:
            half = (total - fee) // 2
            outputs = ((0, 1, TxOutput(half, "n")), (1, 2, TxOutput(total - fee - half, "n")))
            if 2 * half == total - fee:  # alike outputs: one run
                outputs = ((0, 2, TxOutput(half, "n")),)
        else:
            outputs = ((0, 1, TxOutput(total - fee, "n")),)
        return Transaction(txid, tuple(refs), outputs, weight, fee,
                           rng.random() < 0.7, count)


def run_session(seed, commitments=False):
    """One session; with `commitments`, some steps submit commitment-shaped
    singles and some cohorts that spend outputs of them only."""
    rng = random.Random(seed)
    s = Session(rng)
    for i in range(rng.randint(2, 3)):
        s.chain.grant(f"g{i}", rng.randint(20_000, 80_000), count=rng.choice((1, 40, 500)))
    for _ in range(rng.randint(15, 30)):
        step = rng.random()
        if step < 0.3:
            s.mine()
            continue
        if commitments and step < 0.45:
            tx = s.commitment()
            if tx is not None:  # and at once a cohort spending it while pending
                s.submit(tx)
                tx = s.random_cohort(among={tx.id})
        elif commitments and step < 0.75:
            tx = s.random_cohort(among=s.commitments)
        else:
            tx = s.random_cohort()
        if tx is not None:
            s.submit(tx)
    while s.mine():
        pass
    s.chain.audit()
    return s.seen


def test_member_evicted_along_two_paths_counts_once():
    # K's members spend P's outputs and Y's members'.  A newcomer clashing
    # with P and with Y's last member evicts K's last member along both
    # paths, and must pay for it once.
    s = Session(random.Random(0))
    g = s.chain.grant("g", 100_000)
    h = s.chain.grant("h", 30_000, count=3)
    p = Transaction("P", (g,), ((0, 3, TxOutput(33_000, "n")),), 500, 1_000, True)
    y = Transaction("Y", (h,), ((0, 1, TxOutput(29_000, "n")),), 400, 1_000, True, count=3)
    k = Transaction("K", (OutputRef("P", 0), OutputRef("Y", 0)), ((0, 1, TxOutput(61_000, "n")),),
                    400, 1_000, True, count=3)
    for tx in (p, y, k):
        s.submit(tx)
    for fee in (5_000, 5_001):  # evicted: P, Y's last member and all of K
        s.submit(Transaction(f"N{fee}", (g, OutputRef(h.txid, 2)),
                             ((0, 1, TxOutput(130_000 - fee, "n")),), 600, fee))
    assert s.seen["insufficient-replacement-fee"] == 1 and s.seen["replaced"] == 1
    while s.mine():
        pass
    s.chain.audit()


def test_a_partly_mined_piece_keeps_its_place():
    # P, K and L share fee and weight, so submission order decides.  K spends
    # P's members 1..4: its members 0-1 are minable at once and 2-3 wait on
    # P's last two, which go one at a time (K spends them), each
    # freeing one member of K.  A block then takes K's first member only, and
    # the rest of that piece must still precede all of L, submitted later.
    s = Session(random.Random(0))
    s.limit = 1_200
    s.chain = ChainState(s.limit)
    g = s.chain.grant("g", 10_000, count=5)
    h = s.chain.grant("h", 10_000, count=4)
    s.submit(Transaction("P", (g,), ((0, 1, TxOutput(9_000, "p")),), 400, 1_000, count=5))
    s.mine()
    s.submit(Transaction("K", (OutputRef("P", 1),), ((0, 1, TxOutput(8_000, "k")),), 400, 1_000,
                         count=4))
    s.submit(Transaction("L", (h,), ((0, 1, TxOutput(9_000, "l")),), 400, 1_000, count=4))
    while s.mine():  # each block as oracle_block orders the members
        pass
    assert [[(t.id, t.first, t.count) for t in b.txs] for b in s.chain.blocks] == [
        [("P", 0, 3)], [("P", 3, 1), ("P", 4, 1), ("K", 0, 1)],
        [("K", 1, 1), ("K", 2, 1), ("K", 3, 1)], [("L", 0, 3)], [("L", 3, 1)], []]
    s.chain.audit()


def test_inputs_spending_one_pending_member_clear_together():
    # K spends two outputs of P's member 0, a single and then a cohort of
    # two-output members.  Blocks of one transaction confirm that member
    # alone: K must then be ready, and queued, with no pending input left.
    for count in (1, 2):
        s = Session(random.Random(0))
        s.limit = 400
        s.chain = ChainState(s.limit)
        g = s.chain.grant("g", 10_000, count=count)
        s.submit(Transaction("P", (g,), ((0, 2, TxOutput(4_000, "p")),), 400, 2_000, True,
                             count))
        s.submit(Transaction("K", (OutputRef("P", 0), OutputRef("P", 1)),
                             ((0, 1, TxOutput(7_000, "k")),), 400, 1_000))
        assert s.seen["single"] == 1 + (count == 1) and "K" in s.chain.mempool.pending
        while s.mine():  # as oracle_block orders the members; checks readiness
            pass
        assert s.chain.blocks[0].txs[0].id == "P" and "K" in s.chain.confirmed_ids
        s.chain.audit()


def test_cohort_sessions_match_member_by_member_references():
    seen = Counter()
    for seed in range(40):
        seen.update(run_session(7_000 + seed))
    # The generator must reach every path, not just accept whole cohorts.
    for what in ("cohort", "large-cohort", "single", "replaced", "part-mined",
                 "partial-replacement",
                 "ties", "split", "conflict-not-replaceable",
                 "insufficient-replacement-fee"):
        assert seen[what] > 5, seen
    assert seen["evicted-members"] > 500, seen
    print(dict(seen))


def test_commitment_shaped_parents_match_member_by_member_references():
    # Singles with a few output runs, spent a stretch at a time by cohorts
    # while they are pending and after they confirm.
    seen = Counter()
    for seed in range(15):
        seen.update(run_session(9_000 + seed, commitments=True))
    for what in ("commitment", "commitment-child-pending", "commitment-child-confirmed"):
        assert seen[what] > 5, seen
    print(dict(seen))
