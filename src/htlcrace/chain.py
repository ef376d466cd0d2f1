"""Closed-world Bitcoin layer: UTXO set, mempool with BIP-125-style
replacement, and greedy feerate-ordered block assembly.

One block is mined per tick, there are no reorgs, and all amounts are integer
satoshis, output values never negative.  Feerates are satoshi per 1000
weight units (sat/kWU); wherever a policy decision depends on a fee/weight
ratio the comparison is exact in integers (cross-multiplied, or the mining
queue's _rank) so results never hinge on float rounding.

Replacement policy (submit): a transaction conflicting with pending
transactions is accepted only if every direct conflict is replaceable --
meaning it signals replaceability itself or inherits it from an unconfirmed
ancestor -- and the newcomer pays strictly more total fee than everything it
evicts while also beating each evicted transaction's feerate.  Absolute-fee
and rate-limit rules of the full BIP are deliberately out of scope.

Outputs and cohorts: a Transaction's outputs are a run map (htlcrace.runs)
over one member's output indexes 0 .. nout - 1, ((lo, hi, TxOutput), ...)
with alike neighbours joined, so a 483-HTLC commitment is three runs to
submit, mine and audit.  A Transaction with count k stands for k alike
members submitted one after another.  Member m spends (ref.txid, ref.index
+ m) for each input ref and owns the outputs (id, m * nout + j).  Every rule
above holds member by member; submit takes or refuses a cohort whole, and it
raises ValueError unless the members' inputs, conflicts and evictions line
up member by member (the caller then splits the cohort).  A cohort's
pending members form pieces that count their pending inputs, one per input
spending a pending member's output; mining takes as many members of the
best queued piece as fit in one step, and replacement evicts member-aligned
runs.  The unspent set and the mempool's spent index map a txid to a run
map from output index to the output or to its spender, so cost follows
cohorts and runs of alike outputs, not members.  A filler is an input-less,
output-less transaction whose fee is granted when it is mined.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from . import runs

# Consensus cap on a single transaction.  The *mining* limit (blockmaxweight)
# is configurable per chain and may be far smaller; an oversized-for-mining
# transaction is still valid and simply sits in the mempool forever, which is
# exactly how sustained congestion is modelled.
MAX_TX_WEIGHT = 4_000_000
DEFAULT_BLOCKMAXWEIGHT = 4_000_000

REJECT_MISSING_INPUT = "missing-input"
REJECT_NOT_REPLACEABLE = "conflict-not-replaceable"
REJECT_INSUFFICIENT_FEE = "insufficient-replacement-fee"
REJECT_OWN_DOUBLE_SPEND = "double-spend-of-own-input"


class OutputRef(NamedTuple):
    txid: str
    index: int


class TxOutput(NamedTuple):
    value: int
    owner: str
    kind: str = "plain"


class Transaction(NamedTuple):
    """A transaction, or a cohort of `count` of them (see the module notes);
    weight, fee and output runs are each member's own.  A block that takes
    part of a cohort holds members first .. first + count - 1 of it."""
    id: str
    inputs: tuple[OutputRef, ...]
    outputs: tuple[tuple[int, int, TxOutput], ...]
    weight: int
    fee: int
    rbf_signal: bool = False
    count: int = 1  # shadows tuple.count, which nothing calls on a Transaction
    first: int = 0


def replacement_floor(evicted: list[tuple[Transaction, int]], weight: int) -> int:
    """Least fee of one member of `weight` that replaces `members` members of
    each (transaction, members) pair: more than their fees together, and a
    higher feerate than each transaction (exact in integers)."""
    return max([sum(tx.fee * k for tx, k in evicted) + 1]
               + [tx.fee * weight // tx.weight + 1 for tx, _ in evicted])


def _take(index: dict, txid: str, lo: int, hi: int) -> list:
    """runs.take on index[txid], dropping the txid once it holds nothing."""
    held = index.get(txid)
    if not held:
        return []
    if lo <= held[0][0] and held[-1][1] <= hi:  # all of it
        return index.pop(txid)
    # Else some index of held lies outside lo .. hi - 1, so held keeps it.
    return runs.take(held, lo, hi)


def _put(index: dict, txid: str, lo: int, hi: int, x) -> None:
    """runs.put on index[txid]."""
    runs.put(index.setdefault(txid, []), lo, hi, x)


def _mint(utxo: dict, txid: str, outputs: tuple, lo: int, hi: int) -> None:
    """Add the output runs of members lo .. hi - 1 of `txid`, member m's at
    m * nout on."""
    n = outputs[-1][1] if outputs else 0  # nout: the last run's end
    if len(outputs) == 1:  # one run: one for all members
        return _put(utxo, txid, lo * n, hi * n, outputs[0][2])
    for at in range(lo * n, hi * n, n or 1):  # no outputs: nothing to add
        for a, b, out in outputs:
            _put(utxo, txid, at + a, at + b, out)


@dataclass(frozen=True, slots=True)
class SubmitResult:
    status: str                      # accepted | replaced | rejected
    evicted: tuple[str, ...] = ()
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != "rejected"


_ACCEPTED = SubmitResult("accepted")
_REJECTED = {reason: SubmitResult("rejected", reason=reason)
             for reason in (REJECT_MISSING_INPUT, REJECT_NOT_REPLACEABLE,
                            REJECT_INSUFFICIENT_FEE, REJECT_OWN_DOUBLE_SPEND)}


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    txs: tuple[Transaction, ...]
    weight_used: int


@dataclass(slots=True, eq=False)
class _Piece:
    """Pending members lo .. hi - 1 of one cohort, each with `waits` inputs
    that spend an output of a pending member.  Member m was submitted with
    sequence number base + m."""
    tx: Transaction
    lo: int
    hi: int
    base: int
    waits: int


def _rank(fee: int, weight: int) -> int:
    """Mining-queue key of feerate fee / weight, lower for a higher feerate.
    Exact for weights up to MAX_TX_WEIGHT: two distinct feerates then differ
    by more than 1 / MAX_TX_WEIGHT ** 2 > 2 ** -44, so their floors scaled by
    2 ** 44 differ too."""
    return -((fee << 44) // weight)


def _spending(index: int, nout: int, lo: int, hi: int, count: int) -> tuple[int, int]:
    """(a, b): members a .. b - 1 of a cohort of `count` with an input at
    `index` spend members lo .. hi - 1 of a parent with `nout` outputs each;
    none if a >= b."""
    return max(lo * nout - index, 0), min(hi * nout - index, count)


@dataclass
class MempoolState:
    """Pending cohorts plus the indexes needed for cheap policy checks.

    pending maps a cohort with any pending member to the cohort, and pieces
    to its pending members, split where their number of pending inputs
    (waits) differs; every input that spends a pending member's output
    counts once, until that member is mined.  spent maps a txid to a run
    map (lo, hi, spender) of its outputs spent by pending members: the one
    index of who spends what, which names both a newcomer's conflicts and
    each cohort's spenders.  Pieces with no pending input wait in one heap
    (_queue) of (_rank, weight, base + lo, piece) entries: highest feerate
    first, then lighter (it packs better under a weight limit), then
    submission order.  A partly mined piece keeps its key, which stays in
    place because a cohort's members hold consecutive sequence numbers; an
    emptied piece (evicted members) is dropped when mining reaches it.  seq
    counts the members accepted so far, and so numbers the next one.
    """
    pending: dict[str, Transaction] = field(default_factory=dict)
    pieces: dict[str, list[_Piece]] = field(default_factory=dict)
    spent: dict[str, list[tuple[int, int, str]]] = field(default_factory=dict)
    _queue: list[tuple[int, int, int, _Piece]] = field(default_factory=list)
    seq: int = 0

    def __len__(self) -> int:
        return sum(p.hi - p.lo for pieces in self.pieces.values() for p in pieces)

    def _enqueue(self, piece: _Piece) -> None:
        """Make a piece with no pending input minable."""
        tx = piece.tx
        heapq.heappush(self._queue, (_rank(tx.fee, tx.weight), tx.weight,
                                     piece.base + piece.lo, piece))

    def parts(self, txid: str, lo: int, hi: int) -> list[tuple[int, int]]:
        """The pending members of `txid` among lo .. hi - 1, as maximal runs."""
        runs: list[tuple[int, int]] = []
        for p in self.pieces.get(txid, ()):
            a, b = max(p.lo, lo), min(p.hi, hi)
            if a < b:
                if runs and runs[-1][1] == a:
                    a = runs.pop()[0]
                runs.append((a, b))
        return runs

    def _split(self, txid: str, lo: int, hi: int) -> list[_Piece]:
        """Cut the pieces of `txid` at members lo and hi; the pieces between.
        A cut piece keeps its place in the queue for its first part."""
        tx = self.pending[txid]
        kept: list[_Piece] = []
        inside: list[_Piece] = []
        for p in self.pieces[txid]:
            bounds = [p.lo, *(c for c in (lo, hi) if p.lo < c < p.hi), p.hi]
            p.hi = bounds[1]
            parts = [p] + [_Piece(tx, a, b, p.base, p.waits)
                           for a, b in zip(bounds[1:], bounds[2:])]
            for q in parts:
                if q is not p and not q.waits:
                    self._enqueue(q)
                if lo <= q.lo and q.hi <= hi:
                    inside.append(q)
            kept += parts
        self.pieces[txid] = kept
        return inside

    def _adjust(self, txid: str, lo: int, hi: int) -> None:
        """Members lo .. hi - 1 of `txid` lost one pending input."""
        for p in self._split(txid, lo, hi):
            p.waits -= 1
            if not p.waits:
                self._enqueue(p)

    def _spenders(self, txid: str, lo: int, hi: int) -> list[tuple[str, int, int]]:
        """(kid, a, b) for each input of a pending cohort by which its
        members a .. b - 1 spend outputs lo .. hi - 1 of `txid`, which may
        be pending, confirmed or a grant."""
        found = []
        held = self.spent.get(txid)
        for kid in dict.fromkeys(x for _, _, x in runs.overlap(held, lo, hi)) if held else ():
            child = self.pending[kid]
            for ref in child.inputs:
                if ref.txid == txid:
                    a, b = _spending(ref.index, 1, lo, hi, child.count)
                    if a < b:
                        found.append((kid, a, b))
        return found

    def _forget(self, tx: Transaction) -> None:
        """The cohort has no pending member left."""
        del self.pending[tx.id]
        del self.pieces[tx.id]

    def _unspend(self, tx: Transaction, lo: int, hi: int) -> None:
        for ref in tx.inputs:
            _take(self.spent, ref.txid, ref.index + lo, ref.index + hi)


class ChainState:
    """Chain tip state: height, UTXO set, mempool and mined blocks.

    Value conservation (sum of unspent outputs plus all confirmed fees equals
    everything ever granted: grants, and each filler's fee as it is mined) is
    re-checked incrementally after every block.
    """

    def __init__(self, blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT):
        if blockmaxweight <= 0:
            raise ValueError("blockmaxweight must be positive")
        self.blockmaxweight = blockmaxweight
        self.height = 0
        self.blocks: list[Block] = []
        self.utxo: dict[str, list[tuple[int, int, TxOutput]]] = {}  # txid -> runs
        self.mempool = MempoolState()
        self.confirmed_ids: set[str] = set()
        self._granted_total = 0
        self._utxo_value = 0
        self._fees_confirmed = 0
        self._grants: dict[str, tuple[TxOutput, int]] = {}

    # -- funding ---------------------------------------------------------

    def grant(self, owner: str, value: int, count: int = 1) -> OutputRef:
        """Mint `count` spendable outputs of `value` out of thin air
        (genesis/coinbase stand-in), at indices 0 .. count - 1 of the ref."""
        if value <= 0 or count < 1:
            raise ValueError("grant value and count must be positive")
        ref = OutputRef(f"grant-{len(self._grants)}", 0)  # grants are never removed
        out = TxOutput(value, owner, "grant")
        self.utxo[ref.txid] = [(0, count, out)]
        self._grants[ref.txid] = (out, count)
        self._granted_total += value * count
        self._utxo_value += value * count
        return ref

    # -- mempool policy --------------------------------------------------

    def submit(self, tx: Transaction) -> SubmitResult:
        mp = self.mempool
        pending = mp.pending
        txid = tx.id
        count = tx.count
        if txid in pending or txid in self.confirmed_ids:
            raise ValueError(f"duplicate transaction id {txid!r}")
        if not 0 < tx.weight <= MAX_TX_WEIGHT:
            raise ValueError(f"transaction weight {tx.weight} out of range")
        if count < 1 or tx.first:  # a submitted cohort starts at member 0
            raise ValueError(f"cohort {txid!r} of {count} members from member {tx.first}")
        inputs = tx.inputs
        if len(inputs) > 1:
            if len(set(inputs)) != len(inputs):
                return _REJECTED[REJECT_OWN_DOUBLE_SPEND]
            if count > 1:
                runs = sorted(inputs)
                if any(a.txid == b.txid and b.index < a.index + count
                       for a, b in zip(runs, runs[1:])):
                    raise ValueError(f"members of cohort {txid!r} spend one another's inputs")

        total_in = 0 if inputs else tx.fee  # a filler's fee is granted when mined
        links: list[tuple[int, int, str]] = []  # one per pending input
        direct: set[tuple[str, int, int]] = set()
        for ref in inputs:
            value = self._input_value(ref, count, links)
            if value is None:
                return _REJECTED[REJECT_MISSING_INPUT]
            total_in += value
            rival = self._rival(ref, count)
            if rival is not None:
                direct.add(rival)
        out_value, at, last = 0, 0, None
        for a, b, out in tx.outputs:
            if a != at or b <= a or out == last:  # alike neighbours must be one run
                raise ValueError(f"tx {txid!r}: outputs are not non-empty runs from 0 on")
            if out.value < 0:
                raise ValueError(f"tx {txid!r}: output value {out.value} is negative")
            out_value, at, last = out_value + (b - a) * out.value, b, out
        if not inputs and tx.outputs:
            raise ValueError(f"filler {txid!r} has outputs")
        if tx.fee < 0:
            raise ValueError(f"tx {txid!r}: fee {tx.fee} is negative")
        if total_in - out_value != tx.fee:
            raise ValueError(f"tx {txid!r}: fee {tx.fee} != inputs {total_in} - outputs {out_value}")

        result = _ACCEPTED
        if direct:
            result = self._replace(tx, direct)
            if not result.ok:
                return result

        base = mp.seq
        mp.seq = base + count
        pending[txid] = tx
        for ref in inputs:
            _put(mp.spent, ref.txid, ref.index, ref.index + count, txid)
        if not links:  # no pending input: one piece, minable at once
            piece = _Piece(tx, 0, count, base, 0)
            mp.pieces[txid] = [piece]
            mp._enqueue(piece)
            return result
        cuts = sorted({0, count}.union(*((a, b) for a, b, _ in links)))
        pieces = mp.pieces[txid] = []
        for lo, hi in zip(cuts, cuts[1:]):
            waits = sum(a <= lo < b for a, b, _ in links)
            piece = _Piece(tx, lo, hi, base, waits)
            pieces.append(piece)
            if not waits:
                mp._enqueue(piece)
        return result

    def _input_value(self, ref: OutputRef, count: int, links: list) -> int | None:
        """Value of the output each member spends at `ref`, or None if none
        of them exists.  Members a .. b - 1 that spend a run of pending
        members of the parent go in `links` as (a, b, parent id), one per run."""
        txid, lo = ref
        hi = lo + count
        held = self.utxo.get(txid)
        parent = self.mempool.pending.get(txid)
        if parent is None and held is not None and len(held) == 1:
            a, b, out = held[0]
            if a <= lo and hi <= b:  # one unspent run holds every member's input
                return out.value
        have, found = 0, set()
        for a, b, out in runs.overlap(held, lo, hi) if held else ():
            have += b - a
            found.add(out)
        if parent is not None and parent.outputs:
            outputs = parent.outputs
            nout = outputs[-1][1]
            for pa, pb in self.mempool.parts(txid, lo // nout, (hi - 1) // nout + 1):
                if count > 1 and parent.count > 1 and nout != 1:
                    raise ValueError(
                        f"cohort spends members of {txid!r}, which have several outputs")
                a, b = _spending(lo, nout, pa, pb, count)
                links.append((a, b, txid))
                have += b - a
                at = lo - pa * nout  # member m spends member pa's output at + m
                found.update(out for _, _, out in runs.overlap(outputs, at + a, at + b))
        if not have:
            return None
        values = {out.value for out in found}
        if have < count or len(values) != 1:
            raise ValueError(f"cohort inputs at {ref} differ or only partly exist")
        return values.pop()

    def _rival(self, ref: OutputRef, count: int) -> tuple[str, int, int] | None:
        """The pending members spending what the cohort's members spend at
        `ref`: (cohort id, first, end), member first + m clashing with member
        m; None if none does."""
        mp = self.mempool
        meet = mp._spenders(ref.txid, ref.index, ref.index + count)
        if not meet:
            return None
        kid, a, b = meet[0]  # a partly evicted rival conflicts unevenly too
        if len(meet) != 1 or b - a != count or mp.parts(kid, a, b) != [(a, b)]:
            raise ValueError(f"cohort members conflict unevenly at {ref}")
        return meet[0]

    def _replace(self, tx: Transaction, direct: set[tuple[str, int, int]]) -> SubmitResult:
        """Apply the replacement rules for `tx` against its direct conflicts;
        on success the conflicts and their descendants leave the mempool."""
        mp = self.mempool
        pending = mp.pending
        count = tx.count
        for rival in direct:
            if not self._replaceable(*rival):
                return _REJECTED[REJECT_NOT_REPLACEABLE]
        evicted = self._with_descendants(direct, count)
        for txid, lo, hi in evicted:
            for ref in tx.inputs:
                if ref.txid != txid:
                    continue
                # The newcomer cannot ride on outputs it is about to destroy.
                a, b = _spending(ref.index, pending[txid].outputs[-1][1], lo, hi, count)
                if a < b:
                    if b - a < count:
                        raise ValueError(f"cohort {tx.id!r} spends what it evicts unevenly")
                    return _REJECTED[REJECT_MISSING_INPUT]
        # Every evicted run has `count` members when count > 1 (_rival and
        # _with_descendants raise otherwise), so one member's floor decides.
        if tx.fee < replacement_floor([(pending[t], (hi - lo) // count)
                                       for t, lo, hi in evicted], tx.weight):
            return _REJECTED[REJECT_INSUFFICIENT_FEE]
        order = sorted(evicted, key=lambda e: mp.pieces[e[0]][0].base + e[1])
        for txid, lo, hi in order:
            self._evict(pending[txid], lo, hi)
        return SubmitResult("replaced", evicted=tuple(dict.fromkeys(e[0] for e in order)))

    def _replaceable(self, txid: str, lo: int, hi: int) -> bool:
        """rbf_signal on the members lo .. hi - 1 of a cohort or on any
        unconfirmed ancestor; raises if that differs between the members."""
        mp = self.mempool
        tx = mp.pending[txid]
        if tx.rbf_signal:
            return True
        for ref in tx.inputs:
            parent = mp.pending.get(ref.txid)
            if parent is None:
                continue
            nout = parent.outputs[-1][1]
            a, b = (ref.index + lo) // nout, (ref.index + hi - 1) // nout + 1
            runs = mp.parts(ref.txid, a, b)
            if any(self._replaceable(ref.txid, *run) for run in runs):
                if runs != [(a, b)]:
                    raise ValueError(f"members of {txid!r} differ in replaceability")
                return True
        return False

    def _with_descendants(self, roots: set[tuple[str, int, int]],
                          count: int) -> list[tuple[str, int, int]]:
        """Roots plus every pending member spending their outputs, as
        (cohort id, first, end) runs.  For a cohort of several members each
        run must line up with the newcomer's members one to one."""
        mp = self.mempool
        out: set[tuple[str, int, int]] = set()
        stack = list(roots)
        while stack:
            cur = stack.pop()
            if cur in out:
                continue
            out.add(cur)
            txid, lo, hi = cur
            outputs = mp.pending[txid].outputs
            n = outputs[-1][1] if outputs else 0  # nout
            for kid, a, b in mp._spenders(txid, lo * n, hi * n):
                runs = mp.parts(kid, a, b)
                if count > 1 and runs and (runs != [(a, b)] or b - a != hi - lo):
                    raise ValueError(f"descendants of {txid!r} do not line up")
                stack.extend((kid, x, y) for x, y in runs)
        merged: list[tuple[str, int, int]] = []
        for txid, lo, hi in sorted(out):  # runs reached along two paths may overlap
            if merged and merged[-1][0] == txid and lo < merged[-1][2]:
                if count > 1:
                    raise ValueError("cohort members would evict the same transactions")
                _, lo, top = merged.pop()
                hi = max(hi, top)
            merged.append((txid, lo, hi))
        return merged

    def _evict(self, tx: Transaction, lo: int, hi: int) -> None:
        """Drop pending members lo .. hi - 1 of a cohort."""
        mp = self.mempool
        for p in mp._split(tx.id, lo, hi):
            p.lo = p.hi  # emptied; mining drops it if queued
        kept = mp.pieces[tx.id] = [p for p in mp.pieces[tx.id] if p.lo < p.hi]
        mp._unspend(tx, lo, hi)
        if not kept:
            mp._forget(tx)

    # -- mining ----------------------------------------------------------

    def mine_block(self) -> Block:
        """Greedy assembly: repeatedly take the best eligible member
        (parents confirmed or already selected), skipping ones that do not
        fit, until nothing else can be added.  The best member heads the
        best queued piece, and as many of its members as fit go in at once
        -- one at a time while any of its remaining members has a pending
        spender, which may outrank it once freed.  A piece too heavy for the
        room left is set aside and queued again after the block."""
        mp = self.mempool
        queue = mp._queue
        pieces = mp.pieces
        utxo = self.utxo
        confirmed = self.confirmed_ids
        room = self.blockmaxweight
        value = self._utxo_value
        fees = self._fees_confirmed
        granted = self._granted_total
        selected: list[Transaction] = []
        skipped: list[tuple[int, int, int, _Piece]] = []
        while queue:
            entry = queue[0]
            piece = entry[3]
            lo, hi = piece.lo, piece.hi
            if lo >= hi:
                heapq.heappop(queue)  # evicted after it was queued
                continue
            weight = entry[1]
            if weight > room:
                skipped.append(heapq.heappop(queue))
                continue
            tx = piece.tx
            txid = tx.id
            held = mp.spent.get(txid)  # then tx has outputs: n per member
            kids = held and runs.overlap(held, lo * (n := tx.outputs[-1][1]), hi * n)
            end = lo + 1 if kids else min(hi, lo + room // weight)
            taken = end - lo
            piece.lo = end  # a piece left in the queue keeps its key
            if end == hi:
                heapq.heappop(queue)
                pieces[txid].remove(piece)
            room -= weight * taken
            for ref in tx.inputs:  # parents precede children: topological
                for a, b, out in _take(utxo, ref.txid, ref.index + lo, ref.index + end):
                    value -= (b - a) * out.value
            mp._unspend(tx, lo, end)
            _mint(utxo, txid, tx.outputs, lo, end)
            value += taken * sum((b - a) * out.value for a, b, out in tx.outputs)
            fees += taken * tx.fee
            if not tx.inputs:  # a filler: its fee enters the chain as it is mined
                granted += taken * tx.fee
            confirmed.add(txid)
            selected.append(tx if taken == tx.count else Transaction(
                txid, tx.inputs, tx.outputs, weight, tx.fee, tx.rbf_signal, taken, lo))
            if kids:  # members that spend them lose a pending input each
                for kid, a, b in mp._spenders(txid, lo * n, end * n):
                    mp._adjust(kid, a, b)
            if not pieces[txid]:
                mp._forget(tx)
        for entry in skipped:
            heapq.heappush(queue, entry)

        self._utxo_value = value
        self._fees_confirmed = fees
        self._granted_total = granted
        self.height += 1
        block = Block(self.height, tuple(selected), self.blockmaxweight - room)
        self.blocks.append(block)
        if value + fees != granted:
            raise AssertionError(f"value conservation broken at height {self.height}: "
                                 f"{value} utxo + {fees} fees != {granted} granted")
        return block

    # -- audit -----------------------------------------------------------

    def audit(self) -> None:
        """Full structural audit: replay every block against fresh unspent
        runs built from the grants alone, checking for missing and double
        spends, per-block weight violations, fees and value conservation,
        then compare those runs with the live utxo.  Runs at the end of every
        attack run, at a cost per run, not per member."""
        utxo = {txid: [(0, count, out)] for txid, (out, count) in self._grants.items()}
        fees = 0
        for block in self.blocks:
            txs = block.txs
            weight = sum(tx.weight * tx.count for tx in txs)
            if weight != block.weight_used or weight > self.blockmaxweight:
                raise AssertionError(f"block {block.height} weight bookkeeping broken")
            for tx in txs:
                first, count = tx.first, tx.count
                in_val = 0 if tx.inputs else tx.fee  # a filler's fee was granted
                for ref in tx.inputs:  # spent outputs leave: a second spend finds none
                    have, values = 0, set()
                    for a, b, out in _take(utxo, ref.txid, ref.index + first,
                                           ref.index + first + count):
                        have += b - a
                        values.add(out.value)
                    if have != count or len(values) != 1:
                        raise AssertionError(f"missing or double-spent input {ref} for {tx.id}")
                    in_val += values.pop()
                _mint(utxo, tx.id, tx.outputs, first, first + count)
                fees += tx.fee * count
                if in_val - sum((b - a) * out.value for a, b, out in tx.outputs) != tx.fee:
                    raise AssertionError(f"fee mismatch in confirmed tx {tx.id}")
        left = sum((b - a) * out.value for runs in utxo.values() for a, b, out in runs)
        if left + fees != self._granted_total:
            raise AssertionError("replayed value conservation failed")
        if utxo != self.utxo:
            raise AssertionError("replayed UTXO set diverges from live state")


def available_space(feerate: int, entries: Iterable[tuple[int, int, int]],
                    blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT) -> int:
    """Block weight not claimed by the (fee, weight, count) entries paying
    strictly more than `feerate` (sat/kWU): the room a transaction at that
    feerate could have competed for.  Strictness is exact (cross-multiplied)."""
    return blockmaxweight - sum(weight * count for fee, weight, count in entries
                                if fee * 1000 > feerate * weight)
