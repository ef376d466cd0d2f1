"""Closed-world Bitcoin layer: UTXO set, mempool with BIP-125-style
replacement, and greedy feerate-ordered block assembly.

One block is mined per tick, there are no reorgs, and all amounts are integer
satoshis.  Feerates are satoshi per 1000 weight units (sat/kWU); wherever a
policy decision depends on a fee/weight ratio the comparison is done by
integer cross-multiplication so results never hinge on float rounding.

Replacement policy (submit): a transaction conflicting with pending
transactions is accepted only if every direct conflict is replaceable --
meaning it signals replaceability itself or inherits it from an unconfirmed
ancestor -- and the newcomer pays strictly more total fee than everything it
evicts while also beating each evicted transaction's feerate.  Absolute-fee
and rate-limit rules of the full BIP are deliberately out of scope.

Cohorts: a Transaction with count k stands for k alike members submitted
one after another.  Member m spends (ref.txid, ref.index + m) for each input
ref and owns the outputs (id, m * len(outputs) + j).  Every rule above holds
member by member; submit takes or refuses a cohort whole and raises
ValueError where its members would not share one verdict, mining takes as
many members of a fee class as fit in one step, and replacement evicts
member-aligned runs.  Cost follows the number of cohorts, not of members.
"""
from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from itertools import cycle, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True, slots=True, init=False)
class Transaction:
    """A transaction, or a cohort of `count` of them (see the module notes);
    weight, fee and outputs are each member's own."""
    id: str
    inputs: tuple[OutputRef, ...]
    outputs: tuple[TxOutput, ...]
    weight: int
    fee: int
    rbf_signal: bool = False
    count: int = 1

    first = 0  # number of the first member; only a Slice starts elsewhere

    def __init__(self, id: str, inputs: tuple[OutputRef, ...],
                 outputs: tuple[TxOutput, ...], weight: int, fee: int,
                 rbf_signal: bool = False, count: int = 1):
        # Frozen: assignment raises.  The generated __init__ would fill each
        # slot through object.__setattr__; the slot descriptors do the same
        # at half the cost.
        _set_id(self, id)
        _set_inputs(self, inputs)
        _set_outputs(self, outputs)
        _set_weight(self, weight)
        _set_fee(self, fee)
        _set_rbf_signal(self, rbf_signal)
        _set_count(self, count)

    def outranks(self, other: "Transaction") -> bool:
        """Exact strictly-greater feerate comparison."""
        return self.fee * other.weight > other.fee * self.weight


_set_id = Transaction.id.__set__
_set_inputs = Transaction.inputs.__set__
_set_outputs = Transaction.outputs.__set__
_set_weight = Transaction.weight.__set__
_set_fee = Transaction.fee.__set__
_set_rbf_signal = Transaction.rbf_signal.__set__
_set_count = Transaction.count.__set__


@dataclass(frozen=True, slots=True, init=False)
class Slice(Transaction):
    """Members first .. first + count - 1 of the cohort `id`: what a block
    holds where it took only part of a cohort."""
    first: int = 0

    def __init__(self, cohort: Transaction, first: int, count: int):
        Transaction.__init__(self, cohort.id, cohort.inputs, cohort.outputs,
                             cohort.weight, cohort.fee, cohort.rbf_signal, count)
        Slice.first.__set__(self, first)


_value_of = itemgetter(0)
_consume = deque(maxlen=0).extend  # runs an iterator to its end in C
_GONE = TxOutput(None, "", "")


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
    """Pending members lo .. hi - 1 of one cohort that share their number of
    pending parents (waits).  Member m was submitted with sequence number
    base + m."""
    tx: Transaction
    lo: int
    hi: int
    base: int
    waits: int

    def seq(self) -> int:
        return self.base + self.lo


class _FeeClass:
    """Minable pieces sharing one (fee, weight), in submission order.
    Classes order by exact feerate (highest first, cross-multiplied), then
    by weight (lighter first: it packs better under a weight limit); within
    a class submission order decides."""
    __slots__ = ("fee", "weight", "entries")

    def __init__(self, fee: int, weight: int):
        self.fee = fee
        self.weight = weight
        self.entries: deque[_Piece] = deque()

    def __lt__(self, other: "_FeeClass") -> bool:
        mine = self.fee * other.weight
        theirs = other.fee * self.weight
        return mine > theirs or (mine == theirs and self.weight < other.weight)


@dataclass
class MempoolState:
    """Pending cohorts plus the indexes needed for cheap policy checks.

    pending maps a cohort with any pending member to the cohort, and pieces
    to its pending members, split where their number of pending parents
    differs.  spent maps every outpoint spent by a pending member, as
    txid -> index -> spender, which makes conflict detection cheap; children
    maps a cohort to the cohorts spending its outputs.  Pieces with no
    pending parent wait in a _FeeClass; the classes form a heap (_queue),
    and an emptied piece (evicted members) is dropped when mining reaches it.
    """
    pending: dict[str, Transaction] = field(default_factory=dict)
    pieces: dict[str, list[_Piece]] = field(default_factory=dict)
    spent: dict[str, dict[int, str]] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)
    members: int = 0
    _classes: dict[tuple[int, int], _FeeClass] = field(default_factory=dict)
    _queue: list[_FeeClass] = field(default_factory=list)
    _next_seq: int = 0

    def __len__(self) -> int:
        return self.members

    def __contains__(self, txid: str) -> bool:
        return txid in self.pending

    def _enqueue(self, piece: _Piece) -> None:
        """Make a piece with no pending parent minable."""
        tx = piece.tx
        key = (tx.fee, tx.weight)
        cls = self._classes.get(key)
        if cls is None:
            cls = self._classes[key] = _FeeClass(tx.fee, tx.weight)
            heapq.heappush(self._queue, cls)
        entries = cls.entries
        if entries and entries[-1].seq() > piece.seq():
            insort(entries, piece, key=_Piece.seq)  # freed after later peers
        else:
            entries.append(piece)

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
        """Members lo .. hi - 1 of `txid` lost one pending parent."""
        for p in self._split(txid, lo, hi):
            p.waits -= 1
            if not p.waits:
                self._enqueue(p)

    def _release(self, parent: Transaction, lo: int, hi: int) -> None:
        """Members lo .. hi - 1 of `parent` left the mempool by confirmation."""
        txid = parent.id
        nout = len(parent.outputs)
        for kid in self.children.get(txid, ()):
            child = self.pending[kid]
            if parent.count == 1:
                self._adjust(kid, 0, child.count)
                continue
            if child.count == 1:
                owners = {ref.index // nout for ref in child.inputs if ref.txid == txid}
                for _ in range(sum(lo <= w < hi for w in owners)):
                    self._adjust(kid, 0, 1)
                continue
            for ref in child.inputs:
                if ref.txid == txid:
                    a, b = max(lo - ref.index, 0), min(hi - ref.index, child.count)
                    if a < b:
                        self._adjust(kid, a, b)

    def _forget(self, tx: Transaction) -> None:
        """The cohort has no pending member left."""
        txid = tx.id
        del self.pending[txid]
        del self.pieces[txid]
        self.children.pop(txid, None)
        for parent in {ref.txid for ref in tx.inputs}:
            siblings = self.children.get(parent)
            if siblings and txid in siblings:
                siblings.remove(txid)
                if not siblings:
                    del self.children[parent]

    def _unspend(self, tx: Transaction, lo: int, hi: int) -> None:
        spent = self.spent
        for ref in tx.inputs:
            owner = spent[ref.txid]
            _consume(map(owner.pop, range(ref.index + lo, ref.index + hi)))
            if not owner:
                del spent[ref.txid]
        self.members -= hi - lo


class ChainState:
    """Chain tip state: height, UTXO set, mempool and mined blocks.

    Value conservation (sum of unspent outputs plus all confirmed fees equals
    everything ever granted) is re-checked incrementally after every block.
    """

    def __init__(self, blockmaxweight: int = DEFAULT_BLOCKMAXWEIGHT):
        if blockmaxweight <= 0:
            raise ValueError("blockmaxweight must be positive")
        self.blockmaxweight = blockmaxweight
        self.height = 0
        self.blocks: list[Block] = []
        self.utxo: dict[str, dict[int, TxOutput]] = {}  # txid -> index -> output
        self.mempool = MempoolState()
        self.confirmed_ids: set[str] = set()
        self._granted_total = 0
        self._utxo_value = 0
        self._fees_confirmed = 0
        self._grant_counter = 0
        self._grants: dict[str, tuple[TxOutput, int]] = {}

    # -- funding ---------------------------------------------------------

    def grant(self, owner: str, value: int, kind: str = "grant",
              count: int = 1) -> OutputRef:
        """Mint `count` spendable outputs of `value` out of thin air
        (genesis/coinbase stand-in), at indices 0 .. count - 1 of the ref."""
        if value <= 0 or count < 1:
            raise ValueError("grant value and count must be positive")
        ref = OutputRef(f"grant-{self._grant_counter}", 0)
        self._grant_counter += 1
        out = TxOutput(value, owner, kind)
        self.utxo[ref.txid] = dict.fromkeys(range(count), out)
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
        if count < 1:
            raise ValueError(f"cohort {txid!r} of {count} members")
        inputs = tx.inputs
        if len(inputs) > 1:
            if len(set(inputs)) != len(inputs):
                return _REJECTED[REJECT_OWN_DOUBLE_SPEND]
            if count > 1:
                runs = sorted(inputs)
                if any(a.txid == b.txid and b.index < a.index + count
                       for a, b in zip(runs, runs[1:])):
                    raise ValueError(f"members of cohort {txid!r} spend one another's inputs")

        total_in = 0
        shared: set = set()  # pending parents of every member
        links: list[tuple[int, int, str]] = []  # members with a pending cohort parent
        direct: set[tuple[str, int, int]] = set()
        for ref in inputs:
            value = self._input_value(ref, count, shared, links)
            if value is None:
                return _REJECTED[REJECT_MISSING_INPUT]
            total_in += value
            rival = self._rival(ref, count)
            if rival is not None:
                direct.add(rival)
        outputs = tx.outputs
        out_value = outputs[0].value if len(outputs) == 1 else sum(map(_value_of, outputs))
        if total_in - out_value != tx.fee or tx.fee < 0:
            raise ValueError(
                f"tx {txid!r}: fee {tx.fee} != inputs {total_in} - outputs {out_value}"
            )

        result = _ACCEPTED
        if direct:
            result = self._replace(tx, direct)
            if not result.ok:
                return result

        base = mp._next_seq
        mp._next_seq = base + count
        pending[txid] = tx
        mp.members += count
        spent = mp.spent
        for ref in inputs:
            owner = spent.get(ref.txid) or spent.setdefault(ref.txid, {})
            owner.update(zip(range(ref.index, ref.index + count), repeat(txid)))
        parents = {p if isinstance(p, str) else p[0] for p in shared}
        parents.update(link[2] for link in links)
        children = mp.children
        for parent in parents:
            children.setdefault(parent, []).append(txid)
        cuts = sorted({0, count}.union(*((a, b) for a, b, _ in links)))
        pieces = mp.pieces[txid] = []
        for lo, hi in zip(cuts, cuts[1:]):
            waits = len(shared) + sum(a <= lo < b for a, b, _ in links)
            piece = _Piece(tx, lo, hi, base, waits)
            pieces.append(piece)
            if not waits:
                mp._enqueue(piece)
        return result

    def _input_value(self, ref: OutputRef, count: int, shared: set,
                     links: list) -> int | None:
        """Value of the output each member spends at `ref`, or None if none
        of them exists.  A pending transaction every member spends from goes
        in `shared`; members spending a pending member of a cohort go in
        `links` as (first, end, cohort id)."""
        txid, lo = ref
        hi = lo + count
        outs = self.utxo.get(txid, {})
        got = list(map(outs.get, range(lo, hi)))
        have = count - got.count(None)
        found = set(got)
        found.discard(None)
        parent = self.mempool.pending.get(txid)
        if parent is not None and parent.outputs:
            nout = len(parent.outputs)
            if parent.count == 1:
                held = parent.outputs[max(lo, 0):max(hi, 0)]  # none below 0
                if held:
                    shared.add(txid)
                    have += len(held)
                    found.update(held)
            else:
                for a, b in self.mempool.parts(txid, lo // nout, (hi - 1) // nout + 1):
                    if count == 1:
                        shared.add((txid, a))
                    elif nout != 1:
                        raise ValueError(
                            f"cohort spends members of {txid!r}, which have several outputs")
                    else:
                        links.append((a - lo, b - lo, txid))
                    have += b - a
                    found.add(parent.outputs[lo % nout])
        if not have:
            return None
        values = set(map(_value_of, found))
        if have < count or len(values) != 1:
            raise ValueError(f"cohort inputs at {ref} differ or only partly exist")
        return values.pop()

    def _rival(self, ref: OutputRef, count: int) -> tuple[str, int, int] | None:
        """The pending members spending what the cohort's members spend at
        `ref`: (cohort id, first, end), member first + m clashing with member
        m; None if none does."""
        owner = self.mempool.spent.get(ref.txid)
        if owner is None:
            return None
        rivals = set(map(owner.get, range(ref.index, ref.index + count)))
        if rivals == {None}:
            return None
        if len(rivals) != 1:
            raise ValueError(f"cohort members conflict unevenly at {ref}")
        rival = rivals.pop()
        other = self.mempool.pending[rival]
        first = next(ref.index - theirs.index for theirs in other.inputs
                     if theirs.txid == ref.txid and 0 <= ref.index - theirs.index < other.count)
        if first + count > other.count:
            raise ValueError(f"cohort members conflict unevenly at {ref}")
        return rival, first, first + count

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
            gone = pending[txid]
            for ref in tx.inputs:
                if ref.txid != txid:
                    continue
                # The newcomer cannot ride on outputs it is about to destroy.
                if count == 1:
                    if lo <= ref.index // len(gone.outputs) < hi:
                        return _REJECTED[REJECT_MISSING_INPUT]
                elif ref.index == lo:
                    return _REJECTED[REJECT_MISSING_INPUT]
                elif ref.index < hi and lo < ref.index + count:
                    raise ValueError(f"cohort {tx.id!r} spends what it evicts unevenly")
        if tx.fee * count <= sum(pending[txid].fee * (hi - lo) for txid, lo, hi in evicted) \
                or not all(tx.outranks(pending[txid]) for txid, _, _ in evicted):
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
            nout = len(parent.outputs)
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
            nout = len(mp.pending[txid].outputs)
            for kid in mp.children.get(txid, ()):
                child = mp.pending[kid]
                for ref in child.inputs:
                    if ref.txid != txid:
                        continue
                    a = max(lo * nout - ref.index, 0)
                    b = min(hi * nout - ref.index, child.count)
                    runs = mp.parts(kid, a, b) if a < b else []
                    if count > 1 and runs and runs != [(lo - ref.index, hi - ref.index)]:
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
        best fee class, and as many of its cohort's members as fit go in at
        once -- one at a time when the cohort has pending children, which
        may outrank it once freed.  A class whose weight no longer fits is
        skipped whole for the rest of the block."""
        mp = self.mempool
        queue = mp._queue
        pieces = mp.pieces
        children = mp.children
        utxo = self.utxo
        confirmed = self.confirmed_ids
        room = self.blockmaxweight
        value = self._utxo_value
        fees = self._fees_confirmed
        selected: list[Transaction] = []
        skipped: list[_FeeClass] = []
        while queue:
            cls = queue[0]
            entries = cls.entries
            weight = cls.weight
            if not entries:
                heapq.heappop(queue)
                del mp._classes[(cls.fee, weight)]
                continue
            if weight > room:
                skipped.append(heapq.heappop(queue))
                continue
            # This class stays the best until it runs dry, stops fitting,
            # or a selection frees children that may outrank it.
            while entries and weight <= room:
                piece = entries[0]
                lo, hi = piece.lo, piece.hi
                if lo >= hi:
                    entries.popleft()  # evicted after it was queued
                    continue
                tx = piece.tx
                txid = tx.id
                kids = txid in children
                end = lo + 1 if kids else min(hi, lo + room // weight)
                taken = end - lo
                piece.lo = end
                if end == hi:
                    entries.popleft()
                    pieces[txid].remove(piece)
                room -= weight * taken
                for ref in tx.inputs:  # parents precede children: topological
                    outs = utxo[ref.txid]
                    first = ref.index + lo
                    value -= sum(map(_value_of, map(outs.pop, range(first, first + taken))))
                    if not outs:
                        del utxo[ref.txid]
                mp._unspend(tx, lo, end)
                outputs = tx.outputs
                if outputs:
                    nout = len(outputs)
                    made = utxo.get(txid)
                    if made is None:
                        made = utxo[txid] = {}
                    made.update(zip(range(lo * nout, end * nout), cycle(outputs)))
                    value += taken * sum(map(_value_of, outputs))
                fees += taken * tx.fee
                confirmed.add(txid)
                selected.append(tx if taken == tx.count else Slice(tx, lo, taken))
                if kids:
                    mp._release(tx, lo, end)
                if not pieces[txid]:
                    mp._forget(tx)
                if kids:
                    break
        for cls in skipped:
            heapq.heappush(queue, cls)

        self._utxo_value = value
        self._fees_confirmed = fees
        self.height += 1
        block = Block(self.height, tuple(selected), self.blockmaxweight - room)
        self.blocks.append(block)
        if value + fees != self._granted_total:
            raise AssertionError(
                f"value conservation broken at height {self.height}: "
                f"{value} utxo + {fees} fees "
                f"!= {self._granted_total} granted"
            )
        return block

    # -- queries ---------------------------------------------------------

    def is_confirmed(self, txid: str) -> bool:
        """Whether any member of `txid` has confirmed."""
        return txid in self.confirmed_ids

    def audit(self) -> None:
        """Full structural audit: replay every block against a fresh UTXO
        view, checking for double spends, per-block weight violations and
        value conservation.  Runs at the end of every attack run.  Each
        member outpoint is checked through set and dict operations on whole
        runs of indices, with no object built per member."""
        utxo = {txid: dict.fromkeys(range(count), out)
                for txid, (out, count) in self._grants.items()}
        fees = 0
        for block in self.blocks:
            txs = block.txs
            weight = sum(tx.weight * tx.count for tx in txs)
            if weight != block.weight_used or weight > self.blockmaxweight:
                raise AssertionError(f"block {block.height} weight bookkeeping broken")
            for tx in txs:
                first, count = tx.first, tx.count
                in_val = 0
                for ref in tx.inputs:
                    # An output leaves the view when spent, so a second
                    # spend of it finds it missing.
                    outs = utxo.get(ref.txid, {})
                    span = range(ref.index + first, ref.index + first + count)
                    values = set(map(_value_of, map(outs.pop, span, repeat(_GONE))))
                    if None in values or len(values) != 1:
                        raise AssertionError(f"missing or double-spent input {ref} for {tx.id}")
                    if not outs:
                        utxo.pop(ref.txid, None)
                    in_val += values.pop()
                outputs = tx.outputs
                if outputs:
                    nout = len(outputs)
                    utxo.setdefault(tx.id, {}).update(
                        zip(range(first * nout, (first + count) * nout), cycle(outputs)))
                fees += tx.fee * count
                if in_val - sum(map(_value_of, outputs)) != tx.fee:
                    raise AssertionError(f"fee mismatch in confirmed tx {tx.id}")
        left = sum(sum(map(_value_of, outs.values())) for outs in utxo.values())
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
