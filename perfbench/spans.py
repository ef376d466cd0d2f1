"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each htlcrace layer where their
callers look them up (module globals and class attributes), so the program's
own source stays untouched.  Every call becomes a span -- name, start, end,
parent span, unit id -- kept in flat arrays until the run ends; per-layer
metrics are derived from the spans and a few counters afterwards.  A name
that no longer exists (say, a renamed `_Run` phase method) is recorded as
absent and never fails the run.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

PHASES = ("attack.open", "attack.minimize", "attack.load", "attack.release",
          "attack.race", "attack.classify")

# (span name, lookup sites "module" or "module:Class", attribute, opens a unit)
TARGETS = (
    ("chain.submit", ("htlcrace.chain:ChainState",), "submit", False),
    ("chain.mine_block", ("htlcrace.chain:ChainState",), "mine_block", False),
    ("chain.audit", ("htlcrace.chain:ChainState",), "audit", False),
    ("chain.grant", ("htlcrace.chain:ChainState",), "grant", False),
    ("channel.add_htlc", ("htlcrace.channel:Channel",), "add_htlc", False),
    ("channel.build_htlc_claim", ("htlcrace.channel:Channel",), "build_htlc_claim", False),
    ("channel.force_close", ("htlcrace.channel:Channel",), "force_close", False),
    ("channel.fulfill_htlc_offchain", ("htlcrace.channel:Channel",),
     "fulfill_htlc_offchain", False),
    ("channel.update_fee", ("htlcrace.channel:Channel",), "update_fee", False),
    ("channel.open_channel", ("htlcrace.attack",), "open_channel", False),
    ("attack.run_attack", ("htlcrace.attack", "htlcrace.cli", "htlcrace.mitigations"),
     "run_attack", True),
    ("attack.open", ("htlcrace.attack:_Run",), "_open_channels", False),
    ("attack.minimize", ("htlcrace.attack:_Run",), "_minimize_feerate", False),
    ("attack.load", ("htlcrace.attack:_Run",), "_load_htlcs", False),
    ("attack.release", ("htlcrace.attack:_Run",), "_release_channel", False),
    ("attack.race", ("htlcrace.attack:_Run",), "_race", False),
    ("attack.classify", ("htlcrace.attack:_Run",), "_classify", False),
    ("fees.simulate_feerate_strategy", ("htlcrace.cli",), "simulate_feerate_strategy", False),
    ("fees.victim_available_space", ("htlcrace.cli",), "victim_available_space", False),
    ("fees.synthetic_blocks", ("htlcrace.cli",), "synthetic_blocks", False),
    ("fees.synthetic_feerate_series", ("htlcrace.cli",), "synthetic_feerate_series", False),
    ("mitigations.run_mitigation_matrix", ("htlcrace.cli",), "run_mitigation_matrix", False),
    ("cli.load_scenario", ("htlcrace.cli",), "load_scenario", False),
    ("cli.build_attack_config", ("htlcrace.cli",), "build_attack_config", False),
    ("cli.run_scenario", ("htlcrace.cli",), "run_scenario", False),
)
# Called about a million times per fee-analysis scenario: counted, not spanned.
COUNTED = (("fees.estimate_at", "htlcrace.fees:FeerateSeries", "estimate_at"),)


class Recorder:
    """Spans in flat arrays, indexed by span id in start order."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.stack = [-1]
        self.unit_id = 0
        self._units = 0
        self.counters: Counter[str] = Counter()
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_unit(self) -> int:
        self._units += 1
        self.unit_id = self._units
        return self.unit_id

    def begin(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.unit.append(self.unit_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1,
            unit: int = 0) -> int:
        """Append a finished span (for tests and hand-built traces)."""
        sid = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.unit.append(unit)
        return sid


# -- installing the wrappers --------------------------------------------------


def _resolve(site: str):
    module_name, _, cls = site.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


def _observe(rec: Recorder, name: str):
    """Counters read at the boundary: (before(args), after(args, result),
    on_error(exc)); each may be None."""
    c = rec.counters
    if name == "chain.submit":
        def after(args, result):
            if result.status == "rejected":
                c["chain.submit.rejected"] += 1
            elif result.status == "replaced":
                c["chain.submit.replaced"] += 1
                c["chain.submit.evicted_txs"] += len(result.evicted)
        return None, after, None
    if name == "chain.mine_block":
        def before(args):
            pending = len(args[0].mempool)
            if pending > c["chain.mempool.peak_pending"]:
                c["chain.mempool.peak_pending"] = pending

        def after(args, block):
            c["chain.mine_block.txs"] += len(block.txs)
        return before, after, None
    if name == "chain.audit":
        def before(args):
            c["chain.audit.txs"] += sum(len(b.txs) for b in args[0].blocks)
        return before, None, None
    if name == "channel.fulfill_htlc_offchain":
        unresponsive = getattr(importlib.import_module("htlcrace.channel"),
                               "CounterpartyUnresponsive", ())

        def on_error(exc):
            if isinstance(exc, unresponsive):
                c["channel.fulfill_htlc_offchain.refused"] += 1
        return None, None, on_error
    return None, None, None


def _span_wrapper(rec: Recorder, name: str, fn, opens_unit: bool):
    nid = rec.name_id(name)
    before, after, on_error = _observe(rec, name)
    begin, finish = rec.begin, rec.finish

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        if opens_unit:
            outer = rec.unit_id
            rec.new_unit()
        sid = begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            finish(sid)
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            if opens_unit:
                rec.unit_id = outer
        finish(sid)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    counters = rec.counters
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Patch every target in place; names not found go to rec.absent.
    Returns (owner, attribute, original) for each patch made."""
    patches = []
    wrapped: dict[int, object] = {}
    plan = [(name, sites, attr, lambda fn, n=name, u=unit: _span_wrapper(rec, n, fn, u))
            for name, sites, attr, unit in TARGETS]
    plan += [(name, (site,), attr, lambda fn, n=name: _count_wrapper(rec, n, fn))
             for name, site, attr in COUNTED]
    for name, sites, attr, make in plan:
        for site in sites:
            try:
                owner = _resolve(site)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                rec.absent.append(f"{site}.{attr}")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = make(fn)
            setattr(owner, attr, wrapped[id(fn)])
            patches.append((owner, attr, fn))
    return patches


def uninstall(patches) -> None:
    for owner, attr, fn in reversed(patches):
        setattr(owner, attr, fn)


# -- deriving the metrics -----------------------------------------------------


def self_times(rec: Recorder) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children may overlap each other; covered time is their union, clipped to
    the parent's interval.  Spans are visited in start order so each
    parent's covered prefix can be extended in one pass."""
    n = len(rec.name)
    order = sorted(range(n), key=rec.start.__getitem__)
    covered = array("d", bytes(8 * n))
    reach = array("d", rec.start)  # end of the covered prefix of each parent
    for i in order:
        p = rec.parent[i]
        if p < 0:
            continue
        lo = max(rec.start[i], reach[p])
        hi = min(rec.end[i], rec.end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [rec.end[i] - rec.start[i] - covered[i] for i in range(n)]


METRICS = (
    # (name, unit); order is the order of BENCHMARK.json's per_layer list.
    ("chain.submit.calls", "count"), ("chain.submit.self_s", "s"),
    ("chain.submit.us_per_call", "us"), ("chain.submit.replaced", "count"),
    ("chain.submit.rejected", "count"), ("chain.submit.evicted_txs", "count"),
    ("chain.mine_block.calls", "count"), ("chain.mine_block.txs", "count"),
    ("chain.mine_block.self_s", "s"), ("chain.mine_block.us_per_tx", "us"),
    ("chain.mempool.peak_pending", "count"), ("chain.audit.self_s", "s"),
    ("chain.audit.us_per_tx", "us"), ("chain.grant.calls", "count"),
    ("chain.useful_ratio", "ratio"),
    ("channel.add_htlc.calls", "count"), ("channel.add_htlc.self_s", "s"),
    ("channel.add_htlc.us_per_call", "us"), ("channel.build_htlc_claim.calls", "count"),
    ("channel.build_htlc_claim.self_s", "s"), ("channel.build_htlc_claim.us_per_call", "us"),
    ("channel.open_channel.self_s", "s"), ("channel.force_close.self_s", "s"),
    ("channel.fulfill_htlc_offchain.calls", "count"),
    ("channel.fulfill_htlc_offchain.refused", "count"), ("channel.update_fee.calls", "count"),
    ("attack.run_attack.calls", "count"), ("attack.run_attack.s", "s"),
    ("attack.open.s", "s"), ("attack.minimize.s", "s"), ("attack.load.s", "s"),
    ("attack.release.s", "s"), ("attack.race.s", "s"), ("attack.classify.s", "s"),
    ("attack.load.self_s", "s"), ("attack.race.self_s", "s"),
    ("attack.race.blocks", "count"), ("attack.phase_coverage_min", "ratio"),
    ("fees.estimate_at.calls", "count"), ("fees.simulate_feerate_strategy.calls", "count"),
    ("fees.simulate_feerate_strategy.self_s", "s"),
    ("fees.simulate_feerate_strategy.us_per_call", "us"),
    ("fees.victim_available_space.self_s", "s"), ("fees.synthetic_blocks.self_s", "s"),
    ("fees.synthetic_feerate_series.self_s", "s"),
    ("mitigations.run_mitigation_matrix.s", "s"),
    ("mitigations.run_mitigation_matrix.self_s", "s"), ("mitigations.policies", "count"),
    ("cli.load_scenario.self_s", "s"), ("cli.build_attack_config.self_s", "s"),
    ("cli.run_scenario.self_s", "s"), ("cli.artifact_bytes", "bytes"),
    ("tracing_overhead_ratio", "ratio"), ("trace.absent_targets", "count"),
)


def _per_name(rec: Recorder, selfs: list[float]):
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    for i in range(len(rec.name)):
        name = rec.names[rec.name[i]]
        calls[name] += 1
        total[name] += rec.end[i] - rec.start[i]
        self_s[name] += selfs[i]
    return calls, total, self_s


def _nearest(rec: Recorder, sid: int, names: set[int]) -> int:
    p = rec.parent[sid]
    while p >= 0 and rec.name[p] not in names:
        p = rec.parent[p]
    return p


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer numbers of one traced workload run (every METRICS name
    except the two the caller adds: cli.artifact_bytes and
    tracing_overhead_ratio)."""
    selfs = self_times(rec)
    calls, total, self_s = _per_name(rec, selfs)
    c = rec.counters

    def per(value, count, scale=1e6):
        return value * scale / count if count else 0.0

    ids = {name: rec.name_id(name) for name in
           PHASES + ("attack.run_attack", "chain.mine_block", "chain.audit",
                     "mitigations.run_mitigation_matrix")}
    phase_ids = {ids[p] for p in PHASES}
    race_blocks = 0
    policies = 0
    covered: Counter[int] = Counter()
    for i in range(len(rec.name)):
        nid = rec.name[i]
        if nid == ids["chain.mine_block"]:
            phase = _nearest(rec, i, phase_ids)
            if phase >= 0 and rec.name[phase] == ids["attack.race"]:
                race_blocks += 1
        elif nid == ids["attack.run_attack"]:
            p = rec.parent[i]
            if p >= 0 and rec.name[p] == ids["mitigations.run_mitigation_matrix"]:
                policies += 1
        if nid in phase_ids or nid == ids["chain.audit"]:
            p = rec.parent[i]
            if p >= 0 and rec.name[p] == ids["attack.run_attack"]:
                covered[p] += rec.end[i] - rec.start[i]
    coverage = [covered[i] / (rec.end[i] - rec.start[i])
                for i in range(len(rec.name)) if rec.name[i] == ids["attack.run_attack"]]

    m = {
        "chain.submit.calls": calls["chain.submit"],
        "chain.submit.self_s": self_s["chain.submit"],
        "chain.submit.us_per_call": per(self_s["chain.submit"], calls["chain.submit"]),
        "chain.submit.replaced": c["chain.submit.replaced"],
        "chain.submit.rejected": c["chain.submit.rejected"],
        "chain.submit.evicted_txs": c["chain.submit.evicted_txs"],
        "chain.mine_block.calls": calls["chain.mine_block"],
        "chain.mine_block.txs": c["chain.mine_block.txs"],
        "chain.mine_block.self_s": self_s["chain.mine_block"],
        "chain.mine_block.us_per_tx": per(self_s["chain.mine_block"],
                                          c["chain.mine_block.txs"]),
        "chain.mempool.peak_pending": c["chain.mempool.peak_pending"],
        "chain.audit.self_s": self_s["chain.audit"],
        "chain.audit.us_per_tx": per(self_s["chain.audit"], c["chain.audit.txs"]),
        "chain.grant.calls": calls["chain.grant"],
        "chain.useful_ratio": per(c["chain.mine_block.txs"], calls["chain.submit"], 1),
        "attack.run_attack.calls": calls["attack.run_attack"],
        "attack.run_attack.s": total["attack.run_attack"],
        "attack.load.self_s": self_s["attack.load"],
        "attack.race.self_s": self_s["attack.race"],
        "attack.race.blocks": race_blocks,
        "attack.phase_coverage_min": min(coverage) if coverage else 0.0,
        "fees.estimate_at.calls": c["fees.estimate_at.calls"],
        "mitigations.run_mitigation_matrix.s": total["mitigations.run_mitigation_matrix"],
        "mitigations.run_mitigation_matrix.self_s": self_s["mitigations.run_mitigation_matrix"],
        "mitigations.policies": policies,
        "channel.fulfill_htlc_offchain.refused": c["channel.fulfill_htlc_offchain.refused"],
        "trace.absent_targets": len(rec.absent),
    }
    for phase in PHASES:
        m[phase + ".s"] = total[phase]
    for name in ("channel.add_htlc", "channel.build_htlc_claim",
                 "fees.simulate_feerate_strategy"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]
        m[name + ".us_per_call"] = per(self_s[name], calls[name])
    for name in ("channel.open_channel", "channel.force_close",
                 "fees.victim_available_space", "fees.synthetic_blocks",
                 "fees.synthetic_feerate_series", "cli.load_scenario",
                 "cli.build_attack_config", "cli.run_scenario"):
        m[name + ".self_s"] = self_s[name]
    for name in ("channel.fulfill_htlc_offchain", "channel.update_fee"):
        m[name + ".calls"] = calls[name]
    return m
