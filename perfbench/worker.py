"""One workload run in a fresh process: set up, run every scenario file
through htlcrace.cli.run_scenario (jobs=1), and write timings as JSON.

    python3 perfbench/worker.py --inputs DIR --out DIR --result FILE [--trace]

Set-up ends when the first scenario starts; it covers importing htlcrace and
parsing and building the configuration of every scenario file.  Right
before and right after the scenarios, the worker times a fixed reference
loop, so the caller can scale the times to a host of reference speed.  With
--trace, every layer's public functions are wrapped first and the per-layer
metrics are added to the result.
"""
from __future__ import annotations

import argparse
import heapq
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class _Tx:
    __slots__ = ("txid", "fee", "weight")

    def __init__(self, txid: str, fee: int, weight: int):
        self.txid = txid
        self.fee = fee
        self.weight = weight


def reference_loop(n: int = 80_000) -> float:
    """Host seconds for a fixed piece of pure-Python work shaped like the
    engine's -- small objects, a dict and a feerate heap -- that no change to
    htlcrace can make faster or slower.  The pool stays at 2,000 entries, so
    the loop adds nothing to the worker's peak memory."""
    start = time.perf_counter()
    pool: dict[str, _Tx] = {}
    heap: list = []
    for i in range(n):
        tx = _Tx(f"t{i}", (i * 7919) % 5000 + 1000, 700 + i % 97)
        pool[tx.txid] = tx
        heapq.heappush(heap, (-tx.fee / tx.weight, i, tx.txid))
        if len(heap) > 2_000:
            pool.pop(heapq.heappop(heap)[2], None)
    if sum(tx.weight for tx in pool.values()) <= 0:
        raise AssertionError("reference loop lost its transactions")
    return time.perf_counter() - start


def run_scenarios(run_scenario, scenarios: list[Path], out: Path) -> list[dict]:
    """Exit code of each scenario run; one that raises gets rc None."""
    results = []
    for path in scenarios:
        try:
            rc = run_scenario(path, out / path.stem, None, 1)
        except Exception as exc:  # noqa: BLE001 -- a raising unit is a failed unit
            results.append({"scenario": path.name, "rc": None, "error": repr(exc)})
        else:
            results.append({"scenario": path.name, "rc": rc, "error": None})
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    import htlcrace.cli as cli
    rec = None
    if args.trace:
        import spans
        rec = spans.Recorder()
        spans.install(rec)

    scenarios = sorted(args.inputs.glob("*.ini"))
    for path in scenarios:
        sc = cli.load_scenario(path)
        if sc.kind in ("sweep", "mitigation-matrix"):
            cli.build_attack_config(sc, sc.seed)
        if sc.kind == "mitigation-matrix":
            cli.build_policies(sc)
        if sc.kind == "fee-analysis":
            cli.build_series(sc)

    setup_end = time.monotonic()
    reference = [reference_loop()]
    start = time.perf_counter()
    results = run_scenarios(cli.run_scenario, scenarios, args.out)
    wall = time.perf_counter() - start
    reference.append(reference_loop())

    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "reference_s": reference,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scenarios": results,
    }
    if rec is not None:
        result["layers"] = spans.layer_metrics(rec)
        result["layers"]["cli.artifact_bytes"] = sum(
            p.stat().st_size for p in args.out.rglob("*") if p.is_file())
        result["absent"] = rec.absent
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
