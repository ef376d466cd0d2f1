"""htlcrace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario files from the seed, then runs the
workload again and again, each time in a fresh worker process
(perfbench/worker.py), until the next run would overrun --seconds.  Every
run's artifacts are checked: invariants on every seed, and pinned sha256
digests as well at the default seed.  The last line of standard output is
one JSON object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of traced runs (medians), interleaved with untraced runs
for the tracing overhead.  Exits 1 if any unit failed and 2 if the program's
source is not there.

The host is shared, and its speed swings by up to 1.7x for periods of
seconds to minutes; CPU time swings with it.  So every worker times a fixed
reference loop right before and right after the workload, and every time
the benchmark reports is scaled to a host of reference speed: multiplied by
REFERENCE_S over the mean of the two reference times.  The end-to-end
metrics are medians over the runs of these scaled figures, and so are the
per-layer ones.  Standard error shows the unscaled times.

    python3 perfbench/run.py --pin-digests

rewrites perfbench/golden.json from the default-seed artifacts.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
DEADLINE_S = 170.0  # every run must end well within three minutes
# worker.reference_loop() on the reference machine (2 vCPU, Python 3.11.7)
# when the host is quiet: the speed every reported time is scaled to.
REFERENCE_S = 0.2

END_TO_END = (("wall_s", "s"), ("items_per_s", "items/s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))


def write_inputs(workload: str, seed: int, inputs: Path) -> list[str]:
    inputs.mkdir(parents=True)
    files = workloads.generate(workload, seed)
    for name, text in files.items():
        (inputs / name).write_text(text)
    return workloads.scenario_files(files)


def run_once(inputs: Path, out: Path, trace: bool, timeout: float):
    """One workload run in a worker process; None if it crashed or hung."""
    result_file = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--out", str(out), "--result", str(result_file)]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, timeout=max(timeout, 1.0), stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f}s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_file.is_file():
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(result_file.read_text())
    result["setup_s"] = result.pop("setup_end") - spawned
    return result


def assess(workload: str, scenarios: list[str], result, out: Path, pinned):
    """(failed unit ids, items, problems) of one workload run."""
    units = workloads.unit_count(workload)
    if result is None:
        return set(range(units)), 0, [(None, "worker failed")]
    problems = []
    for k, s in enumerate(result["scenarios"]):
        if s["rc"] != 0:
            unit = k if workload == "fee_analysis" else None
            problems.append((unit, f"{s['scenario']}: exit {s['rc']} {s['error'] or ''}"))
    if not problems:
        outs = {name: out / Path(name).stem for name in scenarios}
        problems, items = checks.check_run(workload, outs, pinned)
    else:
        items = 0
    return checks.failed_units(problems, units), items, problems


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    scenarios = write_inputs(workload, seed, work / "inputs")
    pinned = None
    if seed == DEFAULT_SEED:
        pinned = json.loads(GOLDEN.read_text())[workload]
    begin = time.monotonic()
    budget = min(seconds, DEADLINE_S)
    runs = {False: [], True: []}
    durations = {False: [], True: []}
    attempted = failed = 0
    for k in itertools.count(1):
        # Traced mode alternates untraced and traced runs, one of each first.
        traced = trace and k % 2 == 0
        out = work / f"run{k}"
        t0 = time.monotonic()
        result = run_once(work / "inputs", out, traced, DEADLINE_S - (t0 - begin))
        durations[traced].append(time.monotonic() - t0)
        bad, items, problems = assess(workload, scenarios, result, out, pinned)
        shutil.rmtree(out, ignore_errors=True)
        for unit, text in problems:
            where = "all units" if unit is None else f"unit {unit}"
            print(f"{workload} run {k} ({where}): {text}", file=sys.stderr)
        attempted += workloads.unit_count(workload)
        failed += len(bad)
        if result is None:
            break
        print(f"{workload} run {k}{' traced' if traced else ''}: wall {result['wall_s']:.3f} s, "
              f"setup {result['setup_s']:.3f} s, reference "
              f"{statistics.fmean(result['reference_s']):.3f} s, {len(bad)} failed",
              file=sys.stderr)
        result["items"] = items
        runs[traced].append(result)
        upcoming = durations[trace and k % 2 == 1]
        if time.monotonic() - begin + median(upcoming) > budget and not (trace and k < 2):
            break
    return runs, attempted, failed


def speed_scale(result) -> float:
    """Factor that turns a run's host seconds into seconds on a host of
    reference speed."""
    return REFERENCE_S / statistics.fmean(result["reference_s"])


def end_to_end(runs) -> dict[str, float]:
    plain = runs[False]
    walls = [r["wall_s"] * speed_scale(r) for r in plain]
    return {
        "wall_s": median(walls),
        "items_per_s": median([r["items"] / w for r, w in zip(plain, walls)]),
        "setup_s": median([r["setup_s"] * speed_scale(r) for r in plain]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in plain]),
    }


def per_layer(runs) -> tuple[dict[str, float], list[str]]:
    traced = runs[True]
    metrics = {}
    for name, unit in spans.METRICS:
        if name != "tracing_overhead_ratio":
            timed = unit in ("s", "us")
            metrics[name] = median([r["layers"][name] * (speed_scale(r) if timed else 1)
                                    for r in traced])
    plain_wall = end_to_end(runs)["wall_s"]
    traced_wall = end_to_end({False: traced})["wall_s"]
    metrics["tracing_overhead_ratio"] = traced_wall / plain_wall if plain_wall else 0.0
    absent = sorted({a for r in traced for a in r["absent"]})
    return metrics, absent


def pin_digests(work: Path) -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        scenarios = write_inputs(workload, DEFAULT_SEED, work / workload / "inputs")
        out = work / workload / "run"
        result = run_once(work / workload / "inputs", out, False, DEADLINE_S)
        bad, _, problems = assess(workload, scenarios, result, out, None)
        if bad:
            print(f"{workload}: not pinning, checks failed: {problems}", file=sys.stderr)
            return 1
        golden[workload] = {name: checks.digests(out / Path(name).stem) for name in scenarios}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-digests", action="store_true")
    args = ap.parse_args(argv)
    # Turn a kill into an exception, so the running worker is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "htlcrace" / "cli.py").is_file():
        print(f"htlcrace source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.pin_digests and args.workload is None:
        ap.error("--workload is required")
    # Fails fast if the source does not import, and leaves compiled bytecode
    # for the workers where Python writes it.
    sys.path.insert(0, str(ROOT / "src"))
    import htlcrace.cli  # noqa: F401

    work = WORK / f"{args.workload or 'pin'}-{args.seed}-{os.getpid()}"
    try:
        if args.pin_digests:
            return pin_digests(work)
        runs, attempted, failed = measure(args.workload, args.seed, args.seconds,
                                          bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    if args.trace:
        values, absent = per_layer(runs) if runs[True] and runs[False] else ({}, [])
        units = dict(spans.METRICS)
        idle = [n for n, v in values.items() if v == 0 and n != "trace.absent_targets"]
        print(f"absent: {', '.join(absent) or 'none'}")
        print(f"zero on this workload: {', '.join(idle) or 'none'}")
    else:
        values = end_to_end(runs) if runs[False] else {}
        units = dict(END_TO_END)
    print(f"error_rate: {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 and values else 1


if __name__ == "__main__":
    sys.exit(main())
