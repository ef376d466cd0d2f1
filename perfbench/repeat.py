"""Run the benchmark once per seed and summarise each metric's median,
quartiles and spread (quartile distance over median).

    python3 perfbench/repeat.py --workloads sweep_lnd,fee_analysis \
        --seeds 1-10 --seconds 40 [--trace 0,1] [--json FILE]

Runs are sequential, one benchmark process at a time.  --trace 0 gives the
end-to-end metrics, 1 the per-layer ones, 0,1 both.  Exits 1 if any run
failed or reported incorrect output.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SECTIONS = {"0": "end_to_end", "1": "per_layer"}


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarise(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def run(workload: str, seed: int, seconds: str, trace: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", trace], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return result["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="40")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()
    report = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
              "seconds": float(args.seconds), "seeds": args.seeds}
    ok = True
    for trace in args.trace.split(","):
        section = report.setdefault(SECTIONS[trace], {})
        for workload in args.workloads.split(","):
            values: dict[str, list[float]] = {}
            for seed in seeds(args.seeds):
                metrics = run(workload, seed, args.seconds, trace)
                if metrics is None:
                    ok = False
                    continue
                for name, m in metrics.items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} trace {trace} seed {seed}: " + ", ".join(
                    f"{n} {m['value']:.6g}" for n, m in metrics.items()), flush=True)
            section[workload] = {name: summarise(v) for name, v in values.items()
                                 if len(v) >= 2}
            for name, s in section[workload].items():
                print(f"{workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                      f"q3 {s['q3']:.6g} spread {s['spread']:.4f}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
