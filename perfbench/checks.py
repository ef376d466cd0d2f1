"""Output checks: pinned artifact digests at the default seed, and
invariants that must hold on every seed.

Each workload checker reads the artifacts of one workload run (one output
directory per scenario file) and returns the problems it found, each tagged
with the unit it belongs to -- a sweep point, a matrix policy or a
fee-analysis scenario -- or with None when it concerns the whole workload.
"""
from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import workloads


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact in a scenario's output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def digest_mismatches(actual: dict[str, str], pinned: dict[str, str]) -> list[str]:
    problems = [f"{name}: missing" for name in sorted(pinned.keys() - actual.keys())]
    problems += [f"{name}: not pinned" for name in sorted(actual.keys() - pinned.keys())]
    problems += [f"{name}: sha256 {actual[name][:12]} != pinned {pinned[name][:12]}"
                 for name in sorted(actual.keys() & pinned.keys())
                 if actual[name] != pinned[name]]
    return problems


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(outs: dict[str, Path]):
    (out,) = outs.values()
    rows = _rows(out / "report.csv")
    problems = []
    if len(rows) != workloads.SWEEP_POINTS:
        problems.append((None, f"{len(rows)} sweep points, expected {workloads.SWEEP_POINTS}"))
    clean, theft = [], []
    for unit, r in enumerate(rows):
        n, per, total = int(r["n_channels"]), int(r["htlcs_per_channel"]), int(r["total_htlcs"])
        stolen = int(r["stolen_htlcs"])
        if per != workloads.LND_HTLCS_PER_CHANNEL or total != n * per:
            problems.append((unit, f"n={n}: total_htlcs {total} != {n} x {per}"))
        settled = stolen + int(r["victim_claimed_htlcs"]) + int(r["unresolved_htlcs"])
        if settled != total:
            problems.append((unit, f"n={n}: stolen+claimed+unresolved {settled} != {total}"))
        (theft if stolen else clean).append(n)
    # The grid is coarse, so the simulated break-even B is only known to lie
    # in (last point without theft, first point with theft]; that bracket
    # must reach the closed form's +-2 band.
    summary = (out / "summary.txt").read_text()
    be = workloads.LND_BREAK_EVEN
    if f"closed-form guaranteed-theft threshold: {be}\n" not in summary:
        problems.append((None, f"closed-form threshold is not {be}"))
    if not clean or not theft or max(clean) > min(theft):
        problems.append((None, f"grid does not bracket one break-even: "
                               f"clean {clean}, theft {theft}"))
    elif min(theft) < be - 2 or max(clean) >= be + 2:
        problems.append((None, f"break-even in ({max(clean)}, {min(theft)}] "
                               f"misses {be} +- 2"))
    elif f"simulated break-even: {min(theft)}\n" not in summary:
        problems.append((None, f"summary break-even is not {min(theft)}"))
    items = sum(int(r["total_htlcs"]) for r in rows)
    return problems, items


def check_matrix(outs: dict[str, Path]):
    (out,) = outs.values()
    rows = _rows(out / "report.csv")
    expected = [name for name, _ in workloads.MATRIX_POLICIES]
    if [r["policy_id"] for r in rows] != expected:
        return [(None, f"policies {[r['policy_id'] for r in rows]} != {expected}")], 0
    confirmed = {name: [0, 0] for name in expected}
    for t in _rows(out / "trace.csv"):
        c = confirmed[t["policy_id"]]
        c[0] += int(t["victim_tx_confirmed"])
        c[1] += int(t["attacker_tx_confirmed"])
    problems = []
    stolen = {}
    for unit, r in enumerate(rows):
        pid, n = r["policy_id"], int(r["n_channels"])
        stolen[pid] = int(r["stolen_htlcs"])
        total = n * workloads.matrix_htlcs_per_channel(pid)
        victim, attacker = confirmed[pid]
        if n != workloads.MATRIX_CHANNELS:
            problems.append((unit, f"{pid}: n_channels {n} != {workloads.MATRIX_CHANNELS}"))
        if stolen[pid] + victim > total or attacker > stolen[pid]:
            problems.append((unit, f"{pid}: stolen {stolen[pid]}, victim-confirmed "
                                   f"{victim}, attacker-confirmed {attacker} "
                                   f"do not fit {total} HTLCs"))
    if stolen["baseline"] == 0:
        problems.append((0, "baseline steals nothing: n is not past break-even"))
    cpfp = expected.index("cpfp")
    if stolen["cpfp"] != stolen["baseline"]:
        problems.append((cpfp, f"cpfp stole {stolen['cpfp']} != baseline "
                               f"{stolen['baseline']}"))
    items = sum(workloads.MATRIX_CHANNELS * workloads.matrix_htlcs_per_channel(p)
                for p in expected)
    return problems, items


def check_fee(outs: dict[str, Path]):
    problems = []
    items = 0
    for unit, (name, out) in enumerate(sorted(outs.items())):
        for r in _rows(out / "report.csv"):
            if float(r["fraction_minimized"]) > float(r["fraction_naive"]):
                problems.append((unit, f"{name}: threshold {r['threshold']}: minimized "
                                       f"{r['fraction_minimized']} > naive "
                                       f"{r['fraction_naive']}"))
        launches = [len(_rows(out / f)) for f in ("space.csv", "space_minimized.csv")]
        if launches != [workloads.FEE_LAUNCHES] * 2:
            problems.append((unit, f"{name}: {launches} launches, expected "
                                   f"{workloads.FEE_LAUNCHES}"))
        items += launches[0]
    return problems, items


CHECKERS = {"sweep_lnd": check_sweep, "matrix_traffic": check_matrix,
            "fee_analysis": check_fee}


def check_run(workload: str, outs: dict[str, Path], pinned: dict | None):
    """Problems and item count of one workload run.  `outs` maps each
    scenario file to its output directory; `pinned` maps each scenario file
    to its artifact digests, or is None off the default seed."""
    problems = []
    if pinned is not None:
        for name, out in outs.items():
            problems += [(None, f"{name}: {p}")
                         for p in digest_mismatches(digests(out), pinned.get(name, {}))]
    try:
        found, items = CHECKERS[workload](outs)
    except (OSError, KeyError, ValueError) as exc:
        return problems + [(None, f"unreadable artifacts: {exc!r}")], 0
    return problems + found, items


def failed_units(problems, units: int) -> set[int]:
    """Units a run's problems count against; a workload-wide problem fails
    every unit."""
    failed: set[int] = set()
    for unit, _ in problems:
        failed.update(range(units) if unit is None else (unit,))
    return failed
