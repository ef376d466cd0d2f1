"""Tests of the benchmark's own logic (not of htlcrace).

    python3 -m pytest perfbench
"""
from pathlib import Path

import pytest

import checks
import run
import spans
import worker
import workloads


def test_self_time_nested_and_siblings():
    rec = spans.Recorder()
    root = rec.add("cli.run_scenario", 0.0, 10.0)
    a = rec.add("attack.run_attack", 1.0, 5.0, parent=root)
    rec.add("chain.submit", 1.5, 2.0, parent=a)
    rec.add("chain.submit", 2.0, 3.0, parent=a)
    b = rec.add("attack.run_attack", 6.0, 9.0, parent=root)
    selfs = spans.self_times(rec)
    assert selfs == pytest.approx([10.0 - 4.0 - 3.0, 4.0 - 1.5, 0.5, 1.0, 3.0])
    assert selfs[b] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    rec = spans.Recorder()
    root = rec.add("x", 0.0, 10.0)
    rec.add("y", 1.0, 4.0, parent=root)
    rec.add("y", 3.0, 6.0, parent=root)   # overlaps its sibling by 1.0
    rec.add("y", 8.0, 12.0, parent=root)  # runs past its parent
    assert spans.self_times(rec)[root] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_from_hand_built_spans():
    rec = spans.Recorder()
    ra = rec.add("attack.run_attack", 0.0, 10.0)
    race = rec.add("attack.race", 1.0, 8.0, parent=ra)
    rec.add("chain.mine_block", 2.0, 3.0, parent=race)
    rec.add("chain.audit", 8.0, 9.5, parent=ra)
    m = spans.layer_metrics(rec)
    assert m["attack.race.blocks"] == 1
    assert m["attack.race.self_s"] == pytest.approx(6.0)
    assert m["attack.phase_coverage_min"] == pytest.approx(0.85)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_keeps_unit_count(workload):
    first = workloads.generate(workload, 5)
    assert first == workloads.generate(workload, 5)
    other = workloads.generate(workload, 6)
    assert other != first
    assert first.keys() == other.keys()
    assert len(workloads.scenario_files(first)) == len(workloads.scenario_files(other))


def test_sweep_grid_straddles_break_even_on_every_offset():
    for seed in range(50):
        ini = workloads.generate("sweep_lnd", seed)["sweep_lnd.ini"]
        values = dict(line.split(" = ") for line in ini.splitlines() if " = " in line)
        grid = range(int(values["n_from"]), int(values["n_to"]) + 1, int(values["n_step"]))
        assert len(grid) == workloads.SWEEP_POINTS
        assert sum(grid) == workloads.SWEEP_POINTS * workloads.SWEEP_MIDDLE
        assert grid[-2] < workloads.LND_BREAK_EVEN - 2 < workloads.LND_BREAK_EVEN + 2 < grid[-1]


def test_digest_check_flags_one_byte_change(tmp_path):
    (tmp_path / "report.csv").write_bytes(b"a,b\n1,2\n")
    (tmp_path / "summary.txt").write_bytes(b"status: ok\n")
    pinned = checks.digests(tmp_path)
    assert checks.digest_mismatches(checks.digests(tmp_path), pinned) == []
    (tmp_path / "report.csv").write_bytes(b"a,b\n1,3\n")
    problems = checks.digest_mismatches(checks.digests(tmp_path), pinned)
    assert len(problems) == 1 and problems[0].startswith("report.csv: sha256")
    (tmp_path / "summary.txt").unlink()
    assert "summary.txt: missing" in checks.digest_mismatches(checks.digests(tmp_path), pinned)


def test_error_rate_counts_a_unit_that_raises(tmp_path):
    def run_scenario(path, out, seed, jobs):
        if path.name == "fee_analysis_0.ini":
            raise RuntimeError("engine fault")
        return 0

    names = workloads.scenario_files(workloads.generate("fee_analysis", 1))
    results = worker.run_scenarios(run_scenario, [Path(n) for n in names], tmp_path)
    assert [r["rc"] for r in results] == [None] + [0] * (len(names) - 1)
    bad, _, problems = run.assess("fee_analysis", names, {"scenarios": results},
                                  tmp_path, None)
    assert bad == {0}
    assert "engine fault" in problems[0][1]
    # A sweep point cannot be told apart from its scenario: all units fail.
    bad, _, _ = run.assess("sweep_lnd", ["sweep_lnd.ini"],
                           {"scenarios": [{"scenario": "sweep_lnd.ini", "rc": None,
                                           "error": "RuntimeError()"}]}, tmp_path, None)
    assert len(bad) == workloads.unit_count("sweep_lnd")


def test_missing_phase_method_is_recorded_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    from htlcrace import attack, chain
    monkeypatch.delattr(attack._Run, "_classify")
    grant = chain.ChainState.grant
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        assert rec.absent == ["htlcrace.attack:_Run._classify"]
        chain.ChainState().grant("x", 5)
        assert rec.names[rec.name[0]] == "chain.grant"
    finally:
        spans.uninstall(patches)
    assert chain.ChainState.grant is grant


def test_times_are_scaled_to_reference_speed():
    def result(host_speed):
        # A host at half speed doubles every host time, the reference loop's too.
        return {"wall_s": 2.0 / host_speed, "setup_s": 0.1 / host_speed,
                "reference_s": [run.REFERENCE_S / host_speed] * 2,
                "peak_rss_mib": 30.0, "items": 1000}

    for speed in (1.0, 0.5):
        metrics = run.end_to_end({False: [result(speed)] * 3})
        assert metrics["wall_s"] == pytest.approx(2.0)
        assert metrics["items_per_s"] == pytest.approx(500.0)
        assert metrics["setup_s"] == pytest.approx(0.1)
