"""Scenario-file loading, artifact writing, exit codes and determinism."""

import csv
import textwrap
from pathlib import Path

import pytest

import htlcrace.chain as chain_module
import htlcrace.cli as cli
import htlcrace.fees as fees_module
from htlcrace import ConfigError
from htlcrace.attack import AttackConfig, run_attack
from htlcrace.cli import (
    REPORT_COLUMNS,
    load_scenario,
    main,
    run_scenario,
    validate_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

FAST_ATTACK = """
    [scenario]
    kind = attack
    seed = 9

    [attack]
    num_victim_channels = 2
    blockmaxweight = 40000
"""


def write_scenario(tmp_path, text, name="scen.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_validate_accepts_wellformed_file(tmp_path):
    assert validate_scenario(write_scenario(tmp_path, FAST_ATTACK)) == 0
    # the race may stop at expiry itself
    assert validate_scenario(write_scenario(tmp_path, FAST_ATTACK + "    drain_cap = 0\n",
                                            "drain0.ini")) == 0


def test_seed_is_mandatory(tmp_path):
    path = write_scenario(tmp_path, """
        [scenario]
        kind = attack

        [attack]
        num_victim_channels = 1
    """)
    with pytest.raises(ConfigError, match="seed is mandatory"):
        load_scenario(path)
    assert validate_scenario(path) == 2
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert "FAILED at stage parse" in (out / "summary.txt").read_text()


def test_unknown_kind_rejected(tmp_path):
    path = write_scenario(tmp_path, """
        [scenario]
        kind = heist
        seed = 1
    """)
    assert validate_scenario(path) == 2


def test_missing_file_rejected(tmp_path):
    assert validate_scenario(tmp_path / "ghost.ini") == 2
    assert run_scenario(tmp_path / "ghost.ini", tmp_path / "out") == 2


def test_attack_kind_needs_attack_section(tmp_path):
    path = write_scenario(tmp_path, """
        [scenario]
        kind = attack
        seed = 1
    """)
    assert validate_scenario(path) == 2


def test_sweep_kind_needs_sweep_section(tmp_path):
    path = write_scenario(tmp_path, """
        [scenario]
        kind = sweep
        seed = 1

        [attack]
        num_victim_channels = 1
    """)
    assert validate_scenario(path) == 2


def test_bundled_scenarios_validate():
    bundled = sorted(SCENARIO_DIR.glob("*.ini"))
    assert len(bundled) >= 4
    for path in bundled:
        assert validate_scenario(path) == 0, path.name


# ---------------------------------------------------------------------------
# attack runs
# ---------------------------------------------------------------------------


def test_attack_run_writes_artifacts(tmp_path):
    path = write_scenario(tmp_path, FAST_ATTACK)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 0
    rows = read_csv(out / "report.csv")
    assert rows[0] == list(REPORT_COLUMNS)
    assert len(rows) == 2
    expected = run_attack(AttackConfig(num_victim_channels=2,
                                       blockmaxweight=40_000, seed=9))
    assert rows[1] == [str(v) for v in (
        2, expected.htlcs_per_channel, expected.htlc_value, expected.total_htlcs,
        expected.stolen_htlcs, expected.victim_claimed_htlcs,
        expected.unresolved_htlcs, expected.stolen_value,
        expected.victim_fees_paid, expected.attacker_cost,
        expected.launch_feerate, expected.end_height)]
    trace = read_csv(out / "trace.csv")
    assert trace[0] == ["height", "block_weight_used", "victim_tx_confirmed",
                        "attacker_tx_confirmed"]
    assert len(trace) == len(expected.trace) + 1
    summary = (out / "summary.txt").read_text()
    assert "status: ok" in summary
    assert "scenario file echo:" in summary
    assert "blockmaxweight = 40000" in summary  # provenance echo


def test_same_scenario_twice_is_byte_identical(tmp_path):
    path = write_scenario(tmp_path, FAST_ATTACK)
    assert run_scenario(path, tmp_path / "a") == 0
    assert run_scenario(path, tmp_path / "b") == 0
    for name in ("report.csv", "trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_seed_override_changes_the_run_deterministically(tmp_path):
    path = write_scenario(tmp_path, FAST_ATTACK)
    out = tmp_path / "out"
    assert run_scenario(path, out, seed_override=123) == 0
    expected = run_attack(AttackConfig(num_victim_channels=2,
                                       blockmaxweight=40_000, seed=123))
    assert read_csv(out / "report.csv")[1][4] == str(expected.stolen_htlcs)


def test_csv_feerate_series_drives_open_feerate(tmp_path):
    (tmp_path / "rates.csv").write_text(
        "height,feerate,unit,conf_target\n0,3000,sat_kwu,1\n")
    path = write_scenario(tmp_path, """
        [scenario]
        kind = attack
        seed = 9

        [attack]
        num_victim_channels = 1

        [feerates]
        csv = rates.csv
    """)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 0
    assert read_csv(out / "report.csv")[1][10] == "3000"


def test_missing_feerate_csv_is_config_error(tmp_path):
    path = write_scenario(tmp_path, """
        [scenario]
        kind = attack
        seed = 9

        [attack]
        num_victim_channels = 1

        [feerates]
        csv = nowhere.csv
    """)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert "missing-input" in (out / "summary.txt").read_text()


# ---------------------------------------------------------------------------
# sweep / matrix / fee-analysis runs
# ---------------------------------------------------------------------------

FAST_SWEEP = """
    [scenario]
    kind = sweep
    seed = 9

    [attack]
    blockmaxweight = 40000

    [sweep]
    n_from = 1
    n_to = 2
"""


def test_sweep_run(tmp_path):
    path = write_scenario(tmp_path, FAST_SWEEP)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert [r[4] for r in rows[1:]] == ["483", "966"]
    summary = (out / "summary.txt").read_text()
    assert "simulated break-even: 1" in summary
    assert "closed-form guaranteed-theft threshold: 1" in summary


def test_sweep_jobs_do_not_change_output(tmp_path):
    path = write_scenario(tmp_path, FAST_SWEEP)
    assert run_scenario(path, tmp_path / "serial", jobs=1) == 0
    assert run_scenario(path, tmp_path / "forked", jobs=2) == 0
    assert (tmp_path / "serial" / "report.csv").read_bytes() == \
        (tmp_path / "forked" / "report.csv").read_bytes()


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_scenario_refuses_jobs_below_one(tmp_path, capsys, jobs):
    # The library entry point refuses what `htlcrace run --jobs` refuses.
    out = tmp_path / "out"
    assert run_scenario(write_scenario(tmp_path, FAST_SWEEP), out, None, jobs) == 2
    assert capsys.readouterr().err == f"error (execute): jobs must be at least 1, got {jobs}\n"
    assert (out / "summary.txt").read_text().splitlines()[-1] == \
        f"status: FAILED at stage execute: jobs must be at least 1, got {jobs}"
    assert not (out / "report.csv").exists()  # refused before anything ran


def test_matrix_run(tmp_path):
    path = write_scenario(tmp_path, """
        [scenario]
        kind = mitigation-matrix
        seed = 9

        [attack]
        num_victim_channels = 2
        blockmaxweight = 40000

        [policy:baseline]

        [policy:delta20]
        commitment_broadcast_delta_override = 20
    """)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 0
    rows = read_csv(out / "report.csv")
    assert rows[0] == ["policy_id", "n_channels", "stolen_htlcs",
                       "stolen_value_sat", "break_even_n"]
    assert [r[0] for r in rows[1:]] == ["baseline", "delta20"]
    assert all(r[1] == "2" for r in rows[1:])


def test_matrix_needs_policies(tmp_path):
    path = write_scenario(tmp_path, """
        [scenario]
        kind = mitigation-matrix
        seed = 9

        [attack]
        num_victim_channels = 2
    """)
    assert validate_scenario(path) == 2


FAST_FEE = """
    [scenario]
    kind = fee-analysis
    seed = 9

    [feerates]
    synthetic_seed = 7
    synthetic_length = 200

    [fee_analysis]
    window = 4
    minimize_duration = 36
    launch_from = 40
    launch_to = 80
    launch_step = 5
"""


def test_fee_analysis_run(tmp_path):
    path = write_scenario(tmp_path, FAST_FEE)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 0
    for name in ("space.csv", "space_minimized.csv", "report.csv", "trace.csv"):
        assert (out / name).exists(), name
    naive = read_csv(out / "space.csv")
    mini = read_csv(out / "space_minimized.csv")
    assert naive[0] == mini[0] == ["launch_height", "avg_available_space"]
    assert len(naive) == len(mini) == 1 + len(range(40, 81, 5))
    # pointwise: a lower (or equal) feerate never sees more open space
    for (h1, a), (h2, b) in zip(naive[1:], mini[1:]):
        assert h1 == h2
        assert float(b) <= float(a)
    report = read_csv(out / "report.csv")
    assert report[0] == ["threshold", "fraction_naive", "fraction_minimized"]
    for row in report[1:]:
        assert float(row[2]) <= float(row[1])


def test_fee_analysis_computes_each_block_space_once(tmp_path, monkeypatch):
    """Cost contract: one fee-analysis run measures a block's open space
    once per (feerate, height) pair the two strategies' windows read,
    however many overlapping windows read it, and no other."""
    path = write_scenario(tmp_path, FAST_FEE.replace("launch_step = 5", "launch_step = 1"))
    draw, drawn = fees_module.synthetic_blocks, []

    def recorded(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(fees_module, "synthetic_blocks", recorded)
    assert run_scenario(path, tmp_path / "out") == 0
    series = fees_module.synthetic_feerate_series(7, 200)
    pairs = set()
    for launch in range(40, 81):
        naive = series.estimate_at(launch)
        mini = min(series.estimate_at(h) for h in range(launch - 36, launch + 1))
        pairs.update((rate, h) for rate in (naive, mini) for h in range(launch + 1, launch + 5))
    assert len(pairs) < 2 * 41 * 4  # the windows overlap: one scan per launch costs more
    [spaces] = drawn
    assert sorted(spaces) == sorted(pairs)


def test_fee_analysis_needs_room_to_minimize(tmp_path):
    path = write_scenario(tmp_path, FAST_FEE.replace("launch_from = 40",
                                                     "launch_from = 10"))
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert "leaves no room" in (out / "summary.txt").read_text()


def test_minimize_dip_the_funding_cannot_pay_exits_2(tmp_path):
    # The commitment fee at the 5,000 dip is 3,620, over the 3,000 funding:
    # the user's error, found before the window runs.
    (tmp_path / "rates.csv").write_text("height,feerate,unit,conf_target\n"
                                        "0,10000,sat_kwu,6\n1,5000,sat_kwu,6\n"
                                        "2,100,sat_kwu,6\n")
    path = write_scenario(tmp_path, """
        [scenario]
        kind = attack
        seed = 9

        [attack]
        victim_profile = c-lightning
        channel_funding = 3000
        feerate_strategy = minimize:5
        htlc_expiry_height = 100

        [feerates]
        csv = rates.csv
    """)
    assert validate_scenario(path) == 2
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert (out / "summary.txt").read_text().splitlines()[1] == (
        "status: FAILED at stage configure: channel_funding 3000 cannot pay the "
        "commitment fee 3620 at feerate 5000")


def test_fee_analysis_needs_launch_to(tmp_path):
    path = write_scenario(tmp_path, FAST_FEE.replace("launch_to = 80", ""))
    assert validate_scenario(path) == 2
    assert run_scenario(path, tmp_path / "out") == 2


@pytest.mark.parametrize("change", [
    ("synthetic_length = 200", "synthetic_length = 200\n    synthetic_low = 900\n"
                               "    synthetic_high = 800"),
    ("synthetic_length = 200", "synthetic_length = 200\n    synthetic_low = 0"),
    ("launch_step = 5", "launch_step = 0"),
    ("launch_to = 80", "launch_to = 39"),
    ("launch_step = 5", "launch_step = 5\n    block_feerate_low = 900\n"
                        "    block_feerate_high = 800"),
    ("launch_step = 5", "launch_step = 5\n    block_feerate_low = 0"),
    ("launch_step = 5", "launch_step = 5\n    fill_high = 1.5"),
    ("launch_step = 5", "launch_step = 5\n    fill_low = -0.1"),
    ("launch_step = 5", "launch_step = 5\n    fill_low = 0.8\n    fill_high = 0.7"),
    ("launch_step = 5", "launch_step = 5\n    fill_high = nan"),
    ("launch_step = 5", "launch_step = 5\n    blockmaxweight = -5"),
    ("launch_step = 5", "launch_step = 5\n    blockmaxweight = 0"),
    ("launch_step = 5", "launch_step = 5\n    thresholds = ,"),
    ("minimize_duration = 36", "minimize_duration = -5"),
])
def test_bad_fee_analysis_values_are_config_errors(tmp_path, change):
    # Each one fails while the run's inputs are built, before anything runs:
    # the scenario's fault, which validate finds too.
    path = write_scenario(tmp_path, FAST_FEE.replace(*change))
    assert validate_scenario(path) == 2
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert "FAILED at stage configure: config-parse-error" in \
        (out / "summary.txt").read_text()


FAST_MATRIX = FAST_ATTACK.replace("kind = attack", "kind = mitigation-matrix") \
    + "\n    [policy:baseline]\n"


@pytest.mark.parametrize("text", [
    FAST_ATTACK + "\n    [weigths]\n    htlc_success = 0\n",
    FAST_FEE.replace("[fee_analysis]", "[fee_analyis]"),
    # sections another kind reads
    FAST_ATTACK + "\n    [fee_analysis]\n    window = 0\n",
    FAST_ATTACK + "\n    [policy:x]\n    cpfp_demo = true\n",
    FAST_ATTACK + "\n    [sweep]\n    n_from = 1\n    n_to = 2\n",
    FAST_SWEEP + "\n    [policy:x]\n    cpfp_demo = true\n",
    FAST_FEE + "\n    [attack]\n    num_victim_channels = 2\n",
    FAST_FEE + "\n    [weights]\n    htlc_success = 700\n",
    # a policy with no name
    FAST_MATRIX + "\n    [policy:]\n    cpfp_demo = true\n",
], ids=["weights", "fee_analysis", "attack-fee_analysis", "attack-policy",
        "attack-sweep", "sweep-policy", "fee-attack", "fee-weights",
        "empty-policy-name"])
def test_unknown_sections_are_config_errors(tmp_path, text):
    path = write_scenario(tmp_path, text)
    assert validate_scenario(path) == 2
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert "unknown section" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("text", [
    FAST_ATTACK + "    num_victim_chanels = 100\n",
    FAST_ATTACK + "\n    [weights]\n    htlc_sucess = 0\n",
    FAST_ATTACK + "\n    [traffic]\n    txs_per_tik = 2\n",
    FAST_ATTACK.replace("kind = attack", "kind = mitigation-matrix")
    + "\n    [policy:cpfp]\n    cpfp_dmo = true\n",
    FAST_FEE + "    windw = 4\n",
], ids=["attack", "weights", "traffic", "policy", "fee_analysis"])
def test_unknown_keys_are_config_errors(tmp_path, text):
    path = write_scenario(tmp_path, text)
    assert validate_scenario(path) == 2
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert "unknown key" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("text", [
    FAST_SWEEP.replace("n_from = 1", "n_from = 0"),
    FAST_MATRIX + "\n    [policy:far]\n    commitment_broadcast_delta_override = 100\n",
    FAST_ATTACK + "    dynamic_delta = -5,0\n",
    FAST_ATTACK + "    dynamic_delta = nan,5\n",
    FAST_ATTACK + "    dynamic_delta = inf,5\n",
    FAST_ATTACK + "    htlc_expiry_height = 8\n",
    FAST_FEE.replace("window = 4", "window = 0"),
    FAST_FEE.replace("minimize_duration = 36", "minimize_duration = -5"),
    # transactions over MAX_TX_WEIGHT: a commitment of 724 + 483 * 9000
    FAST_ATTACK + "\n    [weights]\n    per_htlc_output = 9000\n",
    FAST_ATTACK + "\n    [weights]\n    htlc_success = 5000000\n",
    FAST_ATTACK + "\n    [weights]\n    htlc_timeout = 4000001\n",
    # 3999721 + ANCHOR_INPUT_WEIGHT; big blocks let the commitment confirm
    FAST_ATTACK.replace("40000", "4000000")
    + "    anchor_mode = true\n\n    [weights]\n    htlc_success = 3999721\n",
    FAST_MATRIX + "\n    [policy:wide]\n    max_accepted_htlcs_override = 500\n"
                  "\n    [weights]\n    per_htlc_output = 8000\n",
    # a race stopped before expiry: the attacker never acts
    FAST_ATTACK.replace("40000", "100000") + "    drain_cap = -1\n",
    # from n = 19 a staggered release leaves less than 41 + n blocks to expiry
    FAST_SWEEP.replace("n_to = 2", "n_to = 30").replace(
        "blockmaxweight = 40000", "preimage_release = staggered\n    htlc_expiry_height = 60"),
], ids=["sweep-from-0", "policy-delta-out-of-range", "attack-dynamic-delta-negative",
        "attack-dynamic-delta-nan", "attack-dynamic-delta-inf", "attack-expiry-too-soon",
        "fee-window-0", "fee-minimize-negative",
        "attack-commitment-too-heavy", "attack-success-too-heavy", "attack-timeout-too-heavy",
        "attack-anchor-success-too-heavy", "policy-commitment-too-heavy",
        "attack-drain-cap-negative", "sweep-staggered-expiry-at-large-n"])
def test_run_inputs_are_checked_at_configure(tmp_path, text):
    # Each would fail only once the runs start: validate must refuse it too.
    path = write_scenario(tmp_path, text)
    assert validate_scenario(path) == 2
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert "FAILED at stage configure" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("text", [
    # the matrix runs only its policies, each at 30 HTLCs of about 333,000
    FAST_ATTACK.replace("kind = attack", "kind = mitigation-matrix")
    + "    min_htlc_amount = 100000\n"
    + "\n    [policy:fewer-htlcs]\n    max_accepted_htlcs_override = 30\n",
    # the sweep sets the channel count itself
    FAST_SWEEP.replace("[attack]", "[attack]\n    num_victim_channels = 0"),
], ids=["matrix-unused-base", "sweep-channel-count"])
def test_configure_checks_only_the_configs_that_run(tmp_path, text):
    # The [attack] section alone is no run of these kinds: only what they
    # run is checked, so validate and run both accept them.
    path = write_scenario(tmp_path, text)
    assert validate_scenario(path) == 0
    assert run_scenario(path, tmp_path / "out") == 0


@pytest.mark.parametrize("line", ["victim_claims_replaceable = false",
                                  "dynamic_delta = 0.05,40"],
                         ids=["claims-not-replaceable", "dynamic-delta"])
def test_matrix_policy_keeps_the_attack_settings(tmp_path, line):
    # [attack] is the base every policy starts from: a policy that names
    # none of the victim settings runs exactly what the attack kind runs.
    attack = """
        [scenario]
        kind = attack
        seed = 1

        [attack]
        num_victim_channels = 4
        blockmaxweight = 125000
    """ + f"    {line}\n"
    matrix = attack.replace("kind = attack", "kind = mitigation-matrix") \
        + "\n        [policy:baseline]\n"
    assert run_scenario(write_scenario(tmp_path, attack, "a.ini"), tmp_path / "a") == 0
    assert run_scenario(write_scenario(tmp_path, matrix, "m.ini"), tmp_path / "m") == 0
    stolen = read_csv(tmp_path / "a" / "report.csv")[1][4]
    assert read_csv(tmp_path / "m" / "report.csv")[1][2] == stolen


def test_dynamic_delta_slope_is_read_exactly(tmp_path):
    # c-lightning: base 7, 30 HTLCs per channel.  7 + 8.2 * 30 = 253 blocks
    # before expiry, where floats give 245.99999999999997 and a delta of 252.
    path = write_scenario(tmp_path, """
        [scenario]
        kind = attack
        seed = 1

        [attack]
        num_victim_channels = 3
        victim_profile = c-lightning
        blockmaxweight = 40000
        htlc_expiry_height = 300
        dynamic_delta = 8.2,1000
    """)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 0
    claimed = [int(row[0]) for row in read_csv(out / "trace.csv")[1:] if int(row[2])]
    # closed at 300 - 253 = 47, the commitment mined at 48, the claims at 49
    assert claimed[0] == 49


# Every key a scenario section accepts.  A new dataclass field must not
# become a scenario key unnoticed.
ACCEPTED_KEYS = {
    "attack": {
        "num_victim_channels", "victim_profile", "htlc_expiry_height",
        "channel_funding", "channel_feerate", "attacker_fee_bump_increment",
        "blockmaxweight", "min_htlc_amount", "feerate_strategy", "preimage_release",
        "victim_claims_replaceable", "dynamic_delta", "anchor_mode",
        "victim_bump_feerate", "victim_bump_offset", "cpfp_demo",
        "victim_first_at_expiry", "drain_cap"},
    "weights": {"commitment_base", "per_htlc_output", "htlc_success", "htlc_timeout"},
    "traffic": {"txs_per_tick", "weight_low", "weight_high", "feerate_low",
                "feerate_high", "start_height", "end_height"},
    "policy:*": {"commitment_broadcast_delta_override", "max_accepted_htlcs_override",
                 "immediate_htlc_publication", "dynamic_delta", "anchor_outputs_mode",
                 "non_replaceable_htlc_success", "cpfp_demo"},
    "sweep": {"n_from", "n_to", "n_step"},
    "feerates": {"csv", "synthetic_seed", "synthetic_length", "synthetic_start",
                 "synthetic_low", "synthetic_high"},
    "fee_analysis": {"window", "minimize_duration", "launch_from", "launch_to",
                     "launch_step", "blockmaxweight", "thresholds", "blocks_seed",
                     "fill_low", "fill_high", "block_feerate_low", "block_feerate_high"},
}


def test_accepted_keys_are_pinned():
    assert {section: set(keys) for section, keys in cli.SECTION_KEYS.items()} \
        == ACCEPTED_KEYS


# ---------------------------------------------------------------------------
# failure surfacing
# ---------------------------------------------------------------------------


def test_runtime_errors_exit_3_and_leave_a_summary(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, FAST_ATTACK)
    out = tmp_path / "out"

    def explode(jobs, out_dir):
        raise RuntimeError("boom")

    needs, reads, _ = cli._KINDS["attack"]
    monkeypatch.setitem(cli._KINDS, "attack", (needs, reads, lambda sc, seed: explode))
    assert run_scenario(path, out) == 3
    summary = (out / "summary.txt").read_text()
    assert "FAILED at stage execute" in summary and "boom" in summary


FEERATE_CSV = FAST_ATTACK + "\n    [feerates]\n    csv = rates.csv\n"


@pytest.mark.parametrize("text, row, message", [
    (FAST_ATTACK + "    num_victim_chanels = 100\n", None,
     "config-parse-error: [attack] unknown key 'num_victim_chanels'"),
    (FEERATE_CSV, "0,3000,btc_kb,1", "{csv}:2: unknown unit 'btc_kb'"),
    (FEERATE_CSV, "0,inf,sat_kwu,2", "{csv}:2: feerate must be finite"),
    (FEERATE_CSV, "0,3000,sat_kwu", "{csv}:2: expected 4 columns, got 3"),
    # set-up reads the feerate at height 0 and must confirm the funding
    (FEERATE_CSV, "5,3000,sat_kwu,2",
     "feerate series starts at height 5, after the channels open at height 0"),
    (FAST_ATTACK.replace("40000", "700"), None,
     "blockmaxweight must be at least 800, the funding transaction's weight"),
    (FAST_ATTACK + "    feerate_strategy = minimize:abc\n", None,
     "unknown feerate strategy 'minimize:abc'"),
    (FAST_ATTACK + "    feerate_strategy = minimize:5\n", None,
     "minimize strategy requires a feerate_series"),
    # expiry inside the victims' reaction window
    (FAST_ATTACK + "    htlc_expiry_height = 8\n", None,
     "htlc_expiry_height 8 leaves less than 41 blocks after setup ends at height 1"),
    # set-up: four 800-weight blocks confirm the four fundings one by one
    (FAST_ATTACK.replace("40000", "800"), None,
     "htlc_expiry_height 44 leaves less than 41 blocks after setup ends at height 4"),
    # the commitment fee and the HTLC value at launch
    (FAST_ATTACK + "    channel_funding = 100000\n    channel_feerate = 50000\n", None,
     "balance 100000 does not cover commitment fee 4190000"),
    (FAST_ATTACK + "    min_htlc_amount = 50000\n", None,
     "HTLC value 20356 below configured minimum 50000"),
    (FAST_MATRIX + "\n    [policy:both]\n    anchor_outputs_mode = true\n"
                   "    non_replaceable_htlc_success = true\n", None,
     "anchor_mode needs replaceable victim claims to re-issue them"),
    # WeightSchedule's own ValueError, which configure makes a ConfigError
    (FAST_ATTACK + "\n    [weights]\n    htlc_success = 0\n", None,
     "config-parse-error: htlc_success must be positive"),
], ids=["reader", "fees", "fees-inf", "fees-columns", "series-start", "funding-weight",
        "strategy", "minimize-no-series", "engine", "expiry-at-launch", "launch-fee",
        "htlc-floor", "policy", "channel"])
def test_each_layer_refusal_exits_2_with_its_message(tmp_path, capsys, text, row, message):
    # Every layer that reads the configuration refuses it with a ConfigError:
    # run and validate both exit 2 and print the message as it was raised.
    if row is not None:
        (tmp_path / "rates.csv").write_text(f"height,feerate,unit,conf_target\n{row}\n")
    message = message.format(csv=(tmp_path / "rates.csv").resolve())
    path = write_scenario(tmp_path, text)
    assert validate_scenario(path) == 2
    assert capsys.readouterr().err == f"invalid: {message}\n"
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert capsys.readouterr().err == f"error (configure): {message}\n"
    assert (out / "summary.txt").read_text().splitlines()[1] == \
        f"status: FAILED at stage configure: {message}"


@pytest.mark.parametrize("text, stage, message", [
    (FAST_ATTACK.replace("channels = 2", "channels = ten"), "configure",
     "config-parse-error: [attack] num_victim_channels: "
     "invalid literal for int() with base 10: 'ten'"),
    (FAST_ATTACK + "    anchor_mode = maybe\n", "configure",
     "config-parse-error: [attack] anchor_mode: not a boolean: 'maybe'"),
    (FAST_ATTACK + "    dynamic_delta = 5\n", "configure",
     "config-parse-error: [attack] dynamic_delta: wants 'slope,cap', got '5'"),
    (FAST_ATTACK + "    dynamic_delta = inf,5\n", "configure",
     "config-parse-error: [attack] dynamic_delta: Invalid literal for Fraction: 'inf'"),
    (FAST_FEE + "    thresholds = 5,x\n", "configure",
     "config-parse-error: [fee_analysis] thresholds: "
     "invalid literal for int() with base 10: 'x'"),
    (FAST_ATTACK.replace("seed = 9", "seed = one"), "parse",
     "config-parse-error: seed must be an integer: "
     "invalid literal for int() with base 10: 'one'"),
    (FAST_ATTACK.replace("[scenario]", "[setup]"), "parse",
     "config-parse-error: missing [scenario] section"),
    (FAST_ATTACK + "\n    [attack]\n", "parse",
     "config-parse-error: While reading from {path!r} [line 10]: "
     "section 'attack' already exists"),
], ids=["int", "bool", "pair", "pair-inf", "list", "seed", "no-scenario", "malformed"])
def test_reader_conversions_exit_2_with_their_message(tmp_path, capsys, text, stage, message):
    # A value the reader cannot convert, or a file it cannot read, is the
    # user's error: exit 2 with the message, at the stage that read it.
    path = write_scenario(tmp_path, text)
    message = message.format(path=path)
    assert validate_scenario(path) == 2
    assert capsys.readouterr().err == f"invalid: {message}\n"
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert capsys.readouterr().err == f"error ({stage}): {message}\n"
    summary = (out / "summary.txt").read_text().splitlines()
    if stage == "parse":  # no scenario was read, so no scenario: line
        assert summary == [f"status: FAILED at stage parse: {message}"]
    else:
        assert summary[1] == f"status: FAILED at stage configure: {message}"


def test_undecodable_scenario_exits_2(tmp_path, capsys):
    # Bytes that are not UTF-8 are the file's fault: exit 2 at the parse stage.
    path = write_scenario(tmp_path, FAST_ATTACK)
    path.write_bytes(path.read_bytes() + b"min_htlc_amount = \xff\xfe\n")
    message = "config-parse-error: 'utf-8' codec can't decode byte 0xff"
    assert validate_scenario(path) == 2
    assert capsys.readouterr().err.startswith(f"invalid: {message}")
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert capsys.readouterr().err.startswith(f"error (parse): {message}")
    (line,) = (out / "summary.txt").read_text().splitlines()
    assert line.startswith(f"status: FAILED at stage parse: {message}")


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    # No directory, so no summary.txt: the message goes to stderr alone.
    path = write_scenario(tmp_path, FAST_ATTACK)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    assert main(["run", str(path), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error (output): ")
    assert taken.read_text() == "a file\n"


def test_bad_traffic_is_a_config_error(tmp_path):
    path = write_scenario(tmp_path, FAST_ATTACK + "\n    [traffic]\n    txs_per_tick = 2\n"
                                                  "    weight_low = 900\n    weight_high = 800\n")
    assert validate_scenario(path) == 2
    assert run_scenario(path, tmp_path / "out") == 2


@pytest.mark.parametrize("lines", [
    "txs_per_tick = -5\n",
    "txs_per_tick = 2\n    start_height = 20\n    end_height = 19\n",
], ids=["txs-per-tick-negative", "heights-inverted"])
def test_traffic_that_could_never_run_is_a_config_error(tmp_path, lines):
    # Neither can add a filler: refuse it rather than run with no traffic.
    path = write_scenario(tmp_path, FAST_ATTACK + "\n    [traffic]\n    " + lines)
    assert validate_scenario(path) == 2
    out = tmp_path / "out"
    assert run_scenario(path, out) == 2
    assert "FAILED at stage configure" in (out / "summary.txt").read_text()


def test_engine_value_error_is_a_runtime_error(tmp_path, monkeypatch):
    # A ValueError raised by the engine is a fault, not the scenario's.
    path = write_scenario(tmp_path, FAST_ATTACK)
    out = tmp_path / "out"

    def broken(self):
        raise ValueError("mempool corrupted")

    monkeypatch.setattr(chain_module.ChainState, "mine_block", broken)
    assert run_scenario(path, out) == 3
    summary = (out / "summary.txt").read_text()
    assert "FAILED at stage execute" in summary and "mempool corrupted" in summary


@pytest.mark.parametrize("kind, claimer, reason, blockmaxweight", [
    # Victims claim every HTLC on 100,000-weight blocks; on 40,000 their
    # commitments never confirm and the attacker claims them all.
    ("vclaim", "victim", chain_module.REJECT_MISSING_INPUT, 100_000),
    ("aclaim", "attacker", chain_module.REJECT_INSUFFICIENT_FEE, 40_000),
])
def test_a_claim_refused_for_an_unexpected_reason_is_an_engine_fault(
        tmp_path, monkeypatch, kind, claimer, reason, blockmaxweight):
    # The race submits claims only where the chain must take them; the one
    # refusal it expects is an attacker claim on a victim claim it cannot
    # replace.  Any other refusal stops the run as a fault naming the claim.
    submit = chain_module.ChainState.submit
    refused = []

    def refuse_the_first(self, tx):
        out = tx.outputs[0][2] if tx.outputs else None
        if not refused and out and out.kind == "claim" and out.owner.startswith(claimer):
            refused.append(tx.id)
            return chain_module.SubmitResult("rejected", reason=reason)
        return submit(self, tx)

    monkeypatch.setattr(chain_module.ChainState, "submit", refuse_the_first)
    with pytest.raises(AssertionError) as exc:
        run_attack(AttackConfig(num_victim_channels=2, blockmaxweight=blockmaxweight, seed=9))
    assert str(exc.value) == f"{kind} {refused[0]} rejected: {reason}"
    refused.clear()
    out = tmp_path / "out"
    text = FAST_ATTACK.replace("40000", str(blockmaxweight))
    assert run_scenario(write_scenario(tmp_path, text), out) == 3
    assert f"{kind} {refused[0]} rejected: {reason}" in (out / "summary.txt").read_text()


def test_anchor_bumps_past_the_htlc_value_run_clean(tmp_path):
    # At the default bump feerate (25,000 sat/kWU) a bumped claim pays more
    # than the HTLC is worth, so the attacker cannot outbid it and leaves it
    # alone instead of stopping the run; those HTLCs go to the victims.
    feerates = ["height,feerate,unit,conf_target"]
    feerates += [f"{h},{max(1_000, 3_600 - 100 * h)},sat_kwu,2" for h in range(200)]
    (tmp_path / "falling.csv").write_text("\n".join(feerates) + "\n")
    path = write_scenario(tmp_path, """
        [scenario]
        kind = attack
        seed = 77001911

        [attack]
        num_victim_channels = 8
        blockmaxweight = 250000
        htlc_expiry_height = 60
        feerate_strategy = minimize:10
        victim_first_at_expiry = true
        anchor_mode = true

        [feerates]
        csv = falling.csv

        [traffic]
        txs_per_tick = 5
        weight_low = 500
        weight_high = 20000
        feerate_low = 500
        feerate_high = 8000
    """)
    out = tmp_path / "out"
    assert run_scenario(path, out) == 0
    (row,) = read_csv(out / "report.csv")[1:]
    report = dict(zip(REPORT_COLUMNS, map(int, row)))
    assert report["stolen_htlcs"] == 0
    assert report["victim_claimed_htlcs"] == report["total_htlcs"] == 8 * 483


# ---------------------------------------------------------------------------
# argparse entry point
# ---------------------------------------------------------------------------


def test_main_round_trip(tmp_path):
    path = write_scenario(tmp_path, FAST_ATTACK)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out2"),
                 "--seed", "123", "--jobs", "1"]) == 0
    assert (tmp_path / "out2" / "report.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    path = write_scenario(tmp_path, FAST_SWEEP)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: --jobs must be at least 1, got {jobs}\n")
    assert not (tmp_path / "out").exists()  # refused before anything ran
