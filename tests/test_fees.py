"""Feerate-series ingestion, channel-fee strategies and block-space analysis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fee_reference
import htlcrace.fees as fees_module
from htlcrace.chain import available_space
from htlcrace.cli import run_scenario, validate_scenario
from htlcrace.fees import (
    ConfigError,
    FeeAnalysisConfig,
    FeerateSeries,
    fraction_of_time_above,
    ingest_feerate_csv,
    parse_strategy,
    plan_fee_analysis,
    run_fee_analysis,
    simulate_feerate_strategy,
    synthetic_blocks,
    synthetic_feerate_series,
    victim_available_space,
)
from test_cli import FAST_FEE, read_csv, write_scenario


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def write_csv(tmp_path, rows, header="height,feerate,unit,conf_target"):
    path = tmp_path / "rates.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_ingest_three_rows(tmp_path):
    series = ingest_feerate_csv(write_csv(tmp_path, [
        "100,1500,sat_kwu,2",
        "110,1800,sat_kwu,2",
        "140,900,sat_kwu,2",
    ]))
    assert len(series.points) == 3
    assert series.first_height == 100
    assert series.estimate_at(110) == 1_800
    assert series.estimate_at(139) == 1_800  # step function holds the level
    assert series.estimate_at(1_000) == 900


def test_ingest_converts_sat_per_vbyte(tmp_path):
    series = ingest_feerate_csv(write_csv(tmp_path, ["5,10,sat_vb,1"]))
    assert series.estimate_at(5) == 2_500  # 10 sat/vB * 1000/4


def test_ingest_rejects_zero_feerate(tmp_path):
    with pytest.raises(ConfigError, match="feerate must be positive"):
        ingest_feerate_csv(write_csv(tmp_path, ["5,0,sat_kwu,1"]))


@pytest.mark.parametrize("rate, unit", [
    *((rate, unit) for rate in ("inf", "-inf", "nan", "1e400") for unit in ("sat_kwu", "sat_vb")),
    ("1e307", "sat_vb"),  # finite, but not once scaled to sat/kWU
])
def test_ingest_rejects_a_feerate_that_is_not_finite(tmp_path, rate, unit):
    path = write_csv(tmp_path, ["5,100,sat_kwu,1", f"6,{rate},{unit},1"])
    with pytest.raises(ConfigError) as exc:
        ingest_feerate_csv(path)
    assert str(exc.value) == f"{path}:3: feerate must be finite"


def test_ingest_rejects_unsorted_heights(tmp_path):
    with pytest.raises(ConfigError, match="series heights must be strictly increasing"):
        ingest_feerate_csv(write_csv(tmp_path, ["5,100,sat_kwu,1", "5,200,sat_kwu,1"]))


def test_ingest_rejects_unknown_unit(tmp_path):
    with pytest.raises(ConfigError, match="unknown unit 'btc_kb'"):
        ingest_feerate_csv(write_csv(tmp_path, ["5,100,btc_kb,1"]))


@pytest.mark.parametrize("header, rows, where, message", [
    ("height,feerate,unit", ["5,100,sat_kwu,1"], "",
     "expected header height,feerate,unit,conf_target"),
    ("", [], "", "expected header height,feerate,unit,conf_target"),
    ("height,feerate,unit,conf_target", ["5,100,sat_kwu"], ":2",
     "expected 4 columns, got 3"),
    ("height,feerate,unit,conf_target", ["5,100,sat_kwu,1", "", "6,100,sat_kwu,1,9"], ":4",
     "expected 4 columns, got 5"),
    ("height,feerate,unit,conf_target", ["5,100,sat_kwu,1", "6.5,100,sat_kwu,1"], ":3",
     "invalid literal for int() with base 10: '6.5'"),
    ("height,feerate,unit,conf_target", ["5,100,sat_kwu,soon"], ":2",
     "invalid literal for int() with base 10: 'soon'"),
], ids=["header", "empty-file", "three-columns", "five-after-blank", "height", "conf-target"])
def test_ingest_refusals_name_the_file_and_line(tmp_path, header, rows, where, message):
    path = write_csv(tmp_path, rows, header=header)
    with pytest.raises(ConfigError) as exc:
        ingest_feerate_csv(path)
    assert str(exc.value) == f"{path}{where}: {message}"


def test_ingest_skips_blank_rows(tmp_path):
    path = write_csv(tmp_path, ["", "5,100,sat_kwu,1", " , , , ", "", "9,200,sat_kwu,3"])
    assert ingest_feerate_csv(path).points == [(5, 100, 1), (9, 200, 3)]


@pytest.mark.parametrize("feerate", [0, -100])
def test_series_rejects_a_non_positive_feerate(feerate):
    with pytest.raises(ConfigError, match="^feerates must be positive$"):
        FeerateSeries([(0, 1_000, 1), (5, feerate, 1)])


def test_series_rejects_queries_before_first_sample():
    series = FeerateSeries([(100, 1_000, 1)])
    with pytest.raises(ConfigError, match="height 99 precedes first sample 100"):
        series.estimate_at(99)
    with pytest.raises(ConfigError, match="empty feerate series"):
        FeerateSeries([])


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def test_parse_strategy_forms():
    assert parse_strategy("naive") == ("naive", 0)
    assert parse_strategy("minimize:1008") == ("minimize", 1_008)
    with pytest.raises(ConfigError, match="unknown feerate strategy 'lowball'"):
        parse_strategy("lowball")
    with pytest.raises(ConfigError, match="minimize duration must be non-negative"):
        parse_strategy("minimize:-3")


@pytest.mark.parametrize("strategy", ["minimize:abc", "minimize:", "minimize:1.5"])
def test_parse_strategy_refuses_a_duration_that_is_not_an_integer(strategy):
    with pytest.raises(ConfigError) as exc:
        parse_strategy(strategy)
    assert str(exc.value) == f"unknown feerate strategy {strategy!r}"


def test_minimize_takes_running_min():
    series = FeerateSeries([(0, 100, 1), (1, 80, 1), (2, 120, 1)])
    assert simulate_feerate_strategy(series, "minimize:2", open_height=0) == 80


def test_minimize_on_rising_series_keeps_open_estimate():
    series = FeerateSeries([(0, 100, 1), (5, 200, 1), (9, 300, 1)])
    assert simulate_feerate_strategy(series, "minimize:9", open_height=0) == 100


def test_naive_launches_immediately():
    series = FeerateSeries([(0, 100, 1), (1, 1, 1)])
    assert simulate_feerate_strategy(series, "naive", open_height=0) == 100


def test_open_height_must_be_in_series():
    series = FeerateSeries([(50, 100, 1)])
    with pytest.raises(ConfigError, match="height 49 precedes first sample 50"):
        simulate_feerate_strategy(series, "naive", open_height=49)


@given(st.integers(0, 10_000), st.integers(0, 200))
@settings(max_examples=60)
def test_minimize_is_exact_running_min(seed, duration):
    series = synthetic_feerate_series(seed, length=max(duration + 1, 10))
    open_h = series.first_height
    out = simulate_feerate_strategy(series, f"minimize:{duration}", open_h)
    estimates = [series.estimate_at(h) for h in range(open_h, open_h + duration + 1)]
    assert out == min(estimates)
    assert out <= simulate_feerate_strategy(series, "naive", open_h)


# ---------------------------------------------------------------------------
# block-space analysis
# ---------------------------------------------------------------------------


def full_block(weight, feerate):
    return [(feerate * weight // 1000, weight, 1)]


def test_space_over_empty_blocks():
    blocks = {h: [] for h in range(10, 22)}
    assert victim_available_space(blocks, [(10, 2_000)], window=10) == [4_000_000]
    # one-block windows give each block's space
    assert victim_available_space(blocks, [(h, 2_000) for h in range(10, 20)],
                                  window=1) == [4_000_000] * 10


def test_space_with_two_megaweight_of_better_payers():
    # every block carries 2M wu paying above the channel feerate
    blocks = {h: full_block(2_000_000, 5_000) for h in range(5, 10)}
    assert victim_available_space(blocks, [(5, 2_000)], window=4) == [2_000_000]


def test_space_requires_block_coverage():
    blocks = {h: [] for h in range(3)}
    with pytest.raises(ConfigError, match="insufficient block data: missing height 3"):
        victim_available_space(blocks, [(0, 2_000)], window=5)
    with pytest.raises(ConfigError, match="window must be positive"):
        victim_available_space(blocks, [(0, 2_000)], window=0)


def test_fraction_of_time_above():
    assert fraction_of_time_above([1, 2, 3], 2) == pytest.approx(2 / 3)
    assert fraction_of_time_above([1, 2, 3], 0) == 1.0
    assert fraction_of_time_above([1, 2, 3], 4) == 0.0
    with pytest.raises(ConfigError, match="no samples"):
        fraction_of_time_above([], 1)


def test_fraction_nonincreasing_in_threshold():
    rng = random.Random(5)
    vals = [rng.randint(0, 100) for _ in range(50)]
    fracs = [fraction_of_time_above(vals, t) for t in range(0, 105, 5)]
    assert fracs == sorted(fracs, reverse=True)


# ---------------------------------------------------------------------------
# fee analysis as a library run
# ---------------------------------------------------------------------------


def test_library_fee_analysis_matches_the_scenario_run(tmp_path):
    # FAST_FEE's settings, with blocks_seed defaulting to its scenario seed 9.
    assert run_scenario(write_scenario(tmp_path, FAST_FEE), tmp_path / "out") == 0
    series = synthetic_feerate_series(7, 200)
    cfg = FeeAnalysisConfig(blocks_seed=9, window=4, minimize_duration=36,
                            launch_from=40, launch_to=80, launch_step=5)
    launches, blocks = plan_fee_analysis(cfg, series)
    naive, mini, rows = run_fee_analysis(cfg, series, launches, blocks)
    assert launches == range(40, 81, 5)

    def as_text(rows):
        return [[str(value) for value in row] for row in rows]

    for name, spaces in (("space.csv", naive), ("space_minimized.csv", mini)):
        assert read_csv(tmp_path / "out" / name)[1:] == as_text(zip(launches, spaces))
    assert read_csv(tmp_path / "out" / "report.csv")[1:] == as_text(rows)
    assert [t for t, _, _ in rows] == list(range(500_000, 4_000_001, 500_000))


def test_launch_from_defaults_to_the_first_height_after_minimizing():
    series = synthetic_feerate_series(7, 200, start_height=30)
    launches, blocks = plan_fee_analysis(
        FeeAnalysisConfig(blocks_seed=1, minimize_duration=36, launch_to=80), series)
    assert launches == range(66, 81)
    assert sorted(blocks) == list(range(66, 91))  # through the last window's end
    with pytest.raises(ConfigError, match=r"^\[fee_analysis\] needs launch_to >= launch_from$"):
        plan_fee_analysis(FeeAnalysisConfig(blocks_seed=1, minimize_duration=36), series)


@pytest.mark.parametrize("command", [run_scenario, validate_scenario])
def test_a_fee_analysis_draws_its_blocks_once(tmp_path, monkeypatch, command):
    # validate builds the blocks as run does; run then reuses them.
    calls = []

    def counted(*args):
        calls.append(args)
        return synthetic_blocks(*args)

    monkeypatch.setattr(fees_module, "synthetic_blocks", counted)
    path = write_scenario(tmp_path, FAST_FEE)
    args = (path, tmp_path / "out") if command is run_scenario else (path,)
    assert command(*args) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# synthetic inputs
# ---------------------------------------------------------------------------


def test_synthetic_series_deterministic_and_bounded():
    a = synthetic_feerate_series(7, length=500, low=400, high=9_000)
    b = synthetic_feerate_series(7, length=500, low=400, high=9_000)
    assert a.points == b.points
    assert all(400 <= f <= 9_000 for _, f, _ in a.points)
    heights = [h for h, _, _ in a.points]
    assert heights == sorted(heights) and heights[0] == 0
    assert synthetic_feerate_series(8, length=500).points != a.points


def test_synthetic_blocks_deterministic_and_within_limit():
    a = synthetic_blocks(3, start_height=100, count=20)
    b = synthetic_blocks(3, start_height=100, count=20)
    want = fee_reference.synthetic_blocks(3, start_height=100, count=20)
    assert set(a) == set(range(100, 120))
    for h in a:
        used = sum(weight for _, weight, _ in a[h])
        assert used <= 4_000_000
        assert used == sum(weight for _, weight, _ in b[h]) == want[h].weight_used
        assert a[h] == b[h] == [(t.fee, t.weight, t.count) for t in want[h].txs]


def test_inverted_block_feerate_range_is_refused():
    # Refused before any draw: rejection sampling over an empty range would
    # never end.
    with pytest.raises(ConfigError, match="feerate range"):
        synthetic_blocks(1, 0, 5, feerate_low=900, feerate_high=800)


def test_available_space_consistency_with_chain_layer():
    blocks = synthetic_blocks(9, start_height=0, count=8)
    manual = [available_space(1_500, blocks[h]) for h in range(1, 8)]
    per_block = victim_available_space(blocks, [(h, 1_500) for h in range(7)], window=1)
    assert per_block == manual
    [avg] = victim_available_space(blocks, [(0, 1_500)], window=7)
    assert avg == pytest.approx(sum(manual) / 7)
