"""Feerate-series ingestion, channel-fee strategies and block-space analysis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fee_reference
import htlcrace.fees as fees_module
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
from test_fee_oracle import entries, reference_space


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


def test_space_over_empty_blocks():
    # fill_high = 0: every block is empty, so every feerate sees all of it
    cfg = FeeAnalysisConfig(blocks_seed=1, fill_low=0.0, fill_high=0.0)
    spaces = synthetic_blocks(cfg, 10, 12, {h: [2_000] for h in range(11, 22)})
    assert victim_available_space(spaces, [(10, 2_000)], window=10) == [4_000_000]
    # one-block windows give each block's space
    assert victim_available_space(spaces, [(h, 2_000) for h in range(10, 20)],
                                  window=1) == [4_000_000] * 10


def test_space_with_two_megaweight_of_better_payers():
    # every block carries 2M wu paying above the channel feerate
    spaces = {(2_000, h): 4_000_000 - 2_000_000 for h in range(5, 10)}
    assert victim_available_space(spaces, [(5, 2_000)], window=4) == [2_000_000]
    # and on the draw: 0.5 of each block at 5,000 leaves 2M, short of under 100 at most
    cfg = FeeAnalysisConfig(blocks_seed=1, fill_low=0.5, fill_high=0.5,
                            block_feerate_low=5_000, block_feerate_high=5_000)
    drawn = synthetic_blocks(cfg, 5, 5, {h: [2_000] for h in range(6, 10)})
    [space] = victim_available_space(drawn, [(5, 2_000)], window=4)
    assert 2_000_000 <= space < 2_000_100


def test_space_requires_block_coverage():
    spaces = {(2_000, h): 4_000_000 for h in range(3)} | {(1_000, 3): 4_000_000}
    with pytest.raises(ConfigError, match="insufficient block data: missing height 3"):
        victim_available_space(spaces, [(0, 2_000)], window=5)  # 3 is read at 1,000 only
    with pytest.raises(ConfigError, match="window must be positive"):
        victim_available_space(spaces, [(0, 2_000)], window=0)


def test_window_sums_see_a_gap_between_present_ends():
    # Height 4 is missing at 2,000 only: inside the window 1-7, whose ends
    # are both there, and in 3-5; the lowest gap of any window is named.
    spaces = {(2_000, h): 10 * h for h in (7, 3, 1, 6, 2, 5, 8)} | {(1_000, 4): 1}
    with pytest.raises(ConfigError, match=r"insufficient block data: missing height 4$"):
        victim_available_space(spaces, [(0, 2_000)], window=7)
    with pytest.raises(ConfigError, match=r"missing height 4$"):
        victim_available_space(spaces, [(7, 2_000), (2, 2_000)], window=3)  # 8-10, 3-5
    # A dict out of height order still averages each window in height order.
    assert victim_available_space(spaces, [(4, 2_000), (0, 2_000), (5, 2_000)],
                                  window=3) == [60, 20, 70]
    assert victim_available_space(spaces, [(3, 1_000), (0, 2_000)], window=1) == [1, 10]


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
    launches, pairs, spaces = plan_fee_analysis(cfg, series)
    naive, mini, rows = run_fee_analysis(cfg, pairs, spaces)
    assert launches == range(40, 81, 5)

    def as_text(rows):
        return [[str(value) for value in row] for row in rows]

    for name, spaces in (("space.csv", naive), ("space_minimized.csv", mini)):
        assert read_csv(tmp_path / "out" / name)[1:] == as_text(zip(launches, spaces))
    assert read_csv(tmp_path / "out" / "report.csv")[1:] == as_text(rows)
    assert [t for t, _, _ in rows] == list(range(500_000, 4_000_001, 500_000))


def test_launch_from_defaults_to_the_first_height_after_minimizing():
    series = synthetic_feerate_series(7, 200, start_height=30)
    launches, pairs, spaces = plan_fee_analysis(
        FeeAnalysisConfig(blocks_seed=1, minimize_duration=36, launch_to=80), series)
    assert launches == range(66, 81)
    assert [h for h, _ in pairs] == [*launches, *launches]  # naive, then minimized
    assert sorted({h for _, h in spaces}) == list(range(67, 91))  # through the last window's end
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
    # Every default filler pays at least 500 sat/kWU, so at 0 each one
    # outbids and the space is what the block leaves; none outbids 20,000.
    cfg = FeeAnalysisConfig(blocks_seed=3)
    reads = {h: [0, 1_500, 20_000] for h in range(100, 120)}
    a = synthetic_blocks(cfg, 100, 20, reads)
    b = synthetic_blocks(cfg, 100, 20, reads)
    want = fee_reference.synthetic_blocks(cfg, 100, 20)
    assert a == b
    assert sorted(a) == sorted((rate, h) for h in range(100, 120) for rate in reads[h])
    for h in range(100, 120):
        assert 0 <= a[0, h] == 4_000_000 - want[h].weight_used
        assert a[0, h] <= a[1_500, h] <= a[20_000, h] == 4_000_000


def test_inverted_block_feerate_range_is_refused():
    # Refused before any draw: rejection sampling over an empty range would
    # never end.
    cfg = FeeAnalysisConfig(blocks_seed=1, block_feerate_low=900, block_feerate_high=800)
    with pytest.raises(ConfigError, match=r"^block feerate range \[900, 800\] is empty"):
        synthetic_blocks(cfg, 0, 5, {})


def test_window_spaces_consistency_with_the_reference_blocks():
    cfg = FeeAnalysisConfig(blocks_seed=9)
    spaces = synthetic_blocks(cfg, 0, 8, {h: [1_500] for h in range(1, 8)})
    blocks = fee_reference.synthetic_blocks(cfg, 0, 8)
    manual = [reference_space(1_500, entries(blocks[h]), 4_000_000) for h in range(1, 8)]
    per_block = victim_available_space(spaces, [(h, 1_500) for h in range(7)], window=1)
    assert per_block == manual
    [avg] = victim_available_space(spaces, [(0, 1_500)], window=7)
    assert avg == pytest.approx(sum(manual) / 7)


@given(st.integers(0, 10_000), st.sampled_from([(500, 20_000), (1, 3), (999, 1_001)]))
@settings(max_examples=40)
def test_space_on_the_draw_is_nondecreasing_in_feerate(seed, block_feerates):
    rng = random.Random(seed)
    cfg = FeeAnalysisConfig(blocks_seed=seed, blockmaxweight=rng.choice((4_000, 400_000)),
                            block_feerate_low=block_feerates[0],
                            block_feerate_high=block_feerates[1])
    reads = {h: sorted(rng.sample(range(2 * block_feerates[1] + 2), 8)) for h in range(6)}
    spaces = synthetic_blocks(cfg, 0, 6, reads)
    for h, rates in reads.items():
        column = [spaces[rate, h] for rate in rates]
        assert column == sorted(column)
        assert 0 <= column[0] and column[-1] <= cfg.blockmaxweight


def test_a_filler_at_the_feerate_leaves_its_room():
    # At 1,000 sat/kWU a filler's fee is its weight exactly: it ties with a
    # claim at 1,000, which it does not outbid, and outbids one at 999.
    cfg = FeeAnalysisConfig(blocks_seed=2, block_feerate_low=1_000, block_feerate_high=1_000)
    spaces = synthetic_blocks(cfg, 0, 3, {h: [999, 1_000] for h in range(3)})
    used = {h: block.weight_used for h, block in fee_reference.synthetic_blocks(cfg, 0, 3).items()}
    for h in range(3):
        assert spaces[1_000, h] == 4_000_000
        assert spaces[999, h] == 4_000_000 - used[h] < 4_000_000


def test_synthetic_series_refuses_an_empty_or_non_positive_range():
    # An empty range used to fail inside randrange, and a low of 0 only when
    # a draw came out 0; both are the caller's ConfigError up front.
    for seed, length, low, high in [(1, 10, 900, 800), (3, 1_200, 0, 3), (1, 10, 0, 5)]:
        with pytest.raises(ConfigError) as exc:
            synthetic_feerate_series(seed, length, 0, low, high)
        assert str(exc.value) == f"synthetic feerate range [{low}, {high}] is empty or below 1"
    assert {f for _, f, _ in synthetic_feerate_series(1, 300, 0, 1, 1).points} == {1}
