"""Feerate-series ingestion, channel-fee strategies and block-space analysis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htlcrace.chain import Block, Transaction, available_space
from htlcrace.fees import (
    FeerateSeries,
    SeriesError,
    fraction_of_time_above,
    ingest_feerate_csv,
    parse_strategy,
    simulate_feerate_strategy,
    synthetic_blocks,
    synthetic_feerate_series,
    victim_available_space,
)


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
    assert len(series) == 3
    assert series.first_height == 100
    assert series.estimate_at(110) == 1_800
    assert series.estimate_at(139) == 1_800  # step function holds the level
    assert series.estimate_at(1_000) == 900


def test_ingest_converts_sat_per_vbyte(tmp_path):
    series = ingest_feerate_csv(write_csv(tmp_path, ["5,10,sat_vb,1"]))
    assert series.estimate_at(5) == 2_500  # 10 sat/vB * 1000/4


def test_ingest_rejects_zero_feerate(tmp_path):
    with pytest.raises(SeriesError):
        ingest_feerate_csv(write_csv(tmp_path, ["5,0,sat_kwu,1"]))


def test_ingest_rejects_unsorted_heights(tmp_path):
    with pytest.raises(SeriesError):
        ingest_feerate_csv(write_csv(tmp_path, ["5,100,sat_kwu,1", "5,200,sat_kwu,1"]))


def test_ingest_rejects_unknown_unit(tmp_path):
    with pytest.raises(SeriesError):
        ingest_feerate_csv(write_csv(tmp_path, ["5,100,btc_kb,1"]))


def test_series_rejects_queries_before_first_sample():
    series = FeerateSeries([(100, 1_000, 1)])
    with pytest.raises(SeriesError):
        series.estimate_at(99)
    with pytest.raises(SeriesError):
        FeerateSeries([])


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def test_parse_strategy_forms():
    assert parse_strategy("naive") == ("naive", 0)
    assert parse_strategy("minimize:1008") == ("minimize", 1_008)
    with pytest.raises(SeriesError):
        parse_strategy("lowball")
    with pytest.raises(SeriesError):
        parse_strategy("minimize:-3")


def test_minimize_takes_running_min():
    series = FeerateSeries([(0, 100, 1), (1, 80, 1), (2, 120, 1)])
    out = simulate_feerate_strategy(series, "minimize:2", open_height=0)
    assert out.final_feerate == 80
    assert out.launch_height == 2
    assert out.trace == ((0, 100), (1, 80))


def test_minimize_on_rising_series_keeps_open_estimate():
    series = FeerateSeries([(0, 100, 1), (5, 200, 1), (9, 300, 1)])
    out = simulate_feerate_strategy(series, "minimize:9", open_height=0)
    assert out.final_feerate == 100
    assert out.trace == ((0, 100),)


def test_naive_launches_immediately():
    series = FeerateSeries([(0, 100, 1), (1, 1, 1)])
    out = simulate_feerate_strategy(series, "naive", open_height=0)
    assert out.final_feerate == 100
    assert out.launch_height == 0
    assert out.strategy == "naive"


def test_open_height_must_be_in_series():
    series = FeerateSeries([(50, 100, 1)])
    with pytest.raises(SeriesError):
        simulate_feerate_strategy(series, "naive", open_height=49)


@given(st.integers(0, 10_000), st.integers(0, 200))
@settings(max_examples=60)
def test_minimize_is_exact_running_min(seed, duration):
    series = synthetic_feerate_series(seed, length=max(duration + 1, 10))
    open_h = series.first_height
    out = simulate_feerate_strategy(series, f"minimize:{duration}", open_h)
    estimates = [series.estimate_at(h) for h in range(open_h, open_h + duration + 1)]
    assert out.final_feerate == min(estimates)
    rates = [f for _, f in out.trace]
    assert rates == sorted(rates, reverse=True)  # never raises
    assert all(f <= estimates[0] for f in rates)
    naive = simulate_feerate_strategy(series, "naive", open_h)
    assert out.final_feerate <= naive.final_feerate


# ---------------------------------------------------------------------------
# block-space analysis
# ---------------------------------------------------------------------------


def full_block(height, weight, feerate):
    txs = (Transaction(f"b{height}", (), (), weight, feerate * weight // 1000),)
    return Block(height, txs, weight)


def test_space_over_empty_blocks():
    blocks = {h: Block(h, (), 0) for h in range(10, 22)}
    analysis = victim_available_space(blocks, 2_000, launch_height=10, window=10)
    assert analysis.avg_available_space == 4_000_000
    assert analysis.per_block == (4_000_000,) * 10


def test_space_with_two_megaweight_of_better_payers():
    # every block carries 2M wu paying above the channel feerate
    blocks = {h: full_block(h, 2_000_000, 5_000) for h in range(5, 10)}
    analysis = victim_available_space(blocks, 2_000, launch_height=5, window=4)
    assert analysis.avg_available_space == 2_000_000


def test_space_requires_block_coverage():
    blocks = {h: Block(h, (), 0) for h in range(3)}
    with pytest.raises(SeriesError):
        victim_available_space(blocks, 2_000, launch_height=0, window=5)
    with pytest.raises(SeriesError):
        victim_available_space(blocks, 2_000, launch_height=0, window=0)


def test_fraction_of_time_above():
    assert fraction_of_time_above([1, 2, 3], 2) == pytest.approx(2 / 3)
    assert fraction_of_time_above([1, 2, 3], 0) == 1.0
    assert fraction_of_time_above([1, 2, 3], 4) == 0.0
    with pytest.raises(SeriesError):
        fraction_of_time_above([], 1)


def test_fraction_nonincreasing_in_threshold():
    rng = random.Random(5)
    vals = [rng.randint(0, 100) for _ in range(50)]
    fracs = [fraction_of_time_above(vals, t) for t in range(0, 105, 5)]
    assert fracs == sorted(fracs, reverse=True)


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
    assert set(a) == set(range(100, 120))
    for h in a:
        assert a[h].weight_used <= 4_000_000
        assert [t.id for t in a[h].txs] == [t.id for t in b[h].txs]


def test_available_space_consistency_with_chain_layer():
    blocks = synthetic_blocks(9, start_height=0, count=8)
    analysis = victim_available_space(blocks, 1_500, launch_height=0, window=7)
    manual = [available_space(1_500, blocks[h]) for h in range(1, 8)]
    assert list(analysis.per_block) == manual
    assert analysis.avg_available_space == pytest.approx(sum(manual) / 7)
