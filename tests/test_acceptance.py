"""Acceptance suite: one test per release criterion, each ending in a single
printed PASS line carrying the measured numbers.

The n in [50, 130] sweep is the expensive artifact here; it is computed once
per session and shared by the break-even, slope and total-count criteria.
Every engine run in this file (and everywhere else) replays its whole chain
through ChainState.audit() before reporting, so the conservation criterion is
enforced inside every other criterion as well as by its own test.
"""

import time

import pytest

from htlcrace.attack import (
    AttackConfig,
    _Run,
    break_even_channels,
    min_channels_guaranteed_theft,
    sweep_channels,
)
from htlcrace.channel import ChannelParams, WeightSchedule, open_channel
from htlcrace.chain import ChainState
from htlcrace.fees import (
    FeeAnalysisConfig,
    plan_fee_analysis,
    simulate_feerate_strategy,
    synthetic_feerate_series,
    victim_available_space,
)
from htlcrace.mitigations import MitigationPolicy, run_mitigation_matrix
from rbf_reference import oracle_submit, random_case

COARSE_BREAK_EVEN_ANCHOR = 85
EXPECTED_TOTAL_AT_100 = 48_300
MAX_HTLCS = 483


@pytest.fixture(scope="module")
def full_sweep():
    template = AttackConfig(num_victim_channels=50, seed=11)
    start = time.perf_counter()
    curve = sweep_channels(template, range(50, 131))
    elapsed = time.perf_counter() - start
    return curve, elapsed


def test_criterion_1_break_even_threshold(full_sweep):
    closed_form = min_channels_guaranteed_theft("lnd", weights=WeightSchedule(),
                                                blockmaxweight=4_000_000, window=10)
    assert closed_form == 95
    curve, elapsed = full_sweep
    simulated = break_even_channels(curve)
    assert simulated is not None
    assert abs(simulated - closed_form) <= 2
    assert abs(simulated - COARSE_BREAK_EVEN_ANCHOR) <= 15
    assert elapsed < 120.0
    print(f"CRITERION 1 PASS: closed-form 95, simulated break-even {simulated}, "
          f"coarse anchor {COARSE_BREAK_EVEN_ANCHOR} within +-15, "
          f"sweep took {elapsed:.1f}s < 120s")


def test_criterion_2_slope_reproduction(full_sweep):
    curve, _ = full_sweep
    stolen = {n: r.stolen_htlcs for n, r in curve}
    base = break_even_channels(curve)
    worst = 0.0
    for k in range(1, 16):
        diff = stolen[base + k] - stolen[base]
        expected = MAX_HTLCS * k
        deviation = abs(diff - expected) / expected
        worst = max(worst, deviation)
        assert deviation <= 0.10, (k, diff, expected)
    print(f"CRITERION 2 PASS: stolen(be+k)-stolen(be) within 10% of 483k for "
          f"k in [1,15] (worst deviation {worst:.2%})")


def test_criterion_3_total_htlcs_at_100_channels(full_sweep):
    curve, _ = full_sweep
    report = dict(curve)[100]
    assert report.total_htlcs == EXPECTED_TOTAL_AT_100
    assert report.htlcs_per_channel == MAX_HTLCS
    print(f"CRITERION 3 PASS: n=100 -> total_htlcs {report.total_htlcs} == 48300")


def test_criterion_4_congestion_scaling():
    closed_form = min_channels_guaranteed_theft("lnd", blockmaxweight=2_000_000)
    assert closed_form == 48
    # halving blockmaxweight halves the window's weight capacity
    full = min_channels_guaranteed_theft("lnd", blockmaxweight=4_000_000)
    assert (full - 1) == 2 * (closed_form - 1)
    template = AttackConfig(num_victim_channels=44, blockmaxweight=2_000_000, seed=11)
    curve = sweep_channels(template, range(44, 53))
    simulated = break_even_channels(curve)
    assert simulated is not None
    assert abs(simulated - closed_form) <= 2
    print(f"CRITERION 4 PASS: 2M-weight closed form 48, simulated break-even "
          f"{simulated} within +-2")


def test_criterion_5_rbf_oracle_equivalence():
    start = time.perf_counter()
    agreements = 0
    for i in range(1_000):
        chain, pending, confirmed, probe = random_case(171_717 + i)
        want = oracle_submit(pending, confirmed, probe)
        got = chain.submit(probe)
        assert (got.status, got.reason, frozenset(got.evicted)) == want, (i, got, want)
        agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 1_000
    assert elapsed < 30.0
    print(f"CRITERION 5 PASS: 1000/1000 mempools agree with the brute-force "
          f"oracle in {elapsed:.2f}s")


def test_criterion_6_conservation_suite():
    # audit() replays every block: value conservation, double-spend freedom
    # and per-block weight limits at every height, against a fresh UTXO view.
    configs = [
        AttackConfig(num_victim_channels=5, seed=23),
        AttackConfig(num_victim_channels=10, blockmaxweight=2_000_000, seed=23),
        AttackConfig(num_victim_channels=1, blockmaxweight=40_000, seed=23),
    ]
    heights = 0
    for cfg in configs:
        run = _Run(cfg)
        run.execute()          # audits internally after the race
        run.chain.audit()      # and once more, explicitly
        heights += run.chain.height
    print(f"CRITERION 6 PASS: full-chain replay audits clean over {heights} "
          f"blocks across {len(configs)} runs (plus every other run in this suite)")


def test_criterion_7_fee_strategy_ordering():
    duration = 1_008
    thresholds = range(500_000, 4_000_001, 500_000)
    violations = 0
    for seed in range(100):
        series = synthetic_feerate_series(seed, length=duration + 200)
        open_h = series.first_height
        cfg = FeeAnalysisConfig(blocks_seed=seed + 1, window=10, minimize_duration=duration,
                                launch_from=open_h + duration,
                                launch_to=open_h + duration + 99, launch_step=20)
        launches, pairs, spaces = plan_fee_analysis(cfg, series)
        assert launches == range(open_h + duration, open_h + duration + 100, 20)
        naive_pairs, min_pairs = [], []
        for launch in launches:
            naive = simulate_feerate_strategy(series, "naive", launch)
            mini = simulate_feerate_strategy(series, f"minimize:{duration}",
                                             launch - duration)
            # exactness: the minimized rate IS the running minimum
            estimates = [series.estimate_at(h)
                         for h in range(launch - duration, launch + 1)]
            assert mini == min(estimates)
            naive_pairs.append((launch, naive))
            min_pairs.append((launch, mini))
        assert pairs == naive_pairs + min_pairs
        naive_avgs = victim_available_space(spaces, naive_pairs, 10)
        min_avgs = victim_available_space(spaces, min_pairs, 10)
        for t in thresholds:
            frac_naive = sum(1 for v in naive_avgs if v >= t) / len(naive_avgs)
            frac_min = sum(1 for v in min_avgs if v >= t) / len(min_avgs)
            if frac_min > frac_naive:
                violations += 1
    assert violations == 0
    print("CRITERION 7 PASS: on 100 seeded series the minimized strategy's "
          "space-above-threshold fraction never exceeds naive, and the "
          "minimized feerate equals the exact running minimum")


def test_criterion_8_mitigation_matrix():
    n = min_channels_guaranteed_theft("lnd") + 10  # 105
    base = AttackConfig(num_victim_channels=n, seed=37)
    policies = [
        MitigationPolicy(policy_id=f"d{delta}-{mode}",
                         commitment_broadcast_delta_override=delta,
                         immediate_htlc_publication=(mode == "immediate"),
                         cpfp_demo=(mode == "cpfp"))
        for delta in (10, 20, 30)
        for mode in ("wait", "immediate", "cpfp")
    ]
    start = time.perf_counter()
    rows = {r.policy_id: r for r in run_mitigation_matrix(base, policies)}
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    wait = {d: rows[f"d{d}-wait"].report.stolen_htlcs for d in (10, 20, 30)}
    # broadcast-delta monotonicity
    assert wait[10] >= wait[20] >= wait[30]
    assert wait[10] > 0  # n is past break-even, the baseline must bleed
    # immediate-publication dominance, at every delta level
    for d in (10, 20, 30):
        assert rows[f"d{d}-immediate"].report.stolen_htlcs <= wait[d]
    # CPFP futility: bit-for-bit the same outcome as doing nothing
    for d in (10, 20, 30):
        assert rows[f"d{d}-cpfp"].report.stolen_htlcs == wait[d]
        assert rows[f"d{d}-cpfp"].report.victim_claimed_htlcs == \
            rows[f"d{d}-wait"].report.victim_claimed_htlcs
    print(f"CRITERION 8 PASS: 3x3 matrix at n={n}: delta curve "
          f"{wait[10]}/{wait[20]}/{wait[30]} non-increasing, immediate <= wait, "
          f"cpfp == wait, in {elapsed:.1f}s < 300s")


def test_sweep_invariants_monotonicity_and_economics(full_sweep):
    # Not a numbered criterion: the engine's own curve-level invariants,
    # checked on the same expensive sweep while we have it.
    curve, _ = full_sweep
    stolen = [r.stolen_htlcs for _, r in curve]
    assert stolen == sorted(stolen)  # non-decreasing in n, no background traffic
    for n, r in curve:
        if r.stolen_htlcs > MAX_HTLCS:
            assert r.attacker_cost < r.stolen_value, n
    print("SWEEP INVARIANTS PASS: stolen(n) non-decreasing; attacker profit "
          "positive at every point stealing more than one channel's HTLCs")


def test_criterion_9_commitment_arithmetic():
    for feerate in (2_000, 2_500):
        chain = ChainState()
        params = ChannelParams(channel_feerate=feerate)
        ch = open_channel(chain, "chan", "alice", "bob", 2_500_000, params, params)
        chain.mine_block()
        empty = ch.build_commitment("alice")
        assert empty.weight == 724
        assert empty.fee == feerate * 724 // 1000
        for k in range(483):
            ch.add_htlc("alice", 2_000, k, 100)
        full = ch.build_commitment("alice")
        assert full.weight == 83_800
        assert full.fee == feerate * 83_800 // 1000
    assert 2_500 * 83_800 // 1000 == 209_500
    print("CRITERION 9 PASS: commitment weight 724 wu empty / 83800 wu at 483 "
          "HTLCs; fee = feerate*weight/1000 floored, exactly")
