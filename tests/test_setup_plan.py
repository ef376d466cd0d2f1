"""validate_config's set-up plan against the run that carries it out.

Each seeded config is cheap -- 1 to 6 channels of 1 to 483 HTLCs, a short
drain -- and is drawn around the edges where set-up refuses a config:
blocks that confirm one funding or a few, fundings near the commitment fee
at launch and at a minimize window's dips, both HTLC-value floors and the
in-flight cap, and expiries near the end of set-up.  validate_config must
refuse a config exactly when run_attack raises ConfigError, with the same
message, and run_attack must raise nothing else: a set-up that does not go
as planned is an engine fault, not a refusal.
"""

import random
from collections import Counter

from htlcrace.attack import (
    AttackConfig, ConfigError, TrafficSpec, compute_htlc_value, run_attack, validate_config,
)
from htlcrace.channel import FUNDING_TX_WEIGHT, fee_for_weight, profile_params
from htlcrace.fees import FeerateSeries

REASONS = {
    "cannot pay the commitment fee": "dip",
    "does not cover commitment fee": "launch-fee",
    "below configured minimum": "htlc-floor",
    "below victim's htlc_minimum": "htlc-floor",
    "leaves less than": "expiry",
}


def config(k: int) -> AttackConfig:
    rng = random.Random(k)
    n = rng.randint(1, 6)
    release = rng.choice(("batch", "staggered"))
    profile = profile_params(
        rng.choice(("lnd", "c-lightning", "eclair")),
        max_accepted_htlcs=rng.choice((1, 7, 30, 483)),
        max_htlc_value_in_flight=rng.choice((None, None, int(10 ** rng.uniform(2, 7)))),
        htlc_minimum=rng.choice((0, 0, int(10 ** rng.uniform(1, 5)))))
    window = rng.choice((0, 2, 6))
    series = None
    if window or rng.random() < 0.3:
        series = FeerateSeries([(h, rng.randint(1_000, 20_000), 2) for h in range(0, 30, 3)])
    # One funding per block up to all of them in one, or blocks of any size.
    blockmaxweight = rng.choice((FUNDING_TX_WEIGHT * rng.randint(1, 2 * n)
                                 + rng.randint(0, FUNDING_TX_WEIGHT - 1),
                                 rng.randint(FUNDING_TX_WEIGHT, 1_000_000)))
    traffic = None
    if rng.random() < 0.3:
        traffic = TrafficSpec(txs_per_tick=rng.randint(1, 3), weight_low=400,
                              weight_high=4_000, feerate_low=500, feerate_high=30_000)
    return AttackConfig(
        num_victim_channels=n, victim_profile=profile, seed=k,
        # the earliest launch is at height 1; the latest, 2n + window
        htlc_expiry_height=(profile.htlc_expiry_delta + 1
                            + (n if release == "staggered" else 0)
                            + rng.randint(1, 2 * n + window + 1)),
        # some near the commitment fee with no HTLC, which a dip must pay
        channel_funding=rng.choice((int(10 ** rng.uniform(3.5, 7)), rng.randint(1_000, 15_000))),
        channel_feerate=rng.choice((2_000, 2_000, rng.randint(1, 50_000))),
        blockmaxweight=blockmaxweight,
        min_htlc_amount=rng.choice((0, 1, 1, int(10 ** rng.uniform(1, 6)))),
        feerate_strategy=f"minimize:{window}" if window else "naive",
        feerate_series=series, background_traffic=traffic, preimage_release=release,
        drain_cap=rng.choice((3, 10)))


def test_validate_refuses_exactly_what_run_refuses():
    seen = Counter()
    for k in range(400):
        cfg = config(k)
        try:
            plan = validate_config(cfg)
        except ConfigError as exc:
            refusal = str(exc)
            reason = next((r for key, r in REASONS.items() if key in refusal), "other")
            seen[reason] += 1
            try:
                run_attack(cfg)
            except ConfigError as again:
                assert str(again) == refusal, (k, cfg)
            else:
                raise AssertionError(f"config {k} ran though validate refused it: {refusal}")
            continue
        report = run_attack(cfg)  # any exception fails the test
        seen["ran"] += 1
        # The run launched at the planned feerate, and the HTLC value is the
        # largest the funding affords at the feerate the channels launched at;
        # the last funding confirmed in the planned block.
        assert report.launch_feerate == min(plan.dips.values(), default=plan.feerate), k
        victim = cfg.victim_params()
        count = victim.max_accepted_htlcs
        assert report.htlc_value == compute_htlc_value(
            cfg.channel_funding, victim.max_htlc_value_in_flight, count,
            fee_for_weight(report.launch_feerate, cfg.weights.commitment_weight(count))), k
        assert report.trace[plan.funded - 1].weight_used >= FUNDING_TX_WEIGHT, k
        seen["dipped"] += bool(plan.dips)
        seen["funded-late"] += plan.funded > 1
    need = {"ran": 50, "dipped": 7, "funded-late": 15, "dip": 13, "launch-fee": 60,
            "htlc-floor": 19, "expiry": 55}
    for path, least in need.items():
        assert seen[path] >= least, (path, seen)
