"""Report-identity guard: the engine's full output on a few cheap configs is
pinned by sha256, so a rewrite of a hot path (mining queue, HTLC loading,
claim building, preimage release) cannot change any report, trace row or
per-channel count without failing here.

Each config covers one engine path: background traffic with a feerate
minimization window, staggered release, eager (eclair-style) claim
publication, anchor-mode fee bumps, CPFP children, non-replaceable claims,
dynamic broadcast delta and immediate publication.  The digests were
recorded before the hot paths were rewritten.

The benchmark's shapes are pinned too, recorded before claims became
cohorts: the sweep_lnd points (1M-weight blocks, per-point seeds as
sweep_channels derives them from seed 1) and the seven matrix_traffic
policies (8 channels on 250k-weight blocks with filler traffic, a
minimize window on a falling series, victim_first_at_expiry).
"""

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from htlcrace.attack import AttackConfig, TrafficSpec, run_attack
from htlcrace.fees import FeerateSeries
from htlcrace.mitigations import MitigationPolicy, apply_to_config

# 125k-weight blocks put the lnd closed-form break-even at 3 channels.
SMALL = AttackConfig(num_victim_channels=4, blockmaxweight=125_000, seed=5)
TRAFFIC = TrafficSpec(txs_per_tick=4, weight_low=500, weight_high=8_000,
                      feerate_low=500, feerate_high=6_000)
FALLING = FeerateSeries([(h, max(1_000, 3_600 - 100 * h), 2) for h in range(120)])


MATRIX_BASE = AttackConfig(
    num_victim_channels=8, blockmaxweight=250_000, seed=17, htlc_expiry_height=60,
    background_traffic=TrafficSpec(txs_per_tick=5, weight_low=500, weight_high=20_000,
                                   feerate_low=500, feerate_high=8_000),
    feerate_strategy="minimize:10", feerate_series=FALLING,
    victim_first_at_expiry=True, victim_bump_feerate=12_000)
MATRIX_POLICIES = {
    "baseline": {}, "immediate": {"immediate_htlc_publication": True},
    "cpfp": {"cpfp_demo": True}, "anchor": {"anchor_outputs_mode": True},
    "non-replaceable": {"non_replaceable_htlc_success": True},
    "dynamic": {"dynamic_delta": (0.05, 40)},
    "fewer-htlcs": {"max_accepted_htlcs_override": 200},
}


def _policy(**kw):
    return lambda cfg: apply_to_config(MitigationPolicy(**kw), cfg)


CASES = {
    "baseline": lambda: SMALL,
    "traffic-minimize": lambda: replace(
        SMALL, background_traffic=TRAFFIC, feerate_strategy="minimize:10",
        feerate_series=FALLING, htlc_expiry_height=60, victim_first_at_expiry=True),
    "staggered": lambda: replace(SMALL, preimage_release="staggered",
                                 htlc_expiry_height=50),
    "eclair-eager": lambda: AttackConfig(
        num_victim_channels=6, victim_profile="eclair", blockmaxweight=20_000,
        htlc_expiry_height=150, seed=3),
    "anchor": lambda: _policy(anchor_outputs_mode=True)(
        replace(SMALL, victim_bump_feerate=12_000, background_traffic=TRAFFIC)),
    "cpfp": lambda: _policy(cpfp_demo=True)(replace(SMALL, victim_first_at_expiry=True)),
    "non-replaceable": lambda: _policy(non_replaceable_htlc_success=True)(SMALL),
    "dynamic-delta": lambda: _policy(dynamic_delta=(0.05, 40))(SMALL),
    "immediate": lambda: _policy(immediate_htlc_publication=True)(
        replace(SMALL, background_traffic=TRAFFIC)),
    "sweep-point-1m": lambda: AttackConfig(num_victim_channels=29,
                                           blockmaxweight=1_000_000, seed=11),
    "starved-single": lambda: AttackConfig(num_victim_channels=1,
                                           blockmaxweight=40_000, seed=23),
}
for _n in (10, 11, 20, 29, 30):
    CASES[f"sweep-lnd-{_n}"] = (lambda n: lambda: AttackConfig(
        num_victim_channels=n, blockmaxweight=1_000_000, seed=1 + 7919 * n))(_n)
for _name, _kw in MATRIX_POLICIES.items():
    CASES[f"matrix-{_name}"] = (lambda kw: lambda: _policy(**kw)(MATRIX_BASE))(_kw)

DIGESTS = {
    "anchor": "30eed631acd5551f41ec2bbe5d4b68bf2177980974116b8ce8bec374632479e2",
    "baseline": "a41391612c1f93c31d1fd0670dda6f5c416d28d0dedee450922789228eabe2f8",
    "cpfp": "bcb4a7b9bf22273d76bf3f8fecbc43ded9b6825dccef9b72b886f7f5855b642f",
    "dynamic-delta": "d948d33fdc7bada1551d187e82aa954cfa155e7804272ed8f987963709e6a0c7",
    "eclair-eager": "4260360b462339149b3569af0a75be2365e8b4147d8f78fbd54fa068b98b7ba1",
    "immediate": "051fcd7e9ea06289f432466b88e6ce9df6f140174700cb071ffc6024e952cfb8",
    "non-replaceable": "777bda720a7692501d63151b352e9d3cc86247211f8a8077371a4ede5e51e829",
    "staggered": "bb97f72f3d274e23e15d86f07c1ceb982732e16c78ce8d330664cb73f2156b76",
    "starved-single": "2e7ee750689fab6195ef8af7baf6103f86cd598567e39cf21733c82ca3298fb8",
    "sweep-point-1m": "7700e9ca1ce0ef66fa06582dd3f1e046bb73a8bc2ca7eb13dac48fc4b03ea728",
    "traffic-minimize": "79dcfce7f0262fd761c39446f37e7ab237d2c79a60752f405f2965117983ec97",
    "matrix-anchor": "da9d105d16cd749f848dd4bff8b76ce92a4bd77e155441b3e7dd93fa1ad6bdd8",
    "matrix-baseline": "4f87d83c0fdf1f1684a2a66c090140554d9fabf61b5672d039c893a86f9a7186",
    "matrix-cpfp": "69d606af1f1590345d40a5938b0b57ae33346a719a5589bc10b79a472cf56e54",
    "matrix-dynamic": "9c77dc40e34aa113cb746b25e8c670f67cf3bc1e54281246af1e80313db258a9",
    "matrix-fewer-htlcs": "39645fe447fa30916eab034999274e62785a1b4f8b2cafe9d450ba19d5cd9cf6",
    "matrix-immediate": "7353905f9f76bea22e1aeced3f8a0e57477d332fb4acf42429bbd674a4fd3558",
    "matrix-non-replaceable": "017cd899557309192dc86755126cbd46525bf18c65604f542c45263b1838d0f5",
    "sweep-lnd-10": "fd74043547fe7389e422148ffb99bcf3c6d10154253c3b387e1d5f5d2673c4d7",
    "sweep-lnd-11": "8ae8605752716b993ce13dbf4c0c39a58c5e0e3f5570dd5039630a37a8af48e4",
    "sweep-lnd-20": "6caaa47d2deed93aa1192196cb2ad31f3df92910662942ecb92fca137edab55a",
    "sweep-lnd-29": "7700e9ca1ce0ef66fa06582dd3f1e046bb73a8bc2ca7eb13dac48fc4b03ea728",
    "sweep-lnd-30": "1438a2cec4178f83611b18ea40d0ea8652dd0fa21f0c99c5d3203db18dea36bf",
}


def report_digest(report) -> str:
    blob = json.dumps(asdict(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_identity(name):
    report = run_attack(CASES[name]())
    assert report_digest(report) == DIGESTS[name]
