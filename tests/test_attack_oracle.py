"""run_attack against the per-HTLC reference engine in attack_reference.py.

Each seeded config is small -- 1 to 6 channels of 1 to 40 HTLCs, blocks
sized around the closed-form break-even -- and draws the paths a race
takes: each profile's broadcast and expiry deltas and eager claim
publication, every MitigationPolicy field, traffic on and off and from
height 0 or a later start, batch and staggered release, minimize windows,
anchor bumps from 5 blocks before expiry to the expiry height itself,
either pass order at expiry, and the race stopping with every HTLC
resolved, at quiescence or at drain_cap.
Each config with traffic runs once more with its ranges at one edge of the
engine's inlined randint draws: one weight, feerates of exactly 0, or
widths that are powers of two, where half the raw draws are thrown back.
The whole report must agree, trace and per-channel counts included, or
both engines must refuse the config with ConfigError; validate_config,
which works set-up out from the config alone, must refuse exactly those.
"""

import random
from collections import Counter
from dataclasses import asdict, replace

from attack_reference import run_reference
from htlcrace.attack import (
    AttackConfig, ConfigError, TrafficSpec, run_attack, validate_config,
)
from htlcrace.channel import WeightSchedule, profile_params
from htlcrace.fees import FeerateSeries
from htlcrace.mitigations import MitigationPolicy, apply_to_config

FALLING = FeerateSeries([(h, max(1_000, 3_600 - 100 * h), 2) for h in range(200)])
POLICIES = {
    "": {},
    "delta": lambda rng, p: {"commitment_broadcast_delta_override":
                             rng.randint(1, min(p.htlc_expiry_delta, 20))},
    "htlcs": lambda rng, p: {"max_accepted_htlcs_override": rng.randint(1, 40)},
    "immediate": {"immediate_htlc_publication": True},
    "dynamic": lambda rng, p: {"dynamic_delta": (rng.choice((0.0, 0.1, 0.5)),
                                                 rng.randint(1, 30))},
    "anchor": {"anchor_outputs_mode": True},
    "non-replaceable": {"non_replaceable_htlc_success": True},
    "cpfp": {"cpfp_demo": True},
}
# Traffic range edges; config k with traffic runs again at edge k % 3.
TRAFFIC_EDGES = {
    "one-weight": {"weight_high": 400},
    "zero-feerate": {"feerate_low": 0, "feerate_high": 0},
    "power-of-two-widths": {"weight_high": 400 + 1023, "feerate_high": 500 + 4095},
}


def config(k: int) -> tuple[AttackConfig, str, str]:
    """Config k of the draw, its profile and the policy field it sets."""
    rng = random.Random(k)
    n = rng.randint(1, 6)
    name = rng.choice(("lnd", "c-lightning", "eclair"))
    profile = profile_params(name, max_accepted_htlcs=rng.randint(1, 40))
    field = rng.choice(sorted(POLICIES))
    policy = POLICIES[field]
    policy = policy(rng, profile) if callable(policy) else policy
    count = policy.get("max_accepted_htlcs_override", profile.max_accepted_htlcs)
    delta = policy.get("commitment_broadcast_delta_override",
                       profile.commitment_broadcast_delta)
    release = rng.choice(("batch", "staggered"))
    window = rng.choice((0, 0, 3, 8))
    weights = WeightSchedule()
    per_channel = weights.commitment_weight(count) + count * weights.htlc_success
    near = per_channel * n * rng.choice((3, 6, 9, 12, 20)) // (10 * delta)
    expiry = (2 + window + profile.htlc_expiry_delta
              + (n if release == "staggered" else 0) + rng.randint(0, 6))
    traffic = None
    if rng.random() < 0.5:
        traffic = TrafficSpec(txs_per_tick=rng.randint(1, 4), weight_low=400,
                              weight_high=rng.choice((2_000, 8_000)), feerate_low=500,
                              feerate_high=rng.choice((4_000, 30_000)),
                              end_height=rng.choice((None, expiry + rng.randint(-5, 20))))
    base = AttackConfig(
        num_victim_channels=n, victim_profile=profile, htlc_expiry_height=expiry,
        channel_funding=rng.choice((10_000_000, 1_000_000, 200_000)),
        blockmaxweight=max(6_000, near), seed=k, background_traffic=traffic,
        feerate_strategy=f"minimize:{window}" if window else "naive",
        feerate_series=FALLING if window or rng.random() < 0.3 else None,
        preimage_release=release,
        attacker_fee_bump_increment=rng.choice((1, 1, 500)),
        victim_bump_feerate=rng.choice((2_000, 12_000, 60_000)),
        victim_first_at_expiry=rng.random() < 0.5,
        drain_cap=rng.choice((10, 30, 60)),
        victim_bump_offset=rng.choice((0, 1, 2, 5)))
    if traffic is not None:  # drawn last, so the draws above stay as they were
        start = rng.choice((0, rng.randint(1, expiry)))
        base = replace(base, background_traffic=replace(traffic, start_height=start))
    return apply_to_config(MitigationPolicy(**policy), base), name, field


def outcome(run, cfg):
    try:
        return "ok", asdict(run(cfg))
    except ConfigError:  # both engines must refuse it
        return ("refused",)


def check(cfg: AttackConfig, seen: Counter) -> tuple:
    """Both engines' outcome for cfg, which must agree; validate_config,
    which plans set-up without simulating it, refuses exactly the configs
    both refuse."""
    got = outcome(run_attack, cfg)
    assert got == outcome(lambda c: run_reference(c, seen), cfg), cfg
    assert (got == ("refused",)) == validate_refuses(cfg), cfg
    return got


def validate_refuses(cfg: AttackConfig) -> bool:
    try:
        validate_config(cfg)
    except ConfigError:
        return True
    return False


def test_run_attack_matches_per_htlc_reference():
    seen = Counter()
    for k in range(200):
        cfg, profile, field = config(k)
        got = check(cfg, seen)
        seen[f"profile:{profile}"] += 1
        seen[f"policy:{field or 'none'}"] += 1
        seen[f"release:{cfg.preimage_release}"] += 1
        seen["config:traffic" if cfg.background_traffic else "config:no-traffic"] += 1
        seen["config:late-traffic"] += bool(cfg.background_traffic
                                            and cfg.background_traffic.start_height)
        seen["config:minimize-window"] += cfg.feerate_strategy != "naive"
        seen["config:victim-first"] += cfg.victim_first_at_expiry
        if cfg.anchor_mode:
            seen[f"offset:{cfg.victim_bump_offset}"] += 1
        seen[f"config:{got[0]}"] += 1
    need = {
        "profile:lnd": 20, "profile:c-lightning": 20, "profile:eclair": 20,
        **{f"policy:{field or 'none'}": 10 for field in POLICIES},
        "release:batch": 20, "release:staggered": 20, "config:traffic": 20,
        "config:late-traffic": 20,
        "config:no-traffic": 20, "config:minimize-window": 20, "config:victim-first": 20,
        "config:refused": 1, "minimize:dip": 20, "close:claims-at-once": 20,
        "attacker:accepted": 20, "attacker:replaced": 20, "attacker:blocked": 20,
        "attacker:outbid-impossible": 20, "victim:anchor-bump": 20,
        "victim:cpfp-child": 20, "classify:pending-attacker-claim": 20,
        "stop:all-resolved": 20, "stop:drain-cap": 5, "stop:quiescent": 5,
        "stolen": 20, "no-theft": 20, "unresolved": 1,
        # At offset 0 the anchor bump shares the expiry height with the
        # attacker's pass, and the pass order decides the outcome.
        "offset:0": 3,
    }
    for path, least in need.items():
        assert seen[path] >= least, (path, seen)
    # The reference still stops on an empty mempool while HTLCs are open;
    # run_attack has no such stop, because it cannot happen.
    assert seen["stop:empty-mempool"] == 0, seen
    # The reference runs its attacker pass at every height from expiry on;
    # run_attack runs it once, at expiry, because no later pass can act.
    assert seen["attacker:after-expiry-acted"] == 0, seen


def test_run_attack_matches_reference_at_traffic_range_edges():
    seen = Counter()
    for k in range(200):
        cfg = config(k)[0]
        if cfg.background_traffic is None:
            continue
        edge = list(TRAFFIC_EDGES)[k % 3]
        traffic = replace(cfg.background_traffic, **TRAFFIC_EDGES[edge])
        got = check(replace(cfg, background_traffic=traffic), seen)
        seen[f"traffic:{edge}:{got[0]}"] += 1
    for edge in TRAFFIC_EDGES:
        assert seen[f"traffic:{edge}:ok"] >= 20, (edge, seen)
    for path in ("stolen", "no-theft", "attacker:outbid-impossible"):
        assert seen[path] >= 10, (path, seen)
    assert seen["stop:empty-mempool"] == 0, seen
    assert seen["attacker:after-expiry-acted"] == 0, seen
