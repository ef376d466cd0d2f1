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

Sixty generated configs (`generated`, seeded by their number) sample those
paths more widely.  Their bases leave the four victim settings a policy
may switch on at their defaults, so the digests do not depend on how a
policy combines with its base.  Each of three deliberate engine mutations
changes at least one of them: the attacker's `runs.restate` of a claimed
span stopping one HTLC short, dropping the attacker's skip of claims no fee
can outbid, and swapping the pass order under victim_first_at_expiry.
"""

import hashlib
import json
import random
from dataclasses import asdict, replace

import pytest

from htlcrace.attack import AttackConfig, TrafficSpec, run_attack
from htlcrace.channel import WeightSchedule, profile_params
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


HTLC_COUNTS = (1, 2, 7, 40, 483)


def generated(k: int) -> AttackConfig:
    """Config k of a seeded draw over the engine's paths: 1-6 channels, every
    profile and HTLC count, blocks near the closed-form break-even, traffic,
    staggered release, minimize windows, and one MitigationPolicy field
    applied to a base that leaves the policy's own fields at their defaults."""
    rng = random.Random(k)
    n = rng.randint(1, 6)
    profile = profile_params(rng.choice(("lnd", "c-lightning", "eclair")),
                             max_accepted_htlcs=rng.choice(HTLC_COUNTS))
    field = rng.choice(("", "delta", "htlcs", "immediate", "dynamic", "anchor",
                        "non-replaceable", "cpfp"))
    policy = {
        "": {},
        "delta": {"commitment_broadcast_delta_override":
                  rng.randint(1, min(profile.htlc_expiry_delta, 30))},
        "htlcs": {"max_accepted_htlcs_override": rng.choice(HTLC_COUNTS)},
        "immediate": {"immediate_htlc_publication": True},
        "dynamic": {"dynamic_delta": (rng.choice((0.0, 0.05, 0.5)), rng.randint(1, 40))},
        "anchor": {"anchor_outputs_mode": True},
        "non-replaceable": {"non_replaceable_htlc_success": True},
        "cpfp": {"cpfp_demo": True},
    }[field]
    if field in ("anchor", "cpfp") and rng.random() < 0.5:
        profile = profile_params("lnd")  # bumps that outbid what an HTLC is worth
    count = policy.get("max_accepted_htlcs_override", profile.max_accepted_htlcs)
    release = rng.choice(("batch", "staggered"))
    duration = rng.choice((0, 0, 4, 12))
    weights = WeightSchedule()
    per_channel = weights.commitment_weight(count) + count * weights.htlc_success
    near = (per_channel * n * rng.choice((3, 5, 8, 10, 12, 20))
            // (10 * profile.commitment_broadcast_delta))
    expiry = (2 + duration + profile.htlc_expiry_delta
              + (n if release == "staggered" else 0) + rng.randint(0, 12))
    traffic = None
    if rng.random() < 0.5:
        traffic = TrafficSpec(txs_per_tick=rng.randint(1, 5), weight_low=400,
                              weight_high=rng.choice((2_000, 20_000)),
                              feerate_low=500, feerate_high=rng.choice((4_000, 30_000)))
    base = AttackConfig(
        num_victim_channels=n, victim_profile=profile, htlc_expiry_height=expiry,
        channel_funding=rng.choice((10_000_000, 3_000_000, 1_000_000)),
        blockmaxweight=max(12_000, near), seed=k, background_traffic=traffic,
        feerate_strategy=f"minimize:{duration}" if duration else "naive",
        feerate_series=FALLING if duration or rng.random() < 0.3 else None,
        preimage_release=release,
        victim_bump_feerate=rng.choice((2_000, 12_000, 25_000, 60_000)),
        victim_first_at_expiry=rng.random() < 0.5)
    return _policy(**policy)(base)


for _k in range(60):
    CASES[f"gen-{_k:02d}"] = (lambda k: lambda: generated(k))(_k)

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
    "gen-00": "2d65e03affc328e8785078d2a3fb2cf13142aadfc29e6d9ef1a008c403565af5",
    "gen-01": "f6a243b828dd4b583396e82b574391cf5571bf4e509da670e218cc4a6aa374cb",
    "gen-02": "091c21915ce4b6b399750676a7c011dd1c56ee1ce1bbfcc5636305690879c069",
    "gen-03": "33e74a0306cc60ba4d807f5939716f8688b0da2b851903519186fb9c88d33210",
    "gen-04": "f68ca0007fcfaa230be4457fb42e12d1e26cf07bdb922341406001131559f84f",
    "gen-05": "ecda7d223700c757e9132e40422c05dc2a3b681f6bd04bac2768ea2ab0556377",
    "gen-06": "947d335f3295073800a9cee786765a153ebe96c4bb4294507e7522085ce2ee87",
    "gen-07": "a4b6cf9364565e0b7a3469d96a385d23b4a7b26d919d2f00c3896b846f69a4e7",
    "gen-08": "eef7d0c2b472d27d079d708c532b16906aa330c0099f0ca6c2bb9eda490436a3",
    "gen-09": "467947c8b31d71e7b20ed81e5b3bfb56be0eff19c3ad7db8e90f932ca0742b2d",
    "gen-10": "a5a472712aab9aa5fed51a60b97cb61cc7636bda54d2bfbadc971215900a2f36",
    "gen-11": "1e1439b1d2ff71948bd9e1fedac18de7cfea195f947c18f8efd530195be4ddc2",
    "gen-12": "a181d8f66d56418b0a64354953ce972cd54f2e7ab5aa97f14d4b9716e58e8b77",
    "gen-13": "51c0febffd6193f5b33fe0a447fa220b8662ae80aec795cff367443f6298c703",
    "gen-14": "8ff7f7dbc9659001c10d44328e5421a309d24d85aaf1a1290468dd0970c8705e",
    "gen-15": "2f9352df4cd0f59079263be6b477954c016ce2373c70ed310db8148da72d94d9",
    "gen-16": "de928be5db624cb855a7ad744ff5f4663d0615126a85448936e0066a9237eff2",
    "gen-17": "966f293676699a5a8409fde82961cf2591e43fecffb615c8ee52a918ef360e2b",
    "gen-18": "4b494d74e829d2e77aac14789ed019932c2e584ce0326d93731d2ee9d56ece29",
    "gen-19": "0fafd6186894041a7571cd7da5a95bac2f138f7c89ed76bb5c649f9563b14eeb",
    "gen-20": "53c58524946d942aaa2096d13c45049308fff715b34d284b29753b7b3d08165c",
    "gen-21": "8ecba91f73a52386418769db2e6505cf3eaa65fce6c6b1bea6a8ca43b95bc173",
    "gen-22": "fcb4da37454a6f10ec89576a6a35c8cae4cce26afaa8d6ee55d32a4dd0316769",
    "gen-23": "3e04ffbd4937fe65d2f1221cd7ef533c35f1f2b527e98c6c74d4db8d17d8b18e",
    "gen-24": "52dcc7d757299b277d08665270db47d107dd5b53bea76a5586ac8c16df83f018",
    "gen-25": "9fda4ad6993ce2a8dc18318ca0e93c7ff4c71a2a8c69255ba2bab5b848670415",
    "gen-26": "0d766d6651a882213325592056b4b29d9f1d9ac680bad9dff8dcbfa93aa6d948",
    "gen-27": "8deb9615bc893a90f7888aa4523a301ae8f651d3b482749bf973381c903933ba",
    "gen-28": "b61f6e86845d09131bc713aff902357da2f81a5ea5b076b4cdca180ae752f2e4",
    "gen-29": "a5fceb588dcff1b2ebba79e456eaa345fcf5d90b0258b9d2f8e3f8c4e009ea06",
    "gen-30": "2aed88aa8536bd855de4e40a950eaed005257382bbbfdde78279835c4b965b29",
    "gen-31": "ef464399592645f79555aa328db1c8a3ee9ed1b61324a8fed1b3ee6a4dbc1c92",
    "gen-32": "798d4873864f4bf432df035d7fd6dc05b5d7a9bec6e7f608faf973bbb010c09b",
    "gen-33": "774f01905f39a2c1f4caedd2a6e292c1bb18892e9e990c7b18e4ef084fbf5e2b",
    "gen-34": "6e9aa3d687010a05c4ca2fd50c909fcf5892bd409e104e3a94116665d2565063",
    "gen-35": "0d6390e397766adc80593f8444a932594e23e45f7bacc37a151deb73a2a2982c",
    "gen-36": "260e622be0f2cb28c2bc6ebc2002c0af27cb434383d4e9571bbbd93a19935529",
    "gen-37": "80ada29d60dec5e06f2f4aab914ae35f503056711028b22207320f17b82278fd",
    "gen-38": "fca3913310a0308ced58de7fc98d14e310a21fd5c83a8c21b3ba997eb6208341",
    "gen-39": "ffd45ea66064dcd988824b66b46a5585e6e5fb5c6bc7a1bf6a51456bc9383c2d",
    "gen-40": "17c6fca43146c9f779922a0b6d9203dc83a4dd8d5fbaaed8699b80acca5cdc0b",
    "gen-41": "41595dbf6f5a1ab5e6bf31a793eef104b3e949110adc237f9f3063dc2d915444",
    "gen-42": "525227322d3d9de6ff46711ee68491e1c2affe589cbd9737ddfc7db13fbcfe1c",
    "gen-43": "b376c92e55f0a1ab9fcd5b863f239cbe89fd27709da70b0c3b538c8980610efe",
    "gen-44": "4695af85e44e7fccdfa63b02dafeecf3fdf5034cd96926eb5117a0c20a41dc81",
    "gen-45": "d09b137310db95b457ae7c10bcd6a833d71e9a76893b94d369960165e78420ae",
    "gen-46": "caecf80c1219bf20bcf5228ba4693273cbfceb79ff6aa7f89d827f341fb55335",
    "gen-47": "610de867012edf607796cb41a19fae71949b53a0d6af41c9b8bee3e90c7af918",
    "gen-48": "947231bfd1ea99de40c8d77e890dc0d1f07f99d1b0e67827bf5433a356601bf0",
    "gen-49": "9b4e39f0353e9c57d2e5232d54624298f08cd7ae6ca31c1d768a9656c981d4eb",
    "gen-50": "abb345ade6f32c0041e6a328ddac337ac3a8b268953856700e9ca6e95687c7c8",
    "gen-51": "7a600759b338cea7f709e40152509e472d1c9f3e5499980161f514f55d59a265",
    "gen-52": "ee73c00cffe46efaacfa42c47bd573df200715dd659263c1372b129c1a519cd7",
    "gen-53": "4b0707037adbbb2015b130ea41676d86a4bec736e074ed1c26293ca3b830ba54",
    "gen-54": "c4a78c7d328b2287412afb41ccd1da5d40e7b5ee73b568092445c2cb11ab7354",
    "gen-55": "7ef2b6b1eaed14712da5002d7183e086f53103b74bd7af80b6c8a584c8756bd2",
    "gen-56": "142c689fea45fdf0360eda188e8c1457b53e878bfafe97f0ba7587218deb05d5",
    "gen-57": "760a098d6773673b66bf8525a0de9a0b802011fe2e784a007c40d8d86688e256",
    "gen-58": "49d28a57f62d10c823698619ebba113be9828fc21523d069ffbc79dc25ebdd78",
    "gen-59": "5ba85ac1bde24f67e6c7b88f57eef2f38581edac671837b953a41f675432e7cf",
}


def report_digest(report) -> str:
    blob = json.dumps(asdict(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_identity(name):
    report = run_attack(CASES[name]())
    assert report_digest(report) == DIGESTS[name]
