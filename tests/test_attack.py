"""Attack-engine tests: HTLC sizing, the closed-form break-even bound, small
end-to-end runs, sweeps and the submission-window safety property.

Full-scale sweeps (n around the real break-even) live in the acceptance
suite; everything here keeps n or blockmaxweight small to stay fast.
"""

import dataclasses
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

import attack_reference
from htlcrace.attack import (
    AttackConfig,
    ConfigError,
    TrafficSpec,
    _Run,
    break_even_channels,
    compute_htlc_value,
    map_runs,
    min_channels_guaranteed_theft,
    run_attack,
    sweep_channels,
    validate_config,
)
from htlcrace.chain import ChainState
from htlcrace.channel import FUNDING_TX_WEIGHT, WeightSchedule, profile_params
from htlcrace.fees import FeerateSeries


# ---------------------------------------------------------------------------
# HTLC sizing
# ---------------------------------------------------------------------------


def test_htlc_value_example():
    assert compute_htlc_value(1_000_000, 10_000_000, 483, 209_500) == 1_636
    assert 790_500 // 483 == 1_636  # the arithmetic being frozen


def test_htlc_value_in_flight_cap_binds():
    assert compute_htlc_value(1_000_000, 483, 483, 209_500) == 1


def test_htlc_value_no_cap():
    assert compute_htlc_value(1_000_000, None, 483, 209_500) == 1_636


def test_htlc_value_needs_positive_capacity():
    with pytest.raises(ConfigError):
        compute_htlc_value(209_500, None, 483, 209_500)
    with pytest.raises(ConfigError):
        compute_htlc_value(100, None, 483, 209_500)
    with pytest.raises(ConfigError):
        compute_htlc_value(1_000, None, 0, 10)


# ---------------------------------------------------------------------------
# closed-form break-even
# ---------------------------------------------------------------------------


def test_break_even_closed_form_lnd_defaults():
    assert min_channels_guaranteed_theft("lnd", window=10) == 95
    # per-channel on-chain demand: commitment + 483 success claims
    per_channel = 724 + 483 * 172 + 483 * 703
    assert per_channel == 423_349
    assert 40_000_000 // per_channel + 1 == 95


def test_break_even_zero_window():
    assert min_channels_guaranteed_theft("lnd", window=0) == 1


def test_break_even_scales_with_block_weight():
    assert min_channels_guaranteed_theft("lnd", blockmaxweight=2_000_000) == 48
    assert min_channels_guaranteed_theft("lnd", blockmaxweight=8_000_000) == 189


def test_break_even_uses_profile_window_by_default():
    # LND's commitment_broadcast_delta is 10, so these must agree.
    assert min_channels_guaranteed_theft("lnd") == \
        min_channels_guaranteed_theft("lnd", window=10)


def test_break_even_rejects_negative_window():
    with pytest.raises(ConfigError):
        min_channels_guaranteed_theft("lnd", window=-1)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_validate_rejects_silly_configs():
    base = AttackConfig(num_victim_channels=1)
    with pytest.raises(ConfigError):
        validate_config(dataclasses.replace(base, num_victim_channels=0))
    with pytest.raises(ConfigError):
        validate_config(dataclasses.replace(base, channel_funding=0))
    with pytest.raises(ConfigError):
        validate_config(dataclasses.replace(base, attacker_fee_bump_increment=0))
    with pytest.raises(ConfigError):
        validate_config(dataclasses.replace(base, preimage_release="dribble"))
    # Set-up must confirm every funding transaction, and it reads the
    # feerate at height 0, where the channels open.
    with pytest.raises(ConfigError, match="blockmaxweight must be at least 800"):
        validate_config(dataclasses.replace(base, blockmaxweight=FUNDING_TX_WEIGHT - 1))
    with pytest.raises(ConfigError, match="series starts at height 5, after the channels"):
        validate_config(dataclasses.replace(base, feerate_series=FeerateSeries([(5, 3_000, 2)])))


@pytest.mark.parametrize("change, message", [
    ({"channel_feerate": 0}, "channel_feerate must be positive"),
    ({"channel_feerate": -1}, "channel_feerate must be positive"),
    ({"min_htlc_amount": -1}, "min_htlc_amount must be non-negative"),
    ({"feerate_strategy": "minimize:5"}, "minimize strategy requires a feerate_series"),
], ids=["feerate-zero", "feerate-negative", "min-htlc", "minimize-no-series"])
def test_validate_refuses_with_its_message(change, message):
    base = AttackConfig(num_victim_channels=1)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        validate_config(dataclasses.replace(base, **change))
    validate_config(dataclasses.replace(base, min_htlc_amount=0))  # the floor itself is fine


def test_set_up_confirms_the_funding_at_the_smallest_blockmaxweight():
    # Each block then confirms one of the two funding transactions.
    report = run_attack(AttackConfig(num_victim_channels=1, blockmaxweight=FUNDING_TX_WEIGHT))
    assert [row.weight_used for row in report.trace[:3]] == [FUNDING_TX_WEIGHT] * 2 + [0]


def test_expiry_must_clear_the_setup_horizon():
    # Set-up ends at height 1, when the block of fundings confirms; an
    # expiry inside the victim's reaction window after it can never be loaded.
    with pytest.raises(ConfigError):
        run_attack(AttackConfig(num_victim_channels=1, htlc_expiry_height=8, seed=1))


def test_worthless_htlcs_refused():
    # balance barely above the full commitment fee: per-HTLC value floors to 0
    fee = 2_000 * (724 + 483 * 172) // 1000
    with pytest.raises(ConfigError):
        run_attack(AttackConfig(num_victim_channels=1,
                                channel_funding=fee + 400, seed=1))


def test_htlcs_below_the_victims_minimum_refused():
    # The victims would refuse every HTLC the attacker can afford: that is
    # a configuration error naming the floor that binds, not a channel fault.
    victim = profile_params("lnd", htlc_minimum=10**9)
    with pytest.raises(ConfigError, match="below victim's htlc_minimum 1000000000"):
        run_attack(AttackConfig(num_victim_channels=1, victim_profile=victim, seed=1))
    with pytest.raises(ConfigError, match="below configured minimum 1000000000"):
        run_attack(AttackConfig(num_victim_channels=1, min_htlc_amount=10**9, seed=1))


def test_minimize_dip_the_funding_cannot_pay_refused():
    # The commitment fee at the 5,000 dip is 5000 * 724 // 1000 = 3,620, over
    # the 3,000 funding, though the launch commitment at feerate 100 fits:
    # a configuration error, in this engine and in the per-HTLC reference.
    cfg = AttackConfig(1, victim_profile="c-lightning", channel_funding=3_000,
                       feerate_strategy="minimize:5", htlc_expiry_height=100,
                       feerate_series=FeerateSeries([(0, 10_000, 6), (1, 5_000, 6),
                                                     (2, 100, 6)]))
    with pytest.raises(ConfigError, match="^channel_funding 3000 cannot pay the commitment "
                                          "fee 3620 at feerate 5000$"):
        run_attack(cfg)
    with pytest.raises(ConfigError):
        attack_reference.run_reference(cfg)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        run_attack(AttackConfig(num_victim_channels=1, victim_profile="raiden", seed=1))


# ---------------------------------------------------------------------------
# end-to-end runs (small)
# ---------------------------------------------------------------------------


def test_single_channel_victim_keeps_everything():
    report = run_attack(AttackConfig(num_victim_channels=1, seed=7))
    assert report.total_htlcs == 483
    assert report.stolen_htlcs == 0
    assert report.victim_claimed_htlcs == 483
    assert report.unresolved_htlcs == 0
    assert report.stolen_value == 0
    assert report.per_channel_stolen == (0,)


def test_single_channel_starved_blocks_loses_everything():
    # 40k-weight blocks cannot even fit the 83,800-wu commitment; every
    # claim stays pending and the attacker's irreplaceable spends win.
    report = run_attack(AttackConfig(num_victim_channels=1,
                                     blockmaxweight=40_000, seed=7))
    assert report.stolen_htlcs == 483
    assert report.victim_claimed_htlcs == 0
    assert report.stolen_value == 483 * report.htlc_value
    # fee economics: the attacker paid chain fees only for funding here
    assert report.attacker_cost < report.stolen_value


def test_accounting_identity_holds():
    for cfg in (AttackConfig(num_victim_channels=2, seed=3),
                AttackConfig(num_victim_channels=2, blockmaxweight=40_000, seed=3),
                AttackConfig(num_victim_channels=2, preimage_release="staggered", seed=3)):
        r = run_attack(cfg)
        assert r.stolen_htlcs + r.victim_claimed_htlcs + r.unresolved_htlcs == r.total_htlcs


def test_htlcs_per_channel_and_value_reported():
    r = run_attack(AttackConfig(num_victim_channels=1, seed=7))
    assert r.htlcs_per_channel == 483
    fee = 2_000 * 83_800 // 1000
    assert r.htlc_value == (10_000_000 - fee) // 483 == 20_356


def test_other_profiles_run_clean():
    r = run_attack(AttackConfig(num_victim_channels=3, victim_profile="c-lightning", seed=5))
    assert r.total_htlcs == 3 * 30
    assert r.stolen_htlcs == 0
    r = run_attack(AttackConfig(num_victim_channels=3, victim_profile="eclair",
                                htlc_expiry_height=160, seed=5))
    assert r.total_htlcs == 3 * 30
    assert r.stolen_htlcs == 0


def test_trace_schema():
    r = run_attack(AttackConfig(num_victim_channels=1, seed=7))
    heights = [row.height for row in r.trace]
    assert heights == sorted(heights) and len(set(heights)) == len(heights)
    assert all(row.weight_used <= 4_000_000 for row in r.trace)
    assert sum(row.victim_claims_confirmed for row in r.trace) == 483
    assert sum(row.attacker_claims_confirmed for row in r.trace) == 0
    assert r.end_height == r.trace[-1].height


def test_identical_configs_identical_reports():
    cfg = AttackConfig(num_victim_channels=2, seed=42,
                       background_traffic=TrafficSpec(txs_per_tick=3,
                                                      weight_low=500, weight_high=2_000,
                                                      feerate_low=500, feerate_high=3_000))
    assert run_attack(cfg) == run_attack(cfg)


def test_background_traffic_different_seeds_may_differ():
    base = AttackConfig(num_victim_channels=1, seed=1,
                        background_traffic=TrafficSpec(txs_per_tick=5,
                                                       weight_low=500, weight_high=9_000,
                                                       feerate_low=500, feerate_high=9_000))
    a = run_attack(base)
    b = run_attack(dataclasses.replace(base, seed=2))
    # determinism is per-seed; different seeds change at least the trace
    assert a != b or a.trace == b.trace


@pytest.mark.parametrize("per_tick", [0, 5])
def test_filler_costs_no_grant(monkeypatch, per_tick):
    # A filler is input-less and output-less, so the only grants are the
    # channel fundings, however much traffic runs, and none stays unspent.
    grants = []
    real_grant = ChainState.grant

    def grant(self, owner, value, count=1):
        grants.append(owner)
        return real_grant(self, owner, value, count)

    monkeypatch.setattr(ChainState, "grant", grant)
    cfg = AttackConfig(num_victim_channels=2, seed=42,
                       background_traffic=TrafficSpec(txs_per_tick=per_tick,
                                                      weight_low=500, weight_high=2_000,
                                                      feerate_low=500, feerate_high=3_000))
    run = _Run(cfg)
    run.execute()
    mined = [tx for block in run.chain.blocks for tx in block.txs]
    fundings = sum(tx.id.endswith("-fund") for tx in mined)
    assert len(grants) == fundings == 2 * cfg.num_victim_channels
    assert any(tx.id.startswith("bg") for tx in mined) == (per_tick > 0)
    assert not any(out.owner == "background"
                   for held in run.chain.utxo.values() for _, _, out in held)


def test_staggered_release_still_settles_everything():
    # staggering eats one block per channel, so the expiry needs extra room
    r = run_attack(AttackConfig(num_victim_channels=3, seed=9,
                                htlc_expiry_height=50,
                                preimage_release="staggered"))
    assert r.total_htlcs == 3 * 483
    assert r.stolen_htlcs + r.victim_claimed_htlcs == r.total_htlcs


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_monotone_and_break_even():
    template = AttackConfig(num_victim_channels=1, blockmaxweight=40_000, seed=11)
    curve = sweep_channels(template, [1, 2, 3])
    stolen = [r.stolen_htlcs for _, r in curve]
    assert stolen == sorted(stolen)
    assert stolen == [483, 966, 1_449]
    assert break_even_channels(curve) == 1


def test_sweep_below_break_even_steals_nothing():
    template = AttackConfig(num_victim_channels=1, seed=11)
    curve = sweep_channels(template, [1, 2])
    assert all(r.stolen_htlcs == 0 for _, r in curve)
    assert break_even_channels(curve) is None


def test_sweep_seeds_derive_from_template():
    template = AttackConfig(num_victim_channels=1, blockmaxweight=40_000, seed=11)
    ((n, from_sweep),) = sweep_channels(template, [2])
    direct = run_attack(dataclasses.replace(template, num_victim_channels=2,
                                            seed=11 + 7919 * 2))
    assert n == 2 and from_sweep == direct


def test_sweep_repeats_identically():
    template = AttackConfig(num_victim_channels=1, blockmaxweight=40_000, seed=11)
    assert sweep_channels(template, [1, 2]) == sweep_channels(template, [1, 2])


def test_map_runs_forks_at_most_one_worker_per_item(monkeypatch):
    # A fake fork context: its Pool records the worker count and maps in-process.
    import multiprocessing
    sizes = []

    class Pool:
        def __init__(self, n):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, run, items):
            return [run(item) for item in items]

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    assert map_runs(abs, [-1, 2, -3, 4], 64) == [1, 2, 3, 4]
    assert map_runs(abs, [-1, 2, -3, 4], 2) == [1, 2, 3, 4]
    assert map_runs(abs, [-5], 64) == [5]  # one item runs in this process
    assert sizes == [4, 2]


@pytest.mark.parametrize("jobs", [0, -1])
def test_map_runs_refuses_jobs_below_one(jobs):
    ran = []
    with pytest.raises(ConfigError, match=f"^jobs must be at least 1, got {jobs}$"):
        map_runs(ran.append, [1, 2], jobs)
    with pytest.raises(ConfigError, match="jobs must be at least 1"):
        sweep_channels(AttackConfig(num_victim_channels=1), [1, 2], jobs=jobs)
    assert ran == []  # refused before anything ran


# ---------------------------------------------------------------------------
# submission-window safety
# ---------------------------------------------------------------------------


class RecordingChain(ChainState):
    def __init__(self, blockmaxweight):
        super().__init__(blockmaxweight)
        self.log = []
        self.spent = set()  # txids whose outputs a submitted transaction spends

    def submit(self, tx):
        res = super().submit(tx)
        self.log.append((self.height, tx.id, res.status, tx.count))
        self.spent.update(ref.txid for ref in tx.inputs)
        return res


@pytest.mark.parametrize("bmw", [4_000_000, 84_000])
def test_victim_success_claims_never_start_after_expiry(bmw):
    # On 84,000-weight blocks one commitment (83,800) fits a block, so the
    # second victim's claims go out late, yet still before expiry.
    cfg = AttackConfig(num_victim_channels=2, blockmaxweight=bmw, seed=13)
    run = _Run(cfg)
    run.chain = RecordingChain(cfg.blockmaxweight)
    run.execute()
    heights = [height for height, txid, status, _ in run.chain.log
               if "-sl" in txid and status != "rejected"]
    assert heights and max(heights) < cfg.htlc_expiry_height, heights


def recorded_race(profile, release, dynamic):
    """A run just past the profile's closed-form break-even on 100k-weight
    blocks, and its RecordingChain.  The victims' window is the profile's
    broadcast delta, or, under a dynamic delta whose cap exceeds it, up to
    two blocks more."""
    victim = profile_params(profile)
    window = victim.commitment_broadcast_delta + 2
    n = min_channels_guaranteed_theft(victim, blockmaxweight=100_000, window=window) + 1
    cfg = AttackConfig(num_victim_channels=n, victim_profile=profile,
                       htlc_expiry_height=victim.htlc_expiry_delta + n + 4,
                       blockmaxweight=100_000, seed=13, preimage_release=release,
                       dynamic_delta=(1.0, window) if dynamic else None)
    run = _Run(cfg)
    run.chain = RecordingChain(cfg.blockmaxweight)
    return cfg, run.execute(), run.chain


RACES = pytest.mark.parametrize("profile,release,dynamic", list(itertools.product(
    ("lnd", "c-lightning", "eclair"), ("batch", "staggered"), (False, True))))


@RACES
def test_attacker_claims_only_at_expiry(profile, release, dynamic):
    # The attacker submits every timeout claim at the expiry height, and
    # none before or after it.
    cfg, report, chain = recorded_race(profile, release, dynamic)
    heights = {height for height, txid, _, _ in chain.log if "-tr" in txid}
    assert heights == {cfg.htlc_expiry_height}
    taken = sum(count for _, txid, status, count in chain.log
                if "-tr" in txid and status != "rejected")
    assert taken >= report.stolen_htlcs > 0


@RACES
def test_victims_close_before_expiry_and_nothing_spends_attacker_claims(
        profile, release, dynamic):
    # Why the attacker's one pass at expiry is enough: every commitment
    # was submitted before it, and no transaction ever spends an attacker
    # claim, so nothing the attacker could take appears later.
    cfg, _, chain = recorded_race(profile, release, dynamic)
    commits = [height for height, txid, _, _ in chain.log if "-commit" in txid]
    assert len(commits) == cfg.num_victim_channels
    assert max(commits) < cfg.htlc_expiry_height
    attacker = {txid for _, txid, status, _ in chain.log
                if "-tr" in txid and status != "rejected"}
    assert attacker and not attacker & chain.spent


def test_race_submits_cohorts_not_one_claim_per_htlc():
    # Each channel's 483 timeout claims go out as one cohort: the run's
    # submissions follow channels and blocks, not the HTLC count.
    # On 84,000-weight blocks both commitments confirm and both sides claim.
    cfg = AttackConfig(num_victim_channels=2, blockmaxweight=84_000, seed=13)
    run = _Run(cfg)
    run.chain = RecordingChain(cfg.blockmaxweight)
    report = run.execute()
    assert report.stolen_htlcs + report.victim_claimed_htlcs == 2 * 483
    assert report.stolen_htlcs > 0
    assert len(run.chain.log) < 50, len(run.chain.log)


def test_eager_profile_publishes_claims_same_tick():
    # eclair does not wait for its commitment to confirm: each victim submits
    # its success claims, one cohort over all 30 HTLCs, in the tick it closes.
    cfg = AttackConfig(num_victim_channels=2, victim_profile="eclair",
                       blockmaxweight=40_000, htlc_expiry_height=150, seed=3)
    run = _Run(cfg)
    run.chain = RecordingChain(cfg.blockmaxweight)
    run.execute()
    log = run.chain.log
    closes = {txid.split("-")[0]: height for height, txid, status, _ in log
              if "-commit" in txid and status != "rejected"}
    assert sorted(closes) == ["a000", "a001"]
    for channel, height in closes.items():
        claims = [(h, count) for h, txid, status, count in log
                  if txid.startswith(channel + "-sl") and status != "rejected"]
        assert claims[0] == (height, 30)


class ReversedBlocks(ChainState):
    """Hands the race each block's transactions in reverse order; the chain
    itself keeps the order it mined them in."""

    def mine_block(self):
        block = super().mine_block()
        return dataclasses.replace(block, txs=block.txs[::-1])


def test_victims_release_claims_in_channel_order_not_confirmation_order():
    # Several commitments confirm per block here, and the later channels'
    # claims lose the race, so the order the victims submit them in decides
    # whose HTLCs are stolen.  It must be channel order, however the block
    # lists the commitments.
    cfg = AttackConfig(num_victim_channels=8, blockmaxweight=10_000, seed=5,
                       victim_profile=profile_params("lnd", max_accepted_htlcs=20))
    report = run_attack(cfg)
    assert report.per_channel_stolen == (0, 0, 0, 0, 6, 20, 20, 20)
    run = _Run(cfg)
    run.chain = ReversedBlocks(cfg.blockmaxweight)
    assert run.execute() == report


def test_each_bid_runs_once_per_channel(monkeypatch):
    # Cost contract: the attacker's pass, the anchor bump and the CPFP child
    # are each due once per channel on the race's schedule, however many
    # heights the race runs.
    bids = ("_attacker_pass", "_anchor_bumps", "_cpfp_bumps")
    calls = Counter()
    for name in bids:
        def bid(self, i, name=name, real=getattr(_Run, name)):
            calls[name, i] += 1
            return real(self, i)
        monkeypatch.setattr(_Run, name, bid)
    cfg = AttackConfig(num_victim_channels=8, blockmaxweight=14_000, seed=5,
                       victim_profile=profile_params("lnd", max_accepted_htlcs=20),
                       anchor_mode=True, cpfp_demo=True)
    run = _Run(cfg)
    report = run.execute()
    assert report.end_height > cfg.htlc_expiry_height  # every bid's height was reached
    assert calls == {(name, i): 1 for name in bids for i in range(8)}
    # Both sides' bids took effect: bumped claims (with a wallet input) and
    # attacker claims confirmed.
    assert any(len(tx.inputs) == 2 for block in run.chain.blocks for tx in block.txs)
    assert report.stolen_htlcs > 0


def test_weight_schedule_overrides_flow_through():
    fat = WeightSchedule(commitment_base=1_000, per_htlc_output=200,
                         htlc_success=800, htlc_timeout=700)
    assert min_channels_guaranteed_theft("lnd", weights=fat, window=10) == \
        40_000_000 // (1_000 + 483 * 200 + 483 * 800) + 1
    r = run_attack(AttackConfig(num_victim_channels=1, weights=fat, seed=2))
    fee = 2_000 * (1_000 + 483 * 200) // 1000
    assert r.htlc_value == (10_000_000 - fee) // 483
