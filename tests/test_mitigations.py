"""Countermeasure tests: policy validation/overrides and what each defense
actually changes (or fails to change) in engine runs."""

import dataclasses

import pytest

from htlcrace.attack import (
    AttackConfig, ConfigError, TrafficSpec, _Run, min_channels_guaranteed_theft,
    run_attack, validate_config,
)
from htlcrace.chain import ChainState
from htlcrace.channel import ANCHOR_INPUT_WEIGHT, fee_for_weight, profile_params
from htlcrace.mitigations import (
    MitigationPolicy,
    apply_policy,
    apply_to_config,
    run_mitigation_matrix,
)


# ---------------------------------------------------------------------------
# policy objects
# ---------------------------------------------------------------------------


def test_policy_validation():
    # The engine's own checks refuse a policy that makes no sense on its base.
    base = AttackConfig(num_victim_channels=1)
    for policy in (MitigationPolicy(anchor_outputs_mode=True,
                                    non_replaceable_htlc_success=True),
                   MitigationPolicy(dynamic_delta=(-0.1, 40)),
                   MitigationPolicy(dynamic_delta=(0.5, 0))):
        with pytest.raises(ConfigError):
            validate_config(apply_to_config(policy, base))
    # boundary is legal
    validate_config(apply_to_config(MitigationPolicy(dynamic_delta=(0.0, 1)), base))


def test_apply_policy_overrides():
    lnd = profile_params("lnd")
    assert apply_policy(MitigationPolicy(), lnd) is lnd  # no-op shares the object
    p = apply_policy(MitigationPolicy(commitment_broadcast_delta_override=20), "lnd")
    assert p.commitment_broadcast_delta == 20
    assert p.max_accepted_htlcs == 483  # untouched
    p = apply_policy(MitigationPolicy(max_accepted_htlcs_override=30), "lnd")
    assert p.max_accepted_htlcs == 30
    p = apply_policy(MitigationPolicy(immediate_htlc_publication=True), "lnd")
    assert p.wait_for_commit_confirmation is False


def test_apply_policy_rejects_out_of_range_overrides():
    # ChannelParams checks the overridden profile's ranges.
    for delta in (0, 41):  # LND tolerates at most its 40-block expiry delta
        with pytest.raises(ValueError, match="commitment_broadcast_delta must be in"):
            apply_policy(MitigationPolicy(commitment_broadcast_delta_override=delta), "lnd")
    with pytest.raises(ValueError, match="max_accepted_htlcs must be at least 1"):
        apply_policy(MitigationPolicy(max_accepted_htlcs_override=0), "lnd")


def test_matrix_needs_a_policy():
    with pytest.raises(ConfigError, match="^policies must be non-empty$"):
        run_mitigation_matrix(AttackConfig(num_victim_channels=1), [])


@pytest.mark.parametrize("jobs", [0, -2])
def test_matrix_refuses_jobs_below_one(jobs):
    with pytest.raises(ConfigError, match=f"^jobs must be at least 1, got {jobs}$"):
        run_mitigation_matrix(AttackConfig(num_victim_channels=1),
                              [MitigationPolicy(policy_id="baseline")], jobs=jobs)


def test_apply_to_config_wires_every_knob():
    base = AttackConfig(num_victim_channels=3, seed=1)
    cfg = apply_to_config(MitigationPolicy(
        policy_id="all", commitment_broadcast_delta_override=15,
        dynamic_delta=(0.5, 30), cpfp_demo=True), base)
    assert cfg.victim_profile.commitment_broadcast_delta == 15
    assert cfg.dynamic_delta == (0.5, 30)
    assert cfg.cpfp_demo is True
    assert cfg.victim_claims_replaceable is True
    cfg = apply_to_config(MitigationPolicy(non_replaceable_htlc_success=True), base)
    assert cfg.victim_claims_replaceable is False
    cfg = apply_to_config(MitigationPolicy(anchor_outputs_mode=True), base)
    assert cfg.anchor_mode is True


def test_policy_keeps_what_the_base_sets():
    # A policy overrides only the settings it names: the base's own victim
    # settings stand, and a policy cannot switch one off.
    base = AttackConfig(num_victim_channels=3, dynamic_delta=(0.5, 30),
                        anchor_mode=True, cpfp_demo=True)
    cfg = apply_to_config(MitigationPolicy(), base)
    assert (cfg.dynamic_delta, cfg.anchor_mode, cfg.cpfp_demo) == ((0.5, 30), True, True)
    frozen = AttackConfig(num_victim_channels=3, victim_claims_replaceable=False)
    assert apply_to_config(MitigationPolicy(), frozen).victim_claims_replaceable is False
    # the policy's own setting still wins
    cfg = apply_to_config(MitigationPolicy(dynamic_delta=(0.05, 40)), base)
    assert cfg.dynamic_delta == (0.05, 40)


# ---------------------------------------------------------------------------
# closed-form shifts
# ---------------------------------------------------------------------------


def test_break_even_shifts_with_policy_parameters():
    assert min_channels_guaranteed_theft("lnd") == 95
    wider = apply_policy(MitigationPolicy(commitment_broadcast_delta_override=20), "lnd")
    assert min_channels_guaranteed_theft(wider) == 189
    fewer = apply_policy(MitigationPolicy(max_accepted_htlcs_override=241), "lnd")
    assert min_channels_guaranteed_theft(fewer) == 190
    tiny = apply_policy(MitigationPolicy(max_accepted_htlcs_override=30), "lnd")
    assert min_channels_guaranteed_theft(tiny) == 1_483


# ---------------------------------------------------------------------------
# engine-level behavior (small, starved-block configs for speed)
# ---------------------------------------------------------------------------

B400 = AttackConfig(num_victim_channels=15, blockmaxweight=400_000, seed=5)


def stolen_under(policy):
    return run_attack(apply_to_config(policy, B400)).stolen_htlcs


def test_broadcast_delta_monotonicity():
    curve = [stolen_under(MitigationPolicy(policy_id=f"d{d}",
                                           commitment_broadcast_delta_override=d))
             for d in (10, 20, 30)]
    assert curve[0] > 0
    assert curve[0] >= curve[1] >= curve[2]
    assert curve == [3_296, 0, 0]


def test_immediate_publication_dominates_waiting():
    baseline = stolen_under(MitigationPolicy(policy_id="base"))
    eager = stolen_under(MitigationPolicy(policy_id="imm", immediate_htlc_publication=True))
    assert eager <= baseline
    assert (baseline, eager) == (3_296, 2_755)


def test_dynamic_delta_closes_early_under_load():
    assert stolen_under(MitigationPolicy(policy_id="dyn", dynamic_delta=(1.0, 40))) == 0
    # a slope whose product overflows a float still means "close at the cap"
    assert stolen_under(MitigationPolicy(policy_id="huge", dynamic_delta=(1e306, 40))) == 0


CONGESTED_2M = AttackConfig(num_victim_channels=48, blockmaxweight=2_000_000, seed=33)


def test_cpfp_changes_nothing():
    plain = run_attack(CONGESTED_2M)
    cpfp = run_attack(dataclasses.replace(CONGESTED_2M, cpfp_demo=True))
    flipped = run_attack(dataclasses.replace(CONGESTED_2M, cpfp_demo=True,
                                             victim_first_at_expiry=True))
    assert plain.stolen_htlcs == cpfp.stolen_htlcs == flipped.stolen_htlcs == 1_020
    # the children never confirm, so they cannot even cost the victims fees
    assert plain.victim_fees_paid == cpfp.victim_fees_paid == flipped.victim_fees_paid
    assert plain.victim_claimed_htlcs == cpfp.victim_claimed_htlcs


def test_non_replaceable_success_claims_shut_the_attack_down():
    r = run_attack(dataclasses.replace(CONGESTED_2M, victim_claims_replaceable=False))
    assert r.stolen_htlcs == 0
    assert r.victim_claimed_htlcs == r.total_htlcs == 48 * 483
    assert r.unresolved_htlcs == 0


def test_anchor_mode_requires_replaceable_claims():
    with pytest.raises(ConfigError):
        run_attack(dataclasses.replace(CONGESTED_2M, anchor_mode=True,
                                       victim_claims_replaceable=False))


def test_anchor_bump_offset_must_fall_inside_the_race():
    # 16 fundings fit one 14,000-weight block, so the race runs from the
    # launch at height 1 to expiry at 44; the bump is due at expiry - offset.
    cfg = AttackConfig(num_victim_channels=8, blockmaxweight=14_000, anchor_mode=True,
                       victim_profile=profile_params("lnd", max_accepted_htlcs=20), seed=1)
    assert validate_config(cfg).launch == 1
    for offset in (-1, 44):  # after expiry, or before the race starts
        with pytest.raises(ConfigError, match=f"^victim_bump_offset {offset} puts the "
                                              "anchor bump outside the race, heights 1 to 44$"):
            validate_config(dataclasses.replace(cfg, victim_bump_offset=offset))
        validate_config(dataclasses.replace(cfg, victim_bump_offset=offset, anchor_mode=False))
    for offset in (0, 43):
        assert run_attack(dataclasses.replace(cfg, victim_bump_offset=offset)).total_htlcs == 160


# anchor rescue: background traffic prices the victims' fixed-fee claims out
# of blocks from height 35 on; only a wallet-funded bump gets them in before
# the expiry at 44.

ANCHOR_DEMO = AttackConfig(
    num_victim_channels=2, seed=21, drain_cap=40,
    victim_bump_feerate=25_000, victim_bump_offset=2,
    background_traffic=TrafficSpec(txs_per_tick=10,
                                   weight_low=400_000, weight_high=400_000,
                                   feerate_low=5_000, feerate_high=20_000,
                                   start_height=35))


def test_anchor_bump_rescues_crowded_out_claims():
    baseline = run_attack(ANCHOR_DEMO)
    anchored = run_attack(dataclasses.replace(ANCHOR_DEMO, anchor_mode=True))
    assert baseline.stolen_htlcs == 2 * 483 == 966
    assert anchored.stolen_htlcs == 0
    assert anchored.victim_claimed_htlcs == 966
    # bumped claims pay real fees out of the victims' pockets
    assert anchored.victim_fees_paid > baseline.victim_fees_paid


# ---------------------------------------------------------------------------
# anchor claim construction: the engine's bump cohorts
# ---------------------------------------------------------------------------


class RecordingChain(ChainState):
    def __init__(self, blockmaxweight):
        super().__init__(blockmaxweight)
        self.submitted = []

    def submit(self, tx):
        result = super().submit(tx)
        self.submitted.append((tx, result))
        return result


def anchor_bumps(**changes):
    """Each bump cohort the victims submit in an ANCHOR_DEMO run with anchor
    mode on, with the success-claim cohort it replaces."""
    run = _Run(dataclasses.replace(ANCHOR_DEMO, anchor_mode=True, **changes))
    run.chain = RecordingChain(run.cfg.blockmaxweight)
    run.execute()
    bumps, latest = [], {}
    for tx, result in run.chain.submitted:
        if "-sl" not in tx.id:
            continue
        channel = tx.id.split("-")[0]
        if len(tx.inputs) == 2:
            assert result.ok
            bumps.append((tx, latest[channel]))
        latest[channel] = tx
    return bumps


def test_anchor_claim_adds_wallet_input():
    # The bump spends the claimed HTLC output plus one spare output of the
    # victim's, minted for the bump, and pays the bump feerate on their
    # combined weight.
    bumps = anchor_bumps()
    assert len(bumps) == 2  # one cohort per channel
    for tx, old in bumps:
        assert len(tx.inputs) == 2
        assert tx.count == old.count == 483
        assert tx.weight == 703 + ANCHOR_INPUT_WEIGHT == 983
        assert tx.fee == fee_for_weight(25_000, 983)
        assert tx.rbf_signal is True


def test_anchor_claim_outbids_its_predecessor():
    bumps = anchor_bumps(victim_bump_feerate=1)
    assert bumps
    for tx, old in bumps:
        assert len(old.inputs) == 1
        assert tx.fee > old.fee
        assert tx.fee * old.weight > old.fee * tx.weight  # strict feerate dominance


# ---------------------------------------------------------------------------
# matrix driver
# ---------------------------------------------------------------------------


def test_matrix_rows_in_policy_order():
    policies = [MitigationPolicy(policy_id="baseline"),
                MitigationPolicy(policy_id="delta20",
                                 commitment_broadcast_delta_override=20)]
    rows = run_mitigation_matrix(B400, policies)
    assert [r.policy_id for r in rows] == ["baseline", "delta20"]
    assert rows[0].report.num_victim_channels == 15
    assert rows[0].report.stolen_htlcs == 3_296
    assert rows[1].report.stolen_htlcs == 0
    assert rows[0].break_even_n == min_channels_guaranteed_theft("lnd", blockmaxweight=400_000)
    assert rows[1].break_even_n == min_channels_guaranteed_theft(
        apply_policy(policies[1], "lnd"), blockmaxweight=400_000)
    assert rows[0].report.total_htlcs == 15 * 483
