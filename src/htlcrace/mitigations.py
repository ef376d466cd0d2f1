"""Victim-side countermeasures, expressed as policy toggles over the same
attack engine, plus a comparison matrix runner.

Each policy rewrites the victim profile (close earlier, carry fewer HTLCs,
publish claims without waiting) and/or flips engine behavior (anchor-style
fee bumping, non-replaceable success claims, a child-pays-for-parent attempt
that demonstrates why CPFP cannot defend against replacement: evicting the
parent evicts the child with it).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .attack import (
    AttackConfig, AttackReport, ConfigError, map_runs, min_channels_guaranteed_theft,
    run_attack,
)
from .channel import ChannelParams, profile_params


@dataclass(frozen=True)
class MitigationPolicy:
    """Victim-side overrides; the engine's own checks (ChannelParams and
    validate_config) refuse a policy that makes no sense on its base."""
    policy_id: str = "baseline"
    commitment_broadcast_delta_override: int | None = None
    max_accepted_htlcs_override: int | None = None
    immediate_htlc_publication: bool = False
    dynamic_delta: tuple[float, int] | None = None  # (blocks per pending HTLC, cap)
    anchor_outputs_mode: bool = False
    non_replaceable_htlc_success: bool = False
    cpfp_demo: bool = False


def apply_policy(policy: MitigationPolicy,
                 victim_profile: str | ChannelParams) -> ChannelParams:
    """Victim profile with the policy's parameter overrides applied."""
    changes: dict = {}
    if policy.commitment_broadcast_delta_override is not None:
        changes["commitment_broadcast_delta"] = policy.commitment_broadcast_delta_override
    if policy.max_accepted_htlcs_override is not None:
        changes["max_accepted_htlcs"] = policy.max_accepted_htlcs_override
    if policy.immediate_htlc_publication:
        changes["wait_for_commit_confirmation"] = False
    return profile_params(victim_profile, **changes)


def apply_to_config(policy: MitigationPolicy, base: AttackConfig) -> AttackConfig:
    """Attack configuration with the policy in force on the victim side.  The
    policy changes only the settings it names; every other value of `base`
    stands, so a policy cannot switch a setting of its base off."""
    return replace(
        base,
        victim_profile=apply_policy(policy, base.victim_profile),
        dynamic_delta=policy.dynamic_delta or base.dynamic_delta,
        anchor_mode=base.anchor_mode or policy.anchor_outputs_mode,
        victim_claims_replaceable=(base.victim_claims_replaceable
                                   and not policy.non_replaceable_htlc_success),
        cpfp_demo=base.cpfp_demo or policy.cpfp_demo,
    )


@dataclass(frozen=True)
class MatrixRow:
    policy_id: str
    break_even_n: int
    report: AttackReport


def _matrix_one(args: tuple[MitigationPolicy, AttackConfig]) -> MatrixRow:
    policy, base = args
    cfg = apply_to_config(policy, base)
    report = run_attack(cfg)
    profile = cfg.victim_params()
    break_even = min_channels_guaranteed_theft(
        profile, cfg.weights, cfg.blockmaxweight)
    return MatrixRow(policy.policy_id, break_even, report)


def run_mitigation_matrix(base: AttackConfig, policies, jobs: int = 1) -> list[MatrixRow]:
    """One attack run per policy on the shared base config.  break_even_n is
    the closed-form guarantee threshold under the policy's modified profile
    (window = the possibly-overridden broadcast delta)."""
    policies = list(policies)
    if not policies:
        raise ConfigError("policies must be non-empty")
    return map_runs(_matrix_one, [(p, base) for p in policies], jobs)
