"""Deterministic simulator of mass HTLC-expiry theft against Lightning-style
payment channels, over a closed-world Bitcoin chain model.

Layers, bottom up:

- chain:       UTXO set, mempool with replace-by-fee policy, greedy
               feerate-ordered block assembly (one block per tick).
- channel:     payment channels, HTLCs, commitment and claim transactions
               with their fee/replaceability asymmetries.
- fees:        feerate series, fee-minimization strategy, block-space
               analysis of the victims' claim window.
- attack:      the four-phase theft campaign and its accounting.
- mitigations: victim-side countermeasure policies and comparison matrix.
- cli:         scenario files -> CSV artifacts.
"""

from .chain import (
    Block, ChainState, DEFAULT_BLOCKMAXWEIGHT, MAX_TX_WEIGHT, OutputRef,
    SubmitResult, Transaction, TxOutput, available_space,
)
from .channel import (
    Channel, ChannelError, ChannelParams, PROFILES, WeightSchedule,
    fee_for_weight, open_channel, profile_params,
)
from .fees import (
    ConfigError, FeerateSeries,
    fraction_of_time_above, ingest_feerate_csv, simulate_feerate_strategy,
    synthetic_blocks, synthetic_feerate_series, victim_available_space,
)
from .attack import (
    AttackConfig, AttackReport, TraceRow, TrafficSpec, break_even_channels,
    compute_htlc_value, min_channels_guaranteed_theft, run_attack, sweep_channels,
)
from .mitigations import (
    MatrixRow, MitigationPolicy, apply_policy, apply_to_config,
    run_mitigation_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "AttackReport", "Block", "ChainState", "Channel",
    "ChannelError", "ChannelParams", "ConfigError", "DEFAULT_BLOCKMAXWEIGHT",
    "FeerateSeries", "MAX_TX_WEIGHT", "MatrixRow",
    "MitigationPolicy", "OutputRef", "PROFILES",
    "SubmitResult", "TraceRow", "TrafficSpec", "Transaction",
    "TxOutput", "WeightSchedule", "apply_policy", "apply_to_config",
    "available_space", "break_even_channels", "compute_htlc_value",
    "fee_for_weight", "fraction_of_time_above", "ingest_feerate_csv",
    "min_channels_guaranteed_theft", "open_channel", "profile_params",
    "run_attack", "run_mitigation_matrix", "simulate_feerate_strategy",
    "sweep_channels", "synthetic_blocks", "synthetic_feerate_series",
    "victim_available_space",
]
