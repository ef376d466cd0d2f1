"""Seeded input generators for the benchmark workloads.

Each workload is a list of scenario files (plus any data files they name)
generated from the workload seed.  The simulator sees only these files.  The
seed changes the inputs but never the number of units (sweep points, matrix
policies, fee-analysis scenarios), so the amount of work stays level.
"""
from __future__ import annotations

import random

WORKLOADS = ("sweep_lnd", "matrix_traffic", "fee_analysis")

# sweep_lnd: three points on 1M-weight blocks, 20 - step, 20 and 20 + step
# channels.  Either step keeps the middle point below and the top point above
# the lnd closed-form break-even on those blocks (24), the summed channel
# count (the work) is 60 on every seed, and the top point, which sets the
# peak memory, moves by one channel only.  A quarter of the
# 4M-block sweep's size keeps one workload run near 1 s, so a run of the
# benchmark holds enough of them for a steady minimum.
SWEEP_POINTS = 3
SWEEP_MIDDLE = 20
SWEEP_STEPS = (9, 10)
SWEEP_BLOCKMAXWEIGHT = 1_000_000
LND_HTLCS_PER_CHANNEL = 483
LND_BREAK_EVEN = 24

# matrix_traffic: 250k-weight blocks put the lnd closed-form break-even at 6
# channels, so 8 channels are past it.  Filler comes at 5 transactions a
# tick, filling about a fifth of each block as 20 a tick do on 1M blocks.
MATRIX_CHANNELS = 8
MATRIX_BLOCKMAXWEIGHT = 250_000
MATRIX_TXS_PER_TICK = 5
MATRIX_POLICIES = (
    ("baseline", ""),
    ("immediate", "immediate_htlc_publication = true"),
    ("cpfp", "cpfp_demo = true"),
    ("anchor", "anchor_outputs_mode = true"),
    ("non-replaceable", "non_replaceable_htlc_success = true"),
    ("dynamic", "dynamic_delta = 0.05,40"),
    ("fewer-htlcs", "max_accepted_htlcs_override = 200"),
)
MINIMIZE_BLOCKS = 10
# Anchor bumps must stay below the ~20k-sat HTLC value, or the attacker's
# replacement of a still-pending bumped claim is capped at the HTLC value,
# fails the fee rule, and the engine stops with exit code 3.
ANCHOR_BUMP_FEERATE = 12_000

FEE_SCENARIOS = 3
FEE_MINIMIZE = 1008
FEE_LAUNCHES = 400


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_lnd(seed: int) -> dict[str, str]:
    step = _rng("sweep_lnd", seed).choice(SWEEP_STEPS)
    n_from = SWEEP_MIDDLE - step
    n_to = SWEEP_MIDDLE + step
    return {"sweep_lnd.ini": f"""\
; Acceptance-style sweep, scaled to 1M-weight blocks: lnd profile, default
; weights, no background traffic, batch preimage release.
[scenario]
kind = sweep
seed = {seed}

[attack]
victim_profile = lnd
htlc_expiry_height = 44
channel_funding = 10000000
channel_feerate = 2000
blockmaxweight = {SWEEP_BLOCKMAXWEIGHT}
preimage_release = batch

[sweep]
n_from = {n_from}
n_to = {n_to}
n_step = {step}
"""}


def _falling_feerates(rng: random.Random, blocks: int) -> str:
    """Feerate estimates that fall about 100 sat/kWU a block, so the minimize
    window renegotiates the channel feerate every block and ends near 2,600
    on every seed."""
    rows = ["height,feerate,unit,conf_target"]
    for h in range(blocks):
        rate = max(1_000, 3_600 - 100 * h + rng.randint(-20, 20))
        rows.append(f"{h},{rate},sat_kwu,2")
    return "\n".join(rows) + "\n"


def matrix_traffic(seed: int) -> dict[str, str]:
    rng = _rng("matrix_traffic", seed)
    feerates = _falling_feerates(rng, 200)
    policies = "\n".join(f"[policy:{name}]\n{body}\n" for name, body in MATRIX_POLICIES)
    ini = f"""\
; Mitigation matrix past break-even with seeded background filler whose
; feerates span the claims' feerate, after a short fee-minimizing window.
[scenario]
kind = mitigation-matrix
seed = {rng.randrange(1 << 31)}

[attack]
num_victim_channels = {MATRIX_CHANNELS}
victim_profile = lnd
htlc_expiry_height = 60
channel_funding = 10000000
blockmaxweight = {MATRIX_BLOCKMAXWEIGHT}
feerate_strategy = minimize:{MINIMIZE_BLOCKS}
victim_first_at_expiry = true
victim_bump_feerate = {ANCHOR_BUMP_FEERATE}

[feerates]
csv = matrix_feerates.csv

[traffic]
txs_per_tick = {MATRIX_TXS_PER_TICK}
weight_low = 500
weight_high = 20000
feerate_low = 500
feerate_high = 8000

{policies}"""
    return {"matrix_traffic.ini": ini, "matrix_feerates.csv": feerates}


def fee_analysis(seed: int) -> dict[str, str]:
    rng = _rng("fee_analysis", seed)
    files = {}
    for k in range(FEE_SCENARIOS):
        launch_to = FEE_MINIMIZE + FEE_LAUNCHES - 1
        files[f"fee_analysis_{k}.ini"] = f"""\
; Naive vs minimized victim block space, one launch per block.
[scenario]
kind = fee-analysis
seed = {rng.randrange(1 << 31)}

[feerates]
synthetic_seed = {rng.randrange(1 << 31)}
synthetic_length = {launch_to + 100}
synthetic_low = 500
synthetic_high = 20000

[fee_analysis]
window = 10
minimize_duration = {FEE_MINIMIZE}
launch_from = {FEE_MINIMIZE}
launch_to = {launch_to}
launch_step = 1
blockmaxweight = 4000000
"""
    return files


GENERATORS = {"sweep_lnd": sweep_lnd, "matrix_traffic": matrix_traffic,
              "fee_analysis": fee_analysis}


def generate(workload: str, seed: int) -> dict[str, str]:
    """File name -> contents for every input of one workload run."""
    return GENERATORS[workload](seed)


def scenario_files(files: dict[str, str]) -> list[str]:
    return sorted(name for name in files if name.endswith(".ini"))


def matrix_htlcs_per_channel(policy: str) -> int:
    key, _, value = dict(MATRIX_POLICIES)[policy].partition(" = ")
    return int(value) if key == "max_accepted_htlcs_override" else LND_HTLCS_PER_CHANNEL


def unit_count(workload: str) -> int:
    """Units per workload run: sweep points, matrix policies or scenarios."""
    return {"sweep_lnd": SWEEP_POINTS, "matrix_traffic": len(MATRIX_POLICIES),
            "fee_analysis": FEE_SCENARIOS}[workload]
