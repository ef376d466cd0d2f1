"""The paper's implementation comparison as a checked contract: for each
victim profile and block weight, the closed-form channel count
(`min_channels_guaranteed_theft`) guarantees theft in the simulator, and the
simulated break-even, at or under it, is the first channel count that steals.

Every point runs seed 1 with no traffic and batch release; eclair's 144-block
expiry delta needs an expiry height past 44, so it runs at 200.  Run
`pytest -s tests/test_break_even_contract.py` to see the margins.
"""

import pytest

from htlcrace.attack import AttackConfig, min_channels_guaranteed_theft, run_attack

EXPIRY_HEIGHT = {"lnd": 44, "c-lightning": 44, "eclair": 200}

# (profile, blockmaxweight) -> (simulated break-even, closed form)
BREAK_EVEN = {
    ("lnd", 250_000): (5, 6),
    ("lnd", 1_000_000): (23, 24),
    ("lnd", 4_000_000): (95, 95),
    ("c-lightning", 250_000): (62, 65),
    ("c-lightning", 1_000_000): (243, 260),
    ("c-lightning", 4_000_000): (965, 1_039),
    ("eclair", 250_000): (56, 56),
    ("eclair", 1_000_000): (223, 223),
    ("eclair", 4_000_000): (890, 890),
}


def stolen(profile, weight, n):
    cfg = AttackConfig(n, profile, EXPIRY_HEIGHT[profile], blockmaxweight=weight, seed=1)
    return run_attack(cfg).stolen_htlcs


@pytest.mark.parametrize("profile,weight", sorted(BREAK_EVEN))
def test_closed_form_guarantees_theft_and_simulated_break_even_is_the_first(profile, weight):
    simulated, closed = BREAK_EVEN[(profile, weight)]
    assert min_channels_guaranteed_theft(profile, blockmaxweight=weight) == closed
    assert simulated <= closed
    at = {n: stolen(profile, weight, n) for n in (closed, closed + 1, simulated)}
    assert all(at.values()), at
    below = stolen(profile, weight, simulated - 1)
    assert below == 0, (simulated - 1, below)
    print(f"BREAK-EVEN PASS: {profile} at {weight:,} weight: simulated {simulated} "
          f"<= closed form {closed} (margin {closed - simulated}); stolen HTLCs "
          f"{at[closed]} at {closed}, {at[closed + 1]} at {closed + 1}, "
          f"{at[simulated]} at {simulated}, none at {simulated - 1}")
