"""Replacement policy vs the brute-force reference, case by randomized case."""

from collections import Counter

import pytest

from htlcrace.chain import ChainState, OutputRef, Transaction, TxOutput, replacement_floor
from rbf_reference import oracle_submit, random_case
from test_chain import utxo_of


def check_one(seed):
    chain, pending, confirmed, probe = random_case(seed)
    want_status, want_reason, want_evicted = oracle_submit(pending, confirmed, probe)
    got = chain.submit(probe)
    assert got.status == want_status, (seed, got, want_status, want_reason)
    assert got.reason == want_reason, (seed, got, want_reason)
    assert set(got.evicted) == set(want_evicted), (seed, got, want_evicted)
    return want_status, want_reason


def test_thousand_random_mempools_agree():
    outcomes = Counter(check_one(424_243 + i) for i in range(1_000))
    # The generator must actually exercise the policy, not just accept.
    assert outcomes[("accepted", None)] > 100
    assert outcomes[("replaced", None)] > 100
    assert outcomes[("rejected", "conflict-not-replaceable")] > 50
    assert outcomes[("rejected", "insufficient-replacement-fee")] > 50


def test_probe_resolution_failures_agree_too():
    # dedicated sweep over another seed band; ghosts and own-double-spends
    # are rare in the main band.
    seen_missing = 0
    for i in range(300):
        status, reason = check_one(900_000 + i)
        if reason == "missing-input":
            seen_missing += 1
    assert seen_missing > 0


def boundary_verdicts(case, weight):
    """Submit a newcomer of `weight` at the case's replacement floor and one
    satoshi below it, each on a fresh chain; the chain's verdicts, each
    checked against oracle_submit on the members one by one."""
    verdicts = []
    for below in (0, 1):
        chain, evicted, members, newcomer_of = case()
        fee = replacement_floor(evicted, weight) - below
        newcomer = newcomer_of(fee, weight)
        got = chain.submit(newcomer)
        mirror = list(members)
        confirmed = set(utxo_of(chain))
        for m in range(newcomer.count):
            member = Transaction(f"n#{m}", tuple(OutputRef(r.txid, r.index + m)
                                                 for r in newcomer.inputs),
                                 newcomer.outputs, weight, fee, newcomer.rbf_signal)
            status, reason, gone = oracle_submit(mirror, confirmed, member)
            assert (status, reason) == (got.status, got.reason), (m, fee, got)
            if got.ok:
                assert {i.split("#")[0] for i in gone} == set(got.evicted)
                mirror = [t for t in mirror if t.id not in gone] + [member]
        verdicts.append(got.reason or got.status)
    return verdicts


def one_evicts_a_run(k=5):
    """A replaceable parent with k outputs, a cohort of k children spending
    them, and a single newcomer that conflicts with the parent: it evicts the
    parent and the run of all k children."""
    chain = ChainState()
    grant = chain.grant("w", 1_000_000)
    parent = Transaction("p", (grant,), ((0, k, TxOutput(190_000, "w")),), 2_000, 50_000, True)
    kids = Transaction("c", (OutputRef("p", 0),), ((0, 1, TxOutput(170_000, "w")),),
                       400, 20_000, True, k)
    assert chain.submit(parent).ok and chain.submit(kids).ok
    members = [parent] + [Transaction(f"c#{m}", (OutputRef("p", m),), kids.outputs,
                                      400, 20_000, True) for m in range(k)]

    def newcomer_of(fee, weight):
        return Transaction("n", (grant,), ((0, 1, TxOutput(1_000_000 - fee, "w")),),
                           weight, fee)
    return chain, [(parent, 1), (kids, k)], members, newcomer_of


def cohort_evicts_cohorts(k=5):
    """A replaceable claim cohort of k with a child cohort on its outputs,
    and a newcomer cohort of k that conflicts with the claims member by
    member, so each newcomer member evicts one claim and its child."""
    chain = ChainState()
    grant = chain.grant("w", 100_000, count=k)
    claims = Transaction("v", (grant,), ((0, 1, TxOutput(98_600, "w")),), 700, 1_400, True, k)
    kids = Transaction("k", (OutputRef("v", 0),), ((0, 1, TxOutput(96_600, "w")),),
                       400, 2_000, True, k)
    assert chain.submit(claims).ok and chain.submit(kids).ok
    members = [Transaction(f"v#{m}", (OutputRef(grant.txid, m),), claims.outputs, 700,
                           1_400, True) for m in range(k)]
    members += [Transaction(f"k#{m}", (OutputRef(f"v#{m}", 0),), kids.outputs, 400,
                            2_000, True) for m in range(k)]

    def newcomer_of(fee, weight):
        return Transaction("n", (grant,), ((0, 1, TxOutput(100_000 - fee, "w")),),
                           weight, fee, count=k)
    return chain, [(claims, 1), (kids, 1)], members, newcomer_of


@pytest.mark.parametrize("case, weights", [
    (one_evicts_a_run, (1_000, 4_000)),
    (cohort_evicts_cohorts, (600, 2_000)),
], ids=["single-evicts-a-run", "cohort"])
def test_replacement_floor_is_the_exact_boundary(case, weights):
    # At the first weight the summed fees bind, at the second a feerate.
    _, evicted, _, _ = case()
    summed = sum(tx.fee * k for tx, k in evicted) + 1
    assert replacement_floor(evicted, weights[0]) == summed
    assert replacement_floor(evicted, weights[1]) > summed
    for weight in weights:
        assert boundary_verdicts(case, weight) == ["replaced", "insufficient-replacement-fee"]
