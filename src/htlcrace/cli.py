"""Scenario runner.

Usage:
    htlcrace run <scenario.ini> --out <dir> [--seed N] [--jobs K]
    htlcrace validate <scenario.ini>

A scenario file is INI-style.  [scenario] names the experiment kind
(attack | sweep | fee-analysis | mitigation-matrix) and the mandatory seed;
the remaining sections configure the modules involved (see README for full
examples).  Runs write report.csv, trace.csv and summary.txt into --out;
summary.txt is written even when a stage fails, recording which one.

Exit codes: 0 success, 2 configuration/input error, 3 runtime error.  A
configuration error is a ScenarioError, ConfigError, PolicyError or
SeriesError, whenever it is raised; building a run's inputs turns any other
ValueError into a ScenarioError, so any other exception is an engine fault.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .attack import (
    AttackConfig, AttackReport, ConfigError, TrafficSpec, break_even_channels,
    min_channels_guaranteed_theft, run_attack, sweep_channels,
)
from .channel import WeightSchedule, profile_params
from .fees import (
    FeerateSeries, SeriesError, fraction_of_time_above, ingest_feerate_csv,
    parse_strategy, simulate_feerate_strategy, synthetic_blocks,
    synthetic_feerate_series, victim_available_space,
)
from .mitigations import MitigationPolicy, PolicyError, run_mitigation_matrix

KINDS = ("attack", "sweep", "fee-analysis", "mitigation-matrix")

REPORT_COLUMNS = (
    "n_channels", "htlcs_per_channel", "htlc_value_sat", "total_htlcs",
    "stolen_htlcs", "victim_claimed_htlcs", "unresolved_htlcs",
    "stolen_value_sat", "victim_fees_sat", "attacker_cost_sat",
    "launch_feerate", "end_height",
)


class ScenarioError(ValueError):
    pass


CONFIG_ERRORS = (ScenarioError, ConfigError, PolicyError, SeriesError)


@contextmanager
def _configuring():
    """Building a run's inputs from the scenario: a ValueError raised here
    is the scenario's fault, not the engine's."""
    try:
        yield
    except CONFIG_ERRORS:
        raise
    except ValueError as exc:
        raise ScenarioError(f"config-parse-error: {exc}") from exc


@dataclass
class Scenario:
    kind: str
    seed: int
    path: Path
    parser: configparser.ConfigParser

    def echo_lines(self) -> list[str]:
        lines = []
        for section in self.parser.sections():
            lines.append(f"[{section}]")
            for key, value in self.parser.items(section):
                lines.append(f"  {key} = {value}")
        return lines


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"config-parse-error: {exc}") from exc
    if not parser.has_section("scenario"):
        raise ScenarioError("config-parse-error: missing [scenario] section")
    kind = parser.get("scenario", "kind", fallback=None)
    if kind not in KINDS:
        raise ScenarioError(f"config-parse-error: kind must be one of {KINDS}, got {kind!r}")
    if not parser.has_option("scenario", "seed"):
        raise ScenarioError("config-parse-error: seed is mandatory (determinism contract)")
    try:
        seed = parser.getint("scenario", "seed")
    except ValueError as exc:
        raise ScenarioError(f"config-parse-error: seed must be an integer: {exc}") from exc
    return Scenario(kind, seed, path, parser)


def _get(parser, section, key, conv, default):
    if not parser.has_option(section, key):
        return default
    try:
        return conv(parser.get(section, key))
    except ValueError as exc:
        raise ScenarioError(f"config-parse-error: [{section}] {key}: {exc}") from exc


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def build_weights(sc: Scenario) -> WeightSchedule:
    if not sc.parser.has_section("weights"):
        return WeightSchedule()
    s = "weights"
    return WeightSchedule(
        commitment_base=_get(sc.parser, s, "commitment_base", int, 724),
        per_htlc_output=_get(sc.parser, s, "per_htlc_output", int, 172),
        htlc_success=_get(sc.parser, s, "htlc_success", int, 703),
        htlc_timeout=_get(sc.parser, s, "htlc_timeout", int, 663),
    )


def build_traffic(sc: Scenario) -> TrafficSpec | None:
    if not sc.parser.has_section("traffic"):
        return None
    s = "traffic"
    end = _get(sc.parser, s, "end_height", int, None)
    return TrafficSpec(
        txs_per_tick=_get(sc.parser, s, "txs_per_tick", int, 0),
        weight_low=_get(sc.parser, s, "weight_low", int, 500),
        weight_high=_get(sc.parser, s, "weight_high", int, 20_000),
        feerate_low=_get(sc.parser, s, "feerate_low", int, 500),
        feerate_high=_get(sc.parser, s, "feerate_high", int, 20_000),
        start_height=_get(sc.parser, s, "start_height", int, 0),
        end_height=end,
    )


def build_series(sc: Scenario) -> FeerateSeries | None:
    if not sc.parser.has_section("feerates"):
        return None
    s = "feerates"
    csv_path = _get(sc.parser, s, "csv", str, None)
    if csv_path is not None:
        resolved = (sc.path.parent / csv_path).resolve()
        if not resolved.is_file():
            raise ScenarioError(f"missing-input: feerate csv not found: {resolved}")
        return ingest_feerate_csv(resolved)
    return synthetic_feerate_series(
        seed=_get(sc.parser, s, "synthetic_seed", int, sc.seed),
        length=_get(sc.parser, s, "synthetic_length", int, 2016),
        start_height=_get(sc.parser, s, "synthetic_start", int, 0),
        low=_get(sc.parser, s, "synthetic_low", int, 500),
        high=_get(sc.parser, s, "synthetic_high", int, 20_000),
    )


def build_attack_config(sc: Scenario, seed: int) -> AttackConfig:
    p = sc.parser
    s = "attack"
    if not p.has_section(s):
        raise ScenarioError("config-parse-error: missing [attack] section")
    profile = _get(p, s, "victim_profile", str, "lnd")
    profile_params(profile)  # fail fast on unknown names
    dyn_raw = _get(p, s, "dynamic_delta", str, None)
    dynamic = None
    if dyn_raw:
        try:
            slope_s, cap_s = dyn_raw.split(",")
            dynamic = (float(slope_s), int(cap_s))
        except ValueError as exc:
            raise ScenarioError(
                f"config-parse-error: dynamic_delta wants 'slope,cap': {exc}") from exc
    cfg = AttackConfig(
        num_victim_channels=_get(p, s, "num_victim_channels", int, 1),
        victim_profile=profile,
        htlc_expiry_height=_get(p, s, "htlc_expiry_height", int, 44),
        channel_funding=_get(p, s, "channel_funding", int, 10_000_000),
        channel_feerate=_get(p, s, "channel_feerate", int, 2_000),
        attacker_fee_bump_increment=_get(p, s, "attacker_fee_bump_increment", int, 1),
        blockmaxweight=_get(p, s, "blockmaxweight", int, 4_000_000),
        weights=build_weights(sc),
        seed=seed,
        min_htlc_amount=_get(p, s, "min_htlc_amount", int, 1),
        feerate_strategy=_get(p, s, "feerate_strategy", str, "naive"),
        feerate_series=build_series(sc),
        background_traffic=build_traffic(sc),
        preimage_release=_get(p, s, "preimage_release", str, "batch"),
        attacker_claims_replaceable=_get(p, s, "attacker_claims_replaceable",
                                         _parse_bool, False),
        victim_claims_replaceable=_get(p, s, "victim_claims_replaceable",
                                       _parse_bool, True),
        dynamic_delta=dynamic,
        anchor_mode=_get(p, s, "anchor_mode", _parse_bool, False),
        victim_bump_feerate=_get(p, s, "victim_bump_feerate", int, 25_000),
        victim_bump_offset=_get(p, s, "victim_bump_offset", int, 2),
        victim_bump_funds=_get(p, s, "victim_bump_funds", _parse_bool, True),
        cpfp_demo=_get(p, s, "cpfp_demo", _parse_bool, False),
        victim_first_at_expiry=_get(p, s, "victim_first_at_expiry", _parse_bool, False),
        drain_cap=_get(p, s, "drain_cap", int, 300),
    )
    from .attack import validate_config
    validate_config(cfg)
    return cfg


def build_policies(sc: Scenario) -> list[MitigationPolicy]:
    policies = []
    for section in sc.parser.sections():
        if not section.startswith("policy:"):
            continue
        s = section
        p = sc.parser
        dyn_raw = _get(p, s, "dynamic_delta", str, None)
        dynamic = None
        if dyn_raw:
            slope_s, cap_s = dyn_raw.split(",")
            dynamic = (float(slope_s), int(cap_s))
        policies.append(MitigationPolicy(
            policy_id=section.split(":", 1)[1],
            commitment_broadcast_delta_override=_get(
                p, s, "commitment_broadcast_delta_override", int, None),
            max_accepted_htlcs_override=_get(
                p, s, "max_accepted_htlcs_override", int, None),
            immediate_htlc_publication=_get(
                p, s, "immediate_htlc_publication", _parse_bool, False),
            dynamic_delta=dynamic,
            anchor_outputs_mode=_get(p, s, "anchor_outputs_mode", _parse_bool, False),
            non_replaceable_htlc_success=_get(
                p, s, "non_replaceable_htlc_success", _parse_bool, False),
            cpfp_demo=_get(p, s, "cpfp_demo", _parse_bool, False),
        ))
    return policies


# -- artifact writing ---------------------------------------------------------


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _report_row(n: int, r: AttackReport) -> tuple:
    return (n, r.htlcs_per_channel, r.htlc_value, r.total_htlcs, r.stolen_htlcs,
            r.victim_claimed_htlcs, r.unresolved_htlcs, r.stolen_value,
            r.victim_fees_paid, r.attacker_cost, r.launch_feerate, r.end_height)


def _run_attack_kind(sc: Scenario, seed: int, jobs: int, out: Path) -> list[str]:
    with _configuring():
        cfg = build_attack_config(sc, seed)
    report = run_attack(cfg)
    _write_csv(out / "report.csv", REPORT_COLUMNS,
               [_report_row(cfg.num_victim_channels, report)])
    _write_csv(out / "trace.csv",
               ("height", "block_weight_used", "victim_tx_confirmed",
                "attacker_tx_confirmed"),
               [(t.height, t.weight_used, t.victim_claims_confirmed,
                 t.attacker_claims_confirmed) for t in report.trace])
    return [
        f"channels attacked: {report.num_victim_channels}",
        f"HTLCs per channel: {report.htlcs_per_channel} worth {report.htlc_value} sat each",
        f"total HTLCs: {report.total_htlcs}",
        f"stolen: {report.stolen_htlcs} ({report.stolen_value} sat)",
        f"claimed by victims: {report.victim_claimed_htlcs}",
        f"unresolved: {report.unresolved_htlcs}",
        f"victim fees paid: {report.victim_fees_paid} sat",
        f"attacker cost: {report.attacker_cost} sat",
        f"simulation ended at height {report.end_height}",
    ]


def _run_sweep_kind(sc: Scenario, seed: int, jobs: int, out: Path) -> list[str]:
    p = sc.parser
    if not p.has_section("sweep"):
        raise ScenarioError("config-parse-error: missing [sweep] section")
    n_from = _get(p, "sweep", "n_from", int, None)
    n_to = _get(p, "sweep", "n_to", int, None)
    step = _get(p, "sweep", "n_step", int, 1)
    if n_from is None or n_to is None or step < 1 or n_to < n_from:
        raise ScenarioError("config-parse-error: [sweep] needs n_from <= n_to, n_step >= 1")
    with _configuring():
        template = build_attack_config(sc, seed)
    template = replace(template, num_victim_channels=n_from)
    curve = sweep_channels(template, range(n_from, n_to + 1, step), jobs=jobs)
    _write_csv(out / "report.csv", REPORT_COLUMNS,
               [_report_row(n, r) for n, r in curve])
    trace_rows = []
    for n, r in curve:
        trace_rows.extend((n, t.height, t.weight_used, t.victim_claims_confirmed,
                           t.attacker_claims_confirmed) for t in r.trace)
    _write_csv(out / "trace.csv",
               ("n_channels", "height", "block_weight_used", "victim_tx_confirmed",
                "attacker_tx_confirmed"), trace_rows)
    simulated = break_even_channels(curve)
    closed = min_channels_guaranteed_theft(
        template.victim_params(), template.weights, template.blockmaxweight)
    lines = [f"sweep n in [{n_from}, {n_to}] step {step}",
             f"closed-form guaranteed-theft threshold: {closed}",
             f"simulated break-even: {simulated if simulated is not None else 'none in range'}"]
    for n, r in curve:
        lines.append(f"  n={n}: stolen={r.stolen_htlcs} value={r.stolen_value}")
    return lines


def _run_matrix_kind(sc: Scenario, seed: int, jobs: int, out: Path) -> list[str]:
    with _configuring():
        base = build_attack_config(sc, seed)
        policies = build_policies(sc)
    if not policies:
        raise ScenarioError("config-parse-error: mitigation-matrix needs [policy:*] sections")
    rows = run_mitigation_matrix(base, policies, jobs=jobs)
    _write_csv(out / "report.csv",
               ("policy_id", "n_channels", "stolen_htlcs", "stolen_value_sat",
                "break_even_n"),
               [(r.policy_id, r.n_channels, r.stolen_htlcs, r.stolen_value,
                 r.break_even_n) for r in rows])
    trace_rows = []
    for r in rows:
        trace_rows.extend((r.policy_id, t.height, t.weight_used,
                           t.victim_claims_confirmed, t.attacker_claims_confirmed)
                          for t in r.report.trace)
    _write_csv(out / "trace.csv",
               ("policy_id", "height", "block_weight_used", "victim_tx_confirmed",
                "attacker_tx_confirmed"), trace_rows)
    lines = [f"mitigation matrix at n={base.num_victim_channels}"]
    for r in rows:
        lines.append(f"  {r.policy_id}: stolen={r.stolen_htlcs} "
                     f"value={r.stolen_value} break_even_n={r.break_even_n}")
    return lines


def _run_fee_kind(sc: Scenario, seed: int, jobs: int, out: Path) -> list[str]:
    p = sc.parser
    s = "fee_analysis"
    if not p.has_section(s):
        raise ScenarioError("config-parse-error: missing [fee_analysis] section")
    with _configuring():
        series = build_series(sc)
        if series is None:
            raise ScenarioError("config-parse-error: fee-analysis needs a [feerates] section")
        window = _get(p, s, "window", int, 10)
        duration = _get(p, s, "minimize_duration", int, 1008)
        launch_from = _get(p, s, "launch_from", int, series.first_height + duration)
        launch_to = _get(p, s, "launch_to", int, None)
        launch_step = _get(p, s, "launch_step", int, 1)
        blockmaxweight = _get(p, s, "blockmaxweight", int, 4_000_000)
        if launch_to is None:
            raise ScenarioError("config-parse-error: [fee_analysis] needs launch_to")
        if launch_step < 1:
            raise ScenarioError("config-parse-error: [fee_analysis] needs launch_step >= 1")
        if launch_from - duration < series.first_height:
            raise ScenarioError(
                f"config-parse-error: launch_from {launch_from} leaves no room for a "
                f"{duration}-block minimization before it (series starts at "
                f"{series.first_height})")
        thresholds_raw = _get(p, s, "thresholds", str,
                              "500000,1000000,1500000,2000000,2500000,3000000,3500000,4000000")
        thresholds = [int(t) for t in thresholds_raw.split(",") if t.strip()]
        blocks = synthetic_blocks(
            seed=_get(p, s, "blocks_seed", int, seed),
            start_height=launch_from,
            count=(launch_to - launch_from) + window + 2,
            blockmaxweight=blockmaxweight,
            fill_low=_get(p, s, "fill_low", float, 0.3),
            fill_high=_get(p, s, "fill_high", float, 1.0),
            feerate_low=_get(p, s, "block_feerate_low", int, 500),
            feerate_high=_get(p, s, "block_feerate_high", int, 20_000),
        )
        launches = range(launch_from, launch_to + 1, launch_step)
    # Both strategies are compared at the same launch height over the same
    # blocks: naive opened right there, minimize opened `duration` blocks
    # earlier and has been ratcheting the feerate down since.
    naive_rows, min_rows = [], []
    naive_avgs, min_avgs = [], []
    for launch in launches:
        naive = simulate_feerate_strategy(series, "naive", launch)
        analysis = victim_available_space(blocks, naive.final_feerate,
                                          launch, window, blockmaxweight)
        naive_rows.append((launch, analysis.avg_available_space))
        naive_avgs.append(analysis.avg_available_space)
        mini = simulate_feerate_strategy(series, f"minimize:{duration}",
                                         launch - duration)
        analysis = victim_available_space(blocks, mini.final_feerate,
                                          launch, window, blockmaxweight)
        min_rows.append((launch, analysis.avg_available_space))
        min_avgs.append(analysis.avg_available_space)
    _write_csv(out / "space.csv", ("launch_height", "avg_available_space"), naive_rows)
    _write_csv(out / "space_minimized.csv",
               ("launch_height", "avg_available_space"), min_rows)
    report_rows = [(t, fraction_of_time_above(naive_avgs, t),
                    fraction_of_time_above(min_avgs, t)) for t in thresholds]
    _write_csv(out / "report.csv",
               ("threshold", "fraction_naive", "fraction_minimized"), report_rows)
    _write_csv(out / "trace.csv", ("height", "feerate_estimate"),
               [(h, series.estimate_at(h)) for h in launches])
    lines = [f"fee analysis over launches [{launch_from}, {launch_to}] "
             f"window={window} minimize_duration={duration}"]
    for t, fn, fm in report_rows:
        lines.append(f"  space >= {t}: naive {fn:.3f}, minimized {fm:.3f}")
    return lines


_RUNNERS = {
    "attack": _run_attack_kind,
    "sweep": _run_sweep_kind,
    "mitigation-matrix": _run_matrix_kind,
    "fee-analysis": _run_fee_kind,
}


def run_scenario(path: str | Path, out_dir: str | Path,
                 seed_override: int | None = None, jobs: int = 1) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = "parse"
    summary: list[str] = []
    try:
        sc = load_scenario(path)
        seed = sc.seed if seed_override is None else seed_override
        summary.append(f"scenario: {sc.kind} (seed {seed})")
        stage = "execute"
        summary.extend(_RUNNERS[sc.kind](sc, seed, jobs, out))
        stage = "done"
        summary.append("status: ok")
        summary.append("")
        summary.append("scenario file echo:")
        summary.extend(sc.echo_lines())
        return 0
    except CONFIG_ERRORS as exc:
        summary.append(f"status: FAILED at stage {stage}: {exc}")
        print(f"error ({stage}): {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- report, then fail with runtime code
        summary.append(f"status: FAILED at stage {stage}: {exc!r}")
        print(f"runtime error ({stage}): {exc!r}", file=sys.stderr)
        return 3
    finally:
        (out / "summary.txt").write_text("\n".join(summary) + "\n")


def validate_scenario(path: str | Path) -> int:
    try:
        sc = load_scenario(path)
        if sc.kind in ("attack", "sweep", "mitigation-matrix"):
            build_attack_config(sc, sc.seed)
        if sc.kind == "sweep":
            if not sc.parser.has_section("sweep"):
                raise ScenarioError("config-parse-error: missing [sweep] section")
        if sc.kind == "mitigation-matrix" and not build_policies(sc):
            raise ScenarioError("config-parse-error: mitigation-matrix needs [policy:*] sections")
        if sc.kind == "fee-analysis":
            if not sc.parser.has_section("fee_analysis"):
                raise ScenarioError("config-parse-error: missing [fee_analysis] section")
            if build_series(sc) is None:
                raise ScenarioError("config-parse-error: fee-analysis needs [feerates]")
    except (ScenarioError, ConfigError, PolicyError, SeriesError, ValueError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="htlcrace",
        description="Deterministic simulator of mass HTLC-expiry theft "
                    "against Lightning-style payment channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", required=True, help="output directory for artifacts")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for sweeps/matrices")
    val_p = sub.add_parser("validate", help="check a scenario file without running it")
    val_p.add_argument("scenario")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, args.out, args.seed, args.jobs)
    return validate_scenario(args.scenario)


if __name__ == "__main__":
    sys.exit(main())
