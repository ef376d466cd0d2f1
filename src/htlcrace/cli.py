"""Scenario runner.

Usage:
    htlcrace run <scenario.ini> --out <dir> [--seed N] [--jobs K]
    htlcrace validate <scenario.ini>

A scenario file is INI-style.  [scenario] names the experiment kind
(attack | sweep | fee-analysis | mitigation-matrix) and the mandatory seed;
the remaining sections configure the modules involved (see README for full
examples).  Runs write report.csv, trace.csv and summary.txt into --out;
summary.txt is written even when a stage fails, recording which one.

Exit codes: 0 success, 2 configuration/input error (a ConfigError, a usage
error, or an --out that cannot be made a directory), 3 runtime error.  Building a run's
inputs turns any other ValueError into a ConfigError, so any other exception
is an engine fault.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

from .attack import (
    AttackConfig, AttackReport, TrafficSpec, break_even_channels,
    min_channels_guaranteed_theft, run_attack, sweep_channels, validate_config,
)
from .channel import WeightSchedule
from .fees import (  # noqa: F401 -- unused fee functions: perfbench/spans.py wraps them here
    ConfigError, FeeAnalysisConfig, FeerateSeries, ingest_feerate_csv, plan_fee_analysis,
    run_fee_analysis, simulate_feerate_strategy, synthetic_blocks, synthetic_feerate_series,
    victim_available_space,
)
from .mitigations import MitigationPolicy, apply_to_config, run_mitigation_matrix

REPORT_COLUMNS = (
    "n_channels", "htlcs_per_channel", "htlc_value_sat", "total_htlcs",
    "stolen_htlcs", "victim_claimed_htlcs", "unresolved_htlcs",
    "stolen_value_sat", "victim_fees_sat", "attacker_cost_sat",
    "launch_feerate", "end_height",
)


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
        raise ConfigError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config-parse-error: {exc}") from exc
    if not parser.has_section("scenario"):
        raise ConfigError("config-parse-error: missing [scenario] section")
    kind = parser.get("scenario", "kind", fallback=None)
    if kind not in _KINDS:
        raise ConfigError(
            f"config-parse-error: kind must be one of {tuple(_KINDS)}, got {kind!r}")
    needs, reads, _ = _KINDS[kind]
    tables = [_table(section) for section in parser.sections()]
    for section, table in zip(parser.sections(), tables):
        if table not in ("scenario", *needs, *reads):
            raise ConfigError(
                f"config-parse-error: unknown section [{section}] for kind {kind}")
    for table in needs:
        if table not in tables:
            raise ConfigError(f"config-parse-error: kind {kind} needs a [{table}] section")
    if not parser.has_option("scenario", "seed"):
        raise ConfigError("config-parse-error: seed is mandatory (determinism contract)")
    try:
        seed = parser.getint("scenario", "seed")
    except ValueError as exc:
        raise ConfigError(f"config-parse-error: seed must be an integer: {exc}") from exc
    return Scenario(kind, seed, path, parser)


def _parse_bool(raw: str) -> bool:
    value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
    if value is None:
        raise ValueError(f"not a boolean: {raw!r}")
    return value


def _parse_pair(raw: str) -> tuple[Fraction, int] | None:
    """`slope,cap`, the slope exactly as written; an empty value means none."""
    if not raw:
        return None
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"wants 'slope,cap', got {raw!r}")
    return Fraction(parts[0]), int(parts[1])


# A dataclass field's annotation string -> how its INI value is read.
_CONVERTERS = {"int": int, "int | None": int, "float": float, "bool": _parse_bool,
               "str": str, "str | ChannelParams": str,
               "tuple[int, ...]": lambda raw: tuple(int(t) for t in raw.split(",") if t.strip()),
               "tuple[Fraction | float, int] | None": _parse_pair}


def _field_keys(cls, *skip: str) -> dict:
    """The INI keys of a config dataclass: its fields, less `skip`.  Keys a
    section leaves out keep the dataclass's own defaults."""
    return {f.name: _CONVERTERS[f.type] for f in fields(cls) if f.name not in skip}


# The keys each section accepts, and how each is read.
SECTION_KEYS = {
    "attack": _field_keys(AttackConfig, "seed", "weights", "feerate_series",
                          "background_traffic"),
    "weights": _field_keys(WeightSchedule),
    "traffic": _field_keys(TrafficSpec),
    "policy:*": _field_keys(MitigationPolicy, "policy_id"),
    "sweep": {"n_from": int, "n_to": int, "n_step": int},
    "feerates": {"csv": str, "synthetic_seed": int, "synthetic_length": int,
                 "synthetic_start": int, "synthetic_low": int, "synthetic_high": int},
    "fee_analysis": _field_keys(FeeAnalysisConfig),
}


def _table(section: str) -> str:
    """The SECTION_KEYS entry for `section`; [policy:] matches none."""
    return "policy:*" if section.startswith("policy:") and section != "policy:" else section


def _read(sc: Scenario, section: str) -> dict:
    """The keys set in `section` (none if it is absent), each converted as
    SECTION_KEYS says; a key the section does not know is an error."""
    if not sc.parser.has_section(section):
        return {}
    keys = SECTION_KEYS[_table(section)]
    values = {}
    for key, raw in sc.parser.items(section):
        if key not in keys:
            raise ConfigError(f"config-parse-error: [{section}] unknown key {key!r}")
        try:
            values[key] = keys[key](raw)
        except ValueError as exc:
            raise ConfigError(f"config-parse-error: [{section}] {key}: {exc}") from exc
    return values


def build_series(sc: Scenario) -> FeerateSeries | None:
    if not sc.parser.has_section("feerates"):
        return None
    v = _read(sc, "feerates")
    if "csv" in v:
        resolved = (sc.path.parent / v["csv"]).resolve()
        if not resolved.is_file():
            raise ConfigError(f"missing-input: feerate csv not found: {resolved}")
        return ingest_feerate_csv(resolved)
    try:
        return synthetic_feerate_series(  # with its own defaults for the keys left unset
            v.get("synthetic_seed", sc.seed), v.get("synthetic_length", 2016),
            **{param: v[key] for key, param in (("synthetic_start", "start_height"),
                                                ("synthetic_low", "low"),
                                                ("synthetic_high", "high")) if key in v})
    except ConfigError as exc:  # a bad [feerates] range, tagged as the reader tags one
        raise ConfigError(f"config-parse-error: {exc}") from exc


def build_attack_config(sc: Scenario, seed: int) -> AttackConfig:
    traffic = _read(sc, "traffic")  # none set: no traffic, as txs_per_tick = 0
    return AttackConfig(
        **{"num_victim_channels": 1, **_read(sc, "attack")},
        seed=seed,
        weights=WeightSchedule(**_read(sc, "weights")),
        feerate_series=build_series(sc),
        background_traffic=TrafficSpec(**traffic) if traffic else None,
    )


def build_policies(sc: Scenario) -> list[MitigationPolicy]:
    return [MitigationPolicy(policy_id=section.split(":", 1)[1], **_read(sc, section))
            for section in sc.parser.sections() if section.startswith("policy:")]


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


TRACE_COLUMNS = ("height", "block_weight_used", "victim_tx_confirmed",
                 "attacker_tx_confirmed")


def _trace_rows(r: AttackReport) -> list[tuple]:
    return [(t.height, t.weight_used, t.victim_claims_confirmed,
             t.attacker_claims_confirmed) for t in r.trace]


# Each kind's configure step builds every input of the run (run and
# validate both call it) and returns the execute step, execute(jobs, out),
# which runs and writes the artifacts.


def _configure_attack(sc: Scenario, seed: int):
    cfg = build_attack_config(sc, seed)
    validate_config(cfg)
    return partial(_execute_attack, cfg)


def _execute_attack(cfg: AttackConfig, jobs: int, out: Path) -> list[str]:
    report = run_attack(cfg)
    _write_csv(out / "report.csv", REPORT_COLUMNS,
               [_report_row(cfg.num_victim_channels, report)])
    _write_csv(out / "trace.csv", TRACE_COLUMNS, _trace_rows(report))
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


def _configure_sweep(sc: Scenario, seed: int):
    v = _read(sc, "sweep")
    n_from, n_to, step = v.get("n_from"), v.get("n_to"), v.get("n_step", 1)
    if n_from is None or n_to is None or step < 1 or not 1 <= n_from <= n_to:
        raise ConfigError(
            "config-parse-error: [sweep] needs 1 <= n_from <= n_to, n_step >= 1")
    template = replace(build_attack_config(sc, seed), num_victim_channels=n_from)
    ns = range(n_from, n_to + 1, step)
    for n in ns:  # set-up's blocks and a staggered release's grow with n
        validate_config(replace(template, num_victim_channels=n))
    return partial(_execute_sweep, template, ns)


def _execute_sweep(template: AttackConfig, ns: range, jobs: int, out: Path) -> list[str]:
    curve = sweep_channels(template, ns, jobs=jobs)
    _write_csv(out / "report.csv", REPORT_COLUMNS,
               [_report_row(n, r) for n, r in curve])
    _write_csv(out / "trace.csv", ("n_channels",) + TRACE_COLUMNS,
               [(n, *row) for n, r in curve for row in _trace_rows(r)])
    simulated = break_even_channels(curve)
    closed = min_channels_guaranteed_theft(
        template.victim_params(), template.weights, template.blockmaxweight)
    lines = [f"sweep n in [{ns.start}, {ns.stop - 1}] step {ns.step}",
             f"closed-form guaranteed-theft threshold: {closed}",
             f"simulated break-even: {simulated if simulated is not None else 'none in range'}"]
    for n, r in curve:
        lines.append(f"  n={n}: stolen={r.stolen_htlcs} value={r.stolen_value}")
    return lines


def _configure_matrix(sc: Scenario, seed: int):
    base = build_attack_config(sc, seed)
    policies = build_policies(sc)
    for policy in policies:
        validate_config(apply_to_config(policy, base))
    return partial(_execute_matrix, base, policies)


def _execute_matrix(base: AttackConfig, policies, jobs: int, out: Path) -> list[str]:
    rows = run_mitigation_matrix(base, policies, jobs=jobs)
    _write_csv(out / "report.csv",
               ("policy_id", "n_channels", "stolen_htlcs", "stolen_value_sat",
                "break_even_n"),
               [(r.policy_id, r.report.num_victim_channels, r.report.stolen_htlcs,
                 r.report.stolen_value, r.break_even_n) for r in rows])
    _write_csv(out / "trace.csv", ("policy_id",) + TRACE_COLUMNS,
               [(r.policy_id, *row) for r in rows for row in _trace_rows(r.report)])
    lines = [f"mitigation matrix at n={base.num_victim_channels}"]
    for r in rows:
        lines.append(f"  {r.policy_id}: stolen={r.report.stolen_htlcs} "
                     f"value={r.report.stolen_value} break_even_n={r.break_even_n}")
    return lines


def _configure_fee(sc: Scenario, seed: int):
    series = build_series(sc)
    cfg = FeeAnalysisConfig(**{"blocks_seed": seed, **_read(sc, "fee_analysis")})
    try:
        return partial(_execute_fee, cfg, series, *plan_fee_analysis(cfg, series))
    except ConfigError as exc:  # a bad [fee_analysis], tagged as the reader tags one
        raise ConfigError(f"config-parse-error: {exc}") from exc


def _execute_fee(cfg, series, launches: range, pairs, spaces, jobs: int, out: Path) -> list[str]:
    naive, mini, rows = run_fee_analysis(cfg, pairs, spaces)
    for name, spaces in (("space.csv", naive), ("space_minimized.csv", mini)):
        _write_csv(out / name, ("launch_height", "avg_available_space"), zip(launches, spaces))
    _write_csv(out / "report.csv", ("threshold", "fraction_naive", "fraction_minimized"), rows)
    _write_csv(out / "trace.csv", ("height", "feerate_estimate"),
               [(h, series.estimate_at(h)) for h in launches])
    return [f"fee analysis over launches [{launches.start}, {launches.stop - 1}] "
            f"window={cfg.window} minimize_duration={cfg.minimize_duration}",
            *(f"  space >= {t}: naive {fn:.3f}, minimized {fm:.3f}" for t, fn, fm in rows)]


# The scenario kinds: per kind, the sections it needs and the further ones
# it may read, besides [scenario] ("policy:*" stands for one or more
# [policy:<name>] sections), and its configure step.
_ATTACK_READS = ("weights", "traffic", "feerates")
_KINDS = {
    "attack": (("attack",), _ATTACK_READS, _configure_attack),
    "sweep": (("attack", "sweep"), _ATTACK_READS, _configure_sweep),
    "fee-analysis": (("feerates", "fee_analysis"), (), _configure_fee),
    "mitigation-matrix": (("attack", "policy:*"), _ATTACK_READS, _configure_matrix),
}


def _configure(sc: Scenario, seed: int):
    """The run's execute step, with every input built: a ValueError raised
    while building them is the scenario's fault, not the engine's."""
    try:
        return _KINDS[sc.kind][2](sc, seed)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config-parse-error: {exc}") from exc


def run_scenario(path: str | Path, out_dir: str | Path,
                 seed_override: int | None = None, jobs: int = 1) -> int:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names a file: no summary.txt can go there
        print(f"error (output): {exc}", file=sys.stderr)
        return 2
    stage = "parse"
    summary: list[str] = []
    try:
        sc = load_scenario(path)
        seed = sc.seed if seed_override is None else seed_override
        summary.append(f"scenario: {sc.kind} (seed {seed})")
        stage = "configure"
        execute = _configure(sc, seed)
        stage = "execute"
        summary.extend(execute(jobs, out))
        stage = "done"
        summary.append("status: ok")
        summary.append("")
        summary.append("scenario file echo:")
        summary.extend(sc.echo_lines())
        return 0
    except ConfigError as exc:
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
    """Build every input of the run, exactly as `run` does, without running."""
    try:
        sc = load_scenario(path)
        _configure(sc, sc.seed)
    except ConfigError as exc:
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
        if args.jobs < 1:
            run_p.error(f"--jobs must be at least 1, got {args.jobs}")
        return run_scenario(args.scenario, args.out, args.seed, args.jobs)
    return validate_scenario(args.scenario)


if __name__ == "__main__":
    sys.exit(main())
