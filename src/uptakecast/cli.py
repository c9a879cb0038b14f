"""Command-line interface: validate inputs, run backtests, predict, re-emit reports.

Exit codes: 0 success, 1 validation failure or usage error, 2 runtime error.
An ``--out`` or ``--log-dir`` that cannot be written is a validation failure
before any command runs. All randomness flows from the seed (config
``[backtest] seed`` or ``--seed``, flag wins).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import web
from .backtest import (
    BacktestConfig,
    PredictionLog,
    aligned_history,
    check_level1_coverage,
    run_full_experiment,
    run_level0_backtest,
    run_level1_backtest,
    split_method,
    summarize,
)
from .errors import EmptyLog, GapInRegistry, MissingCohort, UptakecastError
from .ingest import (
    compute_uptake,
    emit_report,
    load_cohorts,
    load_registry,
    load_trends,
    read_log_csv,
    write_log_csv,
)
from .timeseries import MonthStamp, TimeSeries, UptakeSeries


def _parse_month_flag(text: str) -> MonthStamp:
    year_s, _, month_s = text.partition("-")
    return MonthStamp(int(year_s), int(month_s))


def _config_from_file(parser: configparser.ConfigParser, seed_flag: int | None) -> BacktestConfig:
    kwargs = {}
    if parser.has_section("backtest"):
        section = parser["backtest"]
        types = {f.name: f.type for f in dataclasses.fields(BacktestConfig)}
        # [DEFAULT] keys show up in every section; they are interpolation
        # values, not settings.
        unknown = [key for key in section if key not in types and key not in parser.defaults()]
        if unknown:
            raise ValueError(f"unknown [backtest] keys: {', '.join(unknown)}")
        for key, type_ in types.items():
            text = section.get(key, "").strip()
            if not text:
                continue
            if key == "arima_orders":
                kwargs[key] = "auto" if text == "auto" else tuple(int(v) for v in text.split(","))
            elif key == "end_month":
                kwargs[key] = _parse_month_flag(text)
            else:
                kwargs[key] = float(text) if type_ == "float" else int(text)
    if seed_flag is not None:
        kwargs["seed"] = seed_flag
    return BacktestConfig(**kwargs)


def _load_experiment(config_path: str, vaccine_filter: list[str] | None, seed_flag: int | None):
    """Parse the experiment file and load every referenced input."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # vaccine ids are case-sensitive
    try:
        read = parser.read(config_path, encoding="utf-8-sig")
        if not read:
            raise UptakecastError(f"config file not found: {config_path}")
        for section in ("data", "vaccines"):
            if not parser.has_section(section):
                raise UptakecastError(f"config is missing the [{section}] section")
        for key in ("registry", "cohorts"):
            if key not in parser["data"]:
                raise UptakecastError(f"config [data] is missing the {key!r} key")
        registry_path, cohorts_path = parser["data"]["registry"], parser["data"]["cohorts"]
        vaccines = {
            vaccine.strip(): path
            for vaccine, path in parser["vaccines"].items()
            if vaccine not in parser.defaults()
        }
        cfg = _config_from_file(parser, seed_flag)
    except (configparser.Error, ValueError) as err:
        # A malformed file, a value that does not parse, or a BacktestConfig rejection.
        raise UptakecastError(f"invalid config: {err}") from err
    registry = load_registry(registry_path)
    cohorts = load_cohorts(cohorts_path)

    wanted = set(vaccine_filter) if vaccine_filter else None
    datasets = {}
    for name, trends_path in vaccines.items():
        if wanted is not None and name not in wanted:
            continue
        slice_ = [r for r in registry if r.vaccine == name]
        if not slice_:
            raise UptakecastError(f"registry has no rows for vaccine {name!r}")
        try:
            uptake = compute_uptake(slice_, cohorts)
        except (GapInRegistry, MissingCohort) as err:
            path = registry_path if isinstance(err, GapInRegistry) else cohorts_path
            raise UptakecastError(f"{path}: vaccine {name!r}: {err}") from None
        panel = load_trends(trends_path)
        datasets[name] = (uptake, panel)
    if wanted is not None:
        missing = wanted - set(datasets)
        if missing:
            raise UptakecastError(f"vaccines not in config: {sorted(missing)}")
    if not datasets:
        raise UptakecastError("config defines no vaccines")
    return datasets, cfg


def _path_error(args) -> str | None:
    """Why ``--out`` or ``--log-dir`` cannot be written, checked before any command runs."""
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        return f"--out {args.out}: not a file in an existing directory"
    if args.log_dir:  # it, or the nearest of its parents that exists, must be a directory
        log_dir = Path(args.log_dir)
        nearest = next(p for p in (log_dir, *log_dir.parents) if p.exists())
        if not nearest.is_dir():
            return f"--log-dir {args.log_dir}: {nearest} is not a directory"
    return None


def _emit(reports: list, logs: dict[str, PredictionLog], args, seed: int | None) -> None:
    """Write the reports; with ``--level0-window`` also each log's level-0
    methods, scored over the longer level-0 window."""
    extra = []
    if args.level0_window:
        for name, log in logs.items():
            level0 = PredictionLog(
                tuple(e for e in log.entries if split_method(e.method)[0] is None))
            rep = summarize(level0, name, seed=seed)
            extra.append(dataclasses.replace(rep, vaccine=f"{name} (level0 window)"))
    if extra and args.format == "markdown":
        # Markdown gives each window its own set of tables; CSV is one table.
        text = emit_report(reports, format="markdown") + emit_report(extra, format="markdown")
    else:
        text = emit_report(reports + extra, format=args.format)
    _write_out(text, args.out)


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    datasets, cfg = _load_experiment(args.config, args.vaccine, args.seed)
    lines = []
    for name, (uptake, panel) in datasets.items():
        series = uptake.series
        try:
            _, window = aligned_history(uptake, panel, cfg)
            check_level1_coverage(len(window) - cfg.level0_warmup_months, cfg)
        except UptakecastError as err:
            raise UptakecastError(f"vaccine {name!r}: {type(err).__name__}: {err}") from None
        lines.append(f"{name}: uptake {series.start}..{series.end} ({len(series)} months), "
                     f"panel {panel.n_queries} queries, shared window "
                     f"{window.start}..{window.end}")
    lines.append(f"config ok: seed={cfg.seed}, warmups={cfg.level0_warmup_months}/"
                 f"{cfg.level1_warmup_months}, ar_lags={cfg.ar_lags}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_backtest(args) -> int:
    datasets, cfg = _load_experiment(args.config, args.vaccine, args.seed)
    if args.log_dir:
        log_dir = Path(args.log_dir)
        log_paths = {name: log_dir / f"{name}.log.csv" for name in datasets}
        for name, path in log_paths.items():
            if path.parent != log_dir:
                raise UptakecastError(f"vaccine {name!r}: its log {path} is not in {log_dir}")
    logs: dict[str, PredictionLog] = {}
    reports = run_full_experiment(datasets, cfg, collect_logs=logs)
    if args.log_dir:
        log_dir.mkdir(parents=True, exist_ok=True)
        for name, log in logs.items():
            log_paths[name].write_text(write_log_csv(log), encoding="utf-8")
    _emit(reports, logs, args, cfg.seed)
    return 0


def _cmd_predict(args) -> int:
    if not args.vaccine or len(args.vaccine) != 1:
        raise UptakecastError("predict needs exactly one --vaccine")
    datasets, cfg = _load_experiment(args.config, args.vaccine, args.seed)
    name = args.vaccine[0]
    panel, series = aligned_history(*datasets[name], cfg)
    # The target is the backtest's next month. Its query frequencies are not
    # observed, so its panel row repeats the last observed row, the standard
    # nowcast input; its uptake value repeats the last one, which no fit reads.
    target = series.end.plus(1)
    history = UptakeSeries(TimeSeries(series.start, np.append(series.values, series.values[-1])))
    panel = web.QueryPanel(
        panel.start, panel.query_names, np.vstack([panel.matrix, panel.matrix[-1]])
    )
    log0 = run_level0_backtest(history, panel, dataclasses.replace(cfg, end_month=target), name)
    # The level-1 backtest whose warm-up ends at the target fits that month
    # alone; with too few level-0 months its own check fails.
    idx = len(series) - cfg.level0_warmup_months  # the level-0 months before the target
    warmup = dataclasses.replace(cfg, level1_warmup_months=max(cfg.level1_warmup_months, idx))
    log = log0.merge(run_level1_backtest(log0, warmup, name))
    cells = [log.cells[(name, method)][target] for method in cfg.method_order()]
    for e in cells:
        if e.diagnostic:
            print(f"{e.method} {target}: {e.diagnostic}", file=sys.stderr)

    lines = [f"next-month predictions for {name}, target {target}:"]
    lines += [f"{e.method},{e.predicted!r}" for e in cells]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_report(args) -> int:
    if not args.log_dir:
        raise UptakecastError("report needs --log-dir")
    log_dir = Path(args.log_dir)
    paths = sorted(log_dir.glob("*.log.csv"))
    if not paths:
        raise UptakecastError(f"no *.log.csv files under {log_dir}")
    wanted = set(args.vaccine) if args.vaccine else None
    reports, logs, sources = [], {}, {}
    for path in paths:
        log = read_log_csv(path)
        if len(log) == 0:
            raise UptakecastError(f"{path}: no log entries")
        vaccines = [v for v in log.vaccines() if wanted is None or v in wanted]
        if twice := [v for v in vaccines if v in sources]:
            raise UptakecastError(
                f"vaccine {twice[0]!r} is in two logs: {sources[twice[0]]} and {path}")
        sources.update(dict.fromkeys(vaccines, path))
        try:
            reports += [summarize(log, vaccine) for vaccine in vaccines]
        except EmptyLog as err:
            raise EmptyLog(f"{path}: {err}") from None
        logs.update(dict.fromkeys(vaccines, log))
    if wanted is not None and wanted - set(logs):
        raise UptakecastError(f"vaccines not in the logs: {sorted(wanted - set(logs))}")
    _emit(reports, logs, args, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uptakecast",
        description="Ensemble vaccination-uptake forecasting and backtesting",
    )
    parser.add_argument("command", choices=["validate", "backtest", "predict", "report"])
    parser.add_argument("--config", help="experiment config file (INI)")
    parser.add_argument(
        "--vaccine", action="append", help="restrict to this vaccine id (repeatable)"
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (wins over config)")
    parser.add_argument("--format", choices=["csv", "markdown"], default="markdown")
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument(
        "--level0-window",
        action="store_true",
        help="also emit level-0 RMSE over the longer level-0 window",
    )
    parser.add_argument("--log-dir", help="directory for prediction-log CSVs")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse's exit: 0 after --help, 2 for a usage error
        return 1 if stop.code else 0
    commands = {
        "validate": _cmd_validate,
        "backtest": _cmd_backtest,
        "predict": _cmd_predict,
        "report": _cmd_report,
    }
    if args.command in ("validate", "backtest", "predict") and not args.config:
        print("error: --config is required", file=sys.stderr)
        return 1
    if problem := _path_error(args):
        print(f"error: {problem}", file=sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return commands[args.command](args)
    except UptakecastError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
