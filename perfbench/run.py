"""Benchmark of the uptakecast rolling-origin backtest and the predict command.

    python3 perfbench/run.py --workload wide57 --seed 0 --seconds 38 --trace 0

Run from the root of a checkout. The workloads are defined in
``workloads.py``; ``README.md`` lists every metric and what it should move.

``--trace 0`` times the program untraced and prints the end-to-end metrics.
``--trace 1`` runs the same vaccines untraced and then traced (wrappers around
the calls into each layer, see ``tracing.py``), checks that both passes give
byte-identical output, writes the spans to ``.perfbench/<workload>/spans.jsonl``
and prints the per-layer metrics. Either way every output is checked against
the reference outputs in ``reference/``. The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.

``--write-reference`` runs all 13 pool vaccines and rewrites
``reference/<workload>.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

from machine import machine_record
from tracing import Tracer, count_cells, instrument, layer_metrics
from workloads import (
    CONFIG_SEED,
    POOL,
    WORKLOADS,
    drift,
    make_datasets,
    parse_predictions,
    pick,
    run_size,
    write_predict_inputs,
)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DRIFT_TOL = 1e-9  # every RMSE within 1e-9 of the reference (ROADMAP rule)
NAIVE_TOL = 1e-12
N_METHODS = 44
SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 120.0
# The `uptakecast` console script, with the package on PYTHONPATH.
CLI_ENTRY = "import sys; from uptakecast.cli import main; sys.exit(main())"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(wl, ks, directory: Path):
    """Import the package, generate the inputs, write the predict57 CSVs."""
    from uptakecast import cli  # noqa: F401  (the import is part of set-up)

    datasets = make_datasets(wl, ks)
    if wl.kind == "predict":
        config, last_uptake = write_predict_inputs(datasets, directory)
        return datasets, config, last_uptake
    return datasets, None, None


def time_setup(args) -> list[float]:
    """Wall seconds of fresh processes that only do the set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=PROCESS_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------- backtest


def backtest_pass(datasets, cfg, tracer=None):
    """run_full_experiment per vaccine, then the CSV report of them all."""
    from uptakecast import backtest, ingest

    reports, logs, per_vaccine = [], {}, []
    t0 = time.perf_counter()
    for name, data in datasets.items():
        if tracer is not None:
            tracer.vaccine = name
        t = time.perf_counter()
        reports += backtest.run_full_experiment({name: data}, cfg, collect_logs=logs)
        per_vaccine.append(time.perf_counter() - t)
    if tracer is not None:
        tracer.vaccine = None
    text = ingest.emit_report(reports, format="csv")
    return time.perf_counter() - t0, per_vaccine, reports, logs, text


def check_backtest(datasets, reports, logs, reference) -> tuple[set[str], float]:
    """Failed vaccines and the largest RMSE drift from the reference."""
    from uptakecast.backtest import naive_report_check

    failed, worst = set(), 0.0
    for rep in reports:
        log = logs.get(rep.vaccine)
        ok = (
            rep.error is None
            and len(rep.rmse) == N_METHODS
            and log is not None
            and all(math.isfinite(e.predicted) for e in log.entries)
            and all(math.isfinite(v) for v in rep.rmse.values())
            and abs(rep.rmse["Naive"] - naive_report_check(datasets[rep.vaccine][0], rep))
            <= NAIVE_TOL
        )
        if reference is not None:
            ref = reference.get(rep.vaccine, {})
            d = drift(rep.rmse, ref)
            worst = max(worst, d)
            ok = ok and set(rep.rmse) == set(ref) and d <= DRIFT_TOL
        if not ok:
            failed.add(rep.vaccine)
    failed |= set(datasets) - {rep.vaccine for rep in reports}
    return failed, worst


def run_backtest(args, datasets, reference):
    from uptakecast import errors
    from uptakecast.backtest import BacktestConfig

    cfg = BacktestConfig(seed=CONFIG_SEED)
    wall, per_vaccine, reports, logs, text = backtest_pass(datasets, cfg)
    failed, worst = check_backtest(datasets, reports, logs, reference)
    out = {"wall": wall, "per_vaccine": per_vaccine, "failed": failed, "drift": worst,
           "values": {r.vaccine: r.rmse for r in reports}}
    if not args.trace:
        return out, None

    tracer = Tracer()
    instrument(tracer)
    try:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            tracer.record_warnings(log, errors.DiagnosticWarning)
            t_wall, _, t_reports, t_logs, t_text = backtest_pass(datasets, cfg, tracer)
    finally:
        tracer.uninstall()
    t_failed, t_worst = check_backtest(datasets, t_reports, t_logs, reference)
    for log in t_logs.values():
        count_cells(tracer.counts, log)
    out["failed"] |= t_failed if t_text == text else set(datasets)
    out["drift"] = max(worst, t_worst)
    out["traced_wall"] = t_wall
    return out, tracer


# ---------------------------------------------------------------- predict


def _run_process(cmd, stdout_path: Path):
    """Run one process; its wall seconds, exit code and peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with open(stdout_path, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, env=env)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def predict_pass(names, config, workdir: Path, tracer=None):
    walls, rss, outputs, codes = [], [], {}, {}
    t0 = time.perf_counter()
    for name in names:
        cli_args = ["predict", "--config", str(config), "--vaccine", name]
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *cli_args]
            out_path = workdir / f"{name}.out"
        else:
            span_path = workdir / f"{name}.trace.json"
            cmd = [sys.executable, str(HERE / "traced_predict.py"), str(span_path), name,
                   "--", *cli_args]
            out_path = workdir / f"{name}.traced.out"
        wall, codes[name], peak = _run_process(cmd, out_path)
        walls.append(wall)
        rss.append(peak)
        outputs[name] = out_path.read_bytes()
        if tracer is not None and codes[name] == 0:
            with open(span_path, encoding="utf-8") as fh:
                dump = json.load(fh)
            tracer.merge(dump["spans"], dump["counts"])
    return time.perf_counter() - t0, walls, rss, outputs, codes


def check_predict(outputs, codes, last_uptake, reference) -> tuple[set[str], float, dict]:
    failed, worst, values = set(), 0.0, {}
    for name, raw in outputs.items():
        try:
            preds = parse_predictions(raw.decode("utf-8"))
        except ValueError:
            failed.add(name)
            continue
        values[name] = preds
        ok = (
            codes[name] == 0
            and len(preds) == N_METHODS
            and all(math.isfinite(v) for v in preds.values())
            and abs(preds.get("Naive", math.nan) - last_uptake[name]) <= NAIVE_TOL
        )
        if reference is not None:
            ref = reference.get(name, {})
            d = drift(preds, ref)
            worst = max(worst, d)
            ok = ok and set(preds) == set(ref) and d <= DRIFT_TOL
        if not ok:
            failed.add(name)
    return failed, worst, values


def run_predict(args, wl, datasets, config, last_uptake, reference):
    workdir = ROOT / ".perfbench" / wl.name
    names = list(datasets)
    wall, walls, rss, outputs, codes = predict_pass(names, config, workdir)
    failed, worst, values = check_predict(outputs, codes, last_uptake, reference)
    out = {"wall": wall, "per_vaccine": walls, "failed": failed, "drift": worst,
           "rss": max(rss), "values": values}
    if not args.trace:
        return out, None

    tracer = Tracer()
    t_wall, _, _, t_outputs, t_codes = predict_pass(names, config, workdir, tracer)
    t_failed, t_worst, _ = check_predict(t_outputs, t_codes, last_uptake, reference)
    out["failed"] |= t_failed | {n for n in names if t_outputs[n] != outputs[n]}
    out["drift"] = max(worst, t_worst)
    out["traced_wall"] = t_wall
    return out, tracer


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "uptakecast" / "__init__.py").is_file() or not (
        ROOT / "tests" / "conftest.py"
    ).is_file():
        print("error: run from the root of an uptakecast checkout "
              "(src/uptakecast and tests/conftest.py are missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload]
    if args.write_reference:
        ks = list(range(POOL))
    else:
        ks = pick(args.seed, run_size(wl, args.seconds, bool(args.trace)))
    workdir = ROOT / ".perfbench" / wl.name
    inputs = Path(".perfbench") / wl.name / ("setup" if args.setup_only else "inputs")
    if args.setup_only:
        prepare(wl, ks, inputs)
        return 0

    setup_times = [] if args.trace or args.write_reference else time_setup(args)
    datasets, config, last_uptake = prepare(wl, ks, inputs)
    workdir.mkdir(parents=True, exist_ok=True)
    ref_path = HERE / "reference" / f"{wl.name}.json"
    reference = None
    if not args.write_reference:
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)["values"]
    print(json.dumps({"machine": machine_record(), "workload": wl.name, "seed": args.seed,
                      "vaccines": list(datasets)}))

    if wl.kind == "backtest":
        res, tracer = run_backtest(args, datasets, reference)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        res, tracer = run_predict(args, wl, datasets, config, last_uptake, reference)
        peak_rss = res["rss"]
    attempted = len(datasets)
    n_failed = len(res["failed"])
    per_vaccine = ", ".join(f"{n} {t:.2f}s" for n, t in zip(datasets, res["per_vaccine"]))
    print(f"{wl.name}: {per_vaccine}; wall {res['wall']:.2f}s; "
          f"failed {n_failed}; drift {res['drift']:.3g}", file=sys.stderr)

    if args.write_reference:
        if n_failed:
            print(f"error: not writing a reference, {sorted(res['failed'])} failed",
                  file=sys.stderr)
            return 1
        ref_path.parent.mkdir(exist_ok=True)
        with open(ref_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "values": res["values"]}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {ref_path}", file=sys.stderr)
        return 0

    correct = n_failed == 0
    if tracer is None:
        metrics = {
            "backtest_s": res["wall"],
            "predict_s": statistics.median(res["per_vaccine"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss,
        }
    else:
        layers, misnested = layer_metrics(tracer)
        tracer.write_jsonl(workdir / "spans.jsonl")
        if misnested:
            print(f"error: {len(misnested)} spans lie outside their parent", file=sys.stderr)
            correct = False
        cells = layers["backtest.cells"]
        layers.update({
            "trace.overhead_frac": res["traced_wall"] / res["wall"] - 1.0,
            "result_drift": res["drift"],
            "failed_frac": n_failed / attempted,
            "fallback_frac": layers["backtest.fallback_cells"] / cells if cells else 0.0,
        })
        metrics = layers
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    metrics = {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
