"""Benchmark workloads: their shapes, the vaccine pool, and input generation.

Inputs come from ``synth_vaccine`` in ``tests/conftest.py``, the generator
the acceptance suite uses. Each workload draws its vaccines from a pool of
13: vaccine k has generator seed 1000 + k and id ``SYN-kk``, the inputs of
acceptance criterion 10. The workload seed picks which pool vaccines a run
uses; the reference outputs in ``reference/`` cover the whole pool.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

POOL = 13
CONFIG_SEED = 4  # BacktestConfig(seed=4), as in criterion 10
# Cohort size of the predict57 CSV inputs: uptake = 100 * doses / EXPECTED
# keeps four decimals of the generated uptake in the integer dose counts.
EXPECTED = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "backtest": in-process run_full_experiment; "predict": CLI processes
    n_months: int
    n_queries: int
    vaccine_s: float  # nominal seconds per vaccine on 2 CPUs; sets the run size


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide57", "backtest", 57, 58, 13.0),
        Workload("narrow120", "backtest", 120, 12, 23.0),
        Workload("predict57", "predict", 57, 58, 12.5),
    )
}


def run_size(wl: Workload, seconds: float, traced: bool) -> int:
    """Vaccines per run: as many as fit in ``seconds``, at least one.

    A traced run does an untraced and a traced pass over its vaccines.
    """
    per_vaccine = wl.vaccine_s * (2.1 if traced else 1.0)
    return min(POOL, max(1, int(seconds // per_vaccine)))


def pick(seed: int, n: int) -> list[int]:
    """Pool indices for a run; seed 0 with n = 13 is criterion 10's set."""
    return [(seed * n + i) % POOL for i in range(n)]


def vaccine_id(k: int) -> str:
    return f"SYN-{k:02d}"


def make_datasets(wl: Workload, ks: list[int]) -> dict:
    from conftest import synth_vaccine

    return {
        vaccine_id(k): synth_vaccine(1000 + k, n_months=wl.n_months, n_queries=wl.n_queries)
        for k in ks
    }


def write_predict_inputs(datasets: dict, directory: Path) -> tuple[Path, dict[str, float]]:
    """Registry, cohort, trends and experiment files for ``uptakecast predict``.

    Returns the config path and, per vaccine, the last uptake value the CLI
    will compute from these files (its Naive prediction).
    """
    directory.mkdir(parents=True, exist_ok=True)
    months = set()
    last_uptake = {}
    with open(directory / "registry.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vaccine", "year", "month", "doses"])
        for name, (uptake, _) in datasets.items():
            series = uptake.series
            for stamp, value in zip(series.months(), series.values):
                doses = round(float(value) * EXPECTED / 100)
                writer.writerow([name, stamp.year, stamp.month, doses])
                months.add((stamp.year, stamp.month))
            last_uptake[name] = 100.0 * doses / EXPECTED
    with open(directory / "cohorts.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["year", "month", "expected"])
        for year, month in sorted(months):
            writer.writerow([year, month, EXPECTED])
    lines = [
        "[data]",
        f"registry = {directory / 'registry.csv'}",
        f"cohorts = {directory / 'cohorts.csv'}",
        "",
        "[vaccines]",
    ]
    for name, (_, panel) in datasets.items():
        path = directory / f"trends_{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["query", "year", "month", "frequency"])
            for j, query in enumerate(panel.query_names):
                for k in range(panel.n_months):
                    stamp = panel.start.plus(k)
                    writer.writerow([query, stamp.year, stamp.month, repr(float(panel.matrix[k, j]))])
        lines.append(f"{name} = {path}")
    lines += ["", "[backtest]", f"seed = {CONFIG_SEED}", ""]
    config = directory / "experiment.ini"
    config.write_text("\n".join(lines), encoding="utf-8")
    return config, last_uptake


def parse_predictions(text: str) -> dict[str, float]:
    """``method,value`` lines of ``uptakecast predict`` output."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("next-month predictions for "):
        raise ValueError(f"unexpected predict output: {text[:80]!r}")
    out = {}
    for line in lines[1:]:
        method, _, value = line.rpartition(",")
        out[method] = float(value)
    return out


def drift(values: dict[str, float], reference: dict[str, float]) -> float:
    """Largest absolute difference over the methods both carry.

    Missing methods and non-finite values are caught by the structural checks.
    """
    diffs = [abs(values[m] - reference[m]) for m in reference if m in values]
    return max((d for d in diffs if math.isfinite(d)), default=0.0)
