#!/usr/bin/env python3
"""Build the CSV inputs from scratch, load them back, and run one vaccine
through the harness via the same loaders the CLI uses.

Shows the three file schemas, the uptake computation (doses / expected
cohort), and the all-zero-query drop during trends pivoting.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np

from uptakecast.backtest import BacktestConfig, run_level0_backtest, summarize
from uptakecast.ingest import compute_uptake, load_cohorts, load_registry, load_trends

root = Path(tempfile.mkdtemp(prefix="uptakecast-demo-"))
rng = np.random.default_rng(9)

months = [(2011 + (k // 12), (k % 12) + 1) for k in range(40)]
uptake_target = 70 + 10 * np.sin(2 * np.pi * np.arange(40) / 12) + rng.normal(0, 3, 40)

registry_lines = ["vaccine,year,month,doses"]
cohort_lines = ["year,month,expected"]
for (year, month), value in zip(months, uptake_target):
    cohort = int(rng.integers(900, 1100))
    doses = max(0, int(round(value / 100 * cohort)))
    registry_lines.append(f"MMR-1,{year},{month},{doses}")
    cohort_lines.append(f"{year},{month},{cohort}")
(root / "registry.csv").write_text("\n".join(registry_lines) + "\n")
(root / "cohorts.csv").write_text("\n".join(cohort_lines) + "\n")

trend_lines = ["query,year,month,frequency"]
for j in range(12):
    for k, (year, month) in enumerate(months):
        if j == 11:
            freq = 0.0  # below the export's privacy threshold every month
        else:
            freq = np.clip(40 + rng.normal(0, 15), 0, 100)
        trend_lines.append(f"term{j:02d},{year},{month},{freq:.2f}")
(root / "trends.csv").write_text("\n".join(trend_lines) + "\n")

print(f"wrote inputs under {root}")
registry = load_registry(root / "registry.csv")
cohorts = load_cohorts(root / "cohorts.csv")
print(f"registry rows: {len(registry)}, cohort rows: {len(cohorts)}")

uptake = compute_uptake([r for r in registry if r.vaccine == "MMR-1"], cohorts)
series = uptake.series
print(f"uptake series {series.start}..{series.end}, "
      f"range {series.values.min():.1f}..{series.values.max():.1f} percent")

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    panel = load_trends(root / "trends.csv")
for w in caught:
    print(f"loader warning: {w.message}")
print(f"panel keeps {panel.n_queries} queries over {panel.n_months} months")

cfg = BacktestConfig(bagging_subset_size=4, seed=1)
log = run_level0_backtest(uptake, panel, cfg, vaccine="MMR-1")
report = summarize(log, "MMR-1", seed=cfg.seed)
print()
print(f"level-0 backtest over {report.n_months} months "
      f"({report.window_start}..{report.window_end}):")
for method, value in report.rmse.items():
    marker = " <- best" if report.is_row_min[method] else ""
    print(f"  {method:8s} RMSE {value:7.3f}{marker}")
