#!/usr/bin/env python3
"""End-to-end rolling backtest on two synthetic vaccines, printed as the
publication-style Markdown tables.

Every model refits each month on all data before the predicted month; the
level-1 combiners train on the level-0 one-step predictions accumulated so
far.
"""

import time

import numpy as np

from uptakecast.backtest import BacktestConfig, run_full_experiment
from uptakecast.ingest import emit_report
from uptakecast.timeseries import MonthStamp, TimeSeries, UptakeSeries
from uptakecast.web import QueryPanel


def make_vaccine(seed, informative=0.4):
    rng = np.random.default_rng(seed)
    t = np.arange(57)  # Jan2011..Sep2015, the published evaluation span
    uptake = np.clip(
        72 + 0.15 * t + rng.uniform(6, 12) * np.sin(2 * np.pi * (t + rng.integers(12)) / 12)
        + rng.normal(0, 4, 57),
        0,
        None,
    )
    matrix = np.empty((57, 58))
    for j in range(58):
        w = rng.uniform(-0.3, 1.0) if rng.random() < informative else 0.0
        matrix[:, j] = np.clip(
            50 + w * (uptake - uptake.mean()) + rng.normal(0, 12, 57), 0, 100
        )
    start = MonthStamp(2011, 1)
    names = tuple(f"term{j:02d}" for j in range(58))
    return UptakeSeries(TimeSeries(start, uptake)), QueryPanel(start, names, matrix)


datasets = {"SYN-A": make_vaccine(1), "SYN-B": make_vaccine(2, informative=0.1)}
cfg = BacktestConfig(seed=2016)

print("running level-0 + level-1 backtests for 2 synthetic vaccines "
      "(57 months, 58 queries each)...")
start = time.perf_counter()
reports = run_full_experiment(datasets, cfg)
print(f"done in {time.perf_counter() - start:.0f}s")
print()
print(emit_report(reports, format="markdown"))
