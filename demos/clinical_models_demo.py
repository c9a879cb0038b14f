#!/usr/bin/env python3
"""Walk through the three clinical-series forecasters on a synthetic uptake signal.

Builds a trending seasonal series, fits AR / ARIMA / Holt-Winters on the first
four years, and compares their one-step predictions against the naive
baseline over the final year.
"""

import numpy as np

from uptakecast.clinical import (
    fit_ar,
    fit_arima,
    fit_holt_winters,
    predict_ar,
    predict_arima,
    predict_hw,
)
from uptakecast.timeseries import MonthStamp, TimeSeries, rmse

rng = np.random.default_rng(7)
t = np.arange(60)
uptake = 70 + 0.2 * t + 9 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 2.5, 60)
series = TimeSeries(MonthStamp(2011, 1), uptake)

print("synthetic uptake: Jan2011..Dec2015, trend +0.2/month, yearly seasonality, noise sd 2.5")
print()

predictions = {"Naive": [], "AR12": [], "ARIMA(1,1,1)": [], "HoltWinters": []}
target_months = [series.start.plus(k) for k in range(48, 60)]
for k in range(48, 60):
    history = TimeSeries(series.start, uptake[:k])
    predictions["Naive"].append(uptake[k - 1])

    ar = fit_ar(history, 12)
    predictions["AR12"].append(predict_ar(ar, uptake[k - 12 : k][::-1]))

    arima = fit_arima(history, 1, 1, 1)
    predictions["ARIMA(1,1,1)"].append(predict_arima(arima, history))

    hw = fit_holt_winters(history, 12)
    predictions["HoltWinters"].append(predict_hw(hw))

actual = TimeSeries(target_months[0], uptake[48:])
print(f"{'month':8s} {'actual':>8s} " + " ".join(f"{m:>13s}" for m in predictions))
for i, month in enumerate(target_months):
    row = " ".join(f"{predictions[m][i]:13.2f}" for m in predictions)
    print(f"{month}  {actual.values[i]:8.2f} {row}")

print()
for method, preds in predictions.items():
    err = rmse(TimeSeries(target_months[0], preds), actual)
    print(f"{method:14s} RMSE over 2015: {err:6.3f}")

hw = fit_holt_winters(TimeSeries(series.start, uptake[:48]), 12)
print()
print(f"fitted HW smoothing parameters: alpha={hw.alpha:.3f} beta={hw.beta:.3f} gamma={hw.gamma:.3f}")
print(f"final level {hw.level:.2f}, trend {hw.trend:.3f}/month")
