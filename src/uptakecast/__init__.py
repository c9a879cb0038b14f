"""Stacked ensemble forecasting of monthly vaccination uptake.

Level-0 forecasters run on a clinical registry series (AR, ARIMA,
Holt-Winters) and on a panel of web query frequencies (OLS, LASSO, bagging,
weighted majority); level-1 combiners (OLS, linear- and Gaussian-kernel SVR)
stack one clinical and one web prediction stream. The backtest harness
replays the rolling one-step-ahead protocol with full refits and reports
RMSE per method.
"""

from .timeseries import (
    MonthStamp,
    TimeSeries,
    UptakeSeries,
    align,
    difference,
    rmse,
)

__all__ = [
    "MonthStamp",
    "TimeSeries",
    "UptakeSeries",
    "align",
    "difference",
    "rmse",
]

__version__ = "0.1.0"
