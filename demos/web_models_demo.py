#!/usr/bin/env python3
"""Query-panel forecasting: OLS vs LASSO vs bagging vs weighted majority.

A 58-query panel where only a handful of queries carry signal. LASSO's
cross-validated penalty prunes the noise queries; bagging averages over
random 10-query subsets; the weighted-majority ensemble then learns online
which bagged members to trust.
"""

import numpy as np

from uptakecast.timeseries import MonthStamp, TimeSeries
from uptakecast.web import (
    QueryPanel,
    fit_bagging,
    fit_lasso,
    fit_web_ols,
    member_predictions,
    predict_web,
    select_lambda_cv,
    wm_init,
    wm_predict,
    wm_update,
)

rng = np.random.default_rng(3)
n_months, n_queries = 50, 58
t = np.arange(n_months)
uptake = np.clip(75 + 8 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 3, n_months), 0, None)

signal_queries = [4, 17, 30]
matrix = rng.uniform(20, 80, (n_months, n_queries))
for j in signal_queries:
    matrix[:, j] = np.clip(uptake + rng.normal(0, 2, n_months), 0, 100)
panel = QueryPanel(MonthStamp(2011, 1), tuple(f"q{j:02d}" for j in range(n_queries)), matrix)
series = TimeSeries(MonthStamp(2011, 1), uptake)

train_panel = panel.slice(panel.start, panel.start.plus(n_months - 2))
train_series = TimeSeries(series.start, uptake[:-1])
last_row = matrix[-1]
actual = uptake[-1]

print(f"panel: {n_queries} queries, signal hidden in {[f'q{j:02d}' for j in signal_queries]}")
print(f"target month actual uptake: {actual:.2f}")
print()

ols = fit_web_ols(train_panel, train_series)
print(f"OLS (minimum-norm, underdetermined): prediction {predict_web(ols, last_row):8.2f}")

lam = select_lambda_cv(train_panel, train_series)
lasso = fit_lasso(train_panel, train_series, lam)
support = [train_panel.query_names[i] for i in np.flatnonzero(lasso.alphas)]
print(f"LASSO (lambda={lam:.3f} by 3-fold CV):     prediction {predict_web(lasso, last_row):8.2f}")
print(f"  surviving queries: {support}")

bag = fit_bagging(train_panel, train_series, seed=42)
final_preds = member_predictions(bag, last_row)
print(f"Bagging ({bag.member_count} members x 10 queries): prediction "
      f"{final_preds.mean():8.2f}")

# replay the online weighted majority over the last year of history
state = wm_init(bag.member_count, eta=5.0, epsilon_tol=2.0)
for k in range(n_months - 13, n_months - 1):
    hist_panel = panel.slice(panel.start, panel.start.plus(k - 1))
    hist_series = TimeSeries(series.start, uptake[:k])
    month_bag = fit_bagging(hist_panel, hist_series, seed=100 + k)
    preds = member_predictions(month_bag, matrix[k])
    combined = wm_predict(state, preds)
    state = wm_update(state, preds, combined, uptake[k])

print(f"Weighted majority (after 12 online rounds): prediction "
      f"{wm_predict(state, final_preds):8.2f}")
down_weighted = int(np.sum(state.weights < 1.0))
print(f"  members down-weighted so far: {down_weighted}/{bag.member_count}")
