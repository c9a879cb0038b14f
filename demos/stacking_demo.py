#!/usr/bin/env python3
"""Level-1 stacking: combine a clinical stream and a web stream three ways.

Simulates two level-0 prediction streams with complementary error patterns
and shows how the OLS, linear-SVR and Gaussian-SVR combiners weigh them.
"""

import numpy as np

from uptakecast.stacking import fit_stack_ols, fit_svr, predict_stack_ols, predict_svr
from uptakecast.timeseries import MonthStamp

rng = np.random.default_rng(5)
n = 24
truth = 70 + 10 * np.sin(2 * np.pi * np.arange(n) / 12)
clinical_stream = truth + rng.normal(2.0, 2.0, n)   # biased but tight
web_stream = truth + rng.normal(0.0, 6.0, n)        # unbiased but noisy

# One (clinical, web) row per month; the first 18 months train the combiners.
X = np.column_stack([clinical_stream, web_stream])
n_train = 18
X_train, y_train = X[:n_train], truth[:n_train]

ols = fit_stack_ols(X_train, y_train)
svr_lin = fit_svr(X_train, y_train, kernel="linear", C=1.0, eps=0.1)
svr_rbf = fit_svr(X_train, y_train, kernel="gaussian", C=1.0, eps=0.1, gamma=0.25)

print("clinical stream: bias +2, sd 2;  web stream: bias 0, sd 6")
print(f"OLS combiner: mu={ols.mu:.2f} beta_clinical={ols.beta1:.3f} beta_web={ols.beta2:.3f}")
nz = int(np.sum(svr_lin.dual_coefficients != 0))
print(f"linear SVR: {nz}/{n_train} support vectors, bias {svr_lin.bias:.2f}")
nz = int(np.sum(svr_rbf.dual_coefficients != 0))
print(f"gaussian SVR: {nz}/{n_train} support vectors, bias {svr_rbf.bias:.2f}")
print()

rows = []
for i in range(n_train, n):
    c, w = X[i]
    rows.append(
        (
            MonthStamp(2013, 1).plus(i),
            truth[i],
            c,
            w,
            predict_stack_ols(ols, c, w),
            predict_svr(svr_lin, c, w),
            predict_svr(svr_rbf, c, w),
        )
    )

print(f"{'month':8s} {'truth':>7s} {'clin':>7s} {'web':>7s} {'OLS':>7s} {'SVRlin':>7s} {'SVRrbf':>7s}")
for month, truth_v, c, w, p1, p2, p3 in rows:
    print(f"{month}  {truth_v:7.2f} {c:7.2f} {w:7.2f} {p1:7.2f} {p2:7.2f} {p3:7.2f}")

def rmse(col):
    return np.sqrt(np.mean([(r[col] - r[1]) ** 2 for r in rows]))

print()
print(f"held-out RMSE: clinical alone {rmse(2):.3f}, web alone {rmse(3):.3f}, "
      f"OLS stack {rmse(4):.3f}, SVR-linear {rmse(5):.3f}, SVR-gaussian {rmse(6):.3f}")
