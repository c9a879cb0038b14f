"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here exactly as stated; nothing is deferred to later
calibration. Criterion 9 is conditional on the historical dataset being
present (UPTAKECAST_DATA); it skips, never fakes, when the data is absent.
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from uptakecast.backtest import (
    NAIVE,
    BacktestConfig,
    run_full_experiment,
    run_level0_backtest,
    run_level1_backtest,
    summarize,
)
from uptakecast.clinical import fit_ar, fit_holt_winters, hw_filter, hw_initial_state
from uptakecast.ingest import compute_uptake, emit_report, load_cohorts, load_registry, load_trends
from uptakecast.stacking import fit_stack_ols, predict_stack_ols, solve_svr_dual
from uptakecast.timeseries import MonthStamp, TimeSeries, UptakeSeries
from uptakecast.web import QueryPanel, fit_lasso, lasso_lambda_max, wm_init, wm_predict, wm_update

from conftest import JAN2011, make_series, synth_vaccine
from oracles import (
    ar_oracle,
    lasso_grid_search,
    lasso_objective,
    ols_normal_equations,
    svr_bruteforce_dual,
    svr_dual_objective,
    svr_kkt_violation,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as err:
                print(f"[criterion {number:02d}] SKIP - {label}: {err}")
                raise
            except BaseException:
                print(f"[criterion {number:02d}] FAIL - {label}")
                raise
            print(f"[criterion {number:02d}] PASS - {label} ({time.perf_counter() - start:.1f}s)")

        return wrapper

    return decorate


@criterion(1, "AR coefficients match the normal-equations oracle at 1e-8")
def test_criterion_1_ar_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    orders = (1, 3, 12)
    for trial in range(50):
        n = int(rng.integers(30, 61))
        values = np.cumsum(rng.normal(0, 1, n)) + rng.uniform(20, 80)
        m = orders[trial % 3]
        model = fit_ar(make_series(values), m)
        mu, betas = ar_oracle(values, m)
        assert abs(model.mu - mu) < 1e-8
        assert np.max(np.abs(np.array(model.betas) - betas)) < 1e-8
    assert time.perf_counter() - start < 5.0


@criterion(2, "LASSO objective within 1e-6 of refined exhaustive grid search")
def test_criterion_2_lasso_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(25):
        n_feat = int(rng.integers(1, 4))
        rows = int(rng.integers(5, 13))
        Q = rng.uniform(0, 100, (rows, n_feat))
        y = 50 + rng.normal(0, 3, rows)
        panel = QueryPanel(JAN2011, tuple(f"q{j}" for j in range(n_feat)), Q)
        E = make_series(y)
        lam_max = lasso_lambda_max(panel, E)
        lam = float(rng.uniform(0.05, 0.9)) * lam_max
        model = fit_lasso(panel, E, lam)
        assert np.max(np.abs(model.alphas)) < 4.5  # oracle box [-5, 5] is valid
        std = Q.std(axis=0)
        Xs = (Q - Q.mean(axis=0)) / np.where(std > 0, std, 1.0)
        ours = lasso_objective(Xs, y, model.mu, model.alphas, lam)
        oracle_obj, _ = lasso_grid_search(Xs, y, lam)
        assert abs(ours - oracle_obj) < 1e-6

        model0 = fit_lasso(panel, E, 0.0)
        coef = ols_normal_equations(np.column_stack([np.ones(rows), Xs]), y)
        assert np.max(np.abs(model0.alphas - coef[1:])) < 1e-6
    assert time.perf_counter() - start < 60.0


@criterion(3, "SVR dual matches brute-force QP oracle (1e-5), KKT at 1e-4")
def test_criterion_3_svr_oracle():
    rng = np.random.default_rng(303)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        Z = rng.normal(0, 1, (n, 2))
        y = rng.normal(0, 2, n)
        C = float(rng.choice([0.5, 1.0, 2.0]))
        eps = float(rng.choice([0.0, 0.1, 0.5]))
        if trial % 2:
            K = np.exp(-0.25 * ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2))
        else:
            K = Z @ Z.T
        beta, _ = solve_svr_dual(K, y, C, eps)
        oracle = svr_bruteforce_dual(K, y, C, eps)
        assert oracle is not None
        assert abs(svr_dual_objective(K, y, beta, eps) - oracle[0]) < 1e-5
        assert svr_kkt_violation(K, y, beta, eps, C) <= 1e-4
        assert abs(beta.sum()) < 1e-8


@criterion(4, "Holt-Winters one-step RMSE < 0.5 after season two on the exact signal")
def test_criterion_4_hw_recursion_fidelity():
    t = np.arange(48)
    values = 50 + 3 * t + 10 * np.sin(2 * np.pi * t / 12)
    series = make_series(values)
    model = fit_holt_winters(series, 12)
    level, trend, seasonals = hw_initial_state(series, 12)
    preds, *_ = hw_filter(values, model.alpha, model.beta, model.gamma, 12,
                          level, trend, seasonals)
    late_rmse = float(np.sqrt(np.mean((preds[24:] - values[24:]) ** 2)))
    assert late_rmse < 0.5


@criterion(5, "protocol windows: 33 level-0 months, 21 level-1 months per method")
def test_criterion_5_protocol_fidelity():
    E, Q = synth_vaccine(505, n_months=57, n_queries=12)  # Jan2011..Sep2015
    assert E.series.end == MonthStamp(2015, 9)
    cfg = BacktestConfig(bagging_subset_size=4, seed=1)
    log0 = run_level0_backtest(E, Q, cfg, vaccine="V")
    for method in log0.methods():
        months = log0.months(method, "V")
        assert len(months) == 33
        assert months[0] == MonthStamp(2013, 1)
        assert months[-1] == MonthStamp(2015, 9)
    log1 = run_level1_backtest(log0, cfg, vaccine="V")
    assert len(log1.methods()) == 36
    for method in log1.methods():
        months = log1.months(method, "V")
        assert len(months) == 21
        assert months[0] == MonthStamp(2014, 1)
        assert months[-1] == MonthStamp(2015, 9)


@criterion(6, "no look-ahead: corrupting months after t never changes predictions at t")
def test_criterion_6_no_lookahead():
    rng = np.random.default_rng(606)
    cfg = BacktestConfig(bagging_subset_size=4, seed=9, level1_warmup_months=6)
    probes = []
    for vaccine_seed in (61, 62, 63):
        E, Q = synth_vaccine(vaccine_seed, n_months=40, n_queries=12)
        log0 = run_level0_backtest(E, Q, cfg, vaccine=f"V{vaccine_seed}")
        log1 = run_level1_backtest(log0, cfg, vaccine=f"V{vaccine_seed}")
        log = log0.merge(log1)
        level1_months = log1.months(log1.methods()[0], f"V{vaccine_seed}")
        probes.extend(
            (vaccine_seed, E, Q, log, t)
            for t in rng.choice(len(level1_months), size=4 if vaccine_seed == 61 else 3,
                                replace=False)
            .tolist()
            for t in [level1_months[t]]
        )
    assert len(probes) == 10
    for vaccine_seed, E, Q, log, t in probes:
        cut = E.series.index_of(t)
        vals = E.series.values.copy()
        vals[cut + 1 :] = rng.uniform(0, 250, vals.size - cut - 1)
        matrix = Q.matrix.copy()
        matrix[cut + 1 :] = rng.uniform(0, 100, matrix[cut + 1 :].shape)
        E2 = UptakeSeries(TimeSeries(E.series.start, vals))
        Q2 = QueryPanel(Q.start, Q.query_names, matrix)
        name = f"V{vaccine_seed}"
        log0 = run_level0_backtest(E2, Q2, cfg, vaccine=name)
        corrupted = log0.merge(run_level1_backtest(log0, cfg, vaccine=name))
        for method in log.methods():
            if t in corrupted.months(method, name):
                assert corrupted.prediction(method, t, name) == log.prediction(
                    method, t, name
                ), f"{method} at {t} changed"


@criterion(7, "OLS stack in-sample SSE never exceeds either single-stream affine fit")
def test_criterion_7_stacking_dominance():
    rng = np.random.default_rng(707)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        e_c = rng.uniform(0, 100, n)
        e_w = rng.uniform(0, 100, n)
        y = rng.uniform(0, 100, n)
        model = fit_stack_ols(np.column_stack([e_c, e_w]), y)
        preds = np.array([predict_stack_ols(model, c, w) for c, w in zip(e_c, e_w)])
        sse = float(np.sum((y - preds) ** 2))
        for stream in (e_c, e_w):
            X1 = np.column_stack([np.ones(n), stream])
            coef = np.linalg.lstsq(X1, y, rcond=None)[0]
            sse_single = float(np.sum((y - X1 @ coef) ** 2))
            assert sse <= sse_single + 1e-9


@criterion(8, "weighted majority converges to the good expert within 3 penalized rounds")
def test_criterion_8_wm_convergence():
    rng = np.random.default_rng(808)
    state = wm_init(2, eta=5.0, epsilon_tol=2.0)
    rounds_to_converge = None
    for day in range(1, 7):
        actual = 100.0
        good = actual + float(rng.uniform(-1, 1))
        bad = actual + 10.0 + float(rng.uniform(0, 5))
        combined = wm_predict(state, [good, bad])
        if abs(combined - good) <= 0.01 * abs(good) and rounds_to_converge is None:
            rounds_to_converge = day - 1  # penalized rounds completed so far
        state = wm_update(state, [good, bad], combined, actual)
    assert rounds_to_converge is not None and rounds_to_converge <= 3
    # worst-case bound: three forced penalized rounds drive the ratio to exp(-15)
    forced = wm_init(2, eta=5.0, epsilon_tol=2.0)
    for _ in range(3):
        forced = wm_update(forced, [100.0, 113.0], overall_prediction=106.0, actual=100.0)
    assert forced.weights[1] / forced.weights[0] == pytest.approx(np.exp(-15), rel=1e-12)


REFERENCE_RMSE = {
    # vaccine: (naive, hw, ar12)
    "MMR-1": (20.704, 18.149, 18.606),
    "MMR-2(4)": (20.582, 13.110, 16.566),
    "MMR-2(12)": (20.637, 19.592, 20.600),
    "HPV-1": (8.080, 11.291, 11.192),
    "HPV-2": (8.704, 12.522, 12.806),
    "HPV-3": (6.579, 9.161, 13.958),
    "DiTeKiPol-1": (14.091, 6.700, 5.185),
    "DiTeKiPol-2": (17.693, 7.520, 8.030),
    "DiTeKiPol-3": (17.884, 17.596, 20.936),
    "DiTeKiPol-4": (21.676, 26.103, 21.676),
    "PCV-1": (13.323, 6.897, 6.394),
    "PCV-2": (17.533, 7.266, 8.845),
    "PCV-3": (18.405, 7.877, 7.781),
}


@criterion(9, "published-dataset reproduction (conditional on data availability)")
def test_criterion_9_dataset_reproduction():
    data_dir = os.environ.get("UPTAKECAST_DATA", "")
    root = Path(data_dir) if data_dir else Path(__file__).resolve().parents[1] / "data"
    if not (root / "registry.csv").exists():
        pytest.skip(
            "historical dataset not present; set UPTAKECAST_DATA to a directory with "
            "registry.csv, cohorts.csv and trends_<vaccine>.csv in the documented schema"
        )
    registry = load_registry(root / "registry.csv")
    cohorts = load_cohorts(root / "cohorts.csv")
    cfg = BacktestConfig(seed=0, end_month=MonthStamp(2015, 9))
    datasets = {}
    for vaccine in REFERENCE_RMSE:
        slice_ = [r for r in registry if r.vaccine == vaccine]
        panel = load_trends(root / f"trends_{vaccine}.csv")
        datasets[vaccine] = (compute_uptake(slice_, cohorts), panel)
    logs = {}
    reports = run_full_experiment(datasets, cfg, collect_logs=logs)
    by_name = {r.vaccine: r for r in reports}
    beats_both = 0
    for vaccine, (naive_ref, hw_ref, ar_ref) in REFERENCE_RMSE.items():
        report = by_name[vaccine]
        assert report.error is None
        # Naive has zero hyperparameters: printed-precision match on either
        # candidate window, else a window-alignment bug.
        level0 = summarize(
            type(logs[vaccine])(
                tuple(e for e in logs[vaccine].entries if ":" not in e.method)
            ),
            vaccine=vaccine,
        )
        naive_candidates = {round(report.rmse[NAIVE], 3), round(level0.rmse[NAIVE], 3)}
        assert naive_ref in naive_candidates, f"{vaccine}: naive {naive_candidates} != {naive_ref}"
        for method, ref in (("HW", hw_ref), ("AR12", ar_ref)):
            closest = min(
                abs(report.rmse[method] - ref) / ref, abs(level0.rmse[method] - ref) / ref
            )
            assert closest <= 0.20, f"{vaccine} {method} off by {closest:.1%}"
        singles = [report.rmse[m] for m in ("HW", "AR12", "ARIMA", "WM", "B", "L", "O")]
        ensembles = [v for m, v in report.rmse.items() if ":" in m]
        if min(ensembles) < min(singles):
            beats_both += 1
    assert beats_both >= 7, f"ensemble beat both sources for only {beats_both}/13"


@criterion(10, "13-vaccine full backtest under 5 minutes, byte-identical reports")
def test_criterion_10_runtime_and_determinism():
    datasets = {
        f"SYN-{k:02d}": synth_vaccine(1000 + k, n_months=57, n_queries=58)
        for k in range(13)
    }
    cfg = BacktestConfig(seed=4)
    start = time.perf_counter()
    reports1 = run_full_experiment(datasets, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"full backtest took {elapsed:.0f}s"
    assert len(reports1) == 13
    assert all(r.error is None for r in reports1)
    assert all(len(r.rmse) == 44 for r in reports1)
    reports2 = run_full_experiment(datasets, cfg)
    csv1 = emit_report(reports1, format="csv")
    csv2 = emit_report(reports2, format="csv")
    assert csv1.encode() == csv2.encode()
    print(f"    full 13-vaccine backtest: {elapsed:.0f}s")
