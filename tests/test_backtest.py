import dataclasses
import functools
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uptakecast import backtest, clinical, stacking, web
from uptakecast.backtest import (
    NAIVE,
    BacktestConfig,
    LogEntry,
    PredictionLog,
    derive_month_seed,
    naive_report_check,
    run_full_experiment,
    run_level0_backtest,
    run_level1_backtest,
    split_method,
    summarize,
)
from uptakecast.errors import EmptyLog, InsufficientHistory, SchemaError
from uptakecast.ingest import read_log_csv, write_log_csv
from uptakecast.timeseries import MonthStamp, TimeSeries, UptakeSeries
from uptakecast.web import QueryPanel

from conftest import JAN2011, synth_vaccine
from oracles import level1_reference

CFG = BacktestConfig(bagging_subset_size=4, seed=5)


@pytest.fixture(scope="module")
def level0_run():
    E, Q = synth_vaccine(11, n_months=40, n_queries=12)
    log = run_level0_backtest(E, Q, CFG, vaccine="V")
    return E, Q, log


def fabricate_level0_log(cfg, months, vaccine="V"):
    """Hand-built level-0 log with deterministic per-method patterns."""
    entries = []
    for m_idx, month in enumerate(months):
        actual = 50.0 + m_idx
        for k, method in enumerate((NAIVE, "HW", cfg.ar_method, "ARIMA", "WM", "B", "L", "O")):
            entries.append(
                LogEntry(
                    vaccine=vaccine,
                    method=method,
                    month=month,
                    predicted=actual + 0.1 * k + 0.01 * m_idx,
                    actual=actual,
                    train_start=JAN2011,
                    train_end=month.plus(-1),
                )
            )
    return PredictionLog(tuple(entries))


class TestConfig:
    def test_warmup_guard(self):
        with pytest.raises(ValueError):
            BacktestConfig(level0_warmup_months=20, hw_season_length=12)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("level1_warmup_months", 0),
            ("ar_lags", 0),
            ("bagging_subset_size", 0),
            ("arima_orders", (1, -1, 1)),
            ("level1_sliding", 0),
            ("level1_sliding", -1),
            ("hw_season_length", 0),
            ("bagging_subsets", 0),
            ("wm_eta", 0.0),
            ("wm_epsilon", 0.0),
            ("svr_cost", 0.0),
            ("svr_gamma", 0.0),
            ("svr_tube_eps", -0.1),
            ("seed", -1),
            # `not inf > 0` is False: finiteness is its own check.
            ("wm_eta", float("inf")),
            ("wm_epsilon", float("inf")),
            ("svr_cost", float("inf")),
            ("svr_gamma", float("inf")),
            ("svr_tube_eps", float("inf")),
            ("svr_cost", float("nan")),
            ("svr_tube_eps", float("nan")),
            # Accepted, each would abort every vaccine of a run with a TypeError.
            ("end_month", "2013-06"),
            ("svr_cost", "1"),
        ],
    )
    def test_field_guard(self, field, value):
        with pytest.raises(ValueError):
            BacktestConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ar_lags", 12.0),
            ("seed", 1.5),
            ("level0_warmup_months", 24.0),
            ("level1_sliding", 6.0),
            ("bagging_subsets", "3"),
            ("arima_orders", (1.0, 1, 1)),
            ("arima_orders", "aut"),
            ("arima_orders", (1, 1)),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        # Accepted, each would abort every vaccine of a run with a TypeError.
        with pytest.raises(ValueError, match="integer"):
            BacktestConfig(**{field: value})

    @pytest.mark.parametrize(
        "setting",
        [f for f in dataclasses.fields(BacktestConfig) if f.type in ("int", "int | None", "float")],
        ids=lambda f: f.name,
    )
    def test_every_count_and_real_setting_checks_its_kind(self, setting):
        # Each setting annotated as a count or a real number, so a new one
        # cannot skip its check; only an `int | None` setting may be None.
        message = "must be a real number" if setting.type == "float" else "must be an integer"
        wrong = ["1"] if setting.type == "float" else [1.5, "3"]
        if not setting.type.endswith("| None"):
            wrong.append(None)
        for value in wrong:
            with pytest.raises(ValueError, match=f"^{setting.name} {message}$"):
                BacktestConfig(**{setting.name: value})

    def test_method_order_counts(self):
        cfg = BacktestConfig()
        order = cfg.method_order()
        assert len(order) == 1 + 7 + 36
        assert order[0] == NAIVE
        assert "SVR-gaussian:ARIMA+O" in order

    @pytest.mark.parametrize("lags", [12, 3])
    def test_split_method_over_the_method_order(self, lags):
        cfg = BacktestConfig(ar_lags=lags)
        level0 = (NAIVE, "HW", f"AR{lags}", "ARIMA", "WM", "B", "L", "O")
        pairs = [f"{clin}+{wm}" for clin in ("HW", f"AR{lags}", "ARIMA")
                 for wm in ("WM", "B", "L", "O")]
        expected = [(None, m) for m in level0]
        expected += [(meta, pair) for meta in ("OLS", "SVR-linear", "SVR-gaussian")
                     for pair in pairs]
        assert [split_method(m) for m in cfg.method_order()] == expected


class TestPredictionLog:
    def test_duplicate_rejected(self):
        e = LogEntry("V", NAIVE, JAN2011, 1.0, 1.0, JAN2011, JAN2011)
        with pytest.raises(SchemaError):
            PredictionLog((e, e))

    def test_merge_and_lookup(self):
        e1 = LogEntry("V", NAIVE, JAN2011, 1.0, 1.0, JAN2011, JAN2011)
        e2 = LogEntry("V", "HW", JAN2011, 2.0, 1.0, JAN2011, JAN2011)
        log = PredictionLog((e1,)).merge(PredictionLog((e2,)))
        assert log.methods() == (NAIVE, "HW")
        assert log.prediction("HW", JAN2011, "V") == 2.0
        assert log.months("HW", "W") == ()
        with pytest.raises(KeyError):
            log.prediction("HW", JAN2011.plus(1), "V")

    def test_two_actual_values_for_one_month_rejected(self):
        e1 = LogEntry("V", NAIVE, JAN2011, 1.0, 1.0, JAN2011, JAN2011)
        e2 = LogEntry("V", "HW", JAN2011, 1.0, 2.0, JAN2011, JAN2011)
        with pytest.raises(SchemaError, match="two different actual values"):
            PredictionLog((e1, e2))
        # Another vaccine may observe another value in the same month.
        assert len(PredictionLog((e1, dataclasses.replace(e2, vaccine="W")))) == 2

    def test_nonconsecutive_months_rejected(self):
        e1 = LogEntry("V", NAIVE, JAN2011, 1.0, 1.0, JAN2011, JAN2011)
        e3 = LogEntry("V", NAIVE, JAN2011.plus(2), 1.0, 1.0, JAN2011, JAN2011)
        with pytest.raises(SchemaError, match="consecutive"):
            PredictionLog((e1, e3))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_entries_are_slotted_and_share_their_method_names(self, monkeypatch, level0_run, cpus):
        # A level-0 log holds one string per method name. A level-1 log holds
        # at most one per run of months: each worker builds its run's names.
        E, Q, _ = level0_run
        monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
        cfg = dataclasses.replace(CFG, level1_warmup_months=6)
        log0 = run_level0_backtest(E, Q, cfg, vaccine="V")
        log1 = run_level1_backtest(log0, cfg, vaccine="V")
        for log, runs in ((log0, 1), (log1, cpus)):
            assert not any(hasattr(e, "__dict__") for e in log.entries)
            names: dict[str, set[int]] = {}
            for e in log.entries:
                names.setdefault(e.method, set()).add(id(e.method))
            assert len(names) == len(log.methods())
            assert max(map(len, names.values())) <= runs


class TestLevel0:
    def test_window_calendar(self, level0_run):
        _, _, log = level0_run
        months = log.months(NAIVE, "V")
        assert len(months) == 40 - CFG.level0_warmup_months
        assert months[0] == JAN2011.plus(CFG.level0_warmup_months)
        # consecutive months, one entry per model per month
        for a, b in zip(months, months[1:]):
            assert b == a.plus(1)
        for method in ("HW", "AR12", "ARIMA", "WM", "B", "L", "O"):
            assert log.months(method, "V") == months

    def test_insufficient_history(self):
        E, Q = synth_vaccine(3, n_months=24, n_queries=12)
        with pytest.raises(InsufficientHistory):
            run_level0_backtest(E, Q, CFG)

    def test_determinism(self, level0_run):
        E, Q, log = level0_run
        again = run_level0_backtest(E, Q, CFG, vaccine="V")
        assert log.entries == again.entries

    def test_monotone_data_growth(self, level0_run):
        E, Q, log = level0_run
        extended_vals = np.append(E.series.values, 77.0)
        extended_E = UptakeSeries(TimeSeries(E.series.start, extended_vals))
        extended_Q = QueryPanel(
            Q.start, Q.query_names, np.vstack([Q.matrix, Q.matrix[-1]])
        )
        longer = run_level0_backtest(extended_E, extended_Q, CFG, vaccine="V")
        for e in log.entries:
            assert longer.prediction(e.method, e.month, "V") == e.predicted

    def test_no_lookahead_probe(self, level0_run):
        # Month t's cells, level 0 and level 1, read neither t's own uptake
        # nor anything later. Its query row is an input, so the panel is
        # corrupted after t only. The third probe is a level-1 month.
        E, Q, log0 = level0_run
        log = log0.merge(run_level1_backtest(log0, CFG, vaccine="V"))
        rng = np.random.default_rng(0)
        months = log.months(NAIVE, "V")
        for t, n_methods in ((months[2], 8), (months[10], 8), (months[13], 44)):
            cut = E.series.index_of(t)
            vals = E.series.values.copy()
            vals[cut:] = rng.uniform(0, 300, vals.size - cut)
            matrix = Q.matrix.copy()
            matrix[cut + 1 :] = rng.uniform(0, 100, matrix[cut + 1 :].shape)
            corrupted = run_level0_backtest(
                UptakeSeries(TimeSeries(E.series.start, vals)),
                QueryPanel(Q.start, Q.query_names, matrix),
                CFG,
                vaccine="V",
            )
            corrupted = corrupted.merge(run_level1_backtest(corrupted, CFG, vaccine="V"))
            expected = [(e.method, e.predicted) for e in log.entries if e.month == t]
            assert len(expected) == n_methods
            assert [(e.method, e.predicted) for e in corrupted.entries if e.month == t] == expected

    def test_seed_changes_bagging_stream(self, level0_run):
        E, Q, log = level0_run
        other = run_level0_backtest(E, Q, BacktestConfig(bagging_subset_size=4, seed=6),
                                    vaccine="V")
        months = log.months("B", "V")
        diffs = [
            abs(other.prediction("B", t, "V") - log.prediction("B", t, "V")) for t in months
        ]
        assert max(diffs) > 0

    def test_per_cell_fallback(self, level0_run):
        E, Q, log = level0_run
        first = log.months(NAIVE, "V")[0]
        # The 24-month warm-up is one month short of the 2*12+1 observations
        # AR(12) needs, so the first AR12 cell is naive; nothing else falls back.
        fallbacks = [e for e in log.entries if e.diagnostic]
        assert [(e.method, e.month) for e in fallbacks] == [("AR12", first)]
        assert fallbacks[0].diagnostic == (
            "fallback=naive (SeriesTooShort: AR(12) needs at least 25 observations, got 24)"
        )
        assert fallbacks[0].predicted == log.prediction(NAIVE, first, "V")

        # 13-query bagging subsets on a 12-query panel: only B and WM fall back.
        narrow = run_level0_backtest(
            E, Q, dataclasses.replace(CFG, bagging_subset_size=13), vaccine="V"
        )
        cells = {(e.method, e.month): e for e in log.entries}
        for e in narrow.entries:
            if e.method in ("B", "WM"):
                assert e.predicted == narrow.prediction(NAIVE, e.month, "V")
                assert e.diagnostic.startswith("fallback=naive (PanelTooNarrow: ")
            else:
                assert e == cells[(e.method, e.month)]

    def test_a_month_that_does_not_converge_falls_back_alone(self, monkeypatch, level0_run):
        # The last month's history ends in an uptake of 1e12: its L and B
        # problems are still moving at a 20-sweep limit, which every other
        # month's problems meet. A serial run merges all 16 months' LASSO
        # calls, and only the last month's L, B and WM cells fall back.
        E, Q, log = level0_run
        values = E.series.values.copy()
        values[-2] = 1e12
        E = UptakeSeries(TimeSeries(E.series.start, values))
        monkeypatch.setattr(backtest, "_usable_cpus", lambda: 1)
        before = run_level0_backtest(E, Q, CFG, vaccine="V")
        monkeypatch.setattr(web, "CD_MAX_SWEEPS", 20)
        after = run_level0_backtest(E, Q, CFG, vaccine="V")
        last = log.months(NAIVE, "V")[-1]
        failing = {("L", last), ("B", last), ("WM", last)}
        for old, new in zip(before.entries, after.entries, strict=True):
            if (new.method, new.month) in failing:
                assert new.diagnostic == (
                    "fallback=naive (NonConvergence: coordinate descent exceeded 20 sweeps)"
                )
                assert new.predicted == after.prediction(NAIVE, last, "V")
            else:
                assert new == old

    def test_non_finite_forecast_falls_back(self):
        values, notes = backtest._fit_each(
            {
                "nan": lambda: np.nan,
                "inf": lambda: -np.inf,
                "members": lambda: np.array([1.0, np.nan]),
                "ok": lambda: 3.0,
            },
            7.0,
        )
        assert values == {"nan": 7.0, "inf": 7.0, "members": 7.0, "ok": 3.0}
        assert notes == dict.fromkeys(
            ("nan", "inf", "members"), "fallback=naive (non-finite forecast)"
        )

    def test_month_seed_independent_of_length(self):
        assert derive_month_seed(5, MonthStamp(2013, 4)) == derive_month_seed(
            5, MonthStamp(2013, 4)
        )
        assert derive_month_seed(5, MonthStamp(2013, 4)) != derive_month_seed(
            5, MonthStamp(2013, 5)
        )


class TestLevel1:
    def test_methods_and_window(self):
        cfg = BacktestConfig(seed=1)
        months = tuple(MonthStamp(2013, 1).plus(k) for k in range(20))
        log0 = fabricate_level0_log(cfg, months)
        log1 = run_level1_backtest(log0, cfg, vaccine="V")
        assert len(log1.methods()) == 36
        for method in log1.methods():
            months1 = log1.months(method, "V")
            assert len(months1) == 20 - cfg.level1_warmup_months
            assert months1[0] == MonthStamp(2014, 1)

    def test_growing_vs_sliding_window(self):
        months = tuple(MonthStamp(2013, 1).plus(k) for k in range(20))
        grow = run_level1_backtest(fabricate_level0_log(BacktestConfig(), months),
                                   BacktestConfig(), vaccine="V")
        slide = run_level1_backtest(fabricate_level0_log(BacktestConfig(), months),
                                    BacktestConfig(level1_sliding=12), vaccine="V")
        last = grow.months(grow.methods()[0], "V")[-1]
        g = next(e for e in grow.entries if e.month == last)
        s = next(e for e in slide.entries if e.month == last)
        assert g.train_start == months[0]
        assert s.train_start == months[7]  # 19 - 12

    def test_missing_level0_cell_raises(self):
        # Level 1 reads every level-0 method on the Naive months; a log with a
        # hole is malformed input, not a month to skip.
        cfg = BacktestConfig()
        months = tuple(MonthStamp(2013, 1).plus(k) for k in range(20))
        full = fabricate_level0_log(cfg, months)
        log0 = PredictionLog(
            tuple(e for e in full.entries if not (e.method == "B" and e.month == months[-1]))
        )
        with pytest.raises(KeyError) as info:
            run_level1_backtest(log0, cfg, vaccine="V")
        assert info.value.args[0] == ("B", months[-1], "V")

    def test_a_log_out_of_month_order_gives_the_same_level1_log(self, level0_run):
        # Level 1 trains on the months before each target in time order, not
        # in the order the log holds them.
        _, _, log0 = level0_run
        in_order = write_log_csv(run_level1_backtest(log0, CFG, vaccine="V"))
        reversed_log = PredictionLog(log0.entries[::-1])
        assert write_log_csv(run_level1_backtest(reversed_log, CFG, vaccine="V")) == in_order

    def test_a_chunk_settles_every_cell_before_its_error(self, level0_run):
        # A NaN HW prediction in month 14 is month 15's training sample, which
        # no stack accepts, so a chunk that holds month 15 raises its error.
        # Without it, the cells are the cells each month gets alone, SVR fits
        # included.
        _, _, log0 = level0_run
        _, streams, actuals = backtest.level0_streams(log0, "V", CFG)
        streams = dict(streams, HW=streams["HW"].copy())
        streams["HW"][14] = np.nan
        with pytest.raises(ValueError, match="^stack sample values must be finite$"):
            backtest.level1_chunk(streams, actuals, [12, 13, 14, 15], CFG)
        cells = backtest.level1_chunk(streams, actuals, [12, 13, 14], CFG)
        assert cells == [backtest.level1_chunk(streams, actuals, [idx], CFG)[0]
                         for idx in [12, 13, 14]]
        assert "SVR-linear:HW+WM" not in cells[0][1]  # fitted, not a fallback

    def test_insufficient_history(self):
        cfg = BacktestConfig()
        months = (MonthStamp(2013, 1),)
        log0 = fabricate_level0_log(cfg, months)
        with pytest.raises(InsufficientHistory):
            run_level1_backtest(log0, cfg, vaccine="V")


class TestLevel1Reference:
    """The level-1 harness equals `oracles.level1_reference`, the protocol run
    one month and one model at a time."""

    @pytest.fixture(scope="class")
    def log0(self):
        E, Q = synth_vaccine(61, n_months=40, n_queries=12)
        return run_level0_backtest(E, Q, CFG, vaccine="V")

    @pytest.mark.parametrize("sliding", [None, 8, 1])
    def test_equals_the_reference(self, monkeypatch, log0, sliding):
        cfg = dataclasses.replace(CFG, level1_warmup_months=6, level1_sliding=sliding)
        expected = level1_reference(log0, cfg, "V")
        assert len(expected) == 10 * 36
        for cpus in (1, 2):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            assert list(run_level1_backtest(log0, cfg, vaccine="V").entries) == expected

    def test_a_kernel_that_does_not_converge_falls_back_alone(self, monkeypatch, log0):
        # A limit of 40 pairwise steps stops six SVR-linear fits here, and the
        # SVR-gaussian fit of each of those stream pairs converges. Which fits
        # reach the limit turns on the last bits of the level-0 predictions,
        # and those differ between BLAS kernels (OpenBLAS's Haswell and
        # SkylakeX, say); rounded to 6 decimals, they do not.
        log0 = PredictionLog(
            tuple(dataclasses.replace(e, predicted=round(e.predicted, 6)) for e in log0.entries)
        )
        monkeypatch.setattr(stacking, "_SVR_MAX_STEPS", 40)
        cfg = dataclasses.replace(CFG, level1_warmup_months=6)
        expected = level1_reference(log0, cfg, "V")
        notes = {(e.month, e.method): e.diagnostic for e in expected}
        stopped = [cell for cell, note in notes.items() if "SVR solver exceeded 40" in note]
        assert len(stopped) == 6
        other = {"SVR-linear": "SVR-gaussian", "SVR-gaussian": "SVR-linear"}
        for month, method in stopped:
            meta, pair = method.split(":")
            assert notes[(month, f"{other[meta]}:{pair}")] == ""
        for cpus in (1, 2):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            assert list(run_level1_backtest(log0, cfg, vaccine="V").entries) == expected


class TestMonthPool:
    """The months of a backtest fitted in worker processes match a serial run."""

    @staticmethod
    def run(cpus, monkeypatch, E, Q, cfg):
        monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
        log0 = run_level0_backtest(E, Q, cfg, vaccine="V")
        log1 = run_level1_backtest(log0, cfg, vaccine="V")
        return write_log_csv(log0.merge(log1))

    @pytest.mark.parametrize(
        "seed, n_queries, options",
        [(11, 12, {"level1_sliding": 12}), (3, 14, {"arima_orders": "auto"})],
    )
    def test_parallel_equals_serial(self, monkeypatch, seed, n_queries, options):
        E, Q = synth_vaccine(seed, n_months=40, n_queries=n_queries)
        cfg = BacktestConfig(seed=4, **options)
        serial_log = self.run(1, monkeypatch, E, Q, cfg)
        pooled_log = self.run(max(2, backtest._usable_cpus()), monkeypatch, E, Q, cfg)
        assert pooled_log == serial_log
        assert_no_child()

    def test_worker_error_is_the_serial_error(self, monkeypatch):
        cfg = BacktestConfig()
        months = tuple(MonthStamp(2013, 1).plus(k) for k in range(16))
        entries = list(fabricate_level0_log(cfg, months).entries)
        i = next(i for i, e in enumerate(entries) if e.method == "HW" and e.month == months[13])
        entries[i] = dataclasses.replace(entries[i], predicted=np.nan)
        log0 = PredictionLog(tuple(entries))
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            with pytest.raises(ValueError) as info:
                run_level1_backtest(log0, cfg, vaccine="V")
            errors.append(str(info.value))
            assert_no_child()
        assert errors[0] == errors[1] == "stack sample values must be finite"

    def test_the_earliest_failing_month_over_the_chunks_is_raised(self, monkeypatch):
        # Level 1 has months 12..19, a window of idx months each. On 2 CPUs
        # the runs are 12-15 and 16-19; on 3, 12-14, 15-16 and 17-19. The
        # two failing months end one run and start the next, so the later
        # run's worker reaches its failure first. A serial run raises the
        # earlier month's error, and so must the pooled one.
        months = tuple(MonthStamp(2013, 1).plus(k) for k in range(20))
        log0 = fabricate_level0_log(BacktestConfig(), months)
        fit = stacking.fit_stack_ols
        failing, runs = (), []

        def failing_fit(X, y):
            if len(y) in failing:
                raise ValueError(f"window of {len(y)}")
            return fit(X, y)

        monkeypatch.setattr(stacking, "fit_stack_ols", failing_fit)
        monkeypatch.setattr(backtest, "_runs", recording_runs(runs))
        split = {1: [12, 20], 2: [12, 16, 20], 3: [12, 15, 17, 20]}
        for cpus, failing in ((1, (15, 16)), (2, (15, 16)), (3, (14, 15))):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            with pytest.raises(ValueError, match=f"^window of {failing[0]}$"):
                run_level1_backtest(log0, BacktestConfig(), vaccine="V")
            bounds = split[cpus]
            assert runs.pop() == [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
            assert_no_child()

    def test_runs_cover_the_months_in_order(self, monkeypatch, level0_run):
        # With a one-month warm-up, level 1 has months 1..15 and windows of
        # 1..15 months. On 15 CPUs the windows of 9 months and more each
        # outweigh a fifteenth of the total (8), so three pairs of cuts
        # coincide and their three empty runs are dropped.
        # The runs are fitted in-process here; test_pool_size forks them.
        _, _, log0 = level0_run
        cfg = dataclasses.replace(CFG, level1_warmup_months=1)
        runs = []
        monkeypatch.setattr(backtest, "_runs", recording_runs(runs))
        monkeypatch.delattr(os, "fork")
        logs = []
        for cpus in (1, 2, 3, 15):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            logs.append(write_log_csv(run_level1_backtest(log0, cfg, vaccine="V")))
        assert [len(r) for r in runs] == [1, 2, 3, 12]
        for chunks in runs:
            assert all(chunks)
            assert [idx for run in chunks for idx in run] == list(range(1, 16))
        assert logs[1] == logs[0] and logs[2] == logs[0] and logs[3] == logs[0]

    def test_level0_runs_cover_the_months_in_order(self, monkeypatch, level0_run):
        # Level 0 has months 24..39, each costing k + 40 (its history plus
        # the series length). 1, 2, 3 and 15 CPUs cut them into that many
        # runs, and every cut gives the same log bytes.
        # The runs are fitted in-process here; test_pool_size forks them.
        E, Q, log0 = level0_run
        runs = []
        monkeypatch.setattr(backtest, "_runs", recording_runs(runs))
        monkeypatch.delattr(os, "fork")
        logs = []
        for cpus in (1, 2, 3, 15):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            logs.append(write_log_csv(run_level0_backtest(E, Q, CFG, vaccine="V")))
        assert [len(r) for r in runs] == [1, 2, 3, 15]
        for chunks in runs:
            assert all(chunks)
            assert [k for run in chunks for k in run] == list(range(24, 40))
        assert logs == [write_log_csv(log0)] * 4

    def test_a_month_alone_equals_its_cell_in_a_run(self, level0_run):
        # predict's target month is fitted in a run of its own when it is the
        # only month; in a backtest each month shares its run's merged calls.
        E, Q, _ = level0_run
        panel, series = backtest.aligned_history(E, Q, CFG)
        ks = range(CFG.level0_warmup_months, len(series))
        for k, (preds, notes, members) in zip(ks, backtest.level0_chunk(series, panel, ks, CFG)):
            alone, alone_notes, alone_members = backtest.level0_chunk(series, panel, [k], CFG)[0]
            assert alone == preds and alone_notes == notes
            assert alone_members.tobytes() == members.tobytes()

    def test_the_earliest_failing_level0_month_over_the_runs_is_raised(
        self, monkeypatch, level0_run
    ):
        # Level 0 has months 24..39, each costing k + 40. On 2 CPUs the runs
        # are 24-31 and 32-39; on 3, 24-28, 29-34 and 35-39. The two months
        # whose Holt-Winters fit raises an error that is not a model failure
        # end one run and start the next, so the later run's worker reaches
        # its failure first. A serial run raises the earlier month's error,
        # and so must the pooled one.
        E, Q, _ = level0_run
        fit = clinical.fit_holt_winters
        failing, runs = (), []

        def failing_fit(hist, season_length):
            if len(hist) in failing:
                raise RuntimeError(f"history of {len(hist)}")
            return fit(hist, season_length)

        monkeypatch.setattr(clinical, "fit_holt_winters", failing_fit)
        monkeypatch.setattr(backtest, "_runs", recording_runs(runs))
        split = {1: [24, 40], 2: [24, 32, 40], 3: [24, 29, 35, 40]}
        for cpus, failing in ((1, (31, 32)), (2, (31, 32)), (3, (28, 29))):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            with pytest.raises(RuntimeError, match=f"^history of {failing[0]}$"):
                run_level0_backtest(E, Q, CFG, vaccine="V")
            bounds = split[cpus]
            assert runs.pop() == [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
            assert_no_child()

    @pytest.mark.parametrize("sliding", [None, 6])
    def test_chunks_equal_one_month_at_a_time(self, monkeypatch, level0_run, sliding):
        # One chunk, two and three chunks, and predict's path (one month at a
        # time: the log cut after the month, its warm-up ending there) give
        # the same log bytes. 16 level-0 months
        # leave 4 level-1 months, 96 SVR duals: one chunk refills its 48
        # slots, two chunks of 48 duals drain into a tail, and chunks of one
        # month (24 duals) run the sequential loop throughout.
        _, _, log0 = level0_run
        cfg = dataclasses.replace(CFG, level1_sliding=sliding)
        logs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            logs.append(write_log_csv(run_level1_backtest(log0, cfg, vaccine="V")))
        months = log0.months(NAIVE, "V")
        entries = []
        for idx in range(cfg.level1_warmup_months, len(months)):
            cut = PredictionLog(tuple(e for e in log0.entries if e.month <= months[idx]))
            warmup = dataclasses.replace(cfg, level1_warmup_months=idx)
            entries += run_level1_backtest(cut, warmup, vaccine="V").entries
        logs.append(write_log_csv(PredictionLog(tuple(entries))))
        assert logs[0].count("\n") > 4 * 36
        assert logs[1] == logs[0] and logs[2] == logs[0] and logs[3] == logs[0]

    def test_a_one_month_window_falls_back_in_every_cell(self, monkeypatch, level0_run):
        # One sample per window fails every stack's input checks, so no SVR
        # problem reaches the solver.
        _, _, log0 = level0_run
        cfg = dataclasses.replace(CFG, level1_sliding=1)
        solve, batches = stacking.solve_svr_duals, []

        def recording(problems, C, eps):
            batches.append(len(problems))
            return solve(problems, C, eps)

        monkeypatch.setattr(stacking, "solve_svr_duals", recording)
        logs = []
        for cpus in (1, 2):
            monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
            logs.append(run_level1_backtest(log0, cfg, vaccine="V"))
        assert not any(batches)
        assert write_log_csv(logs[1]) == write_log_csv(logs[0])
        assert len(logs[0].entries) == 4 * 36
        for e in logs[0].entries:
            assert e.diagnostic.startswith("fallback=naive (TooFewSamples: need at least ")
            assert e.diagnostic.endswith(" stack samples, got 1)")
            assert e.predicted == log0.prediction(NAIVE, e.month, "V")

    def test_a_serial_backtest_imports_no_numpy_ma(self):
        # A module the parent process has not imported is imported again in
        # every forked worker, and np.unique and np.setdiff1d import numpy.ma.
        # In one process the backtest imports what its workers would.
        code = (
            "import sys\n"
            "from conftest import synth_vaccine\n"
            "from uptakecast import backtest\n"
            "backtest._usable_cpus = lambda: 1\n"
            "cfg = backtest.BacktestConfig(bagging_subset_size=4)\n"
            "print('numpy.ma' in sys.modules)\n"
            "log0 = backtest.run_level0_backtest(*synth_vaccine(11, 40, 12), cfg)\n"
            "log1 = backtest.run_level1_backtest(log0, cfg, 'series')\n"
            "print(len(log0), len(log1), 'numpy.ma' in sys.modules)\n"
        )
        assert run_python(code) == "False\n128 144 False\n"

    @pytest.mark.parametrize(
        "cpus, n_months, n_runs",
        [(1, 5, 1), (2, 1, 1), (2, 5, 2), (8, 3, 3), (15, 15, 12)],
        ids=["1-5", "2-1", "2-5", "8-3", "15-15"],
    )
    def test_pool_size(self, monkeypatch, cpus, n_months, n_runs):
        # One fork per run, none for a single run. Month k costs k, as a
        # level-1 month does with a one-month warm-up and a growing window,
        # so 15 months make 12 runs on 15 CPUs.
        fork, forks, runs = os.fork, [], []

        def counting():
            forks.append(1)
            return fork()

        monkeypatch.setattr(backtest, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(backtest, "_runs", recording_runs(runs))
        monkeypatch.setattr(os, "fork", counting)
        months = range(1, n_months + 1)
        assert backtest._map_runs(_months_of, months, months) == list(months)
        assert len(runs.pop()) == n_runs
        assert len(forks) == (0 if n_runs == 1 else n_runs)
        assert_no_child()

    def test_a_killed_worker_raises_and_leaves_no_child(self, monkeypatch):
        # Months 0..2 on 2 CPUs make the runs 0 and 1..2. The first run that
        # failed or lost its worker, in month order, decides the error.
        monkeypatch.setattr(backtest, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match=r"^the worker of months 1\.\.2 ended without a result"):
            backtest._map_runs(functools.partial(_months_of, killed=1), range(3), [1, 1, 1])
        assert_no_child()
        with pytest.raises(RuntimeError, match=r"^the worker of months 0\.\.0 ended without a result"):
            backtest._map_runs(functools.partial(_months_of, failing={2}, killed=0), range(3),
                               [1, 1, 1])
        assert_no_child()

    def test_an_earlier_runs_error_wins_over_a_later_killed_worker(self, monkeypatch):
        # Run 0's month fails and run 1's worker is killed: a serial run
        # raises month 0's error and never reaches the later run.
        monkeypatch.setattr(backtest, "_usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="^month 0$"):
            backtest._map_runs(functools.partial(_months_of, failing={0}, killed=2), range(3),
                               [1, 1, 1])
        assert_no_child()

    def test_an_interrupted_map_kills_and_reaps_its_workers(self, monkeypatch):
        # The parent is interrupted while it waits for two workers that would
        # sleep for a minute: it kills them and re-raises at once.
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(backtest, "_usable_cpus", lambda: 2)
        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                backtest._map_runs(functools.partial(_months_of, sleep=60), range(2), [1, 1])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30
        assert_no_child()

    def test_a_pooled_backtest_leaves_no_thread_executor_or_child(self):
        # The map forks its workers itself: no executor module is imported,
        # no thread is started and every child is reaped.
        code = (
            "import os, sys, threading\n"
            "from conftest import synth_vaccine\n"
            "from uptakecast import backtest\n"
            "backtest._usable_cpus = lambda: 2\n"
            "cfg = backtest.BacktestConfig(bagging_subset_size=4)\n"
            "log0 = backtest.run_level0_backtest(*synth_vaccine(11, 40, 12), cfg)\n"
            "log1 = backtest.run_level1_backtest(log0, cfg, 'series')\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child')\n"
            "print(len(log0), len(log1), threading.active_count(),\n"
            "      [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
        )
        assert run_python(code) == "no child\n128 144 1 []\n"


def _months_of(run, failing=(), killed=None, sleep=0):
    """A chunk for `backtest._map_runs`: the months of ``run``. Month
    ``killed`` kills its process, a month in ``failing`` raises an error, and
    each month sleeps ``sleep`` seconds first."""
    for k in run:
        time.sleep(sleep)
        if k == killed:
            os.kill(os.getpid(), signal.SIGKILL)
        if k in failing:
            raise ValueError(f"month {k}")
    return list(run)


def recording_runs(runs):
    """`backtest._runs`, appending each cut it makes to ``runs`` as lists of months."""
    cut = backtest._runs

    def recording(targets, costs):
        made = cut(targets, costs)
        runs.append([list(run) for run in made])
        return made

    return recording


def run_python(code):
    """stdout of ``code`` run by a new interpreter that imports the package
    from ``src/`` and the test helpers from ``tests/``; it must exit 0."""
    tests = Path(__file__).resolve().parent
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSummarize:
    def test_perfect_predictions(self):
        months = tuple(MonthStamp(2013, 1).plus(k) for k in range(5))
        entries = []
        for m_idx, month in enumerate(months):
            for method in (NAIVE, "HW"):
                entries.append(
                    LogEntry("V", method, month, 50.0 + m_idx, 50.0 + m_idx,
                             JAN2011, month.plus(-1))
                )
        report = summarize(PredictionLog(tuple(entries)), "V")
        assert all(v == 0 for v in report.rmse.values())
        assert all(report.is_row_min.values())

    def test_direct_arithmetic(self):
        months = (MonthStamp(2013, 1), MonthStamp(2013, 2))
        entries = [
            LogEntry("V", "only", months[0], 0.0, 4.0, JAN2011, months[0].plus(-1)),
            LogEntry("V", "only", months[1], 3.0, 3.0, JAN2011, months[1].plus(-1)),
        ]
        report = summarize(PredictionLog(tuple(entries)), "V")
        assert report.rmse["only"] == pytest.approx(np.sqrt(8), abs=1e-9)
        assert report.is_row_min["only"]

    def test_window_is_method_intersection(self, level0_run):
        _, _, log = level0_run
        # drop the first three months of one method; everyone is then scored
        # over the shortened common window
        trimmed = PredictionLog(
            tuple(
                e
                for e in log.entries
                if not (e.method == "HW" and e.month < log.months("HW", "V")[3])
            )
        )
        report = summarize(trimmed, "V")
        assert report.n_months == len(log.months(NAIVE, "V")) - 3
        assert report.window_start == log.months("HW", "V")[3]
        # one method loses its first months and another its last ones: the
        # window is the middle, which neither cell alone gives
        hw, o = log.months("HW", "V"), log.months("O", "V")
        ragged = PredictionLog(
            tuple(
                e
                for e in log.entries
                if not (e.method == "HW" and e.month < hw[3] or e.method == "O" and e.month > o[-3])
            )
        )
        report = summarize(ragged, "V")
        assert report.n_months == len(log.months(NAIVE, "V")) - 5
        assert (report.window_start, report.window_end) == (hw[3], o[-3])

    def test_naive_column_matches_independent_shift(self, level0_run):
        E, _, log = level0_run
        report = summarize(log, "V")
        assert report.rmse[NAIVE] == pytest.approx(naive_report_check(E, report), abs=1e-12)

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            summarize(PredictionLog(()), "V")

    def test_beats_naive_markers(self, level0_run):
        _, _, log = level0_run
        report = summarize(log, "V")
        assert report.beats_naive[NAIVE] is False
        for method, value in report.rmse.items():
            if method != NAIVE:
                assert report.beats_naive[method] == (value < report.rmse[NAIVE])
        best = min(report.rmse.values())
        for method, value in report.rmse.items():
            assert report.is_row_min[method] == (value == best)


@st.composite
def small_logs(draw):
    """A shuffled log of 1-2 vaccines, each with 1-3 methods over 1-6
    contiguous months and one actual value per month."""
    predicted = st.floats(-1e3, 1e3)
    methods = st.lists(
        st.sampled_from([NAIVE, "HW", "AR12", "L", "OLS:HW+L", "SVR-gaussian:AR12+WM"]),
        min_size=1, max_size=3, unique=True,
    )
    entries = []
    for vaccine in ("V", "W")[: draw(st.integers(1, 2))]:
        start = JAN2011.plus(draw(st.integers(0, 24)))
        names = draw(methods)
        for k in range(draw(st.integers(1, 6))):
            month, actual = start.plus(k), draw(st.floats(0.0, 1e3))
            entries += [
                LogEntry(vaccine, m, month, draw(predicted), actual, JAN2011, month.plus(-1))
                for m in names
            ]
    return PredictionLog(tuple(draw(st.permutations(entries))))


class TestSummarizeProperties:
    @settings(max_examples=100, deadline=None)
    @given(log=small_logs())
    def test_csv_round_trip_keeps_every_rmse(self, log):
        # A tempfile, not tmp_path: a function-scoped fixture is set up once
        # for all the examples @given draws.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "V.log.csv"
            path.write_text(write_log_csv(log), encoding="utf-8")
            reloaded = read_log_csv(path)
        for vaccine in log.vaccines():
            before, after = summarize(log, vaccine), summarize(reloaded, vaccine)
            assert list(after.rmse.items()) == list(before.rmse.items())

    @settings(max_examples=100, deadline=None)
    @given(log=small_logs())
    def test_vaccine_report_ignores_other_vaccines(self, log):
        for vaccine in log.vaccines():
            alone = PredictionLog(tuple(e for e in log.entries if e.vaccine == vaccine))
            report, expected = summarize(log, vaccine), summarize(alone, vaccine)
            assert report == expected
            assert list(report.rmse.items()) == list(expected.rmse.items())


class TestFullExperiment:
    def test_ar_beats_naive_on_ar_process(self):
        rng = np.random.default_rng(21)
        vals = [60.0]
        for _ in range(56):
            vals.append(144 - 0.8 * vals[-1] + rng.normal(0, 0.01))
        E = UptakeSeries(TimeSeries(JAN2011, np.array(vals)))
        Q = QueryPanel(
            JAN2011,
            tuple(f"q{j}" for j in range(8)),
            rng.uniform(0, 100, (57, 8)),
        )
        cfg = BacktestConfig(bagging_subset_size=4, seed=1)
        reports = run_full_experiment({"AR1": (E, Q)}, cfg)
        assert len(reports) == 1
        report = reports[0]
        assert report.error is None
        assert report.rmse["AR12"] < report.rmse[NAIVE]

    def test_sibling_failure_isolated(self):
        good_E, good_Q = synth_vaccine(30, n_months=40, n_queries=12)
        short_E, short_Q = synth_vaccine(31, n_months=20, n_queries=12)
        reports = run_full_experiment(
            {"bad": (short_E, short_Q), "good": (good_E, good_Q)}, CFG
        )
        by_name = {r.vaccine: r for r in reports}
        assert by_name["bad"].error is not None
        assert by_name["good"].error is None
        assert by_name["good"].rmse

    def test_end_month_before_window_isolated(self):
        early = synth_vaccine(32, n_months=40, n_queries=12)
        late = synth_vaccine(33, n_months=40, n_queries=12, start=JAN2011.plus(39))
        cfg = dataclasses.replace(CFG, end_month=JAN2011.plus(38))
        reports = run_full_experiment({"late": late, "early": early}, cfg)
        by_name = {r.vaccine: r for r in reports}
        assert by_name["late"].error.startswith("InsufficientHistory: end_month")
        assert by_name["early"].error is None
        assert by_name["early"].window_end == JAN2011.plus(38)

    def test_a_panel_and_series_without_a_shared_month_isolated(self):
        E, _ = synth_vaccine(34, n_months=40, n_queries=12)
        _, Q = synth_vaccine(34, n_months=40, n_queries=12, start=JAN2011.plus(40))
        reports = run_full_experiment({"disjoint": (E, Q), "good": synth_vaccine(35, 40, 12)}, CFG)
        by_name = {r.vaccine: r for r in reports}
        assert by_name["disjoint"].error == (
            "EmptyOverlap: no shared months between 2014-05..2017-08 and 2011-01..2014-04"
        )
        assert by_name["good"].error is None and by_name["good"].rmse

    def test_wm_weight_underflow_is_not_an_error(self):
        # eta=100 takes a member's weight below the smallest float after a
        # few misses.
        E, Q = synth_vaccine(11, n_months=40, n_queries=12)
        cfg = dataclasses.replace(CFG, wm_eta=100.0)
        (report,) = run_full_experiment({"V": (E, Q)}, cfg)
        assert report.error is None
        assert np.isfinite(report.rmse["WM"])

    def test_empty_datasets(self):
        with pytest.raises(ValueError):
            run_full_experiment({}, CFG)
