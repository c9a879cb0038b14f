"""Rolling one-step-ahead backtest: full refit each month, warm-up schedules,
all single-source methods, all ensemble combinations, RMSE reporting.

Vaccines are processed independently. Within one vaccine each month's fits
depend only on the data before that month, so the months are fitted in worker
processes across the usable CPUs; only the weighted-majority weights thread
through the months, in month order, in the calling process. Every model
failure or non-finite forecast is caught per cell, replaced by the naive
prediction and flagged in the entry diagnostics, so one bad window never
aborts a sweep.

``predict`` forecasts the month after the data as the backtest's next month:
one more month of `run_level0_backtest`, then its one `level1_step`.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import clinical, stacking, web
from .errors import EmptyLog, InsufficientHistory, SchemaError, UptakecastError
from .timeseries import MonthStamp, TimeSeries, UptakeSeries, align, rmse

NAIVE = "Naive"
# Model failures that get a per-cell naive fallback instead of aborting a run.
FIT_ERRORS = (UptakecastError, np.linalg.LinAlgError)
WEB_METHODS = ("WM", "B", "L", "O")
META_MODELS = ("OLS", "SVR-linear", "SVR-gaussian")


@dataclass(frozen=True)
class BacktestConfig:
    """Protocol constants; defaults follow the published evaluation setup."""

    level0_warmup_months: int = 24
    level1_warmup_months: int = 12
    ar_lags: int = 12
    arima_orders: tuple[int, int, int] | str = (1, 1, 1)  # or "auto" for the AIC grid
    hw_season_length: int = 12
    bagging_subset_size: int = 10
    bagging_subsets: int | None = None  # None: one subset per panel query
    wm_eta: float = 5.0
    wm_epsilon: float = 2.0
    svr_cost: float = 1.0
    svr_tube_eps: float = 0.1
    svr_gamma: float = 0.25
    seed: int = 0
    end_month: MonthStamp | None = None
    level1_sliding: int | None = None  # None: growing window

    def __post_init__(self):
        # Reject here every value a fit would reject mid-sweep, where the
        # error would abort the run for every vaccine. `bagging_subsets` and
        # `level1_sliding` may be None. A count is what `operator.index`
        # takes, a float setting what `math.isfinite` takes. An infinite
        # setting passes the range checks below (`not inf > 0` is False), so
        # finiteness comes first.
        for name in ("level0_warmup_months", "level1_warmup_months", "ar_lags", "hw_season_length",
                     "bagging_subset_size", "bagging_subsets", "seed", "level1_sliding"):
            value = getattr(self, name)
            try:
                operator.index(0 if value is None else value)
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        for name in ("wm_eta", "wm_epsilon", "svr_cost", "svr_tube_eps", "svr_gamma"):
            try:
                finite = math.isfinite(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be a real number") from None
            if not finite:
                raise ValueError(f"{name} must be finite")
        if not (self.end_month is None or isinstance(self.end_month, MonthStamp)):
            raise ValueError("end_month must be a MonthStamp or None")
        for name in (
            "level1_warmup_months",
            "ar_lags",
            "hw_season_length",
            "bagging_subset_size",
            "bagging_subsets",
            "level1_sliding",
            "wm_eta",
            "wm_epsilon",
            "svr_cost",
            "svr_gamma",
        ):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("svr_tube_eps", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if self.level0_warmup_months < 2 * self.hw_season_length:
            raise ValueError(
                "level0_warmup_months must cover two Holt-Winters seasons "
                f"({2 * self.hw_season_length}), got {self.level0_warmup_months}"
            )
        if self.arima_orders != "auto":
            try:
                p, d, q = map(operator.index, self.arima_orders)
            except (TypeError, ValueError):
                raise ValueError('arima_orders must be "auto" or three integers') from None
            if min(p, d, q) < 0:
                raise ValueError("arima orders must be >= 0")

    @property
    def ar_method(self) -> str:
        return f"AR{self.ar_lags}"

    def clinical_methods(self) -> tuple[str, ...]:
        return ("HW", self.ar_method, "ARIMA")

    def ensemble_methods(self) -> tuple[str, ...]:
        return tuple(
            f"{meta}:{clin}+{wm}"
            for meta in META_MODELS
            for clin in self.clinical_methods()
            for wm in WEB_METHODS
        )

    def method_order(self) -> tuple[str, ...]:
        return (NAIVE,) + self.clinical_methods() + WEB_METHODS + self.ensemble_methods()


@dataclass(frozen=True)
class LogEntry:
    vaccine: str
    method: str
    month: MonthStamp
    predicted: float
    actual: float
    train_start: MonthStamp
    train_end: MonthStamp
    diagnostic: str = ""


@dataclass(frozen=True)
class PredictionLog:
    """Per (vaccine, method, month) predictions with training-window bounds.

    ``cells`` indexes the entries as (vaccine, method) -> {month: entry}, keys
    and months in entry order; every lookup reads it. Every entry of one
    (vaccine, month) carries the same observed ``actual`` value, so the log is
    the one record that reports and level 1 score against.
    """

    entries: tuple[LogEntry, ...]
    cells: dict[tuple[str, str], dict[MonthStamp, LogEntry]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        cells: dict[tuple[str, str], dict[MonthStamp, LogEntry]] = {}
        actuals: dict[tuple[str, MonthStamp], float] = {}
        for e in self.entries:
            cell = cells.setdefault((e.vaccine, e.method), {})
            if e.month in cell:
                raise SchemaError(f"duplicate log entry for ({e.vaccine}, {e.method})")
            if actuals.setdefault((e.vaccine, e.month), e.actual) != e.actual:
                raise SchemaError(f"({e.vaccine}, {e.month}) has two different actual values")
            cell[e.month] = e
        for (vaccine, method), cell in cells.items():
            idx = [m.to_index() for m in cell]
            if max(idx) - min(idx) + 1 != len(idx):
                raise SchemaError(f"({vaccine}, {method}) predictions are not consecutive months")
        object.__setattr__(self, "cells", cells)

    def __len__(self) -> int:
        return len(self.entries)

    def methods(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(method for _, method in self.cells))

    def vaccines(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(vaccine for vaccine, _ in self.cells))

    def months(self, method: str, vaccine: str) -> tuple[MonthStamp, ...]:
        return tuple(self.cells.get((vaccine, method), ()))

    def prediction(self, method: str, month: MonthStamp, vaccine: str) -> float:
        try:
            return self.cells[(vaccine, method)][month].predicted
        except KeyError:
            raise KeyError((method, month, vaccine)) from None

    def merge(self, other: "PredictionLog") -> "PredictionLog":
        return PredictionLog(self.entries + other.entries)


@dataclass(frozen=True)
class BacktestReport:
    """Per-vaccine RMSE per method over one shared evaluation window; an error
    row has an ``error`` and no RMSE."""

    vaccine: str
    window_start: MonthStamp | None = None
    window_end: MonthStamp | None = None
    n_months: int = 0
    rmse: dict[str, float] = field(default_factory=dict)
    seed: int | None = None
    error: str | None = None

    @property
    def beats_naive(self) -> dict[str, bool]:
        """Per method: its RMSE is strictly below Naive's, and it is not Naive."""
        naive = self.rmse.get(NAIVE)
        return {m: naive is not None and m != NAIVE and v < naive for m, v in self.rmse.items()}

    @property
    def is_row_min(self) -> dict[str, bool]:
        """Per method: its RMSE equals the lowest of the report."""
        best = min(self.rmse.values(), default=None)
        return {m: v == best for m, v in self.rmse.items()}


def derive_month_seed(seed: int, month: MonthStamp) -> int:
    """Deterministic per-month RNG seed, independent of series length."""
    return int(np.random.SeedSequence([seed, month.to_index()]).generate_state(1)[0])


def aligned_history(
    E: UptakeSeries, Q: web.QueryPanel, cfg: BacktestConfig
) -> tuple[web.QueryPanel, TimeSeries]:
    """Panel and uptake over their shared months, cut at ``cfg.end_month``;
    they must span the level-0 warm-up and one month to predict."""
    panel, series = align(Q, E.series)
    if cfg.end_month is not None and cfg.end_month < series.start:
        raise InsufficientHistory(f"end_month {cfg.end_month} precedes the data ({series.start})")
    if cfg.end_month is not None and cfg.end_month < series.end:
        series = series.slice(series.start, cfg.end_month)
        panel = panel.slice(panel.start, cfg.end_month)
    need = cfg.level0_warmup_months + 1
    if len(series) < need:
        raise InsufficientHistory(f"need {need} months, series spans {len(series)}")
    return panel, series


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_months(fn: Callable, tasks: Sequence[tuple]) -> list:
    """``[fn(*task) for task in tasks]``: one task per month (level 0) or per
    run of consecutive months (level 1), in month order.

    The tasks run in forked worker processes, one per usable CPU and at most
    one per task; in-process when that is one worker or the platform cannot
    fork. Forked workers inherit the loaded numpy/BLAS build, its settings and
    the warning filters, so every fit does the same arithmetic as in-process.
    The last task is submitted first: at level 0 it is the longest month, so
    it does not run alone at the end. The error of the first failing task is
    raised, which with the tasks in month order is a serial run's error, and
    no worker outlives the call.
    """
    workers = min(_usable_cpus(), len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]
    # Imported here, not at the top: the pool's modules add about 30 ms to
    # every import of the package, and `validate` and `report` never fit.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(fn, *task) for task in reversed(tasks)]
        try:
            return [future.result() for future in reversed(futures)]
        finally:
            # After an error, drop the months not yet started.
            pool.shutdown(cancel_futures=True)


def _fit_each(fits: Mapping[str, Callable[[], Any]], naive: float) -> tuple[dict, dict[str, str]]:
    """Call every fit in order; a model failure or a non-finite forecast yields
    ``naive`` and a note."""
    values: dict[str, Any] = {}
    notes: dict[str, str] = {}
    for method, fit in fits.items():
        try:
            value = fit()
        except FIT_ERRORS as err:
            value, notes[method] = naive, f"fallback=naive ({type(err).__name__}: {err})"
        else:
            if not np.all(np.isfinite(value)):
                value, notes[method] = naive, "fallback=naive (non-finite forecast)"
        values[method] = value
    return values, notes


def _log_cells(
    vaccine: str, month: MonthStamp, values: Mapping[str, float], notes: Mapping[str, str],
    actual: float, train_start: MonthStamp, train_end: MonthStamp,
) -> list[LogEntry]:
    """One month's entries, one per method in the order of ``values``, each
    with its method's note as the diagnostic."""
    return [
        LogEntry(vaccine, method, month, float(value), actual, train_start, train_end,
                 notes.get(method, ""))
        for method, value in values.items()
    ]


def level0_fit(
    hist: TimeSeries,
    panel_hist: web.QueryPanel,
    row: np.ndarray,
    cfg: BacktestConfig,
    month_seed: int,
) -> tuple[dict[str, float], dict[str, str], np.ndarray | None]:
    """Fit every level-0 model but WM on the history and forecast the month after it.

    The clinical models extrapolate ``hist``; the web models, fitted on
    ``panel_hist``, score the frequency ``row``. Returns method->prediction,
    method->note for each model that fell back to naive, and the bagged
    member predictions (None when bagging fell back). The result depends on
    the arguments alone, so the months of a backtest can be fitted in any
    order and in any process; `run_level0_backtest` adds WM.
    """
    lags = cfg.ar_lags

    def ar():
        return clinical.predict_ar(clinical.fit_ar(hist, lags), hist.values[-lags:][::-1])

    def arima():
        orders = cfg.arima_orders
        if orders == "auto":
            orders = clinical.select_arima_orders(hist)
        return clinical.predict_arima(clinical.fit_arima(hist, *orders), hist)

    def lasso():
        lam = web.select_lambda_cv(panel_hist, hist)
        return web.predict_web(web.fit_lasso(panel_hist, hist, lam), row)

    def bagged_members():
        bag = web.fit_bagging(
            panel_hist,
            hist,
            n_subsets=cfg.bagging_subsets,
            subset_size=cfg.bagging_subset_size,
            seed=month_seed,
        )
        return web.member_predictions(bag, row)

    naive = float(hist.values[-1])
    preds, notes = _fit_each(
        {
            "HW": lambda: clinical.predict_hw(
                clinical.fit_holt_winters(hist, cfg.hw_season_length)
            ),
            cfg.ar_method: ar,
            "ARIMA": arima,
            "O": lambda: web.predict_web(web.fit_web_ols(panel_hist, hist), row),
            "L": lasso,
            "B": bagged_members,
        },
        naive,
    )
    preds[NAIVE] = naive
    # B's fit returns the member predictions; B is their mean and WM weighs them.
    if "B" in notes:
        return preds, notes, None
    members = preds["B"]
    preds["B"] = float(members.mean())
    return preds, notes, members


def run_level0_backtest(
    E: UptakeSeries,
    Q: web.QueryPanel,
    cfg: BacktestConfig,
    vaccine: str = "series",
) -> PredictionLog:
    """Refit every level-0 model each month on all data strictly before it.

    The first predicted month follows the warm-up window. Each month's fits
    depend only on the data before it, so the months are fitted in parallel
    (`_map_months`); the weighted-majority weights then thread through the
    months in order, each month's update made only after its actual value is
    revealed.
    """
    panel, series = aligned_history(E, Q, cfg)
    T = len(series)
    warm = cfg.level0_warmup_months
    values = series.values
    train_start = series.start
    months = [series.start.plus(k) for k in range(T)]
    fits = _map_months(
        level0_fit,
        [
            (
                TimeSeries(train_start, values[:k]),
                panel.slice(train_start, months[k - 1]),
                panel.matrix[k],
                cfg,
                derive_month_seed(cfg.seed, months[k]),
            )
            for k in range(warm, T)
        ],
    )
    entries: list[LogEntry] = []
    wm_state: web.WmState | None = None
    for k, (preds, notes, members) in enumerate(fits, start=warm):
        actual = float(values[k])
        if members is None:
            # Bagging fell back: WM has no members to weigh.
            preds["WM"], notes["WM"] = preds[NAIVE], notes["B"]
        else:
            if wm_state is None:
                wm_state = web.wm_init(members.size, cfg.wm_eta, cfg.wm_epsilon)
            preds["WM"] = web.wm_predict(wm_state, members)
            wm_state = web.wm_update(wm_state, members, preds["WM"], actual)

        level0 = {m: preds[m] for m in (NAIVE,) + cfg.clinical_methods() + WEB_METHODS}
        entries += _log_cells(vaccine, months[k], level0, notes, actual, train_start,
                              months[k - 1])
    return PredictionLog(tuple(entries))


def level0_streams(
    log: PredictionLog, vaccine: str, cfg: BacktestConfig
) -> tuple[tuple[MonthStamp, ...], dict[str, np.ndarray], np.ndarray]:
    """The inputs of level 1: the level-0 months in time order, each method's
    predictions over them and the observed values the log holds for them."""
    naive = log.cells.get((vaccine, NAIVE), {})
    months = tuple(sorted(naive))
    streams = {
        m: np.array([log.prediction(m, t, vaccine) for t in months])
        for m in (NAIVE,) + cfg.clinical_methods() + WEB_METHODS
    }
    return months, streams, np.array([naive[t].actual for t in months])


def level1_window_start(idx: int, cfg: BacktestConfig) -> int:
    """Index of the first level-1 training month for level-0 month ``idx``:
    0 (growing window), or the start of the last ``cfg.level1_sliding`` months
    before it."""
    return 0 if cfg.level1_sliding is None else max(0, idx - cfg.level1_sliding)


_SVR_KERNELS = {"SVR-linear": "linear", "SVR-gaussian": "gaussian"}  # in META_MODELS order


def _ols_forecast(X: np.ndarray, y: np.ndarray, e_c: float, e_w: float) -> float:
    return stacking.predict_stack_ols(stacking.fit_stack_ols(X, y), e_c, e_w)


def _svr_forecast(forecasts: Sequence, q: int) -> float:
    """SVR fit ``q``'s entry of ``forecasts``: its forecast, or its error raised."""
    if isinstance(forecasts[q], Exception):
        raise forecasts[q]
    return forecasts[q]


def level1_chunk(
    streams: Mapping[str, np.ndarray],
    actuals: np.ndarray,
    indices: Sequence[int],
    cfg: BacktestConfig,
) -> list:
    """The level-1 cells of the level-0 months ``indices``, in their order.

    The cell of month ``idx`` stacks each (clinical, web) stream pair with
    each level-1 model. Every model is fitted on the level-0 ``streams`` over
    the training window before ``idx`` (`level1_window_start`) against the
    observed ``actuals`` of those months, and combines month ``idx``'s
    level-0 predictions. A cell is method->prediction and method->note for
    each model that fell back to month ``idx``'s naive prediction.

    `stacking.fit_svrs` fits the SVR designs of all the months together;
    then each month's cell is settled once, in method order, as in a serial
    run.
    """
    months: list = []  # (fits, naive) per month
    designs: list = []  # (X, y, kernel) per SVR fit
    forecasts: list = []  # per SVR fit: (e_c, e_w), then its forecast or the error of its fit
    for idx in indices:
        lo = level1_window_start(idx, cfg)
        y = actuals[lo:idx]
        target_preds = {m: float(s[idx]) for m, s in streams.items()}
        fits = {}
        for clin in cfg.clinical_methods():
            for wm in WEB_METHODS:
                X = np.column_stack([streams[clin][lo:idx], streams[wm][lo:idx]])
                e_c, e_w = target_preds[clin], target_preds[wm]
                fits[f"OLS:{clin}+{wm}"] = functools.partial(_ols_forecast, X, y, e_c, e_w)
                for meta, kernel in _SVR_KERNELS.items():
                    fits[f"{meta}:{clin}+{wm}"] = functools.partial(_svr_forecast, forecasts,
                                                                     len(designs))
                    designs.append((X, y, kernel))
                    forecasts.append((e_c, e_w))
        months.append((fits, target_preds[NAIVE]))

    for q, outcome in stacking.fit_svrs(designs, cfg.svr_cost, cfg.svr_tube_eps, cfg.svr_gamma):
        forecasts[q] = (outcome if isinstance(outcome, Exception)
                        else stacking.predict_svr(outcome, *forecasts[q]))

    return [_fit_each(fits, naive) for fits, naive in months]


def level1_step(
    streams: Mapping[str, np.ndarray],
    actuals: np.ndarray,
    idx: int,
    cfg: BacktestConfig,
) -> tuple[dict[str, float], dict[str, str]]:
    """The level-1 cell of level-0 month ``idx`` (`level1_chunk`): the chunk of one
    month. As in the backtest, a month inside the level-1 warm-up has no cell."""
    warm = cfg.level1_warmup_months
    if idx < warm:
        raise InsufficientHistory(f"level-0 log covers {idx} months, need {warm}")
    return level1_chunk(streams, actuals, [idx], cfg)[0]


def run_level1_backtest(
    level0_log: PredictionLog, cfg: BacktestConfig, vaccine: str
) -> PredictionLog:
    """Stack each (clinical, web) stream pair with each level-1 model.

    Training uses the level-0 one-step predictions themselves over a growing
    window (or a fixed sliding window when configured), against the actual
    values the level-0 log records; everything refits at every month. The
    months are fitted in parallel (`_map_months`), one chunk per worker: a
    run of consecutive months, the runs balanced by their summed window
    lengths, so the first failing run raises the serial error.
    """
    months, streams, actuals = level0_streams(level0_log, vaccine, cfg)
    warm = cfg.level1_warmup_months
    if len(months) < warm + 1:
        raise InsufficientHistory(
            f"level-0 log covers {len(months)} months, need {warm + 1}"
        )

    targets = range(warm, len(months))
    w = min(_usable_cpus(), len(targets))
    # Cut where the summed window lengths pass each w-th of their total; a
    # window longer than a w-th leaves an empty run, which is dropped.
    load = np.cumsum([idx - level1_window_start(idx, cfg) for idx in targets])
    ends = np.searchsorted(load, load[-1] * np.arange(1, w + 1) / w, side="right").tolist()
    runs = [targets[a:b] for a, b in zip([0] + ends, ends) if a < b]
    chunks = _map_months(level1_chunk, [(streams, actuals, run, cfg) for run in runs])
    entries: list[LogEntry] = []
    for idx, (values, notes) in zip(targets, [cell for chunk in chunks for cell in chunk]):
        entries += _log_cells(vaccine, months[idx], values, notes, float(actuals[idx]),
                              months[level1_window_start(idx, cfg)], months[idx - 1])
    return PredictionLog(tuple(entries))


def _canonical_method_order(methods: Sequence[str]) -> list[str]:
    """Single-source methods, then one block per meta-model, each in first-appearance order.

    On a backtest log this is ``BacktestConfig.method_order()``: level 0 logs
    Naive, the clinical methods and then the web methods, and level 1 logs its
    pairs clinical-major, web-minor.
    """
    block = {name: i for i, name in enumerate(META_MODELS, start=1)}
    indexed = list(enumerate(methods))
    indexed.sort(key=lambda im: (block.get(im[1].split(":", 1)[0], 0), im[0]))
    return [m for _, m in indexed]


def summarize(log: PredictionLog, vaccine: str, seed: int | None = None) -> BacktestReport:
    """RMSE per method of ``vaccine`` against the logged actual values, over
    the months every one of its methods predicted.

    Restricting to the common month set keeps level-0 and level-1 columns
    comparable (the level-1 warm-up shortens the window for everyone).
    """
    cells = {method: cell for (v, method), cell in log.cells.items() if v == vaccine}
    if not cells:
        raise EmptyLog(f"prediction log has no entries for {vaccine!r}")
    window = sorted(set.intersection(*map(set, cells.values())), key=MonthStamp.to_index)
    if not window:
        raise EmptyLog("no months shared by every method")

    rmse_by_method: dict[str, float] = {}
    for m in _canonical_method_order(list(cells)):
        pred = np.array([cells[m][t].predicted for t in window])
        act = np.array([cells[m][t].actual for t in window])
        rmse_by_method[m] = float(np.sqrt(np.mean((pred - act) ** 2)))
    return BacktestReport(vaccine, window[0], window[-1], len(window), rmse_by_method, seed=seed)


def run_full_experiment(
    datasets: Mapping[str, tuple[UptakeSeries, web.QueryPanel]],
    cfg: BacktestConfig,
    collect_logs: dict[str, PredictionLog] | None = None,
) -> list[BacktestReport]:
    """Level-0 + level-1 backtests and a summary for every vaccine.

    Vaccines run independently; a failure in one becomes an error annotation
    on its report and never aborts the siblings.
    """
    if not datasets:
        raise ValueError("no vaccine datasets supplied")
    reports: list[BacktestReport] = []
    for name, (E, Q) in datasets.items():
        try:
            log0 = run_level0_backtest(E, Q, cfg, vaccine=name)
            log1 = run_level1_backtest(log0, cfg, vaccine=name)
            merged = log0.merge(log1)
            if collect_logs is not None:
                collect_logs[name] = merged
            reports.append(summarize(merged, vaccine=name, seed=cfg.seed))
        except FIT_ERRORS as err:
            reports.append(
                BacktestReport(vaccine=name, seed=cfg.seed, error=f"{type(err).__name__}: {err}")
            )
    return reports


def naive_report_check(E: UptakeSeries, report: BacktestReport) -> float:
    """Independent naive-column RMSE: shift the actual series by one month."""
    series = E.series
    shifted = TimeSeries(series.start.plus(1), series.values[:-1])
    lo, hi = report.window_start, report.window_end
    return rmse(shifted.slice(lo, hi), series.slice(lo, hi))
