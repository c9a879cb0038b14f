"""Outside-in spans and counters for the uptakecast layers.

The tracer replaces the module attributes that callers look up at call time
(``clinical.fit_holt_winters`` as seen by ``backtest``, ``run_level0_backtest``
as imported into ``cli``, the ``minimize`` that ``clinical`` imported from
scipy, ...) with timing wrappers, so the program itself is unchanged.
``uninstall`` puts every original back.

A span is ``[name, start, end, parent, vaccine]`` with ``perf_counter``
times; spans stay in memory and are written as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

# Per-layer times: metric -> span names whose durations it sums.
LAYER_TIMES = {
    "clinical.hw.fit_s": ("clinical.fit_holt_winters",),
    "clinical.ar.fit_s": ("clinical.fit_ar",),
    "clinical.arima.fit_s": ("clinical.fit_arima",),
    "web.bagging.fit_s": ("web.fit_bagging",),
    "web.lasso_cv.s": ("web.select_lambda_cv",),
    "web.lasso.fit_s": ("web.fit_lasso",),
    "web.ols.fit_s": ("web.fit_web_ols",),
    "web.wm.s": ("web.member_predictions", "web.wm_init", "web.wm_predict", "web.wm_update"),
    "stacking.svr_linear.fit_s": ("stacking.fit_svr.linear",),
    "stacking.svr_gaussian.fit_s": ("stacking.fit_svr.gaussian",),
    "stacking.svr.dual_s": ("stacking.solve_svr_dual",),
    "stacking.ols.fit_s": ("stacking.fit_stack_ols",),
    "backtest.level0_s": ("backtest.run_level0_backtest",),
    "backtest.level1_s": ("backtest.run_level1_backtest",),
    "backtest.summarize_s": ("backtest.summarize",),
    "ingest.load_s": (
        "ingest.load_registry",
        "ingest.load_cohorts",
        "ingest.load_trends",
        "ingest.compute_uptake",
    ),
    "ingest.emit_s": ("ingest.emit_report",),
}
# Self times: metric -> span names whose duration minus their children it sums.
SELF_TIMES = {
    "backtest.self_s": (
        "backtest.run_full_experiment",
        "backtest.run_level0_backtest",
        "backtest.run_level1_backtest",
        "backtest.summarize",
    ),
    "cli.predict.self_s": ("cli.main", "cli.import"),
}
# Counters kept by the wrappers (and by the bench for the log cells).
COUNTS = (
    "clinical.nm.nfev",
    "clinical.nm.calls",
    "clinical.ridge_warnings",
    "web.bagging.members",
    "stacking.svr.samples",
    "stacking.ridge_warnings",
    "backtest.cells",
    "backtest.fallback_cells",
    "ingest.bytes_read",
)


class Tracer:
    def __init__(self, vaccine: str | None = None):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.vaccine = vaccine  # vaccine id for top-level spans
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._warnings: list | None = None
        self._claimed = 0
        self._diagnostic: type | None = None

    def open(self, name: str, vaccine: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if vaccine is None:
            vaccine = self.spans[parent][4] if parent is not None else self.vaccine
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, vaccine])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        self._stack.pop()
        # Warnings recorded since the last close were raised while this span
        # was the innermost open one.
        if self._warnings is not None and len(self._warnings) > self._claimed:
            layer = span[0].split(".", 1)[0]
            for w in self._warnings[self._claimed :]:
                if issubclass(w.category, self._diagnostic) and "ridge" in str(w.message):
                    self.counts[f"{layer}.ridge_warnings"] += 1
            self._claimed = len(self._warnings)

    def record_warnings(self, log: list, diagnostic: type) -> None:
        """Attribute the ``catch_warnings(record=True)`` log to spans as it grows."""
        self._warnings, self._claimed, self._diagnostic = log, len(log), diagnostic

    def wrap(self, owner, attr: str, name=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``name`` is a string or ``f(args, kwargs) -> str`` and defaults to
        ``<defining module>.<function>``; ``after(counts, args, kwargs,
        result)`` updates counters from a call's arguments and result.
        """
        fn = getattr(owner, attr)
        if name is None:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name(args, kwargs) if callable(name) else name, kwargs.get("vaccine"))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        self._warnings = None

    def merge(self, spans: list[list], counts: dict) -> None:
        """Append spans and counters recorded by another process."""
        offset = len(self.spans)
        for name, start, end, parent, vaccine in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset, vaccine]
            )
        self.counts.update(counts)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, vaccine) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "vaccine": vaccine}
                    )
                    + "\n"
                )


def _count_minimize(counts, args, kwargs, res) -> None:
    counts["clinical.nm.calls"] += 1
    counts["clinical.nm.nfev"] += int(res.nfev)


def _count_members(counts, args, kwargs, model) -> None:
    counts["web.bagging.members"] += len(model.members)


def _count_samples(counts, args, kwargs, model) -> None:
    counts["stacking.svr.samples"] += len(args[0] if args else kwargs["samples"])


def _count_bytes(counts, args, kwargs, result) -> None:
    # Computed from the file size, not measured at the device.
    counts["ingest.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _svr_name(args, kwargs) -> str:
    kernel = kwargs.get("kernel", args[1] if len(args) > 1 else "gaussian")
    return f"stacking.fit_svr.{kernel}"


def count_cells(counts, log) -> None:
    """Logged cells and those whose diagnostic records a fallback."""
    counts["backtest.cells"] += len(log.entries)
    counts["backtest.fallback_cells"] += sum(1 for e in log.entries if e.diagnostic)


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls each caller makes into the layers below it."""
    from uptakecast import backtest, cli, clinical, ingest, stacking, web

    for attr in ("fit_holt_winters", "fit_ar", "fit_arima"):
        tracer.wrap(clinical, attr)
    tracer.wrap(clinical, "minimize", "clinical.minimize", _count_minimize)
    for attr in ("fit_web_ols", "select_lambda_cv", "fit_lasso", "member_predictions",
                 "wm_init", "wm_predict", "wm_update"):
        tracer.wrap(web, attr)
    tracer.wrap(web, "fit_bagging", after=_count_members)
    tracer.wrap(stacking, "fit_stack_ols")
    tracer.wrap(stacking, "fit_svr", _svr_name, _count_samples)
    tracer.wrap(stacking, "solve_svr_dual")
    for attr in ("run_full_experiment", "run_level0_backtest", "run_level1_backtest",
                 "summarize"):
        tracer.wrap(backtest, attr)
    tracer.wrap(ingest, "emit_report")
    # The names `predict` calls, as the CLI imported them into its namespace.
    tracer.wrap(cli, "run_level0_backtest", after=lambda c, a, k, log: count_cells(c, log))
    tracer.wrap(cli, "compute_uptake")
    for attr in ("load_registry", "load_cohorts", "load_trends"):
        tracer.wrap(cli, attr, after=_count_bytes)


def rollup(spans: list[list]) -> tuple[dict[str, float], dict[str, float], Counter, list[int]]:
    """Total and self seconds per span name, call counts, and misnested spans.

    Self time is a span's duration minus the time its children cover; a
    child that does not lie inside its parent's interval is reported.
    """
    child_time = [0.0] * len(spans)
    misnested = []
    for sid, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if not p_start <= start <= end <= p_end:
                misnested.append(sid)
            child_time[parent] += end - start
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for sid, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[sid]
        calls[name] += 1
    return total, self_time, calls, misnested


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[int]]:
    """Every per-layer metric the trace yields, and the misnested span ids."""
    total, self_time, calls, misnested = rollup(tracer.spans)
    out: dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = sum(total[n] for n in names)
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_time[n] for n in names)
    out["clinical.hw.calls"] = calls["clinical.fit_holt_winters"]
    for metric in COUNTS:
        out[metric] = tracer.counts[metric]
    return out, misnested
