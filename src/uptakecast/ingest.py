"""CSV ingestion, uptake computation and report emission.

File schemas (UTF-8, header row required):

* registry: ``vaccine,year,month,doses``
* cohorts:  ``year,month,expected``
* trends:   ``query,year,month,frequency``

Missing months are hard errors, never imputed; Trends zeros are kept as
observed zeros (the export's privacy threshold reports them that way).
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .backtest import META_MODELS, BacktestReport
from .errors import (
    DiagnosticWarning,
    GapError,
    GapInRegistry,
    MissingCohort,
    ParseError,
    SchemaError,
    UptakecastError,
)
from .timeseries import MonthStamp, TimeSeries, UptakeSeries
from .web import QueryPanel


@dataclass(frozen=True)
class RegistryRecord:
    vaccine: str
    month: MonthStamp
    doses_given: int


@dataclass(frozen=True)
class CohortRecord:
    month: MonthStamp
    expected_count: int


def _read_rows(path: str | Path, expected_header: Sequence[str]) -> Iterable[tuple[int, list]]:
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file", line=1) from None
            if [h.strip() for h in header] != list(expected_header):
                raise SchemaError(
                    f"{path}: expected header {','.join(expected_header)!r}, "
                    f"got {','.join(header)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(expected_header):
                    raise ParseError(f"{path}: expected {len(expected_header)} fields", line=lineno)
                yield lineno, [cell.strip() for cell in row]
    except (OSError, UnicodeDecodeError) as err:
        raise UptakecastError(f"{path}: {err}") from None


def _parse_month(year_s: str, month_s: str, path, lineno: int) -> MonthStamp:
    try:
        year, month = int(year_s), int(month_s)
    except ValueError:
        raise ParseError(f"{path}: year/month must be integers", line=lineno) from None
    if not 1 <= month <= 12:
        raise SchemaError(f"{path} line {lineno}: month {month} outside 1..12")
    return MonthStamp(year, month)


def load_registry(path: str | Path) -> list[RegistryRecord]:
    """Parse dose counts; (vaccine, month) pairs must be unique."""
    records: list[RegistryRecord] = []
    seen: set[tuple[str, MonthStamp]] = set()
    for lineno, (vaccine, year_s, month_s, doses_s) in _read_rows(
        path, ("vaccine", "year", "month", "doses")
    ):
        month = _parse_month(year_s, month_s, path, lineno)
        try:
            doses = int(doses_s)
        except ValueError:
            raise ParseError(f"{path}: doses must be an integer", line=lineno) from None
        if doses < 0:
            raise SchemaError(f"{path} line {lineno}: doses must be >= 0")
        if not vaccine:
            raise SchemaError(f"{path} line {lineno}: empty vaccine id")
        key = (vaccine, month)
        if key in seen:
            raise SchemaError(f"{path} line {lineno}: duplicate entry for {vaccine} {month}")
        seen.add(key)
        records.append(RegistryRecord(vaccine, month, doses))
    return records


def load_cohorts(path: str | Path) -> list[CohortRecord]:
    """Parse expected-cohort sizes; months must be unique."""
    records: list[CohortRecord] = []
    seen: set[MonthStamp] = set()
    for lineno, (year_s, month_s, expected_s) in _read_rows(path, ("year", "month", "expected")):
        month = _parse_month(year_s, month_s, path, lineno)
        try:
            expected = int(expected_s)
        except ValueError:
            raise ParseError(f"{path}: expected must be an integer", line=lineno) from None
        if expected <= 0:
            raise SchemaError(f"{path} line {lineno}: expected count must be positive")
        if month in seen:
            raise SchemaError(f"{path} line {lineno}: duplicate cohort month {month}")
        seen.add(month)
        records.append(CohortRecord(month, expected))
    return records


def load_trends(path: str | Path) -> QueryPanel:
    """Pivot long-format Trends rows into a month-aligned panel.

    Every query must cover the same contiguous month range (GapError names
    the offender); queries that are zero for every month are dropped with a
    warning, mirroring how low-coverage terms return no usable signal.
    """
    per_query: dict[str, dict[MonthStamp, float]] = {}
    for lineno, (query, year_s, month_s, freq_s) in _read_rows(
        path, ("query", "year", "month", "frequency")
    ):
        month = _parse_month(year_s, month_s, path, lineno)
        try:
            freq = float(freq_s)
        except ValueError:
            raise ParseError(f"{path}: frequency must be a number", line=lineno) from None
        if not 0 <= freq <= 100:
            raise SchemaError(f"{path} line {lineno}: frequency {freq} outside [0, 100]")
        if not query:
            raise SchemaError(f"{path} line {lineno}: empty query")
        bucket = per_query.setdefault(query, {})
        if month in bucket:
            raise SchemaError(f"{path} line {lineno}: duplicate ({query}, {month})")
        bucket[month] = freq
    if not per_query:
        raise SchemaError(f"{path}: no data rows")

    first = min(min(b) for b in per_query.values())
    last = max(max(b) for b in per_query.values())
    n_months = last.to_index() - first.to_index() + 1
    names = []
    columns = []
    for query, bucket in per_query.items():
        column = np.empty(n_months)
        for k in range(n_months):
            stamp = first.plus(k)
            if stamp not in bucket:
                raise GapError(f"{path}: query {query!r} missing month {stamp}")
            column[k] = bucket[stamp]
        if np.all(column == 0):
            warnings.warn(
                f"{path}: dropping all-zero query {query!r}", DiagnosticWarning, stacklevel=2
            )
            continue
        names.append(query)
        columns.append(column)
    if not names:
        raise SchemaError(f"{path}: every query is all-zero")
    return QueryPanel(first, tuple(names), np.column_stack(columns))


def compute_uptake(
    registry: Sequence[RegistryRecord], cohorts: Sequence[CohortRecord]
) -> UptakeSeries:
    """Percent uptake: 100 * doses / expected cohort, per contiguous month.

    The registry slice must belong to a single vaccine; a registry month
    without a cohort entry raises MissingCohort, a hole in the months raises
    GapInRegistry.
    """
    if not registry:
        raise GapInRegistry("empty registry slice")
    vaccines = {r.vaccine for r in registry}
    if len(vaccines) > 1:
        raise SchemaError(f"registry slice mixes vaccines: {sorted(vaccines)}")
    by_month = {r.month: r for r in registry}
    first = min(by_month)
    last = max(by_month)
    cohort_by_month = {c.month: c.expected_count for c in cohorts}
    values = []
    for k in range(last.to_index() - first.to_index() + 1):
        stamp = first.plus(k)
        if stamp not in by_month:
            raise GapInRegistry(f"registry missing month {stamp}")
        if stamp not in cohort_by_month:
            raise MissingCohort(f"no cohort entry for {stamp}")
        values.append(100.0 * by_month[stamp].doses_given / cohort_by_month[stamp])
    return UptakeSeries(TimeSeries(first, np.array(values)))


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _markdown_cell(report: BacktestReport, method: str) -> str:
    if method not in report.rmse:
        return "-"
    value = _fmt(report.rmse[method])
    if report.is_row_min.get(method):
        value = f"[{value}]"
    if report.beats_naive.get(method):
        value = f"**{value}**"
    return value


def emit_report(reports: Sequence[BacktestReport], format: str = "markdown") -> str:
    """Render reports as CSV rows or publication-style Markdown tables.

    CSV carries full float precision for lossless reload; Markdown prints
    3 decimals with **bold** marking beats-naive and [brackets] the row
    minimum, and ``-`` where a vaccine lacks another vaccine's method.
    """
    if not reports:
        raise ValueError("no reports to emit")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["vaccine", "method", "rmse", "beats_naive", "is_row_min"])
        for rep in reports:
            if rep.error:
                writer.writerow([rep.vaccine, "ERROR", rep.error, "", ""])
                continue
            for method, value in rep.rmse.items():
                writer.writerow(
                    [
                        rep.vaccine,
                        method,
                        repr(value),
                        str(rep.beats_naive[method]).lower(),
                        str(rep.is_row_min[method]).lower(),
                    ]
                )
        return buf.getvalue()
    if format != "markdown":
        raise ValueError(f"unknown format {format!r}")

    ok = [r for r in reports if not r.error]
    failed = [r for r in reports if r.error]
    lines: list[str] = []
    if ok:
        methods = list(dict.fromkeys(m for rep in ok for m in rep.rmse))
        single = [m for m in methods if ":" not in m]
        lines.append("## Single-source methods")
        lines.append("")
        lines.append("| Vaccine | " + " | ".join(single) + " |")
        lines.append("|---" * (len(single) + 1) + "|")
        for rep in ok:
            cells = [_markdown_cell(rep, m) for m in single]
            lines.append(f"| {rep.vaccine} | " + " | ".join(cells) + " |")
        lines.append("")
        for meta in META_MODELS:
            combos = [m for m in methods if m.startswith(meta + ":")]
            if not combos:
                continue
            headers = [m.split(":", 1)[1] for m in combos]
            lines.append(f"## Ensemble, level-1 {meta}")
            lines.append("")
            lines.append("| Vaccine | " + " | ".join(headers) + " |")
            lines.append("|---" * (len(combos) + 1) + "|")
            for rep in ok:
                cells = [_markdown_cell(rep, m) for m in combos]
                lines.append(f"| {rep.vaccine} | " + " | ".join(cells) + " |")
            lines.append("")
        windows = {(str(r.window_start), str(r.window_end)) for r in ok}
        seeds = {r.seed for r in ok}
        lines.append(
            "Evaluation windows: "
            + "; ".join(f"{a}..{b}" for a, b in sorted(windows))
            + (f". Seed: {seeds.pop()}." if len(seeds) == 1 and None not in seeds else ".")
        )
        lines.append("**bold**: beats naive; [brackets]: lowest RMSE for the vaccine.")
    for rep in failed:
        lines.append(f"ERROR {rep.vaccine}: {rep.error}")
    return "\n".join(lines) + "\n"

