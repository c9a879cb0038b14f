"""Monthly time-series primitives: stamps, series, alignment, differencing, RMSE.

Monthly granularity is the only supported time step. All values are float64
and all containers are immutable after construction, so they can be shared
freely between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import EmptyOverlap, SeriesTooShort


@dataclass(frozen=True, order=True)
class MonthStamp:
    """A Gregorian (year, month) pair; totally ordered, December wraps to January."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    def to_index(self) -> int:
        """Months since year 0, January."""
        return self.year * 12 + (self.month - 1)

    @classmethod
    def from_index(cls, index: int) -> "MonthStamp":
        return cls(index // 12, index % 12 + 1)

    def plus(self, months: int) -> "MonthStamp":
        return MonthStamp.from_index(self.to_index() + months)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def _freeze(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.setflags(write=False)
    return arr


def _month_row(stamp: MonthStamp, start: MonthStamp, n: int) -> int:
    """Row of ``stamp`` among ``n`` monthly rows from ``start``."""
    k = stamp.to_index() - start.to_index()
    if not 0 <= k < n:
        raise KeyError(f"{stamp} outside {start}..{start.plus(n - 1)}")
    return k


def _month_rows(first: MonthStamp, last: MonthStamp, start: MonthStamp, n: int) -> slice:
    """Rows ``first..last`` inclusive among ``n`` monthly rows from ``start``."""
    i, j = _month_row(first, start, n), _month_row(last, start, n)
    if j < i:
        raise ValueError("last precedes first")
    return slice(i, j + 1)


@dataclass(frozen=True)
class TimeSeries:
    """Contiguous monthly observations: ``values[k]`` belongs to ``start + k`` months."""

    start: MonthStamp
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _freeze(self.values)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must all be finite")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> MonthStamp:
        """Last month covered by the series."""
        return self.start.plus(len(self) - 1)

    def months(self) -> Iterator[MonthStamp]:
        for k in range(len(self)):
            yield self.start.plus(k)

    def index_of(self, stamp: MonthStamp) -> int:
        return _month_row(stamp, self.start, len(self))

    def slice(self, first: MonthStamp, last: MonthStamp) -> "TimeSeries":
        """Sub-series covering ``first..last`` inclusive (both must be in range)."""
        return TimeSeries(first, self.values[_month_rows(first, last, self.start, len(self))])


@dataclass(frozen=True)
class UptakeSeries:
    """Vaccination uptake in percent; non-negative, may exceed 100 (catch-up months)."""

    series: TimeSeries

    def __post_init__(self):
        if np.any(self.series.values < 0):
            raise ValueError("uptake values must be >= 0")


def align(a, b) -> tuple:
    """Truncate two monthly objects, each a `TimeSeries` or a `web.QueryPanel`,
    to their exact shared month range.

    Raises EmptyOverlap when the ranges are disjoint.
    """
    lo = max(a.start, b.start)
    hi = min(a.end, b.end)
    if hi < lo:
        raise EmptyOverlap(f"no shared months between {a.start}..{a.end} and {b.start}..{b.end}")
    return a.slice(lo, hi), b.slice(lo, hi)


def difference(s: TimeSeries, d: int) -> TimeSeries:
    """Apply first-differencing ``d`` times; the result starts ``d`` months later."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if len(s) <= d:
        raise SeriesTooShort(f"need more than {d} observations, got {len(s)}")
    out = s.values
    for _ in range(d):
        out = np.diff(out)
    return TimeSeries(s.start.plus(d), out) if d else s


def rmse(predicted: TimeSeries, actual: TimeSeries) -> float:
    """Root mean squared error over the shared month range of the two series."""
    p, a = align(predicted, actual)
    return float(np.sqrt(np.mean((p.values - a.values) ** 2)))
