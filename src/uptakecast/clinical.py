"""Level-0 forecasters for the clinical uptake series: AR, ARIMA, Holt-Winters.

All fits are pure functions of their inputs and return immutable model values;
each model exposes a one-step-ahead prediction. ARIMA and Holt-Winters are fitted
by the bounded Nelder-Mead simplex of ``minimize``, written in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import LagMismatch, NonConvergence, SeriesTooShort
from .timeseries import TimeSeries, difference

# The iteration budget is the binding limit; fatol carries the objective
# tolerance, xatol stays permissive so a converged objective terminates.
_NM_OPTIONS = {"maxiter": 2000, "maxfev": 10000, "fatol": 1e-8, "xatol": 1e-5}

# scipy's status messages; NonConvergence carries them into the log's notes.
_NM_SUCCESS = "Optimization terminated successfully."
_NM_MAXFEV = "Maximum number of function evaluations has been exceeded."
_NM_MAXITER = "Maximum number of iterations has been exceeded."


@dataclass(frozen=True)
class NelderMeadResult:
    """Best vertex ``x``, its objective ``fun``, the work done and the stop reason."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool
    message: str


class _BudgetSpent(Exception):
    """The objective was asked for one evaluation more than ``maxfev``."""


def _clip(x: list[float], lower: list[float], upper: list[float]) -> list[float]:
    """Each coordinate into its box; a NaN passes through, as in ``np.clip``.

    On a tie the coordinate is kept, so a zero on a zero bound keeps its sign;
    ``np.clip``'s choice there depends on the loop numpy picks for the array
    shapes. No fit here has a zero bound but Holt-Winters' lower 0, where no
    vertex is ever -0.0.
    """
    return [min(max(v, lo), hi) for v, lo, hi in zip(x, lower, upper)]


def minimize(
    fun: Callable[[np.ndarray], float],
    x0: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
) -> NelderMeadResult:
    """Bounded Nelder-Mead (Nelder & Mead 1965) under ``_NM_OPTIONS``.

    Every float operation, in its order, is that of scipy 1.17.1's
    ``minimize(method="Nelder-Mead", bounds=...)`` (non-adaptive), so a fit
    keeps its bits: the simplex starts at x0 and 1.05 x_k (0.00025 for a zero
    coordinate), reflected at the upper bound; every trial point is clipped
    to the box. Vertices are ordered by f with Python's ``sorted``, NaN last
    as in numpy; it is stable by definition, so tied vertices keep their
    order on every CPU, where scipy's plain ``np.argsort`` leaves the order
    of ties to the sort numpy dispatches. Evaluation
    ``maxfev + 1`` ends the iteration it falls in without counting it,
    keeping any vertex a shrink has already moved.
    """
    opts = _NM_OPTIONS
    maxiter, maxfev = opts["maxiter"], opts["maxfev"]
    xatol, fatol = opts["xatol"], opts["fatol"]
    lower = [float(v) for v in lower]
    upper = [float(v) for v in upper]
    x0 = _clip([float(v) for v in np.ravel(x0)], lower, upper)
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim = [[2 * hi - v if v > hi else v for v, hi in zip(s, upper)] for s in sim]
    sim = [_clip(s, lower, upper) for s in sim]
    fsim = [np.inf] * (n + 1)
    nfev = 0

    def f(x: list[float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(fun(np.array(x)))

    def by_f(sim, fsim):
        # NaN last, as numpy sorts it; Python's sort is stable, so ties keep
        # their order.
        keys = [(math.isnan(v), 0.0 if math.isnan(v) else v) for v in fsim]
        order = sorted(range(n + 1), key=keys.__getitem__)
        return [sim[i] for i in order], [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = by_f(sim, fsim)

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            best = sim[0]
            if all(abs(v - b) <= xatol for s in sim[1:] for v, b in zip(s, best)) and all(
                abs(fsim[0] - g) <= fatol for g in fsim[1:]
            ):
                break
            xbar = [0.0] * n  # np.add.reduce's order: from 0.0, row by row
            for s in sim[:-1]:
                xbar = [a + v for a, v in zip(xbar, s)]
            xbar = [a / n for a in xbar]
            worst = sim[-1]
            xr = _clip([2 * a - w for a, w in zip(xbar, worst)], lower, upper)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = _clip([3 * a - 2 * w for a, w in zip(xbar, worst)], lower, upper)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = _clip([1.5 * a - 0.5 * w for a, w in zip(xbar, worst)], lower, upper)
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = _clip([0.5 * a + 0.5 * w for a, w in zip(xbar, worst)], lower, upper)
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        moved = [b + 0.5 * (v - b) for v, b in zip(sim[j], best)]
                        sim[j] = _clip(moved, lower, upper)
                        fsim[j] = f(sim[j])
            nit += 1
        except _BudgetSpent:
            pass
        sim, fsim = by_f(sim, fsim)

    if nfev >= maxfev:
        message = _NM_MAXFEV
    elif nit >= maxiter:
        message = _NM_MAXITER
    else:
        message = _NM_SUCCESS
    return NelderMeadResult(
        x=np.array(sim[0]),
        fun=float(np.min(fsim)),
        nfev=nfev,
        nit=nit,
        success=message == _NM_SUCCESS,
        message=message,
    )


@dataclass(frozen=True)
class ARModel:
    """Autoregression: prediction = mu + sum(betas[i] * lag_{i+1}), lags most-recent-first."""

    mu: float
    betas: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.betas)


@dataclass(frozen=True)
class ArimaModel:
    """AR + moving-average terms on the d-times differenced scale (CSS estimate)."""

    d: int
    mu: float
    ar_betas: tuple[float, ...]
    ma_phis: tuple[float, ...]
    residual_history: tuple[float, ...]  # last q in-sample residuals, most recent first


@dataclass(frozen=True)
class HwModel:
    """Additive Holt-Winters state after filtering the training series."""

    alpha: float
    beta: float
    gamma: float
    season_length: int
    level: float
    trend: float
    seasonals: tuple[float, ...]  # indexed by season position (month offset mod l)
    next_position: int  # season position of the first unobserved month


def _lag_design(values: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows [1, y_{t-1}, ..., y_{t-m}] and targets y_t for every t with m lags."""
    n = values.size
    X = np.ones((n - m, m + 1))
    for i in range(1, m + 1):
        X[:, i] = values[m - i : n - i]
    return X, values[m:]


def fit_ar(E: TimeSeries, m: int) -> ARModel:
    """Least-squares autoregression of order ``m``.

    Requires length >= 2m + 1 so the design has at least m + 1 rows. A
    rank-deficient design (e.g. a constant warm-up window) gets the
    minimum-norm least-squares solution, the policy of ``web.fit_web_ols``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(E) < 2 * m + 1:
        raise SeriesTooShort(f"AR({m}) needs at least {2 * m + 1} observations, got {len(E)}")
    X, y = _lag_design(E.values, m)
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    return ARModel(mu=float(coef[0]), betas=tuple(float(c) for c in coef[1:]))


def predict_ar(model: ARModel, recent: Sequence[float]) -> float:
    """One-step prediction from the ``m`` most recent values (most recent first)."""
    if len(recent) != model.order:
        raise LagMismatch(f"expected {model.order} lag values, got {len(recent)}")
    return float(model.mu + np.dot(model.betas, recent))


def _css_residuals(y: np.ndarray, mu: float, betas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """One-step residuals of the ARMA recursion with zero pre-sample residuals."""
    p, q = betas.size, phis.size
    n = y.size
    base = y[p:] - mu
    for i in range(1, p + 1):
        base = base - betas[i - 1] * y[p - i : n - i]
    if q == 0:
        return base
    ph = phis.tolist()
    if q == 1:  # the configured ARIMA(1,1,1): one multiply-subtract per residual
        f, e_prev, out = ph[0], 0.0, []
        for e in base.tolist():
            e_prev = e - f * e_prev
            out.append(e_prev)
        return np.array(out)
    eps = [0.0] * q  # zero pre-sample residuals, then eps_0, eps_1, ...
    for e in base.tolist():
        for j, f in enumerate(ph, start=1):
            e -= f * eps[-j]
        eps.append(e)
    return np.array(eps[q:])


def _ols_init(y: np.ndarray, p: int) -> np.ndarray:
    """Normal-equations AR(p) start point for the CSS optimizer."""
    X, t = _lag_design(y, p)
    try:
        coef = np.linalg.solve(X.T @ X, X.T @ t)
        if np.all(np.isfinite(coef)):
            return coef
    except np.linalg.LinAlgError:
        pass
    # A singular or overflowing system starts from the mean alone.
    coef = np.zeros(p + 1)
    coef[0] = float(y.mean())
    return coef


def fit_arima(E: TimeSeries, p: int = 1, d: int = 1, q: int = 1) -> ArimaModel:
    """Conditional-sum-of-squares ARIMA(p, d, q) fit.

    Differencing is applied ``d`` times, then (mu, betas, phis) minimize the
    sum of squared one-step residuals with pre-sample residuals fixed at zero.
    The optimizer starts from the AR-only least-squares solution with zero MA
    coefficients.
    """
    if min(p, d, q) < 0:
        raise ValueError("orders must be >= 0")
    if len(E) <= p + d + q + 1:
        raise SeriesTooShort(
            f"ARIMA({p},{d},{q}) needs more than {p + d + q + 1} observations, got {len(E)}"
        )
    y = difference(E, d).values
    x0 = np.concatenate([_ols_init(y, p), np.zeros(q)])

    def objective(x: np.ndarray) -> float:
        eps = _css_residuals(y, x[0], x[1 : 1 + p], x[1 + p :])
        return float(eps @ eps)

    if p + q > 0:
        # MA coefficients stay inside the invertibility box; outside it the
        # residual recursion explodes and the surface turns into a canyon the
        # simplex crawls forever.
        lower = [-np.inf] * (1 + p) + [-0.99] * q
        upper = [np.inf] * (1 + p) + [0.99] * q
        res = minimize(objective, x0, lower, upper)
        if not res.success:
            res = minimize(objective, res.x, lower, upper)
            if not res.success:
                raise NonConvergence(f"CSS optimizer failed twice: {res.message}")
        # Nelder-Mead's first vertex is its start and it returns its best
        # vertex, so res.x is never worse than x0.
        x = res.x
    else:
        x = x0  # intercept-only model is closed form
    mu, betas, phis = float(x[0]), x[1 : 1 + p], x[1 + p :]
    eps = _css_residuals(y, mu, betas, phis)
    hist = tuple(float(e) for e in eps[::-1][:q])
    return ArimaModel(
        d=d,
        mu=mu,
        ar_betas=tuple(float(b) for b in betas),
        ma_phis=tuple(float(f) for f in phis),
        residual_history=hist,
    )


def predict_arima(model: ArimaModel, E: TimeSeries) -> float:
    """One-step prediction on the differenced scale, un-differenced back.

    ``E`` must supply at least p + d trailing values; the stored residual
    history is meaningful for the month immediately after the fitting window.
    """
    p, d = len(model.ar_betas), model.d
    if len(E) < p + d:
        raise SeriesTooShort(f"need at least {p + d} trailing observations, got {len(E)}")
    levels = [E.values]
    for _ in range(d):
        levels.append(np.diff(levels[-1]))
    y = levels[-1]
    pred = model.mu
    for i, b in enumerate(model.ar_betas, start=1):
        pred += b * float(y[-i])
    for j, f in enumerate(model.ma_phis):
        pred += f * model.residual_history[j]
    for k in range(d - 1, -1, -1):
        pred += float(levels[k][-1])
    return float(pred)


def select_arima_orders(E: TimeSeries) -> tuple[int, int, int]:
    """Pick (p, d, q) by AIC over p, q in 0..2 and d in 0..1.

    The grid is walked d, then p, then q, ascending; an AIC tie keeps the
    first order walked.
    """
    best = None
    for d in range(2):
        for p in range(3):
            for q in range(3):
                if len(E) <= p + d + q + 1:
                    continue
                try:
                    model = fit_arima(E, p, d, q)
                except (NonConvergence, SeriesTooShort):
                    continue
                y = difference(E, d).values
                eps = _css_residuals(
                    y, model.mu, np.asarray(model.ar_betas), np.asarray(model.ma_phis)
                )
                n = eps.size
                if n < 1 or not np.all(np.isfinite(eps)):
                    continue
                sse = float(eps @ eps)
                aic = n * np.log(max(sse / n, 1e-300)) + 2 * (p + q + 1)
                if best is None or aic < best[0] - 1e-12:
                    best = (aic, (p, d, q))
    if best is None:
        raise SeriesTooShort("no ARIMA order in the grid is fittable on this series")
    return best[1]


def hw_initial_state(E: TimeSeries, season_length: int) -> tuple[float, float, np.ndarray]:
    """Level, trend and per-position seasonals from the first two seasons."""
    l = season_length
    if len(E) < 2 * l:
        raise SeriesTooShort(f"need at least two seasons ({2 * l} months), got {len(E)}")
    s1 = E.values[:l]
    s2 = E.values[l : 2 * l]
    level = float(s1.mean())
    trend = float((s2.mean() - s1.mean()) / l)
    seasonals = ((s1 - s1.mean()) + (s2 - s2.mean())) / 2.0
    return level, trend, seasonals


def hw_filter(
    values: Sequence[float],
    alpha: float,
    beta: float,
    gamma: float,
    season_length: int,
    level: float,
    trend: float,
    seasonals: Sequence[float],
) -> tuple[np.ndarray, float, float, list[float]]:
    """Run the additive level/trend/seasonality recursions over ``values``.

    Returns the one-step-ahead predictions for every month plus the final
    (level, trend, seasonals) state. The seasonal used for month t is the
    value stored for position t mod l, written one season earlier.
    """
    preds, a, b, s = _hw_recursion(
        np.asarray(values, dtype=float).tolist(), float(alpha), float(beta), float(gamma),
        season_length, float(level), float(trend), [float(v) for v in seasonals],
    )
    return np.array(preds), a, b, s


def _hw_recursion(
    ys: list[float], alpha: float, beta: float, gamma: float, l: int,
    a: float, b: float, s: list[float],
) -> tuple[list[float], float, float, list[float]]:
    """`hw_filter` on Python floats; it updates the seasonals ``s`` in place."""
    keep_a, keep_b, keep_s = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
    preds = []
    pos = 0  # t mod l
    for y in ys:
        s_old = s[pos]
        ab = a + b
        preds.append(ab + s_old)
        a_new = alpha * (y - s_old) + keep_a * ab
        b = beta * (a_new - a) + keep_b * b
        s[pos] = gamma * (y - a_new) + keep_s * s_old
        a = a_new
        pos += 1
        if pos == l:
            pos = 0
    return preds, a, b, s


_HW_START = (0.5, 0.1, 0.1)
_HW_FALLBACK_START = (0.3, 0.1, 0.1)


def fit_holt_winters(E: TimeSeries, season_length: int = 12) -> HwModel:
    """Fit additive Holt-Winters by minimizing in-sample one-step squared error.

    Smoothing parameters are found by bounded Nelder-Mead over [0, 1]^3. On
    optimizer failure a single retry is made from the documented fallback
    start point before raising NonConvergence.
    """
    level, trend, seasonals = hw_initial_state(E, season_length)
    values = E.values
    # The recursion runs on Python floats, converted once per fit.
    ys, start = values.tolist(), seasonals.tolist()
    # The first season's values are consumed by the initialization, so they
    # carry no information about the smoothing parameters; scoring them would
    # reward overfitting the init transient.
    skip = season_length
    scored = values[skip:]

    def objective(x: np.ndarray) -> float:
        alpha, beta, gamma = x.tolist()
        preds, _, _, _ = _hw_recursion(ys, alpha, beta, gamma, season_length, level, trend, list(start))
        err = np.array(preds[skip:]) - scored
        return float(err @ err)

    lower, upper = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    res = minimize(objective, _HW_START, lower, upper)
    if not res.success:
        res = minimize(objective, _HW_FALLBACK_START, lower, upper)
        if not res.success:
            raise NonConvergence(f"Holt-Winters optimizer failed twice: {res.message}")
    alpha, beta, gamma = (float(v) for v in res.x)

    _, a, b, s = hw_filter(values, alpha, beta, gamma, season_length, level, trend, seasonals)
    return HwModel(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        season_length=season_length,
        level=a,
        trend=b,
        seasonals=tuple(s),
        next_position=len(E) % season_length,
    )


def predict_hw(model: HwModel) -> float:
    """Level + trend + the seasonal stored for the upcoming month's position."""
    return float(model.level + model.trend + model.seasonals[model.next_position])
