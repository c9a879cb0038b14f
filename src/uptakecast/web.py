"""Level-0 forecasters over the query-frequency panel.

Linear models (minimum-norm OLS and LASSO), bagging over random query
subsets, and the multiplicative-weights expert ensemble. The LASSO solver
follows the exact piecewise-linear path on standardized features and polishes
each full-data fit with cyclic coordinate descent, batched over many
independent problems at once so that the per-month bagging refits stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DimensionMismatch,
    NonConvergence,
    PanelTooNarrow,
    SeriesTooShort,
    TooFewRows,
)
from .timeseries import MonthStamp, TimeSeries

CD_TOL = 1e-7
CD_MAX_SWEEPS = 100_000
CV_FOLDS = 3
LAMBDA_GRID_SIZE = 50
LAMBDA_GRID_DECADES = 3.0


@dataclass(frozen=True)
class QueryPanel:
    """Month-aligned matrix of query frequencies on the 0..100 Trends scale."""

    start: MonthStamp
    query_names: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)  # (months, queries)

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=float).copy()
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("matrix must be 2-d with at least one row")
        if arr.shape[1] != len(self.query_names):
            raise ValueError("one column per query name required")
        if len(set(self.query_names)) != len(self.query_names) or any(
            not n for n in self.query_names
        ):
            raise ValueError("query names must be unique and non-empty")
        if not np.all(np.isfinite(arr)) or arr.min(initial=0.0) < 0 or arr.max(initial=0.0) > 100:
            raise ValueError("frequencies must be finite and within [0, 100]")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "query_names", tuple(self.query_names))

    @property
    def n_months(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_queries(self) -> int:
        return self.matrix.shape[1]

    @property
    def end(self) -> MonthStamp:
        return self.start.plus(self.n_months - 1)

    def index_of(self, stamp: MonthStamp) -> int:
        k = stamp.to_index() - self.start.to_index()
        if not 0 <= k < self.n_months:
            raise KeyError(f"{stamp} outside {self.start}..{self.end}")
        return k

    def slice(self, first: MonthStamp, last: MonthStamp) -> "QueryPanel":
        i, j = self.index_of(first), self.index_of(last)
        if j < i:
            raise ValueError("last precedes first")
        return QueryPanel(first, self.query_names, self.matrix[i : j + 1])


@dataclass(frozen=True)
class WebLinearModel:
    """Linear model over query frequencies with the fit-time standardization."""

    mu: float
    alphas: np.ndarray = field(repr=False)
    feature_means: np.ndarray = field(repr=False)
    feature_scales: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("alphas", "feature_means", "feature_scales"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_queries(self) -> int:
        return self.alphas.size


@dataclass(frozen=True)
class BaggedModel:
    """Query-subset members, each a LASSO model over its own 10 queries."""

    members: tuple[tuple[tuple[int, ...], WebLinearModel], ...]
    n_queries: int

    @property
    def member_count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class WmState:
    """Multiplicative weights over the bagged members."""

    weights: np.ndarray = field(repr=False)
    eta: float = 5.0
    epsilon_tol: float = 2.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size < 1 or np.any(w <= 0):
            raise ValueError("weights must be a non-empty vector of positive reals")
        if self.eta <= 0 or self.epsilon_tol <= 0:
            raise ValueError("eta and epsilon_tol must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def member_count(self) -> int:
        return self.weights.size


def _check_aligned(Q: QueryPanel, E: TimeSeries) -> None:
    if Q.start != E.start or Q.n_months != len(E):
        raise AlignmentError(
            f"panel covers {Q.start}..{Q.end} but series covers {E.start}..{E.end}"
        )


def align_panel(Q: QueryPanel, E: TimeSeries) -> tuple[QueryPanel, TimeSeries]:
    """Truncate panel and series to their shared month range."""
    lo = max(Q.start, E.start)
    hi = min(Q.end, E.end)
    if hi < lo:
        raise AlignmentError(
            f"no shared months between panel {Q.start}..{Q.end} and series {E.start}..{E.end}"
        )
    return Q.slice(lo, hi), E.slice(lo, hi)


def predict_web(model: WebLinearModel, row: Sequence[float]) -> float:
    """Evaluate the linear model on one month's frequency row."""
    row = np.asarray(row, dtype=float)
    if row.shape != model.alphas.shape:
        raise DimensionMismatch(f"expected {model.alphas.size} frequencies, got {row.size}")
    z = (row - model.feature_means) / model.feature_scales
    return float(model.mu + model.alphas @ z)


def fit_web_ols(Q: QueryPanel, E: TimeSeries) -> WebLinearModel:
    """Minimum-norm least squares on the raw frequency columns.

    The panel is wider than it is tall throughout the backtest, so the system
    is underdetermined; lstsq's rank-revealing SVD returns the minimum-norm
    solution.
    """
    _check_aligned(Q, E)
    if Q.n_months < 2:
        raise SeriesTooShort("web OLS needs at least 2 rows")
    X = np.column_stack([np.ones(Q.n_months), Q.matrix])
    coef, _, _, _ = np.linalg.lstsq(X, E.values, rcond=None)
    n = Q.n_queries
    return WebLinearModel(
        mu=float(coef[0]),
        alphas=coef[1:],
        feature_means=np.zeros(n),
        feature_scales=np.ones(n),
    )


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-mean, unit-variance columns; constant columns keep scale 1 and stay zero."""
    means = X.mean(axis=-2, keepdims=True)
    scales = X.std(axis=-2, keepdims=True)  # ddof=0 so the Gram diagonal is exactly 1
    scales = np.where(scales > 0, scales, 1.0)
    return (X - means) / scales, np.squeeze(means, axis=-2), np.squeeze(scales, axis=-2)


def _cd_solve(
    gram: np.ndarray, cvec: np.ndarray, lam: np.ndarray, alpha0: np.ndarray
) -> np.ndarray:
    """Cyclic coordinate descent on a batch of independent LASSO problems.

    Minimizes (1/2) a'Ga - c'a + lam*|a|_1 per batch entry, which equals the
    (1/(2T))-scaled LASSO objective up to a constant when G = X'X/T and
    c = X'y/T. Entries are updated in lockstep but frozen individually the
    first sweep their largest coefficient move drops below ``CD_TOL``, so each
    batch entry follows exactly the trajectory it would follow alone.
    """
    alpha = np.array(alpha0, dtype=float)
    B, F = alpha.shape
    diag = np.einsum("bff->bf", gram).copy()
    movable = diag > 0
    resid = cvec - np.einsum("bfg,bg->bf", gram, alpha)
    active = np.ones(B, dtype=bool)
    for _ in range(CD_MAX_SWEEPS):
        max_delta = np.zeros(B)
        for j in range(F):
            dj = diag[:, j]
            rho = resid[:, j] + dj * alpha[:, j]
            shrunk = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0)
            new = np.where(movable[:, j], shrunk / np.where(movable[:, j], dj, 1.0), alpha[:, j])
            new = np.where(active, new, alpha[:, j])
            delta = new - alpha[:, j]
            if np.any(delta != 0.0):
                resid -= gram[:, :, j] * delta[:, None]
                alpha[:, j] = new
                np.maximum(max_delta, np.abs(delta), out=max_delta)
        active &= max_delta >= CD_TOL
        if not active.any():
            return alpha
    raise NonConvergence(f"coordinate descent exceeded {CD_MAX_SWEEPS} sweeps")


def lasso_lambda_max(Q: QueryPanel, E: TimeSeries) -> float:
    """Smallest penalty for which every LASSO coefficient is zero."""
    _check_aligned(Q, E)
    Xs, _, _ = _standardize(Q.matrix)
    y = E.values
    c = Xs.T @ (y - y.mean()) / y.size
    return float(np.max(np.abs(c))) if c.size else 0.0


def fit_lasso(Q: QueryPanel, E: TimeSeries, lam: float) -> WebLinearModel:
    """LASSO on standardized features: the exact path, then a coordinate-descent polish.

    Minimizes (1/(2T)) * sum((E - mu - alphas . Qstd)^2) + lam * |alphas|_1
    with the intercept unpenalized; coefficients are returned on the
    standardized scale together with the standardization.
    """
    _check_aligned(Q, E)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    Xs, means, scales = _standardize(Q.matrix)
    y = E.values
    T = y.size
    gram = Xs.T @ Xs / T
    cvec = Xs.T @ (y - y.mean()) / T
    # A matmul Gram, where _fit_lasso_batch uses einsum: the two differ in the
    # last bits, so this stays off the batch path until the references move.
    alpha = _solve_lasso(gram[None], cvec[None], np.array([float(lam)]))[0]
    return WebLinearModel(
        mu=float(y.mean()), alphas=alpha, feature_means=means, feature_scales=scales
    )


def _solve_lasso(gram: np.ndarray, cvec: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """LASSO coefficients per batch entry: the exact path, then a coordinate-descent polish.

    The polish is load-bearing: on panels wider than they are tall the path
    can miss a drop and return a point that is not a LASSO solution.
    """
    warm = np.stack(
        [_lasso_path_alphas(gram[b], cvec[b], lams[b : b + 1])[0] for b in range(lams.size)]
    )
    return _cd_solve(gram, cvec, lams, warm)


def _lambda_grid(lam_max: np.ndarray) -> np.ndarray:
    """Descending log grid per batch entry: lam_max down to lam_max * 10^-decades."""
    exps = -LAMBDA_GRID_DECADES * np.arange(LAMBDA_GRID_SIZE) / (LAMBDA_GRID_SIZE - 1)
    return np.asarray(lam_max)[:, None] * 10.0**exps


def _lasso_path_alphas(gram: np.ndarray, cvec: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Exact LASSO solutions at each grid lambda via the piecewise-linear path.

    On the active set A the solution is affine in lambda,
    alpha_A(lam) = phi - lam * theta with G_AA phi = c_A and G_AA theta = s_A,
    so the homotopy walks the breakpoints (joins and drops) and reads the grid
    points off each segment. Any numerical pathology (singular active Gram,
    runaway coefficients, too many events) falls back to warm-started
    coordinate descent for the remaining grid points.

    ``lambdas`` must be sorted descending; returns an array (len(lambdas), F).
    """
    F = cvec.size
    L = lambdas.size
    out = np.zeros((L, F))
    if F == 0 or not np.any(np.abs(cvec) > 0):
        return out
    lam_cur = float(np.max(np.abs(cvec)))
    j0 = int(np.argmax(np.abs(cvec)))
    active: list[int] = [j0]
    signs: list[float] = [float(np.sign(cvec[j0]))]
    grid_i = 0
    edge = 1e-14 * max(lam_cur, 1.0)
    last_drop: tuple[int, float] | None = None

    def cd_fallback(start_i: int, warm: np.ndarray) -> np.ndarray:
        alpha = warm[None].copy()
        for gi in range(start_i, L):
            alpha = _cd_solve(gram[None], cvec[None], lambdas[gi : gi + 1], alpha)
            out[gi] = alpha[0]
        return out

    # Emit grid points at or above the first breakpoint (all-zero solution).
    while grid_i < L and lambdas[grid_i] >= lam_cur - edge:
        grid_i += 1

    for _ in range(20 * F + 100):
        if grid_i >= L:
            return out
        if active:
            idx = np.array(active)
            # gram[idx][:, idx] would return an F-ordered block, and a matmul
            # against it rounds differently from one against this C-ordered
            # block (it moves the wide57 SYN-00 and SYN-02 logs).
            G_AA = gram[idx[:, None], idx]
            s_A = np.array(signs)
            try:
                # Keep two single-RHS solves: one two-column solve rounds
                # differently (11,615 of 11,989 random systems differ in the
                # last bits), and so does scipy's dgesv, which links another
                # OpenBLAS build (3,438 of 7,991 differ).
                phi = np.linalg.solve(G_AA, cvec[idx])
                theta = np.linalg.solve(G_AA, s_A)
            except np.linalg.LinAlgError:
                warm = np.zeros(F)
                warm[idx] = np.maximum(np.abs(cvec[idx]) - lam_cur, 0) * s_A
                return cd_fallback(grid_i, warm)
            if not (np.isfinite(phi).all() and np.abs(phi).max() < 1e9):
                return cd_fallback(grid_i, np.zeros(F))
        else:
            idx = np.array([], dtype=int)
            phi = theta = np.zeros(0)

        # Correlation of inactive features along the segment: a_j + lam * b_j.
        mask = np.ones(F, dtype=bool)
        mask[idx] = False
        inactive = mask.nonzero()[0]
        G_IA = gram[inactive[:, None], idx]
        a = cvec[inactive] - G_IA @ phi
        b = G_IA @ theta

        # Event candidates below lam_cur, one per slot: an inactive feature
        # joins where a_j + lam * b_j = +lam (slots [0, m)) or -lam (slots
        # [m, 2m)); an active one drops where phi_k - lam * theta_k = 0
        # (slots from 2m).
        m = inactive.size
        num = np.concatenate((a, -a, phi))
        den = np.concatenate((1.0 - b, 1.0 + b, theta))
        feat = np.concatenate((inactive, inactive, idx))
        ok = np.abs(den) > 1e-14
        cand = num / np.where(ok, den, 1.0)
        ok &= (edge < cand) & (cand < lam_cur - edge)
        if last_drop is not None:
            # The feature just dropped does not rejoin at the same breakpoint.
            j, lam_drop = last_drop
            ok[: 2 * m] &= (feat[: 2 * m] != j) | (np.abs(cand[: 2 * m] - lam_drop) > edge)

        lam_event = cand[ok].max(initial=0.0)
        # Grid points on this segment: lambdas descend, so they lead the rest.
        stop = grid_i + int(np.count_nonzero(lambdas[grid_i:] >= lam_event))
        out[grid_i:stop, idx] = phi - lambdas[grid_i:stop, None] * theta
        grid_i = stop
        if grid_i >= L:
            return out
        if lam_event <= 0.0:
            return cd_fallback(grid_i, out[grid_i - 1] if grid_i else np.zeros(F))

        # The largest lambda wins; at equal lambda a drop beats a join, and
        # then the lowest feature index wins.
        ties = (ok & (cand == lam_event)).nonzero()[0].tolist()
        k = min(ties, key=lambda slot: (slot < 2 * m, feat[slot]))
        if k >= 2 * m:
            active.pop(k - 2 * m)
            signs.pop(k - 2 * m)
            last_drop = (int(feat[k]), lam_event)
        else:
            j_loc = k % m
            active.append(int(inactive[j_loc]))
            signs.append(float(np.sign(a[j_loc] + lam_event * b[j_loc])) or 1.0)
            last_drop = None
        lam_cur = lam_event

    warm = out[grid_i - 1] if grid_i else np.zeros(F)
    return cd_fallback(grid_i, warm)


def _cv_choose_lambda(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pick one lambda per batch entry by contiguous-block validation error.

    ``X`` has shape (batch, rows, features); ``y`` is shared by every entry.
    Grids descend from each entry's own lambda_max; fold fits come from the
    exact path solver; ties resolve to the largest lambda.
    """
    B, T, F = X.shape
    Xs_all, _, _ = _standardize(X)
    c_all = np.einsum("btf,t->bf", Xs_all, y - y.mean()) / T
    lam_max = np.abs(c_all).max(axis=1)
    grid = _lambda_grid(lam_max)
    val_sse = np.zeros((B, LAMBDA_GRID_SIZE))
    for val_idx in np.array_split(np.arange(T), CV_FOLDS):
        train_idx = np.setdiff1d(np.arange(T), val_idx)
        Xtr, ytr = X[:, train_idx, :], y[train_idx]
        Xval, yval = X[:, val_idx, :], y[val_idx]
        Xs, means, scales = _standardize(Xtr)
        Ttr = ytr.size
        mu = ytr.mean()
        yc = ytr - mu
        for b in range(B):
            gram = Xs[b].T @ Xs[b] / Ttr
            cvec = Xs[b].T @ yc / Ttr
            alphas = _lasso_path_alphas(gram, cvec, grid[b])
            Zval = (Xval[b] - means[b]) / scales[b]
            preds = mu + alphas @ Zval.T  # (grid, val rows)
            val_sse[b] += ((preds - yval) ** 2).sum(axis=1)
    return grid[np.arange(B), np.argmin(val_sse, axis=1)]


def select_lambda_cv(Q: QueryPanel, E: TimeSeries) -> float:
    """``CV_FOLDS``-fold cross-validated lambda on a descending log grid.

    Folds are contiguous time blocks, preserving temporal order; the lambda
    with minimal mean validation squared error wins, largest first on ties.
    """
    _check_aligned(Q, E)
    if Q.n_months < CV_FOLDS:
        raise TooFewRows(f"{CV_FOLDS}-fold CV needs at least {CV_FOLDS} rows, got {Q.n_months}")
    return float(_cv_choose_lambda(Q.matrix[None], E.values)[0])


def _fit_lasso_batch(X: np.ndarray, y: np.ndarray, lams: np.ndarray) -> list[WebLinearModel]:
    """Full-data LASSO fit for each batch entry at its own lambda."""
    B, T, F = X.shape
    Xs, means, scales = _standardize(X)
    gram = np.einsum("btf,btg->bfg", Xs, Xs) / T
    cvec = np.einsum("btf,t->bf", Xs, y - y.mean()) / T
    alphas = _solve_lasso(gram, cvec, lams)
    mu = float(y.mean())
    return [
        WebLinearModel(mu=mu, alphas=alphas[b], feature_means=means[b], feature_scales=scales[b])
        for b in range(B)
    ]


def fit_bagging(
    Q: QueryPanel,
    E: TimeSeries,
    n_subsets: int | None = None,
    subset_size: int = 10,
    seed: int = 0,
) -> BaggedModel:
    """Fit LASSO members on random query subsets.

    Each member sees ``subset_size`` distinct queries (subsets themselves are
    drawn independently, so queries recur across members) and every training
    month; its lambda comes from the same CV as the plain LASSO model.
    """
    _check_aligned(Q, E)
    n = Q.n_queries
    if n < subset_size:
        raise PanelTooNarrow(f"panel has {n} queries, need at least {subset_size}")
    if Q.n_months < CV_FOLDS:
        raise TooFewRows(f"bagging needs at least {CV_FOLDS} rows for internal cross-validation")
    if n_subsets is None:
        n_subsets = n
    if n_subsets < 1:
        raise ValueError("n_subsets must be >= 1")
    rng = np.random.default_rng(seed)
    subsets = [np.sort(rng.choice(n, size=subset_size, replace=False)) for _ in range(n_subsets)]
    X = np.stack([Q.matrix[:, s] for s in subsets])  # (B, T, F)
    models = _fit_lasso_batch(X, E.values, _cv_choose_lambda(X, E.values))
    members = tuple(
        (tuple(int(i) for i in s), model) for s, model in zip(subsets, models, strict=True)
    )
    return BaggedModel(members=members, n_queries=n)


def predict_bagging(model: BaggedModel, row: Sequence[float]) -> float:
    """Unweighted mean of the member predictions on one frequency row."""
    preds = member_predictions(model, row)
    return float(preds.mean())


def member_predictions(model: BaggedModel, row: Sequence[float]) -> np.ndarray:
    """Each member's prediction on one frequency row (the WM expert inputs)."""
    row = np.asarray(row, dtype=float)
    if row.size != model.n_queries:
        raise DimensionMismatch(f"expected {model.n_queries} frequencies, got {row.size}")
    return np.array([predict_web(m, row[list(idx)]) for idx, m in model.members])


def wm_init(member_count: int, eta: float = 5.0, epsilon_tol: float = 2.0) -> WmState:
    """Unit starting weight for every member."""
    if member_count < 1:
        raise ValueError("member_count must be >= 1")
    return WmState(weights=np.ones(member_count), eta=eta, epsilon_tol=epsilon_tol)


def wm_predict(state: WmState, member_preds: Sequence[float]) -> float:
    """Weighted average of the member predictions."""
    preds = np.asarray(member_preds, dtype=float)
    if preds.size != state.member_count:
        raise DimensionMismatch(f"expected {state.member_count} predictions, got {preds.size}")
    return float(state.weights @ preds / state.weights.sum())


def wm_update(
    state: WmState, member_preds: Sequence[float], overall_prediction: float, actual: float
) -> WmState:
    """Multiplicative down-weighting after a miss.

    Weights change only when the overall prediction is off by more than the
    tolerance; then every member whose own error exceeds the tolerance is
    multiplied by exp(-eta), floored at the smallest normal float. Returns a
    new state; the input is not mutated.
    """
    preds = np.asarray(member_preds, dtype=float)
    if preds.size != state.member_count:
        raise DimensionMismatch(f"expected {state.member_count} predictions, got {preds.size}")
    if abs(overall_prediction - actual) <= state.epsilon_tol:
        return state
    penalized = np.abs(preds - actual) > state.epsilon_tol
    new_weights = np.where(penalized, state.weights * np.exp(-state.eta), state.weights)
    # A member missed often enough underflows to 0.0, which WmState rejects;
    # the floor keeps it at the least positive weight instead.
    new_weights = np.maximum(new_weights, np.finfo(float).tiny)
    return WmState(weights=new_weights, eta=state.eta, epsilon_tol=state.epsilon_tol)
