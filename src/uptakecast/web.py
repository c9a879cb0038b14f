"""Level-0 forecasters over the query-frequency panel.

Linear models (minimum-norm OLS and LASSO), bagging over random query
subsets, and the multiplicative-weights expert ensemble. The LASSO solver
follows the exact piecewise-linear path on standardized features and polishes
each full-data fit with cyclic coordinate descent. Both are batched: the paths
of many independent problems (every member and cross-validation fold of a
month's bagging refit) are walked in lockstep, bit-identical to walking each
alone, so that the per-month refits stay cheap.
"""

from __future__ import annotations

import bisect
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
from .timeseries import MonthStamp, TimeSeries, _freeze, _month_rows

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
        arr = _freeze(self.matrix)
        # A panel without columns leaves the web fits nothing to reduce over.
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("matrix must be 2-d with at least one row and one column")
        if arr.shape[1] != len(self.query_names):
            raise ValueError("one column per query name required")
        if len(set(self.query_names)) != len(self.query_names) or any(
            not n for n in self.query_names
        ):
            raise ValueError("query names must be unique and non-empty")
        if not np.all(np.isfinite(arr)) or arr.min() < 0 or arr.max() > 100:
            raise ValueError("frequencies must be finite and within [0, 100]")
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

    def slice(self, first: MonthStamp, last: MonthStamp) -> "QueryPanel":
        rows = _month_rows(first, last, self.start, self.n_months)
        return QueryPanel(first, self.query_names, self.matrix[rows])


@dataclass(frozen=True)
class WebLinearModel:
    """Linear model over query frequencies with the fit-time standardization."""

    mu: float
    alphas: np.ndarray = field(repr=False)
    feature_means: np.ndarray = field(repr=False)
    feature_scales: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("alphas", "feature_means", "feature_scales"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

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
        w = _freeze(self.weights)
        # Written as "not inside" so that NaN, which fails every comparison, is rejected.
        if w.ndim != 1 or w.size < 1 or not np.all((0 < w) & (w < np.inf)):
            raise ValueError("weights must be a non-empty vector of positive finite reals")
        if not (0 < self.eta < np.inf and 0 < self.epsilon_tol < np.inf):
            raise ValueError("eta and epsilon_tol must be positive and finite")
        object.__setattr__(self, "weights", w)

    @property
    def member_count(self) -> int:
        return self.weights.size


def _check_aligned(Q: QueryPanel, E: TimeSeries) -> None:
    if Q.start != E.start or Q.n_months != len(E):
        raise AlignmentError(
            f"panel covers {Q.start}..{Q.end} but series covers {E.start}..{E.end}"
        )


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
            # Only the entries that moved are written: a batch entry whose
            # update is a signed zero keeps its coefficient and residual bits,
            # as it does alone.
            moved = np.flatnonzero(delta)
            if moved.size:
                resid[moved] -= gram[moved, :, j] * delta[moved, None]
                alpha[moved, j] = new[moved]
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
    return float(np.max(np.abs(c)))


def fit_lasso(Q: QueryPanel, E: TimeSeries, lam: float) -> WebLinearModel:
    """LASSO on standardized features: the exact path, then a coordinate-descent polish.

    Minimizes (1/(2T)) * sum((E - mu - alphas . Qstd)^2) + lam * |alphas|_1
    with the intercept unpenalized; coefficients are returned on the
    standardized scale together with the standardization.
    """
    _check_aligned(Q, E)
    if not lam >= 0:  # NaN fails this too; an infinite lambda gives the zero model
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

    The whole batch walks its paths in one lockstep call of
    ``_lasso_path_alphas``. The polish is load-bearing: on panels wider than
    they are tall the path can miss a drop and return a point that is not a
    LASSO solution.
    """
    warm = _lasso_path_alphas(gram, cvec, lams[:, None])[:, 0]
    return _cd_solve(gram, cvec, lams, warm)


def _lambda_grid(lam_max: np.ndarray) -> np.ndarray:
    """Descending log grid per batch entry: lam_max down to lam_max * 10^-decades."""
    exps = -LAMBDA_GRID_DECADES * np.arange(LAMBDA_GRID_SIZE) / (LAMBDA_GRID_SIZE - 1)
    return np.asarray(lam_max)[:, None] * 10.0**exps


def _lasso_path_alphas(gram: np.ndarray, cvec: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Exact LASSO solutions at each grid lambda, for a batch of problems in lockstep.

    On its active set A an entry's solution is affine in lambda,
    alpha_A(lam) = phi - lam * theta with G_AA phi = c_A and G_AA theta = s_A,
    so the homotopy walks the breakpoints (joins and drops) and reads the grid
    points off each segment. Every step takes each live entry one breakpoint
    further. Entries are grouped by active-set size k, so each group's solves
    and matmuls are stacked calls on (n, k, k) and (n, m, k) blocks, which
    round exactly like the same calls on one entry; padding to a common k would
    not. Any numerical pathology of an entry (singular active Gram, runaway
    coefficients, too many events) sends that entry alone to warm-started
    coordinate descent for its remaining grid points.

    ``gram`` is (B, F, F), ``cvec`` (B, F) and ``lambdas`` (B, L) with every
    row sorted descending; returns an array (B, L, F).
    """
    B, L = lambdas.shape
    F = cvec.shape[1]
    out = np.zeros((B, L, F))
    abs_c = np.abs(cvec)
    lam_cur = abs_c.max(axis=1)
    edge = 1e-14 * np.maximum(lam_cur, 1.0)
    j0 = abs_c.argmax(axis=1).tolist()
    # Per entry: the active features in join order with their signs, and the
    # inactive ones in index order.
    active = [[j] for j in j0]
    signs = [[s] for s in np.sign(cvec[np.arange(B), j0]).tolist()]
    inactive = [[f for f in range(F) if f != j] for j in j0]
    # Emit grid points at or above the first breakpoint (all-zero solution).
    # Rows descend, so the points at or above a lambda are a prefix of the
    # row, and their count is the index of the first point below it.
    grid_i = np.count_nonzero(lambdas >= (lam_cur - edge)[:, None], axis=1)
    live = ((abs_c > 0).any(axis=1) & (grid_i < L)).nonzero()[0].tolist()
    grid_i = grid_i.tolist()
    # Segments by active-set size: (entries, active sets, phi, theta, first
    # and past-the-last grid point), written into ``out`` after the walk.
    segments: dict[int, list[tuple]] = {}
    # (entry, first grid point, warm start, or None for the last point emitted)
    fallbacks: list[tuple[int, int, np.ndarray | None]] = []

    for _ in range(20 * F + 100):
        if not live:
            break
        groups: dict[int, list[int]] = {}
        for i in live:
            groups.setdefault(len(active[i]), []).append(i)
        live = []
        for k, members in groups.items():
            n, m = len(members), F - k
            g = np.array(members)
            idx = np.array([active[i] for i in members], dtype=np.intp).reshape(n, k)
            g2 = g[:, None]
            g3 = g2[:, :, None]
            idx_cols = idx[:, None, :]
            if k:
                # Fancy indexing gives C-ordered blocks; gram[idx][:, idx] would
                # give F-ordered ones, which round differently in the matmuls.
                G_AA = gram[g3, idx[:, :, None], idx_cols]
                c_A = cvec[g2, idx]
                s_A = np.array([signs[i] for i in members])
                try:
                    # Two single-RHS solves: a two-column solve rounds differently,
                    # and so does scipy's dgesv, which links another OpenBLAS.
                    phi = np.linalg.solve(G_AA, c_A[..., None])[..., 0]
                    theta = np.linalg.solve(G_AA, s_A[..., None])[..., 0]
                    solved = None
                except np.linalg.LinAlgError:
                    phi, theta, solved = _solve_each(G_AA, c_A, s_A)
                if solved is not None or not np.abs(phi).max() < 1e9:
                    # Only the entries at fault fall back; the rest go on.
                    if solved is None:
                        solved = np.ones(n, dtype=bool)
                    keep = solved & (np.abs(phi).max(axis=1) < 1e9)
                    for r in (~keep).nonzero()[0]:
                        warm = np.zeros(F)
                        if not solved[r]:
                            warm[idx[r]] = np.maximum(np.abs(c_A[r]) - lam_cur[g[r]], 0) * s_A[r]
                        fallbacks.append((members[r], grid_i[members[r]], warm))
                    if not keep.any():
                        continue
                    members = [i for i, kept in zip(members, keep.tolist()) if kept]
                    n = len(members)
                    g, g2, g3, idx = g[keep], g2[keep], g3[keep], idx[keep]
                    idx_cols, phi, theta = idx_cols[keep], phi[keep], theta[keep]
            else:
                phi = theta = np.zeros((n, 0))

            # Correlation of inactive features along the segment: a_j + lam * b_j.
            inact = np.array([inactive[i] for i in members], dtype=np.intp).reshape(n, m)
            G_IA = gram[g3, inact[:, :, None], idx_cols]
            a = cvec[g2, inact] - (G_IA @ phi[..., None])[..., 0]
            b = (G_IA @ theta[..., None])[..., 0]

            # Event candidates below lam_cur, one per slot: an inactive feature
            # joins where a_j + lam * b_j = +lam (slots [0, m)) or -lam (slots
            # [m, 2m)); an active one drops where phi_k - lam * theta_k = 0
            # (slots from 2m). After a drop lam_cur is the drop's lambda, so
            # the window alone keeps the dropped feature from rejoining there.
            num = np.concatenate((a, -a, phi), axis=1)
            den = np.concatenate((1.0 - b, 1.0 + b, theta), axis=1)
            ok = np.abs(den) > 1e-14
            cand = num / np.where(ok, den, 1.0)
            e = edge[g2]
            ok &= (e < cand) & (cand < lam_cur[g2] - e)
            cand = np.where(ok, cand, 0.0)
            lam_event = cand.max(axis=1)
            lam_cur[g] = lam_event

            # The largest lambda wins; at equal lambda a drop beats a join, then
            # the lowest feature index, then the lowest slot.
            slots = cand.argmax(axis=1)
            if np.count_nonzero(cand == lam_event[:, None]) > n:
                key = np.concatenate((inact + F, inact + F, idx), axis=1)
                slots = np.where(cand == lam_event[:, None], key, 2 * F).argmin(axis=1)
            # Grid points on this segment: from the last one emitted down to
            # the event. With no event left lam_event is 0 and every point is
            # on the segment.
            starts = [grid_i[i] for i in members]
            stops = np.count_nonzero(lambdas[g] >= lam_event[:, None], axis=1).tolist()
            for r, (i, ev, slot, stop) in enumerate(
                zip(members, lam_event.tolist(), slots.tolist(), stops)
            ):
                grid_i[i] = stop
                if stop == L:
                    continue
                if slot >= 2 * m:
                    bisect.insort(inactive[i], active[i].pop(slot - 2 * m))
                    signs[i].pop(slot - 2 * m)
                else:
                    j_loc = slot % m
                    # Its sign, or +1 at 0: x is finite, as the feature's candidate is.
                    x = a.item(r, j_loc) + ev * b.item(r, j_loc)
                    active[i].append(inactive[i].pop(j_loc))
                    signs[i].append(-1.0 if x < 0 else 1.0)
                live.append(i)
            if starts != stops:
                segments.setdefault(k, []).append((g, idx, phi, theta, starts, stops))

    fallbacks += [(i, grid_i[i], None) for i in live]
    cols = np.arange(L)
    for k in list(segments):
        # Popped, so each size's records are freed once concatenated.
        g, idx, phi, theta, starts, stops = (np.concatenate(p) for p in zip(*segments.pop(k)))
        r, l = ((cols >= starts[:, None]) & (cols < stops[:, None])).nonzero()
        values = theta[r]
        values *= lambdas[g[r], l, None]
        out[g[r, None], l[:, None], idx[r]] = np.subtract(phi[r], values, out=values)
    for i, start, warm in fallbacks:
        if warm is None:
            warm = out[i, start - 1] if start else np.zeros(F)
        alpha = warm[None]
        for gi in range(start, L):
            alpha = _cd_solve(gram[i : i + 1], cvec[i : i + 1], lambdas[i, gi : gi + 1], alpha)
            out[i, gi] = alpha[0]
    return out


def _solve_each(
    G_AA: np.ndarray, c_A: np.ndarray, s_A: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``G_AA phi = c_A`` and ``G_AA theta = s_A`` entry by entry; False where G_AA is singular."""
    phi, theta = np.zeros_like(c_A), np.zeros_like(s_A)
    solved = np.ones(c_A.shape[0], dtype=bool)
    for r in range(c_A.shape[0]):
        try:
            phi[r] = np.linalg.solve(G_AA[r], c_A[r])
            theta[r] = np.linalg.solve(G_AA[r], s_A[r])
        except np.linalg.LinAlgError:
            solved[r] = False
    return phi, theta, solved


def _cv_choose_lambda(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pick one lambda per batch entry by contiguous-block validation error.

    ``X`` has shape (batch, rows, features); ``y`` is shared by every entry.
    Grids descend from each entry's own lambda_max; the fold fits of every
    entry come from one lockstep call of the exact path solver; ties resolve
    to the largest lambda.
    """
    B, T, F = X.shape
    c_all = np.einsum("btf,t->bf", _standardize(X)[0], y - y.mean()) / T
    grid = _lambda_grid(np.abs(c_all).max(axis=1))
    # Fold f's systems are rows f*B .. (f+1)*B-1 of one batch.
    gram, cvec, folds = np.empty((CV_FOLDS * B, F, F)), np.empty((CV_FOLDS * B, F)), []
    for f, val_idx in enumerate(np.array_split(np.arange(T), CV_FOLDS)):
        train_idx = np.setdiff1d(np.arange(T), val_idx)
        Xs, means, scales = _standardize(X[:, train_idx, :])
        ytr = y[train_idx]
        mu = ytr.mean()
        XsT = Xs.transpose(0, 2, 1)
        np.divide(XsT @ Xs, ytr.size, out=gram[f * B : (f + 1) * B])
        np.divide(XsT @ (ytr - mu), ytr.size, out=cvec[f * B : (f + 1) * B])
        folds.append((val_idx, means, scales, mu))
    alphas = _lasso_path_alphas(gram, cvec, np.tile(grid, (CV_FOLDS, 1)))
    val_sse = np.zeros((B, LAMBDA_GRID_SIZE))
    for f, (val_idx, means, scales, mu) in enumerate(folds):
        Zval = (X[:, val_idx, :] - means[:, None, :]) / scales[:, None, :]
        # (mu + preds - y)^2 summed over the validation rows, in one buffer.
        preds = alphas[f * B : (f + 1) * B] @ Zval.transpose(0, 2, 1)  # (B, grid, val rows)
        preds += mu
        preds -= y[val_idx]
        val_sse += np.square(preds, out=preds).sum(axis=2)
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
    if subset_size < 1:
        raise ValueError("subset_size must be >= 1")
    rng = np.random.default_rng(seed)
    subsets = [np.sort(rng.choice(n, size=subset_size, replace=False)) for _ in range(n_subsets)]
    X = np.stack([Q.matrix[:, s] for s in subsets])  # (B, T, F)
    models = _fit_lasso_batch(X, E.values, _cv_choose_lambda(X, E.values))
    members = tuple(
        (tuple(int(i) for i in s), model) for s, model in zip(subsets, models, strict=True)
    )
    return BaggedModel(members=members, n_queries=n)


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
