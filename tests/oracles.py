"""Independent reference implementations the tests check the library against.

Everything here deliberately takes a different route from the library code:
normal equations instead of SVD least squares, exhaustive refined grid search
instead of coordinate descent, KKT active-set enumeration instead of the
pairwise SVR solver, and a literal hand transcription of the smoothing
recursions.

The loop forms at the end are the library's hot loops as they were before
their interpreter overhead was stripped: the same floating-point operations in
the same order, one element or one candidate at a time. The library must match
them bit for bit.

`level1_reference` is the level-1 backtest as the README states it, one month
and one model at a time; the harness must equal it entry for entry.
"""

import itertools

import numpy as np

from uptakecast.backtest import FIT_ERRORS, LogEntry
from uptakecast.stacking import fit_stack_ols, fit_svr, predict_stack_ols, predict_svr
from uptakecast.web import _cd_solve


def ols_normal_equations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form (X'X)^-1 X'y."""
    return np.linalg.solve(X.T @ X, X.T @ y)


def ar_oracle(values: np.ndarray, m: int) -> tuple[float, np.ndarray]:
    """Normal-equations AR(m) coefficients, lags most-recent-first."""
    n = values.size
    X = np.ones((n - m, m + 1))
    for i in range(1, m + 1):
        X[:, i] = values[m - i : n - i]
    coef = ols_normal_equations(X, values[m:])
    return float(coef[0]), coef[1:]


def lasso_objective(Xs: np.ndarray, y: np.ndarray, mu: float, alpha: np.ndarray, lam: float):
    resid = y - mu - Xs @ alpha
    T = y.size
    return float(resid @ resid / (2 * T) + lam * np.abs(alpha).sum())


def lasso_grid_search(
    Xs: np.ndarray,
    y: np.ndarray,
    lam: float,
    box: float = 5.0,
    final_step: float = 1e-4,
) -> tuple[float, np.ndarray]:
    """Exhaustive grid minimization of the LASSO objective, refined locally.

    Starts on a coarse grid over [-box, box]^F and repeatedly re-grids around
    the best point with a 5x finer step; convexity keeps the optimum inside
    the shrinking window. The intercept is profiled out exactly (it equals
    mean(y) for zero-mean standardized features).
    """
    F = Xs.shape[1]
    mu = float(y.mean())
    centers = np.zeros(F)
    step = box / 10.0
    span = box
    best_alpha = np.zeros(F)
    while True:
        axes = [np.arange(c - span, c + span + step / 2, step) for c in centers]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        resid = y[:, None] - mu - Xs @ grid.T
        obj = (resid**2).sum(axis=0) / (2 * y.size) + lam * np.abs(grid).sum(axis=1)
        best_alpha = grid[int(np.argmin(obj))]
        if step <= final_step:
            break
        centers = best_alpha
        span = 2 * step
        step = step / 5.0
    return lasso_objective(Xs, y, mu, best_alpha, lam), best_alpha


def svr_dual_objective(K: np.ndarray, y: np.ndarray, beta: np.ndarray, eps: float) -> float:
    return float(0.5 * beta @ K @ beta - y @ beta + eps * np.abs(beta).sum())


def svr_kkt_violation(K: np.ndarray, y: np.ndarray, beta: np.ndarray, eps: float, C: float,
                      atol: float = 1e-9) -> float:
    """Largest gap between the per-sample admissible bias intervals."""
    G = y - K @ beta
    lo = np.full(beta.size, -np.inf)
    hi = np.full(beta.size, np.inf)
    for i, b in enumerate(beta):
        if b >= C - atol:
            hi[i] = G[i] - eps
        elif b <= -C + atol:
            lo[i] = G[i] + eps
        elif b > atol:
            lo[i] = hi[i] = G[i] - eps
        elif b < -atol:
            lo[i] = hi[i] = G[i] + eps
        else:
            lo[i], hi[i] = G[i] - eps, G[i] + eps
    return float(max(lo.max() - hi.min(), 0.0))


def svr_bruteforce_dual(K: np.ndarray, y: np.ndarray, C: float, eps: float):
    """Exact dual optimum by enumerating every KKT active-set assignment.

    Each sample is assigned one of {zero, +C, -C, interior+, interior-}; the
    stationarity system is solved for the interior coefficients and the bias,
    infeasible or KKT-violating candidates are discarded, and the best
    objective among the survivors is the optimum (one assignment always
    matches the true solution).
    """
    n = y.size
    best = None
    for assign in itertools.product(range(5), repeat=n):
        fixed = {}
        interior = []
        signs = {}
        for idx, a in enumerate(assign):
            if a == 0:
                fixed[idx] = 0.0
            elif a == 1:
                fixed[idx] = C
            elif a == 2:
                fixed[idx] = -C
            else:
                interior.append(idx)
                signs[idx] = 1.0 if a == 3 else -1.0
        m = len(interior)
        A = np.zeros((m + 1, m + 1))
        rhs = np.zeros(m + 1)
        for r, i in enumerate(interior):
            for c_, j in enumerate(interior):
                A[r, c_] = K[i, j]
            A[r, m] = 1.0
            rhs[r] = y[i] - eps * signs[i] - sum(K[i, jj] * vv for jj, vv in fixed.items())
        A[m, :m] = 1.0
        rhs[m] = -sum(fixed.values())
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        beta = np.zeros(n)
        for jj, vv in fixed.items():
            beta[jj] = vv
        ok = True
        for r, i in enumerate(interior):
            v = sol[r]
            if signs[i] > 0 and not (-1e-7 <= v <= C + 1e-7):
                ok = False
            if signs[i] < 0 and not (-C - 1e-7 <= v <= 1e-7):
                ok = False
            beta[i] = np.clip(v, -C, C)
        if not ok or abs(beta.sum()) > 1e-8:
            continue
        if svr_kkt_violation(K, y, beta, eps, C) > 1e-6:
            continue
        obj = svr_dual_objective(K, y, beta, eps)
        if best is None or obj < best[0]:
            best = (obj, beta)
    return best


def hw_hand_recursion(values, alpha, beta, gamma, l, level, trend, seasonals):
    """Literal transcription of the three smoothing recursions, one month at a time.

    Numpy scalars flow through it as they come (Nelder-Mead passes
    ``alpha``, ``beta`` and ``gamma`` as float64 scalars) and each prediction
    is stored into an ndarray element.
    """
    s = [float(v) for v in seasonals]
    a, b = float(level), float(trend)
    n = len(values)
    preds = np.empty(n)
    for t in range(n):
        y = float(values[t])
        s_old = s[t % l]
        preds[t] = a + b + s_old
        a_new = alpha * (y - s_old) + (1.0 - alpha) * (a + b)
        b_new = beta * (a_new - a) + (1.0 - beta) * b
        s[t % l] = gamma * (y - a_new) + (1.0 - gamma) * s_old
        a, b = a_new, b_new
    return preds, a, b, s


def css_residuals_loop(y: np.ndarray, mu: float, betas: np.ndarray, phis: np.ndarray):
    """ARMA one-step residuals, zero pre-sample residuals, a shifted history list."""
    p, q = betas.size, phis.size
    n = y.size
    base = y[p:] - mu
    for i in range(1, p + 1):
        base = base - betas[i - 1] * y[p - i : n - i]
    if q == 0:
        return base
    eps = np.empty(n - p)
    hist = [0.0] * q  # eps_{t-1}, ..., eps_{t-q}
    ph = [float(v) for v in phis]
    for t, b in enumerate(base):
        e = float(b)
        for j in range(q):
            e -= ph[j] * hist[j]
        eps[t] = e
        hist.insert(0, e)
        hist.pop()
    return eps


def svr_bias_interval_masks(beta: np.ndarray, G: np.ndarray, eps: float, C: float,
                            atol: float = 1e-12):
    """Per-sample admissible bias interval, one mask per KKT case."""
    n = beta.size
    lo = np.empty(n)
    hi = np.empty(n)
    at_up = beta >= C - atol
    at_lo = beta <= -C + atol
    zero = np.abs(beta) <= atol
    pos = beta > atol
    neg = beta < -atol
    lo[zero], hi[zero] = G[zero] - eps, G[zero] + eps
    lo[pos], hi[pos] = G[pos] - eps, G[pos] - eps
    lo[neg], hi[neg] = G[neg] + eps, G[neg] + eps
    lo[at_up] = -np.inf
    hi[at_lo] = np.inf
    return lo, hi


def lasso_path_candidate_loop(gram: np.ndarray, cvec: np.ndarray, lambdas: np.ndarray):
    """The LASSO homotopy with a per-feature loop over join and drop candidates
    and one grid point emitted at a time; falls back to ``_cd_solve`` as the
    library does."""
    F = cvec.size
    L = lambdas.size
    out = np.zeros((L, F))
    if F == 0 or not np.any(np.abs(cvec) > 0):
        return out
    lam_cur = float(np.max(np.abs(cvec)))
    j0 = int(np.argmax(np.abs(cvec)))
    active = [j0]
    signs = [float(np.sign(cvec[j0]))]
    grid_i = 0
    edge = 1e-14 * max(lam_cur, 1.0)

    def cd_fallback(start_i, warm):
        alpha = warm[None].copy()
        for gi in range(start_i, L):
            alpha = _cd_solve(gram[None], cvec[None], lambdas[gi : gi + 1], alpha)
            out[gi] = alpha[0]
        return out

    while grid_i < L and lambdas[grid_i] >= lam_cur - edge:
        grid_i += 1

    for _ in range(20 * F + 100):
        if grid_i >= L:
            return out
        if active:
            idx = np.array(active)
            G_AA = gram[np.ix_(idx, idx)]
            s_A = np.array(signs)
            try:
                phi = np.linalg.solve(G_AA, cvec[idx])
                theta = np.linalg.solve(G_AA, s_A)
            except np.linalg.LinAlgError:
                warm = np.zeros(F)
                warm[idx] = np.maximum(np.abs(cvec[idx]) - lam_cur, 0) * s_A
                return cd_fallback(grid_i, warm)
            if not (np.all(np.isfinite(phi)) and np.max(np.abs(phi)) < 1e9):
                return cd_fallback(grid_i, np.zeros(F))
        else:
            idx = np.array([], dtype=int)
            phi = theta = np.zeros(0)

        mask = np.ones(F, dtype=bool)
        mask[idx] = False
        a = cvec[mask] - gram[np.ix_(np.where(mask)[0], idx)] @ phi
        b = gram[np.ix_(np.where(mask)[0], idx)] @ theta
        inactive = np.where(mask)[0]

        candidates = []
        for j_loc, j in enumerate(inactive):
            for denom, num in ((1.0 - b[j_loc], a[j_loc]), (1.0 + b[j_loc], -a[j_loc])):
                if abs(denom) > 1e-14:
                    lam = num / denom
                    if edge < lam < lam_cur - edge:
                        candidates.append((lam, "join", int(j)))
        for k_loc, j in enumerate(active):
            if abs(theta[k_loc]) > 1e-14:
                lam = phi[k_loc] / theta[k_loc]
                if edge < lam < lam_cur - edge:
                    candidates.append((lam, "drop", int(j)))

        lam_event = max((c[0] for c in candidates), default=0.0)
        while grid_i < L and lambdas[grid_i] >= lam_event:
            out[grid_i, idx] = phi - lambdas[grid_i] * theta
            grid_i += 1
        if grid_i >= L:
            return out
        if lam_event <= 0.0:
            return cd_fallback(grid_i, out[grid_i - 1] if grid_i else np.zeros(F))

        lam_ev, kind, j = max(candidates, key=lambda c: (c[0], c[1] == "drop", -c[2]))
        if kind == "drop":
            k_loc = active.index(j)
            active.pop(k_loc)
            signs.pop(k_loc)
        else:
            j_loc = int(np.where(inactive == j)[0][0])
            active.append(j)
            signs.append(float(np.sign(a[j_loc] + lam_ev * b[j_loc])) or 1.0)
        lam_cur = lam_ev

    warm = out[grid_i - 1] if grid_i else np.zeros(F)
    return cd_fallback(grid_i, warm)


def svr_pair_step_candidates(beta_i, beta_j, Fi, Fj, eta, eps, C) -> float:
    """The exact pairwise line search as a candidate list and ``min`` over a
    closure: endpoints, kinks strictly inside, then the per-piece stationary
    points for each sign pair; the first minimum of phi wins."""
    d_min = max(-C - beta_i, beta_j - C)
    d_max = min(C - beta_i, beta_j + C)
    cands = [d_min, d_max]
    for kink in (-beta_i, beta_j):
        if d_min < kink < d_max:
            cands.append(kink)
    if eta > 0:
        for ui in (-1.0, 1.0):
            for uj in (-1.0, 1.0):
                d = -((Fi - Fj) + eps * (ui - uj)) / eta
                if d_min < d < d_max:
                    cands.append(d)

    def phi(d: float) -> float:
        return 0.5 * eta * d * d + (Fi - Fj) * d + eps * (abs(beta_i + d) + abs(beta_j - d))

    return min(cands, key=phi)


def svr_dual_column_loop(K: np.ndarray, y: np.ndarray, C: float, eps: float,
                         tol: float = 1e-4, max_steps: int = 200_000):
    """The pairwise SVR dual loop reading columns of K and numpy scalars."""
    n = y.size
    beta = np.zeros(n)
    Kb = np.zeros(n)
    for _ in range(max_steps):
        G = y - Kb
        lo, hi = svr_bias_interval_masks(beta, G, eps, C)
        i = int(np.argmax(lo))
        j = int(np.argmin(hi))
        if lo[i] - hi[j] <= tol:
            b_lo, b_hi = lo[i], hi[j]
            if not np.isfinite(b_lo):
                b_lo = b_hi if np.isfinite(b_hi) else 0.0
            if not np.isfinite(b_hi):
                b_hi = b_lo
            return beta, float((b_lo + b_hi) / 2.0)
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        Fi, Fj = Kb[i] - y[i], Kb[j] - y[j]
        d = svr_pair_step_candidates(beta[i], beta[j], Fi, Fj, max(eta, 0.0), eps, C)
        if d == 0.0:
            raise RuntimeError("SVR pairwise step stalled above KKT tolerance")
        beta[i] += d
        beta[j] -= d
        Kb += d * (K[:, i] - K[:, j])
    raise RuntimeError(f"SVR solver exceeded {max_steps} pairwise steps")


def level1_reference(log0, cfg, vaccine: str) -> list:
    """The level-1 log entries of ``vaccine`` from its level-0 log ``log0``.

    For each target month after the level-1 warm-up, every (clinical, web)
    pair of level-0 streams is stacked by each meta-model, fitted on the
    growing window of months before the target (or the last
    ``cfg.level1_sliding`` of them) against their observed values, and
    applied to the target's two level-0 predictions. A fit error or a
    non-finite forecast gives the target's Naive prediction and a note. One
    fit per model: no chunks, no pool, no batch of SVR designs.
    """
    naive = log0.cells[(vaccine, "Naive")]
    months = sorted(naive)
    actual = [naive[t].actual for t in months]

    def pred(method, t):
        return log0.prediction(method, t, vaccine)

    entries = []
    for k in range(cfg.level1_warmup_months, len(months)):
        lo = 0 if cfg.level1_sliding is None else max(0, k - cfg.level1_sliding)
        y = np.array(actual[lo:k])
        for clin in cfg.clinical_methods():
            for web in ("WM", "B", "L", "O"):
                X = np.array([[pred(clin, t), pred(web, t)] for t in months[lo:k]])
                e_c, e_w = pred(clin, months[k]), pred(web, months[k])
                for meta in ("OLS", "SVR-linear", "SVR-gaussian"):
                    try:
                        if meta == "OLS":
                            value = predict_stack_ols(fit_stack_ols(X, y), e_c, e_w)
                        else:
                            model = fit_svr(X, y, kernel=meta[4:], C=cfg.svr_cost,
                                            eps=cfg.svr_tube_eps, gamma=cfg.svr_gamma)
                            value = predict_svr(model, e_c, e_w)
                        note = "" if np.isfinite(value) else "fallback=naive (non-finite forecast)"
                    except FIT_ERRORS as err:
                        note = f"fallback=naive ({type(err).__name__}: {err})"
                    if note:
                        value = pred("Naive", months[k])
                    entries.append(LogEntry(vaccine, f"{meta}:{clin}+{web}", months[k],
                                            float(value), actual[k], months[lo], months[k - 1],
                                            note))
    return entries
