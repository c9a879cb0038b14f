"""Level-1 meta-models: OLS and epsilon-insensitive SVR over two prediction streams.

The SVR is solved in the dual with an unpenalized bias (the classical
formulation, C = 1/lambda): a maximal-violating-pair working-set loop with an
exact piecewise-quadratic line search on each pair. Features are standardized
inside the fit and the standardization travels with the model. SVR fits are
step generators (`svr_steps`) that `web.serve` merges into `solve_svr_duals` calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import NonConvergence, TooFewSamples
from .timeseries import _freeze
from .web import _outcome, _standardize, serve

SVR_KKT_TOL = 1e-4
_SVR_MAX_STEPS = 200_000
_BOUND_ATOL = 1e-12


@dataclass(frozen=True)
class OlsStackModel:
    mu: float
    beta1: float
    beta2: float


@dataclass(frozen=True)
class SvrStackModel:
    """Dual SVR solution over standardized (e_c, e_w) pairs."""

    kernel: str  # "linear" or "gaussian"
    gamma: float | None
    cost: float
    tube_eps: float
    dual_coefficients: np.ndarray = field(repr=False)  # one per training sample
    bias: float
    support_inputs: np.ndarray = field(repr=False)  # standardized training rows
    feature_means: np.ndarray = field(repr=False)
    feature_scales: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("dual_coefficients", "support_inputs", "feature_means", "feature_scales"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def _design(X: np.ndarray, y: np.ndarray, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    """Check a stack training set: an (n, 2) design of clinical and web
    predictions, n observed targets, n >= ``minimum``, every value finite."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2 or y.shape != X.shape[:1]:
        raise ValueError(f"need an (n, 2) design and n targets, got {X.shape} and {y.shape}")
    if len(y) < minimum:
        raise TooFewSamples(f"need at least {minimum} stack samples, got {len(y)}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("stack sample values must be finite")
    return X, y


def fit_stack_ols(X: np.ndarray, y: np.ndarray) -> OlsStackModel:
    """Closed-form least squares for target = mu + beta1*e_c + beta2*e_w.

    ``X`` holds one (e_c, e_w) row per training month and ``y`` the targets.
    Collinear prediction streams (a degenerate but real occurrence) get the
    minimum-norm least-squares solution instead of failing.
    """
    X, y = _design(X, y, 3)
    A = np.column_stack([np.ones(len(y)), X])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    return OlsStackModel(mu=float(coef[0]), beta1=float(coef[1]), beta2=float(coef[2]))


def predict_stack_ols(model: OlsStackModel, e_c: float, e_w: float) -> float:
    return float(model.mu + model.beta1 * e_c + model.beta2 * e_w)


def _kernel(A: np.ndarray, B: np.ndarray, kernel: str, gamma: float | None) -> np.ndarray:
    """Kernel values between every row of ``A`` and every row of ``B``, (len(A), len(B))."""
    if kernel == "linear":
        return A @ B.T
    if kernel == "gaussian":
        sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-gamma * sq)
    raise ValueError(f"unknown kernel {kernel!r}")


def _bound_offsets(b: float, eps: float, C: float) -> tuple[float, float]:
    """Offsets that turn G_i into the ends of sample i's admissible bias interval.

    The KKT conditions admit [G - eps, G + eps] for a zero coefficient, G - eps
    for a positive one and G + eps for a negative one; a coefficient at +C (-C)
    leaves the interval open below (above), and that test wins over the sign.
    ``G + (-eps)`` is ``G - eps`` bit for bit, since IEEE subtraction is
    addition of the negation.
    """
    if b >= C - _BOUND_ATOL:
        off_lo = -np.inf
    else:
        off_lo = eps if b < -_BOUND_ATOL else -eps
    if b <= -C + _BOUND_ATOL:
        off_hi = np.inf
    else:
        off_hi = -eps if b > _BOUND_ATOL else eps
    return off_lo, off_hi


def _pair_step(beta_i, beta_j, Fi, Fj, eta, eps, C) -> float:
    """Exact minimizer of the pairwise subproblem along (e_i - e_j).

    phi(d) = 0.5*eta*d^2 + (Fi - Fj)*d + eps*(|beta_i + d| + |beta_j - d|),
    a convex piecewise quadratic over the box-feasible interval; its minimum
    is at an endpoint, a kink, or a per-piece stationary point. The candidates
    are visited in that order and the first strict minimum of phi is kept.
    """
    dF = Fi - Fj
    half_eta = 0.5 * eta
    d_min = max(-C - beta_i, beta_j - C)
    d_max = min(C - beta_i, beta_j + C)
    cands = (d_min, d_max, -beta_i, beta_j)
    if eta > 0:
        # eps * (ui - uj) for the sign pairs (-1, -1), (-1, 1), (1, -1); (1, 1)
        # gives the (-1, -1) point again, which a strict minimum never takes.
        cands += (-(dF + eps * 0.0) / eta, -(dF + eps * -2.0) / eta, -(dF + eps * 2.0) / eta)
    best = best_phi = None
    for k, d in enumerate(cands):
        if k > 1 and not d_min < d < d_max:  # kinks and stationary points strictly inside
            continue
        p = half_eta * d * d + dF * d + eps * (abs(beta_i + d) + abs(beta_j - d))
        if k == 0 or p < best_phi:
            best, best_phi = d, p
    return best


@np.errstate(over="ignore", invalid="ignore")  # Python floats overflow silently too
def _pair_steps(beta_i, beta_j, Fi, Fj, eta, eps, C) -> np.ndarray:
    """`_pair_step` element by element over arrays, bit for bit.

    The box ends need no tie rule: with C > 0 and finite coefficients none
    of the four bounds is -0.0 or NaN, so ``np.maximum`` and ``np.minimum``
    pick what ``max`` and ``min`` pick. The candidates, each computed with
    `_pair_step`'s float operations, go to one argmin: invalid ones and NaNs
    after the first count as +inf, so it returns the first strict minimum
    and a NaN never wins.
    """
    dF = Fi - Fj
    half_eta = 0.5 * eta
    d_min = np.maximum(-C - beta_i, beta_j - C)
    d_max = np.minimum(C - beta_i, beta_j + C)
    curved = eta > 0
    # The stationary points -(dF + eps * (ui - uj)) / eta, in `_pair_step`'s order.
    stationary = -(dF + np.array([[eps * 0.0], [eps * -2.0], [eps * 2.0]])) / np.where(
        curved, eta, 1.0
    )
    d = np.concatenate(((d_min, d_max, -beta_i, beta_j), stationary))
    phi = half_eta * d * d + dF * d + eps * (np.abs(beta_i + d) + np.abs(beta_j - d))
    valid = (d_min < d) & (d < d_max)
    valid[:2] = True
    valid[4:] &= curved
    valid[1:] &= phi[1:] == phi[1:]  # not NaN
    k = np.where(valid, phi, np.inf).argmin(axis=0)
    return d[k, np.arange(k.size)]


def _bias(b_lo: float, b_hi: float) -> float:
    """The bias at a passed KKT check: the midpoint of the admissible interval,
    an open end replaced by the other one (0 when both are open)."""
    if not math.isfinite(b_lo):
        b_lo = b_hi if math.isfinite(b_hi) else 0.0
    if not math.isfinite(b_hi):
        b_hi = b_lo
    return (b_lo + b_hi) / 2.0


def _stalled() -> NonConvergence:
    return NonConvergence("SVR pairwise step stalled above KKT tolerance")


def _exceeded() -> NonConvergence:
    return NonConvergence(f"SVR solver exceeded {_SVR_MAX_STEPS} pairwise steps")


def solve_svr_dual(
    K: np.ndarray, y: np.ndarray, C: float, eps: float, *, start: tuple | None = None
) -> tuple[np.ndarray, float]:
    """Solve min 0.5*b'Kb - y'b + eps*|b|_1 s.t. sum(b) = 0, |b_i| <= C.

    Returns the dual coefficients and the bias. Terminates when the largest
    KKT violation (the gap between the per-sample bias bounds) is within
    ``SVR_KKT_TOL``. A step moves two coefficients, so only their two bound
    offsets are rewritten; the n-vectors live in buffers allocated once.
    ``start`` continues a solve that `solve_svr_duals` began: the
    coefficients as a list, ``Kb``, the two offset arrays and the number of
    steps taken, which count against ``_SVR_MAX_STEPS``.
    """
    n = y.size
    if start is None:
        off0 = _bound_offsets(0.0, eps, C)
        start = [0.0] * n, np.zeros(n), np.full(n, off0[0]), np.full(n, off0[1]), 0
    beta, Kb, off_lo, off_hi, steps = start
    G = np.empty(n)
    lo = np.empty(n)
    hi = np.empty(n)
    diff = np.empty(n)
    # Python floats for the scalar work of each step; K is symmetric, so
    # row i stands in for column i and each step reads two contiguous rows.
    K_diag = np.diag(K).tolist()
    y_list = y.tolist()
    for _ in range(_SVR_MAX_STEPS - steps):
        np.subtract(y, Kb, out=G)
        np.add(G, off_lo, out=lo)
        np.add(G, off_hi, out=hi)
        i = int(lo.argmax())
        j = int(hi.argmin())
        b_lo, b_hi = lo.item(i), hi.item(j)
        if b_lo - b_hi <= SVR_KKT_TOL:
            return np.array(beta), _bias(b_lo, b_hi)
        K_i, K_j = K[i], K[j]
        eta = K_diag[i] + K_diag[j] - 2.0 * K_i.item(j)
        beta_i, beta_j = beta[i], beta[j]
        Fi, Fj = Kb.item(i) - y_list[i], Kb.item(j) - y_list[j]
        d = _pair_step(beta_i, beta_j, Fi, Fj, max(eta, 0.0), eps, C)
        if d == 0.0:
            raise _stalled()
        beta[i] = beta_i + d
        beta[j] = beta_j - d
        off_lo[i], off_hi[i] = _bound_offsets(beta[i], eps, C)
        off_lo[j], off_hi[j] = _bound_offsets(beta[j], eps, C)
        np.subtract(K_i, K_j, out=diff)
        diff *= d
        Kb += diff
    raise _exceeded()


# `solve_svr_duals` runs up to _SVR_SLOTS problems in lockstep. Once no
# problem waits for a slot and at most _SVR_TAIL slots are live, each finishes
# alone in `solve_svr_dual`; a call with at most _SVR_TAIL problems takes no
# round. BENCH_17.json records the measurement that chose both.
_SVR_SLOTS = 48
_SVR_TAIL = 24


def solve_svr_duals(
    problems: Sequence[tuple[Callable[[], np.ndarray], np.ndarray]], C: float, eps: float
) -> list[tuple[np.ndarray, float] | NonConvergence]:
    """`solve_svr_dual` for many problems, bit for bit.

    A problem is a function that builds its kernel matrix, called when a slot
    takes the problem, and its targets. Returns each problem's outcome, in
    problem order: the coefficients and the bias, or the ``NonConvergence``
    that `solve_svr_dual` raises for it.

    The slots take the problems in index order, padded to the largest n, and
    take one step each per round; a finished problem's slot takes the next
    waiting problem. A round does, slot by slot, exactly the float operations
    of a `solve_svr_dual` step. Padded entries have zero kernel rows and
    -inf/+inf bound offsets, so they are never picked and never move, and
    `_pair_step` and `_bound_offsets` become element-wise selections that keep
    their choices. So every problem takes the steps it would take alone.
    Rounds run while a problem waits or more than ``_SVR_TAIL`` slots are
    live; then each live slot finishes in slot order in `solve_svr_dual`, from
    its state. A call with at most ``_SVR_TAIL`` problems takes no round.
    """
    outcomes: list = [None] * len(problems)
    S = min(_SVR_SLOTS, len(problems))
    W = max((y.size for _, y in problems), default=0)
    Kbuf = np.zeros((S, W, W))
    y = np.zeros((S, W))
    Kb = np.zeros((S, W))
    beta = np.zeros((S, W))
    off_lo = np.full((S, W), -np.inf)
    off_hi = np.full((S, W), np.inf)
    G, lo, hi = np.empty((S, W)), np.empty((S, W)), np.empty((S, W))
    steps = np.zeros(S, dtype=int)
    size, owner = [0] * S, [0] * S
    off0 = _bound_offsets(0.0, eps, C)
    top, bottom = C - _BOUND_ATOL, -C + _BOUND_ATOL

    def fill(s: int, p: int) -> None:
        make_K, target = problems[p]
        n = target.size
        Kbuf[s, :n, :n] = make_K()
        Kbuf[s, :n, n:] = 0.0
        Kbuf[s, n:] = 0.0
        y[s, :n], y[s, n:] = target, 0.0
        Kb[s] = beta[s] = 0.0
        off_lo[s, :n], off_lo[s, n:] = off0[0], -np.inf
        off_hi[s, :n], off_hi[s, n:] = off0[1], np.inf
        steps[s] = 0
        size[s], owner[s] = n, p

    def move(src: int, dst: int) -> None:
        for a in (Kbuf, y, Kb, beta, off_lo, off_hi, steps):
            a[dst] = a[src]
        size[dst], owner[dst] = size[src], owner[src]

    for s in range(S):
        fill(s, s)
    m = S  # slots [0, m) hold a problem each
    waiting = len(problems) - S  # the last `waiting` problems have no slot yet
    # Flat views: entry i of slot s, and row i of its kernel, are at s * W + i.
    beta_f, Kb_f, y_f, off_lo_f, off_hi_f = (a.reshape(-1) for a in (beta, Kb, y, off_lo, off_hi))
    K_rows = Kbuf.reshape(S * W, W)
    lo_v, hi_v = lo.reshape(-1), hi.reshape(-1)
    base = np.arange(S) * W
    while waiting or m > _SVR_TAIL:
        np.subtract(y[:m], Kb[:m], out=G[:m])
        np.add(G[:m], off_lo[:m], out=lo[:m])
        np.add(G[:m], off_hi[:m], out=hi[:m])
        i = lo[:m].argmax(axis=1)
        j = hi[:m].argmin(axis=1)
        fi, fj = base[:m] + i, base[:m] + j
        b_lo, b_hi = lo_v[fi], hi_v[fj]
        out_of_steps = steps[:m] >= _SVR_MAX_STEPS
        converged = (b_lo - b_hi <= SVR_KKT_TOL) & ~out_of_steps
        finished = converged | out_of_steps
        for s in np.flatnonzero(converged).tolist():
            outcomes[owner[s]] = beta[s, : size[s]].copy(), _bias(b_lo.item(s), b_hi.item(s))

        # A step on every live slot; the slots that finished this round are
        # refilled or dropped below, so their step is never read. Gathered
        # row r starts at r * W, as slot r does, so the flat index of an
        # entry in the slots also finds it in the gathered rows: the
        # diagonal entries of eta come from them.
        K_i, K_j = K_rows[fi], K_rows[fj]
        eta = K_i.reshape(-1)[fi] + K_j.reshape(-1)[fj] - 2.0 * K_i.reshape(-1)[fj]
        beta_i, beta_j = beta_f[fi], beta_f[fj]
        d = _pair_steps(beta_i, beta_j, Kb_f[fi] - y_f[fi], Kb_f[fj] - y_f[fj],
                        np.where(0.0 > eta, 0.0, eta), eps, C)
        stalled = (d == 0.0) & ~finished
        finished |= stalled
        # `_bound_offsets` of the new beta_i (first m) and beta_j (last m).
        b = np.concatenate((beta_i + d, beta_j - d))
        new_lo = np.where(b >= top, -np.inf, np.where(b < -_BOUND_ATOL, eps, -eps))
        new_hi = np.where(b <= bottom, np.inf, np.where(b > _BOUND_ATOL, -eps, eps))
        for f, part in ((fi, slice(None, m)), (fj, slice(m, None))):
            beta_f[f] = b[part]
            off_lo_f[f] = new_lo[part]
            off_hi_f[f] = new_hi[part]
        K_i -= K_j
        K_i *= d[:, None]
        Kb[:m] += K_i
        steps[:m] += 1

        # Highest slot first, so that a dropped slot takes a live problem.
        for s in np.flatnonzero(finished)[::-1].tolist():
            if not converged[s]:
                outcomes[owner[s]] = _exceeded() if out_of_steps[s] else _stalled()
            if waiting:
                fill(s, len(problems) - waiting)
                waiting -= 1
            else:
                m -= 1
                move(m, s)
    for s in range(m):
        n = size[s]
        state = (beta[s, :n].tolist(), Kb[s, :n].copy(), off_lo[s, :n].copy(),
                 off_hi[s, :n].copy(), int(steps[s]))
        try:
            outcomes[owner[s]] = solve_svr_dual(Kbuf[s, :n, :n], y[s, :n], C, eps, start=state)
        except NonConvergence as err:
            outcomes[owner[s]] = err
    return outcomes


def fit_svr(
    X: np.ndarray,
    y: np.ndarray,
    *,
    kernel: str = "gaussian",
    C: float = 1.0,
    eps: float = 0.1,
    gamma: float | None = 0.25,
) -> SvrStackModel:
    """Fit epsilon-insensitive SVR on standardized (e_c, e_w) rows ``X`` and targets ``y``.

    Defaults follow conventional library settings: C = 1, tube eps = 0.1,
    gamma = 1 / (2 * n_features) for the Gaussian kernel.
    """
    return _outcome(serve([svr_steps(X, y, (kernel,), C, eps, gamma)])[0], 0)


def _svr_inputs(X, y, C: float, eps: float, gamma: float | None):
    """`_design` for an SVR fit, then its kernel-free setting checks, in `fit_svr`'s order."""
    X, y = _design(X, y, 2)
    # The linear kernel reads no gamma, and its model stores None.
    settings = (C, eps) if gamma is None else (C, eps, gamma)
    if not all(math.isfinite(v) for v in settings):
        raise ValueError("C, eps and gamma must be finite")
    if C <= 0 or eps < 0:
        raise ValueError("C must be positive and eps non-negative")
    return X, y


def svr_steps(X: np.ndarray, y: np.ndarray, kernels: Sequence[str], C: float, eps: float,
              gamma: float | None) -> Generator:
    """`fit_svr` of one design with each of ``kernels``, as steps for `web.serve`.

    The design is checked and standardized once for all the kernels, and one
    request holds a dual problem per kernel; its kernel matrix is built when
    a solver slot takes it. Returns one outcome per kernel: its model, or the
    error `fit_svr` raises for it.
    """
    try:
        X, y = _svr_inputs(X, y, C, eps, gamma)
    except (TooFewSamples, ValueError) as err:
        return [err] * len(kernels)
    Z, means, scales = _standardize(X)
    errors = []  # per kernel: why it cannot be solved, or None
    for kernel in kernels:
        if kernel not in ("linear", "gaussian"):
            errors.append(ValueError(f"unknown kernel {kernel!r}"))
        elif kernel == "gaussian" and not (gamma is not None and gamma > 0):
            errors.append(ValueError("gamma must be positive for the gaussian kernel"))
        else:
            errors.append(None)
    problems = [(functools.partial(_kernel, Z, Z, kernel, gamma), y)
                for kernel, err in zip(kernels, errors) if err is None]
    duals = iter((yield solve_svr_duals, (C, eps), problems))
    outcomes = []
    for kernel, err in zip(kernels, errors):
        outcome = next(duals) if err is None else err
        if not isinstance(outcome, Exception):
            beta, bias = outcome
            outcome = SvrStackModel(kernel=kernel, gamma=gamma if kernel == "gaussian" else None,
                                    cost=C, tube_eps=eps, dual_coefficients=beta, bias=bias,
                                    support_inputs=Z, feature_means=means, feature_scales=scales)
        outcomes.append(outcome)
    return outcomes


def predict_svr(model: SvrStackModel, e_c: float, e_w: float) -> float:
    """Kernel expansion over the training inputs plus the bias."""
    z = (np.array([e_c, e_w]) - model.feature_means) / model.feature_scales
    k = _kernel(model.support_inputs, z[None], model.kernel, model.gamma)[:, 0]
    return float(model.dual_coefficients @ k + model.bias)
