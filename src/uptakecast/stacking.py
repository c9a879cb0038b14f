"""Level-1 meta-models: OLS and epsilon-insensitive SVR over two prediction streams.

The SVR is solved in the dual with an unpenalized bias (the classical
formulation, C = 1/lambda): a maximal-violating-pair working-set loop with an
exact piecewise-quadratic line search on each pair. Features are standardized
inside the fit and the standardization travels with the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, TooFewSamples
from .timeseries import _freeze
from .web import _standardize

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


def solve_svr_dual(K: np.ndarray, y: np.ndarray, C: float, eps: float) -> tuple[np.ndarray, float]:
    """Solve min 0.5*b'Kb - y'b + eps*|b|_1 s.t. sum(b) = 0, |b_i| <= C.

    Returns the dual coefficients and the bias. Terminates when the largest
    KKT violation (the gap between the per-sample bias bounds) is within
    ``SVR_KKT_TOL``. A step moves two coefficients, so only their two bound
    offsets are rewritten; the n-vectors live in buffers allocated once.
    """
    n = y.size
    beta = [0.0] * n
    Kb = np.zeros(n)
    G = np.empty(n)
    lo = np.empty(n)
    hi = np.empty(n)
    diff = np.empty(n)
    off0 = _bound_offsets(0.0, eps, C)
    off_lo = np.full(n, off0[0])
    off_hi = np.full(n, off0[1])
    # Python floats for the scalar work of each step; K is symmetric, so
    # row i stands in for column i and each step reads two contiguous rows.
    K_diag = np.diag(K).tolist()
    y_list = y.tolist()
    for _ in range(_SVR_MAX_STEPS):
        np.subtract(y, Kb, out=G)
        np.add(G, off_lo, out=lo)
        np.add(G, off_hi, out=hi)
        i = int(lo.argmax())
        j = int(hi.argmin())
        b_lo, b_hi = lo.item(i), hi.item(j)
        if b_lo - b_hi <= SVR_KKT_TOL:
            if not math.isfinite(b_lo):
                b_lo = b_hi if math.isfinite(b_hi) else 0.0
            if not math.isfinite(b_hi):
                b_hi = b_lo
            return np.array(beta), (b_lo + b_hi) / 2.0
        K_i, K_j = K[i], K[j]
        eta = K_diag[i] + K_diag[j] - 2.0 * K_i.item(j)
        beta_i, beta_j = beta[i], beta[j]
        Fi, Fj = Kb.item(i) - y_list[i], Kb.item(j) - y_list[j]
        d = _pair_step(beta_i, beta_j, Fi, Fj, max(eta, 0.0), eps, C)
        if d == 0.0:
            raise NonConvergence("SVR pairwise step stalled above KKT tolerance")
        beta[i] = beta_i + d
        beta[j] = beta_j - d
        off_lo[i], off_hi[i] = _bound_offsets(beta[i], eps, C)
        off_lo[j], off_hi[j] = _bound_offsets(beta[j], eps, C)
        np.subtract(K_i, K_j, out=diff)
        diff *= d
        Kb += diff
    raise NonConvergence(f"SVR solver exceeded {_SVR_MAX_STEPS} pairwise steps")


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
    X, y = _design(X, y, 2)
    # The linear kernel reads no gamma, and its model stores None.
    settings = (C, eps) if gamma is None else (C, eps, gamma)
    if not all(math.isfinite(v) for v in settings):
        raise ValueError("C, eps and gamma must be finite")
    if C <= 0 or eps < 0:
        raise ValueError("C must be positive and eps non-negative")
    if kernel == "gaussian" and (gamma is None or gamma <= 0):
        raise ValueError("gamma must be positive for the gaussian kernel")
    Z, means, scales = _standardize(X)
    K = _kernel(Z, Z, kernel, gamma)
    beta, bias = solve_svr_dual(K, y, C, eps)
    return SvrStackModel(
        kernel=kernel,
        gamma=gamma if kernel == "gaussian" else None,
        cost=C,
        tube_eps=eps,
        dual_coefficients=beta,
        bias=bias,
        support_inputs=Z,
        feature_means=means,
        feature_scales=scales,
    )


def predict_svr(model: SvrStackModel, e_c: float, e_w: float) -> float:
    """Kernel expansion over the training inputs plus the bias."""
    z = (np.array([e_c, e_w]) - model.feature_means) / model.feature_scales
    k = _kernel(model.support_inputs, z[None], model.kernel, model.gamma)[:, 0]
    return float(model.dual_coefficients @ k + model.bias)
