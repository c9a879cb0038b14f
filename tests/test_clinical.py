import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from uptakecast import clinical
from uptakecast.clinical import (
    ArimaModel,
    _css_residuals,
    fit_ar,
    fit_arima,
    fit_holt_winters,
    hw_filter,
    hw_initial_state,
    predict_ar,
    predict_arima,
    predict_hw,
    select_arima_orders,
)
from uptakecast.errors import LagMismatch, SeriesTooShort

from conftest import make_series
from oracles import ar_oracle, css_residuals_loop, hw_hand_recursion


def ar1_series(n=20, phi=0.8, mu=5.0, e0=10.0):
    vals = [e0]
    for _ in range(n - 1):
        vals.append(phi * vals[-1] + mu)
    return make_series(vals)


class TestFitAr:
    def test_alternating_series_closed_form(self):
        # lag pairs {(1,2),(2,1)}: exact fit is mu=3, beta=-1
        model = fit_ar(make_series([1, 2, 1, 2, 1, 2, 1, 2]), m=1)
        assert model.mu == pytest.approx(3.0, abs=1e-9)
        assert model.betas[0] == pytest.approx(-1.0, abs=1e-9)
        assert predict_ar(model, [2]) == pytest.approx(1.0, abs=1e-9)

    def test_recovers_noiseless_recursion(self):
        model = fit_ar(ar1_series(), m=1)
        assert model.mu == pytest.approx(5.0, abs=1e-6)
        assert model.betas[0] == pytest.approx(0.8, abs=1e-6)

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            fit_ar(make_series(np.arange(24)), m=12)
        fit_ar(make_series(np.random.default_rng(0).normal(size=25)), m=12)

    def test_singular_design_min_norm(self):
        # A constant window makes the design rank 1: the fit is the silent
        # minimum-norm solution, which reproduces the constant exactly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_ar(make_series([4.0] * 9), m=2)
        assert predict_ar(model, [4.0, 4.0]) == pytest.approx(4.0, abs=1e-12)
        X = np.ones((7, 3)) * [1.0, 4.0, 4.0]
        expected = np.linalg.pinv(X) @ np.full(7, 4.0)
        np.testing.assert_allclose((model.mu, *model.betas), expected, atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        for m in (1, 3, 12):
            vals = np.cumsum(rng.normal(0, 1, 40)) + 50
            model = fit_ar(make_series(vals), m)
            mu, betas = ar_oracle(vals, m)
            assert model.mu == pytest.approx(mu, abs=1e-8)
            np.testing.assert_allclose(model.betas, betas, atol=1e-8)

    def test_recovers_stable_ar2_coefficients(self):
        # oscillatory roots near the unit circle keep the design excited long
        # enough for exact recovery from a noiseless run
        mu, b1, b2 = 5.0, 1.6, -0.9
        vals = [10.0, 14.0]
        for _ in range(30):
            vals.append(mu + b1 * vals[-1] + b2 * vals[-2])
        model = fit_ar(make_series(vals), 2)
        assert model.mu == pytest.approx(mu, abs=1e-6)
        assert model.betas[0] == pytest.approx(b1, abs=1e-6)
        assert model.betas[1] == pytest.approx(b2, abs=1e-6)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(9)
        vals = np.cumsum(rng.normal(0, 1, 36)) + 20
        for c in (-13.0, 7.5):
            base = fit_ar(make_series(vals), 3)
            shifted = fit_ar(make_series(vals + c), 3)
            np.testing.assert_allclose(shifted.betas, base.betas, atol=1e-6)
            assert shifted.mu == pytest.approx(
                base.mu + c * (1 - sum(base.betas)), abs=1e-6
            )
            recent = vals[-1:-4:-1]
            assert predict_ar(shifted, recent + c) == pytest.approx(
                predict_ar(base, recent) + c, abs=1e-6
            )


class TestPredictAr:
    def test_random_walk_identity(self):
        model = fit_ar(make_series([0, 1, 0, 1, 0, 1]), 1)  # just to build a model
        model = type(model)(mu=0.0, betas=(1.0,))
        assert predict_ar(model, [42.5]) == 42.5

    def test_intercept_only(self):
        model = fit_ar(make_series([0, 1, 0, 1, 0, 1]), 1)
        model = type(model)(mu=2.5, betas=(0.0,))
        assert predict_ar(model, [999.0]) == 2.5

    def test_lag_mismatch(self):
        model = fit_ar(make_series([1, 2, 1, 2, 1]), 1)
        with pytest.raises(LagMismatch):
            predict_ar(model, [1.0, 2.0])


class TestFitArima:
    def test_css_without_ma_reduces_to_ar(self):
        rng = np.random.default_rng(3)
        vals = np.cumsum(rng.normal(0, 1, 40)) + 30
        for p in (1, 2, 3):
            ar = fit_ar(make_series(vals), p)
            arima = fit_arima(make_series(vals), p=p, d=0, q=0)
            assert arima.mu == pytest.approx(ar.mu, abs=1e-6)
            np.testing.assert_allclose(arima.ar_betas, ar.betas, atol=1e-6)

    def test_linear_ramp_differenced(self):
        model = fit_arima(make_series(np.arange(20.0)), p=0, d=1, q=0)
        assert model.mu == pytest.approx(1.0, abs=1e-9)
        assert predict_arima(model, make_series(np.arange(20.0))) == pytest.approx(
            20.0, abs=1e-9
        )

    def test_series_too_short_boundary(self):
        # length must strictly exceed p + d + q + 1
        with pytest.raises(SeriesTooShort):
            fit_arima(make_series([1, 2, 3, 4]), p=1, d=1, q=1)
        fit_arima(make_series([1, 2, 3, 4, 2]), p=1, d=1, q=1)

    def test_ma_term_improves_arma_fit(self):
        # ARMA(1,1) generated data: CSS with the right orders should not be
        # worse than the pure AR fit on one-step in-sample error.
        rng = np.random.default_rng(8)
        eps = rng.normal(0, 1, 200)
        vals = np.zeros(200)
        for t in range(1, 200):
            vals[t] = 3.0 + 0.6 * vals[t - 1] + eps[t] + 0.5 * eps[t - 1]
        series = make_series(vals[100:])
        model = fit_arima(series, p=1, d=0, q=1)
        assert abs(model.ma_phis[0]) > 0.1  # MA structure detected
        assert np.isfinite(predict_arima(model, series))

    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @settings(max_examples=40, deadline=None)
    @given(
        y=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=40),
        mu=st.floats(-5.0, 5.0),
        coef=st.lists(st.floats(-0.99, 0.99), min_size=4, max_size=4),
    )
    def test_css_residuals_match_the_loop_bit_for_bit(self, p, q, y, mu, coef):
        y = np.array(y)
        betas, phis = np.array(coef[:p]), np.array(coef[2 : 2 + q])
        eps = _css_residuals(y, mu, betas, phis)
        assert eps.tobytes() == css_residuals_loop(y, mu, betas, phis).tobytes()


class TestPredictArima:
    def test_undifference_step(self):
        model = ArimaModel(d=1, mu=1.0, ar_betas=(), ma_phis=(), residual_history=())
        assert predict_arima(model, make_series([40.0, 41.0])) == pytest.approx(42.0)

    def test_all_zero_coefficients_d0(self):
        model = ArimaModel(d=0, mu=6.5, ar_betas=(0.0,), ma_phis=(), residual_history=())
        assert predict_arima(model, make_series([1, 2, 3])) == pytest.approx(6.5)

    def test_q0_equals_ar_prediction_after_differencing(self):
        rng = np.random.default_rng(12)
        vals = np.cumsum(rng.normal(0, 1, 30)) + 10
        series = make_series(vals)
        arima = fit_arima(series, p=2, d=1, q=0)
        diffed = np.diff(vals)
        ar = fit_ar(make_series(diffed), 2)
        expected = predict_ar(ar, diffed[-1:-3:-1]) + vals[-1]
        assert predict_arima(arima, series) == pytest.approx(expected, abs=1e-5)


class TestSelectArimaOrders:
    def test_prefers_differencing_on_drifting_walk(self):
        # A drift random walk is AR(1)-with-unit-root; differencing explains
        # it with one parameter fewer, which AIC rewards.
        rng = np.random.default_rng(1)
        vals = np.cumsum(2.0 + rng.normal(0, 2, 48)) + 100
        p, d, q = select_arima_orders(make_series(vals))
        assert d == 1

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            select_arima_orders(make_series([1.0]))


class TestHoltWinters:
    def test_constant_series(self):
        model = fit_holt_winters(make_series([50.0] * 24), season_length=12)
        assert predict_hw(model) == pytest.approx(50.0, abs=1e-8)
        level, trend, seasonals = hw_initial_state(make_series([50.0] * 24), 12)
        preds, *_ = hw_filter([50.0] * 24, model.alpha, model.beta, model.gamma, 12,
                              level, trend, seasonals)
        assert np.sqrt(np.mean((preds - 50.0) ** 2)) == pytest.approx(0.0, abs=1e-8)

    def test_forced_parameters_track_linear_trend(self):
        # alpha=beta=1, gamma=0 with zero seasonals: level snaps to E(t),
        # trend snaps to the step, prediction is E(t) + 2.
        values = 2.0 * np.arange(24)
        preds, a, b, seasonals = hw_filter(values, 1.0, 1.0, 0.0, 12, 0.0, 0.0, [0.0] * 12)
        assert a == pytest.approx(values[-1])
        assert b == pytest.approx(2.0)
        assert all(s == 0 for s in seasonals)
        np.testing.assert_allclose(preds[2:], values[2:], atol=1e-9)

    def test_noiseless_seasonal_signal_exact_after_warmup(self):
        t = np.arange(48)
        values = 10 + 10 * np.sin(2 * np.pi * t / 12)
        model = fit_holt_winters(make_series(values), 12)
        level, trend, seasonals = hw_initial_state(make_series(values), 12)
        preds, *_ = hw_filter(values, model.alpha, model.beta, model.gamma, 12,
                              level, trend, seasonals)
        np.testing.assert_allclose(preds[12:], values[12:], atol=1e-6)

    def test_zero_smoothing_never_updates_state(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(10, 90, 36)
        level, trend, seasonals = hw_initial_state(make_series(values), 12)
        preds, a, b, s_final = hw_filter(values, 0.0, 0.0, 0.0, 12, level, trend, seasonals)
        assert b == pytest.approx(trend)
        np.testing.assert_allclose(s_final, seasonals, atol=1e-12)
        # level advances deterministically by the frozen trend, and every
        # prediction is the initialization-implied forecast
        expected = np.array(
            [level + (k + 1) * trend + seasonals[k % 12] for k in range(36)]
        )
        np.testing.assert_allclose(preds, expected, atol=1e-9)

    @pytest.mark.parametrize("container", [list, np.array])
    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 100.0), max_size=40),
        params=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        state=st.tuples(st.floats(0.0, 100.0), st.floats(-5.0, 5.0)),
        l=st.integers(1, 12),
        data=st.data(),
    )
    def test_filter_matches_the_hand_recursion_bit_for_bit(
        self, container, values, params, state, l, data
    ):
        seasonals = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=l, max_size=l))
        # Nelder-Mead hands the smoothing parameters over as float64 scalars.
        alpha, beta, gamma = (np.float64(v) for v in params)
        got = hw_filter(container(values), alpha, beta, gamma, l, *state, seasonals)
        ref = hw_hand_recursion(container(values), alpha, beta, gamma, l, *state, seasonals)
        assert got[0].tobytes() == ref[0].tobytes()
        assert np.array(got[1:3]).tobytes() == np.array(ref[1:3]).tobytes()
        assert np.array(got[3]).tobytes() == np.array(ref[3]).tobytes()

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            fit_holt_winters(make_series(np.arange(23.0)), 12)

    def test_optimizer_beats_random_triples(self):
        rng = np.random.default_rng(4)
        t = np.arange(48)
        values = 60 + 0.5 * t + 8 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 2, 48)
        series = make_series(values)
        model = fit_holt_winters(series, 12)
        level, trend, seasonals = hw_initial_state(series, 12)

        def objective(a, b, g):
            preds, *_ = hw_filter(values, a, b, g, 12, level, trend, seasonals)
            err = preds[12:] - values[12:]
            return err @ err

        chosen = objective(model.alpha, model.beta, model.gamma)
        samples = rng.uniform(0, 1, (100, 3))
        assert all(chosen <= objective(*row) + 1e-9 for row in samples)

    def test_predict_hw_direct_sum(self):
        model = fit_holt_winters(make_series([50.0] * 24), 12)
        patched = type(model)(
            alpha=model.alpha, beta=model.beta, gamma=model.gamma,
            season_length=12, level=100.0, trend=2.0,
            seasonals=tuple([-5.0] + [0.0] * 11), next_position=0,
        )
        assert predict_hw(patched) == pytest.approx(97.0)


class TestFinitePredictions:
    def test_all_models_finite_on_random_input(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            vals = np.clip(rng.normal(60, 20, 30), 0, None)
            series = make_series(vals)
            assert np.isfinite(predict_ar(fit_ar(series, 3), vals[-1:-4:-1]))
            assert np.isfinite(predict_arima(fit_arima(series, 1, 1, 1), series))
            assert np.isfinite(predict_hw(fit_holt_winters(series, 12)))


def scipy_minimize(fun, x0, lower, upper):
    """The reference: scipy's bounded Nelder-Mead under the same options, with
    its ``np.argsort`` calls made stable, the tie rule of `clinical.minimize`."""
    stable = functools.partial(np.argsort, kind="stable")
    with np.errstate(all="ignore"), mock.patch.object(np, "argsort", stable):
        return scipy.optimize.minimize(
            fun, x0, method="Nelder-Mead", bounds=scipy.optimize.Bounds(lower, upper),
            options=clinical._NM_OPTIONS,
        )


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_same_result(got, ref):
    # array_equal: on a zero bound, np.clip's sign of a zero depends on the
    # array shapes (see clinical._clip); the fits' own test compares bytes.
    assert np.array_equal(got.x, ref.x)
    assert same_float(got.fun, ref.fun)
    assert (got.nfev, got.nit, got.success, got.message) == (
        ref.nfev, ref.nit, ref.success, ref.message
    )


# One coordinate's box: finite, half-open or free, and the start drawn on a
# bound, at (signed) zero or inside.
BOXES = st.sampled_from(
    [(0.0, 1.0), (-1.0, 1.0), (-0.99, 0.99), (-np.inf, np.inf), (-np.inf, 0.5),
     (-2.0, np.inf), (0.25, 0.25), (-0.0, 0.0), (0.0, 0.0)]
)


@st.composite
def nm_problems(draw):
    n = draw(st.integers(1, 5))
    boxes = [draw(BOXES) for _ in range(n)]
    x0 = []
    for lo, hi in boxes:
        edges = [v for v in (lo, hi, 0.0, -0.0) if np.isfinite(v) and lo <= v <= hi]
        x0.append(draw(st.floats(max(lo, -3.0), min(hi, 3.0)) | st.sampled_from(edges)))
    center = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    # A zero weight makes the objective flat in that coordinate.
    weights = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
    )
    kind = draw(st.sampled_from(["smooth", "plateaus", "inf region", "nan region"]))
    cut = draw(st.floats(-1.0, 1.0))

    def fun(x):
        d = x - center
        f = float(np.dot(weights, d * d))
        if kind == "plateaus":
            return round(f, 1)  # many equal vertex values
        if kind == "inf region" and x[0] > cut:
            return np.inf
        if kind == "nan region" and x[-1] < cut:
            return np.nan
        return f

    return fun, x0, [lo for lo, _ in boxes], [hi for _, hi in boxes]


# x86 features within numpy's build baseline: with NPY_ENABLE_CPU_FEATURES set
# to these, numpy enables none of its dispatched SIMD loops.
BASELINE_FEATURES = "SSE SSE2 SSE3"


class TestMinimize:
    """The in-package Nelder-Mead against scipy's, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(problem=nm_problems())
    def test_matches_scipy_bit_for_bit(self, problem):
        fun, x0, lower, upper = problem
        # A quarter of the examples never converge (a NaN vertex, a flat
        # coordinate); 300 iterations instead of 2,000 keeps them cheap.
        with mock.patch.dict(clinical._NM_OPTIONS, maxiter=300):
            got = clinical.minimize(fun, x0, lower, upper)
            ref = scipy_minimize(fun, x0, lower, upper)
        assert_same_result(got, ref)

    @settings(max_examples=150, deadline=None)
    @given(problem=nm_problems(), maxfev=st.integers(1, 60), maxiter=st.integers(1, 30))
    def test_matches_scipy_when_a_limit_is_reached(self, problem, maxfev, maxiter):
        fun, x0, lower, upper = problem
        with mock.patch.dict(clinical._NM_OPTIONS, maxfev=maxfev, maxiter=maxiter):
            got = clinical.minimize(fun, x0, lower, upper)
            ref = scipy_minimize(fun, x0, lower, upper)
        assert_same_result(got, ref)

    def test_every_budget_on_a_kinked_problem(self):
        # The kink makes the simplex shrink 15 times in its 104 evaluations,
        # so 45 of these budgets run out inside a shrink, others inside a
        # contraction or an expansion.
        def fun(x):
            return float(np.abs(x - [0.3, 0.7, 0.1]).max())

        problem = (fun, (0.5, 0.1, 0.1), (0.0,) * 3, (1.0,) * 3)
        limits = [{"maxfev": k} for k in range(1, 120)] + [{"maxiter": k} for k in range(1, 40)]
        messages = set()
        for limit in limits:
            with mock.patch.dict(clinical._NM_OPTIONS, limit):
                got = clinical.minimize(*problem)
                assert_same_result(got, scipy_minimize(*problem))
            messages.add(got.message)
        assert messages == {
            "Optimization terminated successfully.",
            "Maximum number of function evaluations has been exceeded.",
            "Maximum number of iterations has been exceeded.",
        }

    @pytest.mark.skipif(
        not all(np._core._multiarray_umath.__cpu_features__.get(name)
                for name in BASELINE_FEATURES.split()),
        reason=f"{BASELINE_FEATURES} are not CPU features here",
    )
    def test_ties_do_not_depend_on_the_simd_dispatch(self):
        # The objective is 0 or 1, so vertices tie at every sort and the
        # result rests on their order. numpy's unstable argsort orders ties
        # differently with its dispatched loops and with the baseline ones.
        code = (
            "import json; from uptakecast import clinical; "
            "r = clinical.minimize(lambda x: float(max(x[1], x[2]) <= 0.1), "
            "(0.5, 0.1, 0.1), (0.0,) * 3, (1.0,) * 3); "
            "print(json.dumps([r.x.tolist(), r.nfev]))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "NPY_ENABLE_CPU_FEATURES": BASELINE_FEATURES}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        got = clinical.minimize(lambda x: float(max(x[1], x[2]) <= 0.1),
                                (0.5, 0.1, 0.1), (0.0,) * 3, (1.0,) * 3)
        assert json.loads(result.stdout) == [got.x.tolist(), got.nfev]

    def test_holt_winters_and_arima_fits_match_scipy(self, monkeypatch):
        ours, compared = clinical.minimize, []

        def both(fun, x0, lower, upper):
            got, ref = ours(fun, x0, lower, upper), scipy_minimize(fun, x0, lower, upper)
            assert_same_result(got, ref)
            assert got.x.tobytes() == ref.x.tobytes()
            compared.append(got.nfev)
            return got

        monkeypatch.setattr(clinical, "minimize", both)
        rng = np.random.default_rng(3)
        t = np.arange(40)
        series = make_series(60 + 0.3 * t + 8 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 2, 40))
        fit_holt_winters(series, 12)
        select_arima_orders(series)
        # On a constant series every vertex scores 0: all vertices tie.
        fit_holt_winters(make_series([50.0] * 30), 12)
        assert len(compared) >= 18
