import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uptakecast import stacking
from uptakecast.errors import NonConvergence, TooFewSamples
from uptakecast.stacking import (
    SVR_KKT_TOL,
    SvrStackModel,
    _BOUND_ATOL,
    _bound_offsets,
    _kernel,
    _pair_step,
    _pair_steps,
    fit_stack_ols,
    fit_svr,
    predict_stack_ols,
    predict_svr,
    solve_svr_dual,
    solve_svr_duals,
)
from oracles import (
    ols_normal_equations,
    svr_bias_interval_masks,
    svr_bruteforce_dual,
    svr_dual_column_loop,
    svr_dual_objective,
    svr_kkt_violation,
    svr_pair_step_candidates,
)

def samples_from(e_c, e_w, targets):
    """The (n, 2) clinical/web design and the n targets the stack fits take."""
    return np.column_stack([e_c, e_w]).astype(float), np.asarray(targets, dtype=float)


def same_bits(a, b) -> bool:
    """Byte equality of two float arrays or floats: tells 0.0 from -0.0."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def svr_predictions(model, e_c, e_w):
    return np.array([predict_svr(model, c, w) for c, w in zip(e_c, e_w)])


class TestStackOls:
    def test_exact_regressor_passthrough(self):
        rng = np.random.default_rng(0)
        e_c = rng.uniform(0, 100, 10)
        e_w = rng.uniform(0, 100, 10)
        model = fit_stack_ols(*samples_from(e_c, e_w, e_c))
        assert model.mu == pytest.approx(0.0, abs=1e-8)
        assert model.beta1 == pytest.approx(1.0, abs=1e-10)
        assert model.beta2 == pytest.approx(0.0, abs=1e-10)

    def test_noiseless_affine_recovery(self):
        rng = np.random.default_rng(1)
        e_c = rng.uniform(0, 100, 10)
        e_w = rng.uniform(0, 100, 10)
        targets = 2 + 0.5 * e_c + 0.3 * e_w
        model = fit_stack_ols(*samples_from(e_c, e_w, targets))
        oracle = ols_normal_equations(
            np.column_stack([np.ones(10), e_c, e_w]), targets
        )
        assert (model.mu, model.beta1, model.beta2) == pytest.approx(tuple(oracle), abs=1e-8)
        assert model.mu == pytest.approx(2.0, abs=1e-8)
        preds = [predict_stack_ols(model, c, w) for c, w in zip(e_c, e_w)]
        np.testing.assert_allclose(preds, targets, atol=1e-8)

    def test_collinear_streams_min_norm(self):
        # Identical streams make the design rank 2: the fit is the silent
        # minimum-norm solution, exact on the collinear target.
        rng = np.random.default_rng(2)
        e_c = rng.uniform(0, 100, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_stack_ols(*samples_from(e_c, e_c, e_c * 1.5))
        assert predict_stack_ols(model, 50.0, 50.0) == pytest.approx(75.0, abs=1e-9)
        A = np.column_stack([np.ones(8), e_c, e_c])
        expected = np.linalg.pinv(A) @ (e_c * 1.5)
        np.testing.assert_allclose((model.mu, model.beta1, model.beta2), expected, atol=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit_stack_ols(*samples_from([1, 2], [3, 4], [5, 6]))

    def test_predict_arithmetic(self):
        from uptakecast.stacking import OlsStackModel

        assert predict_stack_ols(OlsStackModel(0.0, 1.0, 0.0), 13.1, 99.0) == 13.1
        assert predict_stack_ols(OlsStackModel(2.0, 0.5, 0.3), 10.0, 10.0) == pytest.approx(10.0)

    def test_superset_dominance_over_single_streams(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(4, 20))
            e_c = rng.uniform(0, 100, n)
            e_w = rng.uniform(0, 100, n)
            y = rng.uniform(0, 100, n)
            model = fit_stack_ols(*samples_from(e_c, e_w, y))
            sse = np.sum((y - np.array([predict_stack_ols(model, c, w)
                                        for c, w in zip(e_c, e_w)])) ** 2)
            for stream in (e_c, e_w):
                X1 = np.column_stack([np.ones(n), stream])
                coef = np.linalg.lstsq(X1, y, rcond=None)[0]
                sse1 = np.sum((y - X1 @ coef) ** 2)
                assert sse <= sse1 + 1e-8


X_OK = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0], [4.0, 8.0]])
Y_OK = np.array([7.0, 8.0, 9.0, 11.0])


class TestStackInputs:
    """Both fits share one input check; bad input raises ValueError, not a fit error."""

    @pytest.mark.parametrize("fit", [fit_stack_ols, fit_svr], ids=["ols", "svr"])
    @pytest.mark.parametrize(
        "X, y, message",
        [
            pytest.param(np.where(X_OK == 5.0, np.nan, X_OK), Y_OK, "finite", id="nan_design"),
            pytest.param(X_OK, np.array([7.0, 8.0, np.inf, 11.0]), "finite", id="inf_target"),
            pytest.param(X_OK, Y_OK[:3], r"\(n, 2\)", id="length_mismatch"),
            pytest.param(X_OK[:, :1], Y_OK, r"\(n, 2\)", id="one_column"),
        ],
    )
    def test_rejected(self, fit, X, y, message):
        with pytest.raises(ValueError, match=message):
            fit(X, y)

    @pytest.mark.parametrize("fit", [fit_stack_ols, fit_svr], ids=["ols", "svr"])
    def test_accepted(self, fit):
        fit(X_OK, Y_OK)
        fit(X_OK.tolist(), Y_OK.tolist())


class TestSvrSolver:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            Z = rng.normal(0, 1, (n, 2))
            y = rng.normal(0, 2, n)
            C = float(rng.choice([0.5, 1.0, 2.0]))
            eps = float(rng.choice([0.0, 0.1, 0.5]))
            if trial % 2:
                sq = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
                K = np.exp(-0.25 * sq)
            else:
                K = Z @ Z.T
            beta, bias = solve_svr_dual(K, y, C, eps)
            oracle = svr_bruteforce_dual(K, y, C, eps)
            assert oracle is not None
            ours = svr_dual_objective(K, y, beta, eps)
            assert ours == pytest.approx(oracle[0], abs=1e-5)
            assert svr_kkt_violation(K, y, beta, eps, C) <= 1e-4
            assert abs(beta.sum()) <= 1e-8
            assert np.all(np.abs(beta) <= C + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        C=st.floats(0.05, 10.0),
        eps=st.sampled_from([0.0, 0.1]) | st.floats(0.0, 2.0),
        inner=st.lists(st.floats(-1.0, 1.0), max_size=10),
        data=st.data(),
    )
    def test_bias_interval_matches_the_mask_form_bit_for_bit(self, C, eps, inner, data):
        # The solver's interval is G plus per-sample bound offsets. Every KKT
        # case boundary, plus coefficients strictly inside the box.
        edges = [0.0, _BOUND_ATOL, -_BOUND_ATOL, C, -C, C - _BOUND_ATOL, -C + _BOUND_ATOL,
                 2 * _BOUND_ATOL, -2 * _BOUND_ATOL, _BOUND_ATOL / 2, -_BOUND_ATOL / 2]
        beta = np.array(edges + [C * v for v in inner])
        G = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=beta.size,
                                        max_size=beta.size)))
        off_lo, off_hi = np.array([_bound_offsets(b, eps, C) for b in beta.tolist()]).T
        lo_ref, hi_ref = svr_bias_interval_masks(beta, G, eps, C, atol=_BOUND_ATOL)
        assert same_bits(G + off_lo, lo_ref) and same_bits(G + off_hi, hi_ref)

    @settings(max_examples=400, deadline=None)
    @given(
        C=st.sampled_from([1e-3, 1.0]) | st.floats(1e-3, 10.0),
        eta=st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 4.0),
        eps=st.sampled_from([0.0, 0.1]) | st.floats(0.0, 2.0),
        dF=st.sampled_from([0.0, 0.2, -0.2]) | st.floats(-10.0, 10.0),
        Fj=st.sampled_from([0.0, 1.0]) | st.floats(-10.0, 10.0),
        data=st.data(),
    )
    def test_pair_step_matches_the_candidate_list_bit_for_bit(self, C, eta, eps, dF, Fj, data):
        # Coefficients at the box and sign boundaries put the kinks on d_min
        # or d_max; eta = 0 (duplicated rows) and dF = 0 make whole runs of
        # candidates tie, where the first minimum must win.
        edges = [0.0, C, -C, _BOUND_ATOL, -_BOUND_ATOL, C - _BOUND_ATOL, -C + _BOUND_ATOL,
                 C / 2, -C / 2]
        coefficient = st.sampled_from(edges) | st.floats(-C, C)
        beta_i, beta_j = data.draw(coefficient), data.draw(coefficient)
        Fi = Fj + dF
        d = _pair_step(beta_i, beta_j, Fi, Fj, eta, eps, C)
        d_ref = svr_pair_step_candidates(beta_i, beta_j, Fi, Fj, eta, eps, C)
        assert same_bits(d, d_ref)

    def test_pair_step_keeps_the_first_of_tied_candidates(self):
        # phi is flat (eta = eps = 0, Fi = Fj): every candidate ties and the
        # first, d_min, wins. With eps > 0 phi is flat between the kinks -0.5
        # and 0.5 and steeper outside, so the endpoints -1.5 and 1.5 lose and
        # the first kink wins the tie with the second.
        for step in (_pair_step, svr_pair_step_candidates):
            assert step(0.5, -0.5, 1.0, 1.0, 0.0, 0.0, 1.0) == -1.5
            assert step(0.5, 0.5, 1.0, 1.0, 0.0, 0.3, 2.0) == -0.5

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        kernel=st.sampled_from(["linear", "gaussian"]),
        C=st.sampled_from([1e-3, 0.5, 1.0, 2.5]),
        eps=st.sampled_from([0.0, 0.1, 0.5, 50.0]),
        duplicated=st.booleans(),
    )
    def test_dual_matches_the_column_loop_bit_for_bit(self, seed, n, kernel, C, eps, duplicated):
        # C = 1e-3 ends every coefficient at a bound, eps = 50 holds every
        # target inside the tube at the first check, and duplicated rows give
        # pairs with eta = 0: every bound-offset transition meets the oracle.
        rng = np.random.default_rng(seed)
        Z = rng.normal(0, 1, (n, 2))
        if duplicated:
            Z = Z[rng.integers(0, max(1, n // 2), n)]
        y = Z @ rng.normal(0, 1, 2) + rng.normal(0, 0.5, n)
        K = _kernel(Z, Z, kernel, 0.25)
        beta, bias = solve_svr_dual(K, y, C, eps)
        beta_ref, bias_ref = svr_dual_column_loop(K, y, C, eps)
        assert same_bits(beta, beta_ref) and same_bits(bias, bias_ref)

    @settings(max_examples=200, deadline=None)
    @given(
        C=st.sampled_from([1e-3, 1.0]) | st.floats(1e-3, 10.0),
        eps=st.sampled_from([0.0, 0.1]) | st.floats(0.0, 2.0),
        count=st.integers(1, 12),
        data=st.data(),
    )
    def test_vector_pair_step_matches_the_scalar_one_bit_for_bit(self, C, eps, count, data):
        # The scalar test's edges, several rows at once: each row must get
        # exactly what _pair_step gives it alone.
        edges = [0.0, C, -C, _BOUND_ATOL, -_BOUND_ATOL, C - _BOUND_ATOL, -C + _BOUND_ATOL,
                 C / 2, -C / 2]
        coefficient = st.sampled_from(edges) | st.floats(-C, C)
        row = st.tuples(
            coefficient,
            coefficient,
            st.sampled_from([0.0, 0.2, -0.2]) | st.floats(-10.0, 10.0),
            st.sampled_from([0.0, 1.0]) | st.floats(-10.0, 10.0),
            st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 4.0),
        )
        rows = [data.draw(row) for _ in range(count)]
        beta_i, beta_j, dF, Fj, eta = (np.array(col) for col in zip(*rows))
        d = _pair_steps(beta_i, beta_j, Fj + dF, Fj, eta, eps, C)
        for k, (bi, bj, dFk, Fjk, etak) in enumerate(rows):
            assert same_bits(d[k], _pair_step(bi, bj, Fjk + dFk, Fjk, etak, eps, C))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 12),
        C=st.sampled_from([1e-3, 0.5, 1.0, 2.5]),
        eps=st.sampled_from([0.0, 0.1, 0.5, 50.0]),
        slots=st.integers(1, 5),
        tail=st.integers(0, 3),
        max_steps=st.sampled_from([3, 40, 400]),
        tol=st.sampled_from([SVR_KKT_TOL, -1.0]),
    )
    def test_batched_duals_match_one_by_one_bit_for_bit(
        self, seed, count, C, eps, slots, tail, max_steps, tol
    ):
        # One batch mixes n, both kernels, duplicated rows (eta = 0), integer
        # targets and constant ones; C = 1e-3 ends every coefficient at a bound and
        # eps = 50 passes the first check. Fewer slots than problems make
        # slots refill, and a tail hands problems to solve_svr_dual mid-solve.
        # An empty batch yields nothing.
        # A small step limit stops some problems while others finish, and a
        # negative KKT tolerance drives problems into the stalled step.
        rng = np.random.default_rng(seed)
        problems = []
        for _ in range(count):
            n = int(rng.integers(2, 25))
            Z = rng.normal(0, 1, (n, 2))
            if rng.random() < 0.3:
                Z = Z[rng.integers(0, max(1, n // 2), n)]
            y = Z @ rng.normal(0, 1, 2) + rng.normal(0, 0.5, n)
            if rng.random() < 0.3:
                y = np.round(y)  # with duplicated rows: tied pair-step candidates
            if rng.random() < 0.2:
                y = np.full(n, y[0])
            problems.append((_kernel(Z, Z, str(rng.choice(["linear", "gaussian"])), 0.25), y))
        built = []

        def build(k):
            built.append(k)
            return problems[k][0]

        def outcome(solve, *args, **kwargs):
            try:
                return solve(*args, **kwargs)
            except (NonConvergence, RuntimeError) as err:
                return err

        with pytest.MonkeyPatch.context() as mp:
            for name, value in (("_SVR_SLOTS", slots), ("_SVR_TAIL", tail),
                                ("_SVR_MAX_STEPS", max_steps), ("SVR_KKT_TOL", tol)):
                mp.setattr(stacking, name, value)
            batch = [(functools.partial(build, k), y) for k, (_, y) in enumerate(problems)]
            got = list(solve_svr_duals(batch, C, eps))
            alone = [outcome(solve_svr_dual, K, y, C, eps) for K, y in problems]
        assert sorted(k for k, _ in got) == sorted(built) == list(range(count))
        for k, result in got:
            K, y = problems[k]
            refs = [alone[k]]
            # A negative tolerance lets the loops step a pair with i == j,
            # where the column loop's in-place += and -= cancel and
            # solve_svr_dual's two assignments do not; the oracle covers the
            # reachable tolerances.
            if tol >= 0:
                refs.append(outcome(svr_dual_column_loop, K, y, C, eps, max_steps=max_steps))
            for ref in refs:
                if isinstance(ref, Exception):
                    assert isinstance(result, NonConvergence) and str(result) == str(ref)
                else:
                    assert not isinstance(result, Exception)
                    assert same_bits(result[0], ref[0]) and same_bits(result[1], ref[1])

    @pytest.mark.parametrize("C, eps", [(1.0, 0.0), (0.5, 0.5), (1e-3, 0.0)])
    def test_batched_duals_keep_the_first_of_tied_candidates(self, monkeypatch, C, eps):
        # Duplicated rows and integer targets make pair steps whose
        # candidates tie (about 1 problem in 100 here); the first must win in
        # the batch as it does in _pair_step.
        monkeypatch.setattr(stacking, "_SVR_SLOTS", 8)
        monkeypatch.setattr(stacking, "_SVR_TAIL", 2)
        rng = np.random.default_rng(1)
        problems = []
        for k in range(240):
            n = int(rng.integers(2, 12))
            Z = rng.normal(0, 1, (n, 2))[rng.integers(0, max(1, n // 2), n)]
            y = np.round(Z @ rng.normal(0, 1, 2) + rng.normal(0, 0.5, n))
            K = _kernel(Z, Z, "linear" if k % 2 else "gaussian", 0.25)
            problems.append((lambda K=K: K, y))
        for k, result in solve_svr_duals(problems, C, eps):
            ref = solve_svr_dual(problems[k][0](), problems[k][1], C, eps)
            assert same_bits(result[0], ref[0]) and same_bits(result[1], ref[1])

    def test_a_problem_out_of_steps_fails_alone(self, monkeypatch):
        # Constant targets pass the first check; the others need more than
        # three steps. Two slots and a tail of one cover both solvers.
        monkeypatch.setattr(stacking, "_SVR_SLOTS", 2)
        monkeypatch.setattr(stacking, "_SVR_TAIL", 1)
        monkeypatch.setattr(stacking, "_SVR_MAX_STEPS", 3)
        rng = np.random.default_rng(3)
        problems = []
        for k in range(7):
            Z = rng.normal(0, 1, (12, 2))
            y = np.full(12, 5.0) if k % 2 else Z @ [1.0, -2.0] + rng.normal(0, 0.5, 12)
            K = _kernel(Z, Z, "gaussian", 0.25)
            problems.append((lambda K=K: K, y))
        outcomes = dict(solve_svr_duals(problems, 1.0, 0.1))
        for k in range(7):
            if k % 2:
                beta, bias = outcomes[k]
                assert not beta.any() and bias == 5.0
            else:
                assert str(outcomes[k]) == "SVR solver exceeded 3 pairwise steps"

    def test_kkt_sample_classification(self):
        rng = np.random.default_rng(5)
        e_c = rng.uniform(0, 10, 12)
        e_w = rng.uniform(0, 10, 12)
        y = 3 + 0.5 * e_c + 0.4 * e_w + rng.normal(0, 0.5, 12)
        C, eps = 1.0, 0.3
        model = fit_svr(*samples_from(e_c, e_w, y), kernel="gaussian", C=C, eps=eps, gamma=0.25)
        preds = svr_predictions(model, e_c, e_w)
        resid = np.abs(y - preds)
        beta = model.dual_coefficients
        for r, b in zip(resid, beta):
            if r < eps - 1e-3:
                assert abs(b) <= 1e-3 * C  # strictly inside the tube
            if 1e-3 * C < abs(b) < C * (1 - 1e-6):
                assert r == pytest.approx(eps, abs=2e-3)  # free vectors sit on the tube
        assert abs(beta.sum()) <= 1e-8


class TestFitSvr:
    def test_constant_targets_inside_tube(self):
        rng = np.random.default_rng(6)
        e_c = rng.uniform(0, 10, 6)
        e_w = rng.uniform(0, 10, 6)
        model = fit_svr(*samples_from(e_c, e_w, [5.0] * 6), kernel="gaussian", eps=0.1)
        assert np.all(model.dual_coefficients == 0)
        assert model.bias == pytest.approx(5.0, abs=1e-9)
        assert predict_svr(model, 3.3, 7.7) == pytest.approx(5.0, abs=1e-9)

    def test_wide_tube_flat_zero_loss(self):
        rng = np.random.default_rng(7)
        e_c = rng.uniform(0, 10, 8)
        e_w = rng.uniform(0, 10, 8)
        y = rng.uniform(49, 51, 8)
        eps = 5.0  # wider than the target spread
        model = fit_svr(*samples_from(e_c, e_w, y), kernel="linear", C=1.0, eps=eps)
        assert np.all(model.dual_coefficients == 0)
        preds = svr_predictions(model, e_c, e_w)
        assert np.ptp(preds) == pytest.approx(0.0, abs=1e-9)  # flat function
        assert np.all(np.abs(preds - y) <= eps + 1e-9)  # zero loss

    def test_linear_kernel_prediction_is_affine(self):
        rng = np.random.default_rng(8)
        e_c = rng.uniform(0, 100, 15)
        e_w = rng.uniform(0, 100, 15)
        y = 10 + 0.3 * e_c + 0.6 * e_w + rng.normal(0, 3, 15)
        model = fit_svr(*samples_from(e_c, e_w, y), kernel="linear", C=2.0, eps=0.2)
        x1, x2 = np.array([10.0, 80.0]), np.array([60.0, 20.0])
        for a in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = a * x1 + (1 - a) * x2
            expected = a * predict_svr(model, *x1) + (1 - a) * predict_svr(model, *x2)
            assert predict_svr(model, *mix) == pytest.approx(expected, abs=1e-8)

    def test_gaussian_translation_covariance(self):
        rng = np.random.default_rng(9)
        e_c = rng.uniform(0, 10, 10)
        e_w = rng.uniform(0, 10, 10)
        y = 5 + 0.5 * e_c - 0.2 * e_w + rng.normal(0, 0.4, 10)
        shift = 37.0
        base = fit_svr(*samples_from(e_c, e_w, y), kernel="gaussian", gamma=0.5)
        shifted = fit_svr(*samples_from(e_c, e_w, y + shift), kernel="gaussian", gamma=0.5)
        probe = [(2.0, 3.0), (8.5, 1.5), (5.0, 5.0)]
        for c, w in probe:
            assert predict_svr(shifted, c, w) == pytest.approx(
                predict_svr(base, c, w) + shift, abs=5e-3
            )

    def test_validation(self):
        with pytest.raises(TooFewSamples):
            fit_svr(*samples_from([1.0], [2.0], [3.0]))
        good = samples_from([1, 2, 3], [4, 5, 6], [7, 8, 9])
        with pytest.raises(ValueError):
            fit_svr(*good, C=0.0)
        with pytest.raises(ValueError):
            fit_svr(*good, kernel="gaussian", gamma=0.0)

    def test_linear_model_refits_from_its_own_parameters(self):
        # The linear kernel reads no gamma and its model stores None, so a
        # refit from the model's own settings must accept gamma=None.
        model = fit_svr(X_OK, Y_OK, kernel="linear", gamma=None)
        assert model.gamma is None
        refit = fit_svr(X_OK, Y_OK, kernel=model.kernel, C=model.cost, eps=model.tube_eps,
                        gamma=model.gamma)
        assert same_bits(refit.dual_coefficients, model.dual_coefficients)
        assert same_bits(refit.bias, model.bias)
        with pytest.raises(ValueError, match="gaussian"):
            fit_svr(X_OK, Y_OK, kernel="gaussian", gamma=None)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        kernel=st.sampled_from(["linear", "gaussian"]),
        gamma=st.sampled_from([0.05, 0.25, 3.0]),
        duplicated=st.booleans(),
    )
    def test_predict_at_a_training_input_is_the_in_sample_fit(
        self, seed, n, kernel, gamma, duplicated
    ):
        # Fit and predict evaluate one kernel: the prediction at training
        # input i is row i of the fit's kernel matrix against the duals.
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 100, (n, 2))
        if duplicated:
            X = X[rng.integers(0, max(1, n // 2), n)]
        y = 30 + 0.4 * X[:, 0] + 0.2 * X[:, 1] + rng.normal(0, 3, n)
        model = fit_svr(X, y, kernel=kernel, C=2.0, eps=0.5, gamma=gamma)
        Z = model.support_inputs
        K = _kernel(Z, Z, kernel, model.gamma)
        in_sample = K @ model.dual_coefficients + model.bias
        for i in range(n):
            assert predict_svr(model, X[i, 0], X[i, 1]) == pytest.approx(in_sample[i], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        groups=st.lists(st.sampled_from(["one", "shared", "copied", "short", "non-finite"]),
                        min_size=1, max_size=8),
        slots=st.integers(1, 4),
        tail=st.integers(0, 2),
        max_steps=st.sampled_from([3, 40, stacking._SVR_MAX_STEPS]),
    )
    def test_fit_svrs_matches_fit_svr_one_design_at_a_time(
        self, seed, groups, slots, tail, max_steps
    ):
        # Each group is one design, two designs (both kernels) over one X
        # object, or two over equal-valued but distinct copies. n is drawn
        # from a narrow range, so consecutive groups often share n with other
        # values: a standardization shared by anything but X's identity shows.
        # A short (one sample) or non-finite design fails its checks between
        # the others. Few slots refill and hand problems to a tail; a small
        # step limit stops some designs while others (constant targets) finish.
        rng = np.random.default_rng(seed)
        C, eps, gamma = 1.0, 0.1, 0.25
        designs = []
        for group in groups:
            n = int(rng.integers(4, 7))
            X = rng.uniform(0, 100, (n, 2))
            y = 30 + 0.4 * X[:, 0] + 0.2 * X[:, 1] + rng.normal(0, 3, n)
            if rng.random() < 0.3:
                y = np.full(n, y[0])
            kernel = str(rng.choice(["linear", "gaussian"]))
            if group == "short":
                designs.append((X[:1], y[:1], kernel))
            elif group == "non-finite":
                (X if rng.random() < 0.5 else y)[-1:] = rng.choice([np.nan, np.inf, -np.inf])
                designs.append((X, y, kernel))
            elif group == "one":
                designs.append((X, y, kernel))
            else:
                X2 = X if group == "shared" else X.copy()
                designs += [(X, y, "linear"), (X2, y, "gaussian")]

        def fit_alone(X, y, kernel):
            try:
                return fit_svr(X, y, kernel=kernel, C=C, eps=eps, gamma=gamma)
            except (NonConvergence, TooFewSamples, ValueError) as err:
                return err

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stacking, "_SVR_MAX_STEPS", max_steps)
            alone = [fit_alone(*design) for design in designs]
            mp.setattr(stacking, "_SVR_SLOTS", slots)
            mp.setattr(stacking, "_SVR_TAIL", tail)
            got = list(stacking.fit_svrs(designs, C, eps, gamma))
        assert sorted(q for q, _ in got) == list(range(len(designs)))
        for q, model in got:
            ref = alone[q]
            if isinstance(ref, Exception):
                assert type(model) is type(ref) and str(model) == str(ref)
                continue
            assert isinstance(model, SvrStackModel)
            assert (model.kernel, model.gamma, model.cost, model.tube_eps) == (
                ref.kernel, ref.gamma, ref.cost, ref.tube_eps)
            for name in ("dual_coefficients", "bias", "support_inputs", "feature_means",
                         "feature_scales"):
                assert same_bits(getattr(model, name), getattr(ref, name)), name

    @pytest.mark.parametrize("kernel", ["linear", "gaussian"])
    @pytest.mark.parametrize(
        "setting",
        [{"C": np.nan}, {"C": np.inf}, {"eps": np.nan}, {"eps": np.inf},
         {"gamma": np.nan}, {"gamma": np.inf}],
        ids=["C_nan", "C_inf", "eps_nan", "eps_inf", "gamma_nan", "gamma_inf"],
    )
    def test_non_finite_setting_rejected(self, kernel, setting):
        # Rejected before the solver runs: a NaN C runs the solver to its
        # step cap, and an infinite eps makes every bias admissible, so the
        # fit would predict 0 everywhere.
        with pytest.raises(ValueError, match="finite"):
            fit_svr(X_OK, Y_OK, kernel=kernel, **setting)


class TestPredictSvr:
    def _manual_model(self, **kw):
        defaults = dict(
            kernel="gaussian",
            gamma=0.5,
            cost=1.0,
            tube_eps=0.1,
            dual_coefficients=np.array([1.0]),
            bias=0.0,
            support_inputs=np.array([[0.0, 0.0]]),
            feature_means=np.zeros(2),
            feature_scales=np.ones(2),
        )
        defaults.update(kw)
        return SvrStackModel(**defaults)

    def test_zero_duals_constant_bias(self):
        model = self._manual_model(dual_coefficients=np.array([0.0]), bias=7.0)
        for c, w in [(0, 0), (100, -3), (12.5, 88.8)]:
            assert predict_svr(model, c, w) == 7.0

    def test_kernel_at_zero_distance(self):
        model = self._manual_model()
        assert predict_svr(model, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_kernel_value(self):
        # K((0,0), (1,1)) with gamma=0.5 is exp(-1)
        model = self._manual_model(support_inputs=np.array([[1.0, 1.0]]))
        assert predict_svr(model, 0.0, 0.0) == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert predict_svr(model, 0.0, 0.0) == pytest.approx(0.3679, abs=1e-4)
