import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uptakecast import web
from uptakecast.errors import (
    AlignmentError,
    DimensionMismatch,
    NonConvergence,
    PanelTooNarrow,
    TooFewRows,
)
from uptakecast.timeseries import MonthStamp
from uptakecast.web import (
    LAMBDA_GRID_SIZE,
    BaggedModel,
    QueryPanel,
    WmState,
    _alone,
    _cv_steps,
    _fit_steps,
    _lambda_grid,
    _lasso_path_alphas,
    _standardize,
    fit_bagging,
    fit_lasso,
    fit_web_ols,
    lasso_lambda_max,
    member_predictions,
    predict_web,
    select_lambda_cv,
    wm_init,
    wm_predict,
    wm_update,
)

from conftest import JAN2011, make_series, synth_vaccine
from oracles import lasso_objective, lasso_path_candidate_loop, ols_normal_equations

RNG = np.random.default_rng(2024)


def random_panel(rng, rows, cols, start=JAN2011):
    names = tuple(f"q{j}" for j in range(cols))
    return QueryPanel(start, names, rng.uniform(0, 100, (rows, cols)))


def singular_problem(F, rng, L):
    """Twin features 0 and 1 with unequal correlations: feature 1 joins at
    0.25, and then their active Gram [[1, 1], [1, 1]] is singular. Below 0.25
    this LASSO is unbounded, so the last of the L grid points sits just below
    it, where coordinate descent still stops. Features from 2 on have small
    correlations and join later, if at all."""
    gram = np.eye(F)
    gram[:2, :2] = 1.0
    cvec = np.concatenate(([1.0, 0.5], rng.uniform(-0.2, 0.2, F - 2)))
    lams = np.geomspace(1.0, 0.3, L)
    lams[-1] = 0.25 - 1e-8
    return gram, cvec, lams


def standardized(matrix):
    std = matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (matrix - matrix.mean(axis=0)) / std


class TestQueryPanel:
    def test_validates_range_and_names(self):
        with pytest.raises(ValueError):
            QueryPanel(JAN2011, ("a",), np.array([[101.0]]))
        with pytest.raises(ValueError):
            QueryPanel(JAN2011, ("a", "a"), np.zeros((2, 2)))

    def test_rejects_a_panel_without_queries(self):
        # Such a panel would leave the web fits an empty reduction, a numpy
        # error outside the per-vaccine fallback that aborts every vaccine's run.
        with pytest.raises(ValueError, match="one column"):
            QueryPanel(JAN2011, (), np.empty((30, 0)))

    def test_slice_and_select(self):
        panel = random_panel(RNG, 12, 4)
        sub = panel.slice(MonthStamp(2011, 3), MonthStamp(2011, 8))
        assert sub.n_months == 6 and sub.start == MonthStamp(2011, 3)


class TestWebOls:
    def test_exact_linear_relation(self):
        rng = np.random.default_rng(0)
        Q = rng.uniform(10, 90, (12, 4))
        E_vals = 2.0 * Q[:, 1]
        model = fit_web_ols(QueryPanel(JAN2011, ("a", "b", "c", "d"), Q), make_series(E_vals))
        preds = [predict_web(model, row) for row in Q]
        np.testing.assert_allclose(preds, E_vals, atol=1e-8)

    def test_constant_everything(self):
        Q = np.full((8, 3), 40.0)
        model = fit_web_ols(QueryPanel(JAN2011, ("a", "b", "c"), Q), make_series([7.0] * 8))
        assert predict_web(model, Q[0]) == pytest.approx(7.0, abs=1e-10)

    def test_underdetermined_minimum_norm(self):
        rng = np.random.default_rng(1)
        Q = rng.uniform(0, 100, (6, 20))
        y = rng.uniform(20, 60, 6)
        model = fit_web_ols(QueryPanel(JAN2011, tuple(f"q{j}" for j in range(20)), Q),
                            make_series(y))
        preds = [predict_web(model, row) for row in Q]
        np.testing.assert_allclose(preds, y, atol=1e-8)  # interpolates
        # minimum-norm: no other exact interpolant has smaller norm than lstsq's
        A = np.column_stack([np.ones(6), Q])
        direct = np.linalg.lstsq(A, y, rcond=None)[0]
        np.testing.assert_allclose(
            np.concatenate([[model.mu], model.alphas]), direct, atol=1e-10
        )

    def test_misaligned_raises(self):
        panel = random_panel(RNG, 10, 3)
        with pytest.raises(AlignmentError):
            fit_web_ols(panel, make_series(np.ones(10), start=MonthStamp(2012, 1)))


class TestLasso:
    def test_all_zero_at_lambda_max(self):
        rng = np.random.default_rng(3)
        panel = random_panel(rng, 10, 5)
        E = make_series(rng.uniform(20, 80, 10))
        lam_max = lasso_lambda_max(panel, E)
        model = fit_lasso(panel, E, lam_max)
        assert np.all(model.alphas == 0)
        assert model.mu == pytest.approx(E.values.mean())
        just_below = fit_lasso(panel, E, lam_max * 0.999)
        assert np.any(just_below.alphas != 0)

    def test_lambda_must_be_a_number_at_least_zero(self):
        rng = np.random.default_rng(3)
        panel = random_panel(rng, 10, 5)
        E = make_series(rng.uniform(20, 80, 10))
        for lam in (-1e-12, np.nan):
            with pytest.raises(ValueError, match="lambda"):
                fit_lasso(panel, E, lam)
        # An infinite penalty is a valid one: it zeroes every coefficient.
        model = fit_lasso(panel, E, np.inf)
        assert np.all(model.alphas == 0)
        assert predict_web(model, panel.matrix[0]) == pytest.approx(E.values.mean())

    def test_lambda_zero_matches_ols_oracle(self):
        rng = np.random.default_rng(4)
        panel = random_panel(rng, 10, 2)
        E = make_series(rng.uniform(10, 90, 10))
        model = fit_lasso(panel, E, 0.0)
        Xs = standardized(panel.matrix)
        coef = ols_normal_equations(np.column_stack([np.ones(10), Xs]), E.values)
        np.testing.assert_allclose(model.alphas, coef[1:], atol=1e-6)

    def test_univariate_soft_threshold(self):
        rng = np.random.default_rng(5)
        panel = random_panel(rng, 12, 1)
        E = make_series(rng.uniform(10, 90, 12))
        x = standardized(panel.matrix)[:, 0]
        rho = x @ (E.values - E.values.mean()) / 12
        lam = 0.5 * abs(rho)
        model = fit_lasso(panel, E, lam)
        expected = math.copysign(max(abs(rho) - lam, 0.0), rho)
        assert model.alphas[0] == pytest.approx(expected, abs=1e-9)

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(6)
        panel = random_panel(rng, 14, 4)
        E = make_series(rng.uniform(10, 90, 14))
        lam = 0.3 * lasso_lambda_max(panel, E)
        model = fit_lasso(panel, E, lam)
        Xs = standardized(panel.matrix)
        base = lasso_objective(Xs, E.values, model.mu, model.alphas, lam)
        for _ in range(1000):
            delta = rng.uniform(-0.1, 0.1, 4)
            perturbed = lasso_objective(Xs, E.values, model.mu, model.alphas + delta, lam)
            assert base <= perturbed + 1e-12

    def test_sparsity_monotone_in_lambda(self):
        rng = np.random.default_rng(7)
        panel = random_panel(rng, 20, 8)
        E = make_series(rng.uniform(10, 90, 20))
        lam_max = lasso_lambda_max(panel, E)
        lams = lam_max * np.array([0.8, 0.4, 0.2, 0.1, 0.05, 0.01])
        nnz = [np.count_nonzero(fit_lasso(panel, E, lam).alphas) for lam in lams]
        for sparse_nnz, dense_nnz in zip(nnz, nnz[1:]):
            assert sparse_nnz <= dense_nnz + 2
        # univariate case is exactly monotone
        single = QueryPanel(panel.start, panel.query_names[:1], panel.matrix[:, :1])
        mags = [abs(fit_lasso(single, E, lam).alphas[0]) for lam in lams]
        assert all(a <= b + 1e-12 for a, b in zip(mags, mags[1:]))

    def test_constant_query_gets_zero_coefficient(self):
        rng = np.random.default_rng(8)
        Q = rng.uniform(0, 100, (10, 3))
        Q[:, 1] = 55.0
        panel = QueryPanel(JAN2011, ("a", "b", "c"), Q)
        E = make_series(rng.uniform(10, 90, 10))
        model = fit_lasso(panel, E, 0.01)
        assert model.alphas[1] == 0.0
        assert np.isfinite(predict_web(model, Q[0]))

    def test_kkt_where_the_exact_path_goes_wrong(self):
        """The first 33 months of the criterion-10 vaccine with generator seed
        1000 (58 queries, more than the rows) at its cross-validated lambda.

        Here the homotopy in ``_lasso_path_alphas`` meets a join followed at
        once by a drop at the same lambda, and the second drop escapes its
        event window: the path alone returns a point that violates the LASSO
        optimality conditions by 0.81. ``fit_lasso`` must still return a LASSO
        solution; the coordinate-descent polish after the path is what makes
        it one, so this test fails if the polish is removed.
        """
        E, panel = synth_vaccine(1000, n_months=57, n_queries=58)
        last = JAN2011.plus(32)
        E, panel = E.series.slice(JAN2011, last), panel.slice(JAN2011, last)
        lam = select_lambda_cv(panel, E)
        assert lam == pytest.approx(0.406074, abs=1e-6)
        model = fit_lasso(panel, E, lam)

        Xs = standardized(panel.matrix)
        T = E.values.size
        grad = Xs.T @ (E.values - E.values.mean()) / T - (Xs.T @ Xs / T) @ model.alphas
        active = model.alphas != 0
        # Active: grad_j = lam * sign(alpha_j); inactive: |grad_j| <= lam.
        violation = np.where(
            active,
            np.abs(grad - lam * np.sign(model.alphas)),
            np.maximum(np.abs(grad) - lam, 0.0),
        )
        assert active.any()
        assert violation.max() <= 1e-6

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(4, 30),
        F=st.integers(1, 16),
        twin=st.booleans(),
        full_grid=st.booleans(),
    )
    def test_path_matches_the_candidate_loop_bit_for_bit(self, seed, T, F, twin, full_grid):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 100, (T, F))
        if twin and F > 1:
            X[:, -1] = X[:, 0]  # a duplicated query: a singular active Gram
        y = X @ rng.normal(0, 1, F) + rng.normal(0, 5, T)
        Xs, _, _ = _standardize(X)
        gram, cvec = Xs.T @ Xs / T, Xs.T @ (y - y.mean()) / T
        lam_max = np.abs(cvec).max()
        lambdas = _lambda_grid(np.array([lam_max]))[0] if full_grid else np.array([lam_max / 20])
        assert np.array_equal(
            _lasso_path_alphas(gram[None], cvec[None], lambdas[None])[0][0],
            lasso_path_candidate_loop(gram, cvec, lambdas),
        )

    def test_path_breaks_event_ties_like_the_candidate_loop(self):
        """Dyadic Grams make exact ties between event lambdas: here a drop and
        a join meet at one breakpoint (the drop must win), and joins tie on
        other problems (the lowest feature index must win)."""
        steps = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        rng = np.random.default_rng(1)
        problems = [(
            np.array([[1.0, 0.25, -0.25, 0.0, 0.25], [0.25, 1.0, -0.5, -0.5, -0.25],
                      [-0.25, -0.5, 1.0, -0.25, 0.25], [0.0, -0.5, -0.25, 1.0, 0.5],
                      [0.25, -0.25, 0.25, 0.5, 1.0]]),
            np.array([0.75, 1.0, 0.25, 0.75, 0.75]),
        )]
        while len(problems) < 40:
            F = int(rng.integers(3, 6))
            gram = np.triu(rng.choice(steps, (F, F)), 1)
            gram = gram + gram.T + np.eye(F)
            if np.linalg.eigvalsh(gram).min() >= 0.05:
                problems.append((gram, rng.choice(np.arange(-4, 5) / 4, F)))
        for gram, cvec in problems:
            lambdas = _lambda_grid(np.array([np.abs(cvec).max()]))[0]
            assert np.array_equal(
                _lasso_path_alphas(gram[None], cvec[None], lambdas[None])[0][0],
                lasso_path_candidate_loop(gram, cvec, lambdas),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        F=st.integers(1, 12),
        entries=st.lists(
            st.tuples(
                st.integers(3, 30),
                st.sampled_from(["plain", "twin", "constant", "correlated", "singular"]),
            ),
            min_size=1,
            max_size=8,
        ),
        full_grid=st.booleans(),
    )
    def test_batched_path_matches_the_candidate_loop_bit_for_bit(self, seed, F, entries, full_grid):
        """One lockstep call over a batch of problems of one width: different
        row counts, duplicated queries, all-zero correlations (a constant
        target), a query that is nearly the sum of two others (its paths
        drop features) and a singular active Gram (that entry falls back to
        coordinate descent) side by side."""
        rng = np.random.default_rng(seed)
        L = LAMBDA_GRID_SIZE if full_grid else 1
        grams, cvecs, lambdas = [], [], []
        for T, kind in entries:
            if kind == "singular" and F >= 3:
                gram, cvec, lams = singular_problem(F, rng, L)
            else:
                X = rng.uniform(0, 100, (T, F))
                if kind == "twin" and F > 1:
                    X[:, -1] = X[:, 0]
                if kind == "correlated" and F > 2:
                    X[:, -1] = X[:, 0] + X[:, 1] + rng.normal(0, 10, T)
                y = (np.full(T, 50.0) if kind == "constant"
                     else X @ rng.normal(0, 1, F) + rng.normal(0, 5, T))
                Xs, _, _ = _standardize(X)
                gram, cvec = Xs.T @ Xs / T, Xs.T @ (y - y.mean()) / T
                lam_max = np.abs(cvec).max(keepdims=True)
                lams = _lambda_grid(lam_max)[0] if full_grid else lam_max / 20
            grams.append(gram)
            cvecs.append(cvec)
            lambdas.append(lams)
        gram, cvec, lambdas = np.stack(grams), np.stack(cvecs), np.stack(lambdas)
        batch, failed = _lasso_path_alphas(gram, cvec, lambdas)
        assert not failed.any()
        assert batch.shape == (len(entries), L, F)
        for b in range(len(entries)):
            assert np.array_equal(batch[b], lasso_path_candidate_loop(gram[b], cvec[b], lambdas[b]))

    def test_a_batch_joins_drops_and_falls_back_at_one_breakpoint(self):
        """Three problems of four features whose third breakpoint is a join, a
        drop and a singular active Gram: in one lockstep step the first
        appends a feature, the second deletes one that is not the last of its
        three active columns, and the third leaves for coordinate descent."""
        grams, cvecs, lambdas = [], [], []
        for seed in (0, 8):  # found by search: two joins, then a join or a drop
            rng = np.random.default_rng(seed)
            T = int(rng.integers(3, 9))
            X = rng.uniform(0, 100, (T, 4))
            X[:, 3] = X[:, 0] + X[:, 1] + rng.normal(0, 10, T)
            y = X @ rng.normal(0, 1, 4) + rng.normal(0, 5, T)
            Xs, _, _ = _standardize(X)
            grams.append(Xs.T @ Xs / T)
            cvecs.append(Xs.T @ (y - y.mean()) / T)
            lambdas.append(np.abs(cvecs[-1]).max() * np.array([1.0, 0.1, 0.01]))
        # Feature 2, orthogonal to the others, joins at 0.6; feature 1 joins
        # at 0.25 beside its twin 0, and their active Gram is singular.
        gram = np.eye(4)
        gram[:2, :2] = 1.0
        grams.append(gram)
        cvecs.append(np.array([1.0, 0.5, 0.6, 0.1]))
        lambdas.append(np.array([1.0, 0.3, 0.25 - 1e-8]))
        gram, cvec, lambdas = np.stack(grams), np.stack(cvecs), np.stack(lambdas)

        third = []
        for b in range(3):
            events = []
            lasso_path_candidate_loop(gram[b], cvec[b], lambdas[b], events)
            third.append(events[2])
        assert third == ["join", "drop", "fallback"]
        batch, failed = _lasso_path_alphas(gram, cvec, lambdas)
        assert not failed.any()
        for b in range(3):
            assert np.array_equal(batch[b], lasso_path_candidate_loop(gram[b], cvec[b], lambdas[b]))
            single = _lasso_path_alphas(gram[b : b + 1], cvec[b : b + 1], lambdas[b : b + 1])[0]
            assert np.array_equal(batch[b], single[0])

    def test_fallback_stays_with_the_entry_at_fault(self, monkeypatch):
        """A singular active Gram and a runaway coefficient each send their own
        entry to coordinate descent; the entries beside them in the batch keep
        the exact path, and every entry equals its one-entry call."""
        rng = np.random.default_rng(21)
        grams, cvecs = [], []
        for _ in range(6):
            X = rng.uniform(0, 100, (12, 3))
            Xs, _, _ = _standardize(X)
            y = X @ rng.normal(0, 1, 3) + rng.normal(0, 5, 12)
            grams.append(Xs.T @ Xs / 12)
            cvecs.append(Xs.T @ (y - y.mean()) / 12)
        lambdas = np.abs(np.stack(cvecs)).max(axis=1)[:, None] * np.array([1.0, 0.1, 0.01])
        # Twin features with unequal correlations: feature 1 joins at 0.25 and
        # then G_AA = [[1, 1], [1, 1]] is singular. Below 0.25 this LASSO is
        # unbounded, so the last grid point sits where descent still stops.
        grams.insert(2, np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        cvecs.insert(2, np.array([1.0, 0.5, 0.1]))
        lambdas = np.insert(lambdas, 2, [1.0, 0.5, 0.25 - 1e-8], axis=0)
        # The first coefficient of the path is c_0 = 2e9, beyond 1e9.
        grams.insert(5, np.eye(3))
        cvecs.insert(5, np.array([2e9, 1e9, 5e8]))
        lambdas = np.insert(lambdas, 5, [2e9, 2e8, 2e7], axis=0)
        gram, cvec = np.stack(grams), np.stack(cvecs)

        fell_back = []
        cd_solve = web._cd_solve

        def recording_cd_solve(g, *args):
            fell_back.append(next(b for b in range(len(gram)) if np.array_equal(g[0], gram[b])))
            return cd_solve(g, *args)

        monkeypatch.setattr(web, "_cd_solve", recording_cd_solve)
        batch, failed = _lasso_path_alphas(gram, cvec, lambdas)
        assert not failed.any()
        assert set(fell_back) == {2, 5}
        monkeypatch.undo()
        for b in range(len(gram)):
            single = _lasso_path_alphas(gram[b : b + 1], cvec[b : b + 1], lambdas[b : b + 1])[0][0]
            assert np.array_equal(batch[b], single)
            assert np.array_equal(batch[b], lasso_path_candidate_loop(gram[b], cvec[b], lambdas[b]))

    def test_a_merged_problem_that_does_not_converge_fails_alone(self, monkeypatch):
        """Fits served together, where one entry's coordinate descent is still
        moving at the sweep limit: that fit gets NonConvergence, and the ones
        beside it get the bits of their own fits. It happens in the path's
        descent (a target scaled by 1e12 sends its entry there, and the stop
        rule is absolute) and in the polish (the problem of
        `test_kkt_where_the_exact_path_goes_wrong`, whose path point is not a
        solution)."""
        monkeypatch.setattr(web, "CD_MAX_SWEEPS", 20)
        calls = []
        cd_solve = web._cd_solve
        monkeypatch.setattr(web, "_cd_solve", lambda *a: calls.append(len(a[0])) or cd_solve(*a))

        rng = np.random.default_rng(5)
        panel = random_panel(rng, 20, 6)
        ys = [panel.matrix @ rng.normal(0, 1, 6) + rng.normal(0, 5, 20) for _ in range(3)]
        ys[1] = ys[1] * 1e12
        series = [make_series(y) for y in ys]
        lams = [lasso_lambda_max(panel, E) / 20 for E in series]
        E, wide = synth_vaccine(1000, n_months=57, n_queries=58)
        last = JAN2011.plus(32)
        E, wide = E.series.slice(JAN2011, last), wide.slice(JAN2011, last)
        lam_max = lasso_lambda_max(wide, E)
        wide_lams = [lam_max / 2, select_lambda_cv(wide, E), lam_max / 4]
        fits = [(panel, E_b, lam) for E_b, lam in zip(series, lams)]
        fits += [(wide, E, lam) for lam in wide_lams]

        outcomes = web.serve_lasso([web.lasso_fit_steps(*fit) for fit in fits])
        # The scaled fit's descent, then one polish per width: the path
        # failure is not polished.
        assert calls == [1, 2, 3]
        for b in range(6):
            if b in (1, 4):
                assert isinstance(outcomes[b], NonConvergence)
                assert str(outcomes[b]) == "coordinate descent exceeded 20 sweeps"
            else:
                alone = fit_lasso(*fits[b])
                assert outcomes[b].alphas.tobytes() == alone.alphas.tobytes()

    @pytest.mark.parametrize("widths", [(12, 12), (12, 7)])
    def test_path_and_fit_requests_waiting_together_are_served_apart(self, widths):
        """Cross-validation path requests and fit requests of one width, or of
        two, wait at once: each kind of each width gets its own call, and every
        fit the bits it gets alone."""
        problems = []
        for seed, width in enumerate(widths):
            E, panel = synth_vaccine(seed, n_months=30, n_queries=width)
            problems.append((panel, E.series, lasso_lambda_max(panel, E.series) / 10))
        steps = [web.lasso_cv_steps(panel, E) for panel, E, _ in problems]
        steps += [web.lasso_fit_steps(*problem) for problem in problems]
        outcomes = web.serve_lasso(steps)
        for (panel, E, lam), chosen, model in zip(problems, outcomes, outcomes[len(problems):]):
            assert chosen == select_lambda_cv(panel, E)
            assert model.alphas.tobytes() == fit_lasso(panel, E, lam).alphas.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        B=st.integers(2, 6),
        T=st.integers(6, 40),
        F=st.integers(1, 12),
        twin=st.booleans(),
    )
    def test_batch_fits_equal_one_entry_fits_bit_for_bit(self, seed, B, T, F, twin):
        """Cross-validation and the full-data fit of a batch give each entry
        exactly what a batch of that entry alone gives it."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 100, (B, T, F))
        if twin and F > 1:
            X[0, :, -1] = X[0, :, 0]
        y = rng.uniform(10, 90, T)
        lams = _alone(_cv_steps(X, y))
        models = _alone(_fit_steps(X, y, lams))
        for b in range(B):
            assert lams[b] == _alone(_cv_steps(X[b : b + 1], y))[0]
            single = _alone(_fit_steps(X[b : b + 1], y, lams[b : b + 1]))[0]
            assert models[b].alphas.tobytes() == single.alphas.tobytes()
            assert np.float64(models[b].mu).tobytes() == np.float64(single.mu).tobytes()

    def test_an_entry_that_does_not_move_keeps_its_zero(self):
        # Entry 0 moves its coefficient; entry 1's update is sign(-0.1) * 0,
        # a -0.0 that equals its +0.0 start. Alone, entry 1 writes nothing,
        # and in the batch it must keep +0.0 too.
        gram = np.ones((2, 1, 1))
        cvec = np.array([[1.0], [-0.1]])
        lam = np.array([0.5, 0.5])
        batch, stuck = web._cd_solve(gram, cvec, lam, np.zeros((2, 1)))
        assert not stuck.any()
        for b in range(2):
            one = slice(b, b + 1)
            alone = web._cd_solve(gram[one], cvec[one], lam[one], np.zeros((1, 1)))[0]
            assert batch[b].tobytes() == alone[0].tobytes()
        assert np.signbit(batch[1, 0]) == False  # noqa: E712

class TestSelectLambdaCv:
    def test_informative_query_survives(self):
        rng = np.random.default_rng(9)
        Q = rng.uniform(0, 100, (30, 6))
        E_vals = 0.8 * Q[:, 2] + rng.normal(0, 0.5, 30) + 10
        panel = QueryPanel(JAN2011, tuple("abcdef"), Q)
        E = make_series(np.clip(E_vals, 0, None))
        lam = select_lambda_cv(panel, E)
        model = fit_lasso(panel, E, lam)
        assert model.alphas[2] != 0.0

    def test_pure_noise_prefers_large_lambda(self):
        ratios = []
        positions = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            Q = rng.uniform(0, 100, (18, 5))
            panel = QueryPanel(JAN2011, tuple("abcde"), Q)
            E = make_series(rng.uniform(20, 80, 18))
            lam = select_lambda_cv(panel, E)
            lam_max = lasso_lambda_max(panel, E)
            grid = lam_max * 10 ** (-3 * np.arange(50) / 49)
            positions.append(int(np.argmin(np.abs(grid - lam))))
            ratios.append(lam / lam_max)
        # the average chosen lambda sits in the top (largest) value-decile of
        # the grid, and the typical (median) choice is at the very top
        assert np.mean(ratios) >= 10 ** (-3 / 10)
        assert np.median(positions) <= 4

    def test_too_few_rows(self):
        panel = random_panel(RNG, 2, 3)
        with pytest.raises(TooFewRows):
            select_lambda_cv(panel, make_series(np.ones(2)))


class TestBagging:
    def test_degenerate_subsets_collapse_to_single_lasso(self):
        rng = np.random.default_rng(10)
        panel = random_panel(rng, 15, 10)
        E = make_series(rng.uniform(20, 80, 15))
        bag = fit_bagging(panel, E, n_subsets=10, subset_size=10, seed=3)
        assert all(idx == tuple(range(10)) for idx, _ in bag.members)
        lam = select_lambda_cv(panel, E)
        single = fit_lasso(panel, E, lam)
        row = panel.matrix[-1]
        assert member_predictions(bag, row).mean() == pytest.approx(
            predict_web(single, row), abs=1e-9
        )

    def test_seed_determinism(self):
        rng = np.random.default_rng(11)
        panel = random_panel(rng, 14, 16)
        E = make_series(rng.uniform(20, 80, 14))
        bag1 = fit_bagging(panel, E, subset_size=5, seed=42)
        bag2 = fit_bagging(panel, E, subset_size=5, seed=42)
        for (idx1, m1), (idx2, m2) in zip(bag1.members, bag2.members):
            assert idx1 == idx2
            np.testing.assert_array_equal(m1.alphas, m2.alphas)
        bag3 = fit_bagging(panel, E, subset_size=5, seed=43)
        assert any(i1 != i3 for (i1, _), (i3, _) in zip(bag1.members, bag3.members))

    def test_default_counts_match_panel(self):
        rng = np.random.default_rng(12)
        panel = random_panel(rng, 12, 58)
        E = make_series(rng.uniform(20, 80, 12))
        bag = fit_bagging(panel, E, seed=0)
        assert bag.member_count == 58
        assert all(len(idx) == 10 and len(set(idx)) == 10 for idx, _ in bag.members)

    def test_panel_too_narrow(self):
        panel = random_panel(RNG, 10, 4)
        with pytest.raises(PanelTooNarrow):
            fit_bagging(panel, make_series(np.ones(10)), subset_size=10, seed=0)

    @pytest.mark.parametrize("subset_size", [0, -1])
    def test_subset_size_must_be_at_least_one(self, subset_size):
        panel = random_panel(RNG, 30, 12)
        with pytest.raises(ValueError, match="subset_size must be >= 1"):
            fit_bagging(panel, make_series(np.ones(30)), subset_size=subset_size, seed=0)


class TestPredictBagging:
    def _bag_of(self, models, n_queries):
        return BaggedModel(
            members=tuple((tuple(range(m.n_queries)), m) for m in models),
            n_queries=n_queries,
        )

    def test_mean_of_two_members(self):
        rng = np.random.default_rng(14)
        panel = random_panel(rng, 12, 3)
        E1 = make_series(np.full(12, 10.0))
        E2 = make_series(np.full(12, 20.0))
        m1 = fit_lasso(panel, E1, 1.0)
        m2 = fit_lasso(panel, E2, 1.0)
        bag = self._bag_of([m1, m2], 3)
        assert member_predictions(bag, panel.matrix[0]).mean() == pytest.approx(15.0)

    def test_identical_members(self):
        rng = np.random.default_rng(15)
        panel = random_panel(rng, 12, 3)
        E = make_series(rng.uniform(20, 80, 12))
        m = fit_lasso(panel, E, 0.5)
        bag = self._bag_of([m, m, m], 3)
        row = panel.matrix[3]
        assert member_predictions(bag, row) == pytest.approx([predict_web(m, row)] * 3)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(17)
        panel = random_panel(rng, 12, 6)
        E = make_series(rng.uniform(20, 80, 12))
        bag = fit_bagging(panel, E, n_subsets=2, subset_size=3, seed=1)
        with pytest.raises(DimensionMismatch):
            member_predictions(bag, np.ones(5))


class TestWeightedMajority:
    def test_init(self):
        state = wm_init(58)
        assert state.member_count == 58
        assert np.all(state.weights == 1.0)
        assert state.eta == 5.0 and state.epsilon_tol == 2.0
        with pytest.raises(ValueError):
            wm_init(0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_settings_must_be_positive_and_finite(self, bad):
        # NaN fails every comparison: a check written as `eta <= 0` lets it
        # through, and one penalized update turns a weight into NaN.
        with pytest.raises(ValueError, match="eta"):
            wm_init(3, eta=bad)
        with pytest.raises(ValueError, match="epsilon_tol"):
            wm_init(3, epsilon_tol=bad)
        with pytest.raises(ValueError, match="weights"):
            WmState(np.array([1.0, bad, 1.0]))

    def test_predict_uniform_is_mean(self):
        state = wm_init(4)
        assert wm_predict(state, [1.0, 2.0, 3.0, 6.0]) == pytest.approx(3.0)

    def test_predict_weighted_formula(self):
        state = WmState(np.array([1.0, math.exp(-5)]), eta=5.0, epsilon_tol=2.0)
        value = wm_predict(state, [10.0, 1000.0])
        expected = (10 + 1000 * math.exp(-5)) / (1 + math.exp(-5))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(16.6259, abs=5e-4)

    def test_single_member(self):
        state = wm_init(1)
        assert wm_predict(state, [123.4]) == 123.4

    def test_update_within_tolerance_unchanged(self):
        state = wm_init(2)
        new = wm_update(state, [101.0, 99.0], overall_prediction=101.5, actual=100.0)
        np.testing.assert_array_equal(new.weights, [1.0, 1.0])

    def test_update_penalizes_only_bad_members(self):
        state = wm_init(2)
        # overall misses by 5 (> eps=2); member errors 0.5 and 10
        new = wm_update(state, [100.5, 110.0], overall_prediction=105.0, actual=100.0)
        np.testing.assert_allclose(new.weights, [1.0, math.exp(-5)], atol=1e-15)
        # input state untouched
        np.testing.assert_array_equal(state.weights, [1.0, 1.0])

    def test_two_penalized_rounds_compose(self):
        state = wm_init(2)
        for _ in range(2):
            state = wm_update(state, [100.5, 110.0], overall_prediction=107.0, actual=100.0)
        np.testing.assert_allclose(state.weights, [1.0, math.exp(-10)], atol=1e-18)

    def test_never_increases_and_stays_positive(self):
        rng = np.random.default_rng(18)
        state = wm_init(5, eta=3.0, epsilon_tol=1.0)
        for _ in range(200):
            preds = rng.uniform(0, 50, 5)
            actual = rng.uniform(0, 50)
            new = wm_update(state, preds, wm_predict(state, preds), actual)
            assert np.all(new.weights <= state.weights + 1e-18)
            assert np.all(new.weights > 0)
            state = new

    def test_long_miss_streak_keeps_weights_positive(self):
        # 200 misses at eta=5 take exp(-1000) below the smallest float.
        state = wm_init(2)
        for _ in range(200):
            state = wm_update(state, [100.5, 110.0], overall_prediction=107.0, actual=100.0)
        assert np.all(state.weights > 0)
        assert state.weights[0] == 1.0
        assert np.isfinite(wm_predict(state, [100.5, 110.0]))

    def test_prediction_within_member_range(self):
        rng = np.random.default_rng(19)
        state = wm_init(6)
        for _ in range(50):
            preds = rng.uniform(-10, 110, 6)
            value = wm_predict(state, preds)
            assert preds.min() - 1e-12 <= value <= preds.max() + 1e-12
            state = wm_update(state, preds, value, rng.uniform(0, 100))

    def test_dimension_mismatch(self):
        state = wm_init(3)
        with pytest.raises(DimensionMismatch):
            wm_predict(state, [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            wm_update(state, [1.0, 2.0], 1.5, 1.0)
