"""Standing mutants: small faults in the program that named tests must catch.

Each entry of ``MUTANTS`` is (file, old text, new text, test ids). For each
one, ``python tests/mutants.py`` copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, replaces the one occurrence of
the old text with the new, and runs only the listed tests there with
``pytest -x``. The mutant is killed when they fail. The run exits 1 when a
mutant survives, when its old text does not occur exactly once (the list has
gone stale), or when its tests cannot be run (an unknown test id, say).
``EQUIVALENT`` lists mutants that change no output, each with the reason;
only their old text is checked. Hypothesis runs with a fixed seed, so a kill
does not depend on the examples drawn.

pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    (
        # The level-0 runs handed to the pool in reverse and the result
        # reversed back: every log is kept, but the later month's error wins.
        "src/uptakecast/backtest.py",
        "chunks = _map_months(level0_chunk, [(series, panel, run, cfg) for run in runs])",
        "chunks = _map_months(level0_chunk, [(series, panel, run, cfg) for run in runs][::-1])[::-1]",
        [
            "tests/test_backtest.py::TestMonthPool"
            "::test_the_earliest_failing_level0_month_over_the_runs_is_raised",
        ],
    ),
    (
        # The map's results child by child instead of in task order.
        "src/uptakecast/backtest.py",
        "return [outcomes[i % w][0][i // w] for i in range(len(tasks))]",
        "return [r for results, _ in outcomes for r in results]",
        [
            "tests/test_backtest.py::TestMonthPool::test_the_first_failing_task_wins_over_the_workers",
            "tests/test_backtest.py::TestMonthPool::test_pool_size[2-5]",
        ],
    ),
    (
        # Each merged request's rows handed to the generator one request on.
        "src/uptakecast/web.py",
        "for i, lo, hi in zip(members, bounds, bounds[1:]):",
        "for i, lo, hi in zip(members[1:] + members[:1], bounds, bounds[1:]):",
        [
            "tests/test_web.py::TestLasso::test_a_merged_problem_that_does_not_converge_fails_alone",
            "tests/test_backtest.py::TestMonthPool::test_a_month_alone_equals_its_cell_in_a_run",
        ],
    ),
    (
        # Requests merged by width alone: a path request and a fit request of
        # one width are sent to one call.
        "src/uptakecast/web.py",
        "key = (solve, settings, *(r.shape[1:] for r in rows if isinstance(r, np.ndarray)))",
        "key = rows[1].shape[1:]",
        ["tests/test_web.py::TestLasso::test_path_and_fit_requests_waiting_together_are_served_apart"],
    ),
    (
        # Requests merged whatever their settings: SVR requests of two costs
        # are solved with the first one's.
        "src/uptakecast/web.py",
        "key = (solve, settings, *(r.shape[1:] for r in rows if isinstance(r, np.ndarray)))",
        "key = (solve, *(r.shape[1:] for r in rows if isinstance(r, np.ndarray)))",
        ["tests/test_web.py::TestLasso::test_lasso_and_svr_requests_waiting_together_are_served_apart"],
    ),
    (
        # A drop deletes the active column after the dropped one.
        "src/uptakecast/web.py",
        "src = kept + (kept >= p[:, None])",
        "src = kept + (kept > p[:, None])",
        [
            "tests/test_web.py::TestLasso::test_a_batch_joins_drops_and_falls_back_at_one_breakpoint",
            "tests/test_web.py::TestLasso::test_batched_path_matches_the_candidate_loop_bit_for_bit",
        ],
    ),
    (
        # The level-1 runs handed to the pool in reverse and the result
        # reversed back: every log is kept, but the later month's error wins.
        "src/uptakecast/backtest.py",
        "chunks = _map_months(level1_chunk, [(streams, actuals, run, cfg) for run in runs])",
        "chunks = _map_months(level1_chunk, [(streams, actuals, run, cfg) for run in runs][::-1])[::-1]",
        ["tests/test_backtest.py::TestMonthPool::test_the_earliest_failing_month_over_the_chunks_is_raised"],
    ),
    (
        # The last instead of the first of tied candidates in a pair step.
        "src/uptakecast/stacking.py",
        "k = np.where(valid, phi, np.inf).argmin(axis=0)",
        "k = len(d) - 1 - np.where(valid, phi, np.inf)[::-1].argmin(axis=0)",
        [
            "tests/test_stacking.py::TestSvrSolver::test_batched_duals_keep_the_first_of_tied_candidates",
            "tests/test_stacking.py::TestSvrSolver::test_vector_pair_step_matches_the_scalar_one_bit_for_bit",
        ],
    ),
    (
        # Finished slots refilled or dropped lowest first: a dropped slot can
        # take a finished problem's place.
        "src/uptakecast/stacking.py",
        "for s in np.flatnonzero(finished)[::-1].tolist():",
        "for s in np.flatnonzero(finished).tolist():",
        [
            "tests/test_stacking.py::TestSvrSolver::test_batched_duals_match_one_by_one_bit_for_bit",
            "tests/test_backtest.py::TestMonthPool::test_chunks_equal_one_month_at_a_time",
        ],
    ),
    (
        # An empty batch of SVR duals.
        "src/uptakecast/stacking.py",
        "W = max((y.size for _, y in problems), default=0)",
        "W = max(y.size for _, y in problems)",
        [
            "tests/test_stacking.py::TestSvrSolver::test_batched_duals_match_one_by_one_bit_for_bit",
            "tests/test_stacking.py::TestFitSvr::test_a_gaussian_kernel_without_gamma_fails_alone",
        ],
    ),
    (
        # Nelder-Mead vertices with equal values in reverse order.
        "src/uptakecast/clinical.py",
        "order = sorted(range(n + 1), key=keys.__getitem__)",
        "order = sorted(range(n + 1), key=lambda i: (keys[i], -i))",
        [
            "tests/test_clinical.py::TestMinimize::test_holt_winters_and_arima_fits_match_scipy",
            "tests/test_clinical.py::TestMinimize::test_matches_scipy_when_a_limit_is_reached",
            "tests/test_clinical.py::TestMinimize::test_every_budget_on_a_kinked_problem",
        ],
    ),
    (
        # Outside contraction to 1.4 xbar - 0.5 w.
        "src/uptakecast/clinical.py",
        "xc = _clip([1.5 * a - 0.5 * w",
        "xc = _clip([1.4 * a - 0.5 * w",
        [
            "tests/test_clinical.py::TestMinimize::test_holt_winters_and_arima_fits_match_scipy",
            "tests/test_clinical.py::TestMinimize::test_matches_scipy_bit_for_bit",
        ],
    ),
    (
        # A Nelder-Mead iteration cut off by the evaluation budget counted.
        "src/uptakecast/clinical.py",
        "            nit += 1\n        except _BudgetSpent:\n            pass\n",
        "        except _BudgetSpent:\n            pass\n        nit += 1\n",
        [
            "tests/test_clinical.py::TestMinimize::test_every_budget_on_a_kinked_problem",
            "tests/test_clinical.py::TestMinimize::test_matches_scipy_when_a_limit_is_reached",
        ],
    ),
    (
        # One standardization shared by every design of the same shape.
        "src/uptakecast/stacking.py",
        "Z, means, scales = _standardize(X)",
        "Z, means, scales = svr_steps.__dict__.setdefault(X.shape, _standardize(X))",
        ["tests/test_stacking.py::TestFitSvr::test_served_svr_fits_match_fit_svr_one_design_at_a_time"],
    ),
    (
        # Every model built from the last design's standardization.
        "src/uptakecast/stacking.py",
        "    duals = iter((yield solve_svr_duals, (C, eps), problems))\n",
        "    svr_steps.last = Z, means, scales\n"
        "    duals = iter((yield solve_svr_duals, (C, eps), problems))\n"
        "    Z, means, scales = svr_steps.last\n",
        [
            "tests/test_backtest.py::TestLevel1::test_methods_and_window",
            "tests/test_stacking.py::TestFitSvr::test_served_svr_fits_match_fit_svr_one_design_at_a_time",
        ],
    ),
    (
        # An ensemble table written even when it has no methods.
        "src/uptakecast/ingest.py",
        "if combos:",
        "if True:",
        ["tests/test_ingest.py::TestEmitReport::test_markdown_golden"],
    ),
    (
        # Look-ahead: each level-1 window's targets one month later, so a
        # month's stacks train on its own observed value.
        "src/uptakecast/backtest.py",
        "y = actuals[lo:idx]",
        "y = actuals[lo + 1:idx + 1]",
        ["tests/test_backtest.py::TestLevel0::test_no_lookahead_probe"],
    ),
    (
        # Each SVR column reads its stream pair's other kernel's forecast.
        "src/uptakecast/backtest.py",
        "functools.partial(web._outcome, forecasts, k)",
        "functools.partial(web._outcome, forecasts, 1 - k)",
        ["tests/test_backtest.py::TestLevel1Reference::test_equals_the_reference[None]"],
    ),
    (
        # Each SVR design fitted with the other kernel.
        "src/uptakecast/backtest.py",
        "tuple(_SVR_KERNELS.values())",
        "tuple(_SVR_KERNELS.values())[::-1]",
        ["tests/test_backtest.py::TestLevel1Reference::test_equals_the_reference[None]"],
    ),
    (
        # The target's clinical and web predictions swapped.
        "src/uptakecast/backtest.py",
        "e_c, e_w = float(streams[clin][idx]), float(streams[wm][idx])",
        "e_w, e_c = float(streams[clin][idx]), float(streams[wm][idx])",
        ["tests/test_backtest.py::TestLevel1Reference::test_equals_the_reference[None]"],
    ),
    (
        # predict's level-1 warm-up always ends at the target: a target with
        # fewer level-0 months before it than the backtest's warm-up gets a
        # cell the backtest never logs.
        "src/uptakecast/cli.py",
        "max(cfg.level1_warmup_months, idx)",
        "idx",
        ["tests/test_cli.py::TestPredict::test_level1_warmup_not_covered"],
    ),
    (
        # Any text before a ":" taken for a meta-model: markdown and the
        # level-0 window rows drop a single-source method that CSV prints.
        "src/uptakecast/backtest.py",
        "return (meta, pair) if sep and meta in META_MODELS else (None, method)",
        "return (meta, pair) if sep else (None, method)",
        ["tests/test_cli.py::TestReport::test_a_method_with_a_non_meta_prefix_is_single_source"],
    ),
    (
        # An unknown kernel's problem sent to the solver, whose error ends
        # the whole served call.
        "src/uptakecast/stacking.py",
        'if kernel not in ("linear", "gaussian"):',
        "if False:",
        ["tests/test_stacking.py::TestFitSvr::test_an_unknown_kernel_fails_alone"],
    ),
    (
        # validate without the level-1 coverage check: a vaccine whose
        # backtest gets an error row passes.
        "src/uptakecast/cli.py",
        "            check_level1_coverage(len(window) - cfg.level0_warmup_months, cfg)\n",
        "",
        [
            "tests/test_cli.py::TestValidate"
            "::test_a_vaccine_the_backtest_fails_fails_validation[level1-warmup]",
        ],
    ),
    (
        # The setting kinds read without `int | None`: a fractional
        # bagging_subsets passes.
        "src/uptakecast/backtest.py",
        'kind in ("int", "int | None")',
        'kind == "int"',
        [
            "tests/test_backtest.py::TestConfig"
            "::test_every_count_and_real_setting_checks_its_kind[bagging_subsets]",
        ],
    ),
    (
        # The CV folds' training rows from np.setdiff1d, which imports
        # numpy.ma in every forked worker.
        "src/uptakecast/web.py",
        "np.delete(np.arange(T), val_idx)",
        "np.setdiff1d(np.arange(T), val_idx)",
        ["tests/test_backtest.py::TestMonthPool::test_a_serial_backtest_imports_no_numpy_ma"],
    ),
]

# Mutants no test can kill, because no output changes: (file, old text, new
# text, why). They are not run; their old text is checked like the others'.
EQUIVALENT = [
    (
        "src/uptakecast/stacking.py",
        "valid = (d_min < d) & (d < d_max)",
        "valid = (d_min <= d) & (d <= d_max)",
        "a candidate equal to d_min or d_max has that endpoint's phi, and the endpoints"
        " come first, so it never wins the argmin",
    ),
    (
        "src/uptakecast/clinical.py",
        "                        fsim[j] = f(sim[j])\n",
        "                        fsim[j] = f(moved)\n",
        "a shrink moves a vertex halfway to the best one, both in the box, so the clip"
        " returns the point unchanged",
    ),
    (
        "src/uptakecast/clinical.py",
        "                        sim[j] = _clip(moved, lower, upper)\n"
        "                        fsim[j] = f(sim[j])\n",
        "                        fsim[j] = f(_clip(moved, lower, upper))\n"
        "                        sim[j] = _clip(moved, lower, upper)\n",
        "a shrink cut off by the budget ends the run, and the cut-off vertex keeps its old"
        " value, which no sort puts first, so x, fun, nfev and nit are unchanged",
    ),
]


def run_mutant(path: str, old: str, new: str, tests: list[str]) -> str:
    """``"killed"``, ``"SURVIVED"`` or an error; the tests run in a mutated copy."""
    text = (ROOT / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"ERROR: old text occurs {text.count(old)} times in {path}"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / path).write_text(text.replace(old, new), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True,
        )
    # pytest exits 1 when a test failed; anything else means the tests
    # passed (0) or did not run as listed.
    if result.returncode == 1:
        return "killed"
    if result.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {result.returncode}\n{result.stdout[-2000:]}{result.stderr[-2000:]}"


def main() -> int:
    failed = 0
    for path, old, new, why in EQUIVALENT:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            failed += 1
            print(f"ERROR: old text of an equivalent mutant occurs {count} times in {path}: {old}")
    for path, old, new, tests in MUTANTS:
        outcome = run_mutant(path, old, new, tests)
        print(f"{outcome.splitlines()[0]:10} {path}: {new.strip()!r}", flush=True)
        if outcome != "killed":
            failed += 1
            print(outcome, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
