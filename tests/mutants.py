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
            "tests/test_backtest.py::TestMonthPool::test_a_one_month_window_falls_back_in_every_cell",
        ],
    ),
    (
        # Nelder-Mead vertices with equal values ordered by the sort
        # implementation's choice.
        "src/uptakecast/clinical.py",
        'order = np.argsort(fsim, kind="stable").tolist()',
        "order = np.argsort(fsim).tolist()",
        ["tests/test_clinical.py::TestMinimize::test_ties_do_not_depend_on_the_simd_dispatch"],
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
        "if last[0] is not X:",
        "if last[0] is None or last[0].shape != X.shape:",
        [
            "tests/test_stacking.py::TestFitSvr::test_fit_svrs_matches_fit_svr_one_design_at_a_time",
            "tests/test_backtest.py::TestMonthPool::test_chunks_equal_one_month_at_a_time",
        ],
    ),
    (
        # Every model built from the last standardization made.
        "src/uptakecast/stacking.py",
        "Z, means, scales = standardized.pop(q)",
        "standardized.pop(q); Z, means, scales = last[1]",
        [
            "tests/test_backtest.py::TestLevel1::test_methods_and_window",
            "tests/test_stacking.py::TestFitSvr::test_fit_svrs_matches_fit_svr_one_design_at_a_time",
        ],
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
        "    return forecasts[q]\n",
        "    return forecasts[q ^ 1]\n",
        ["tests/test_backtest.py::TestLevel1Reference::test_equals_the_reference[None]"],
    ),
    (
        # Each SVR design fitted with the other kernel.
        "src/uptakecast/backtest.py",
        "designs.append((X, y, kernel))",
        'designs.append((X, y, "gaussian" if kernel == "linear" else "linear"))',
        ["tests/test_backtest.py::TestLevel1Reference::test_equals_the_reference[None]"],
    ),
    (
        # The target's clinical and web predictions swapped.
        "src/uptakecast/backtest.py",
        "e_c, e_w = target_preds[clin], target_preds[wm]",
        "e_w, e_c = target_preds[clin], target_preds[wm]",
        ["tests/test_backtest.py::TestLevel1Reference::test_equals_the_reference[None]"],
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
