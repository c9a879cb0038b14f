import configparser
import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uptakecast.backtest import BacktestConfig, run_level0_backtest, run_level1_backtest
from uptakecast.cli import _load_experiment, main
from uptakecast.ingest import read_log_csv, write_log_csv
from uptakecast.timeseries import MonthStamp, TimeSeries, UptakeSeries
from uptakecast.web import QueryPanel

from conftest import JAN2011, synth_vaccine


def write_experiment(root, months, settings=""):
    """Registry, cohorts, trends and config under ``root``: the k-th vaccine
    of ``months`` (name -> month count) is `synth_vaccine(40 + k)` over that
    many months from 2011-01; ``settings`` are added to [backtest]."""
    registry_rows = ["vaccine,year,month,doses"]
    cohort_rows = ["year,month,expected"] + [
        f"{month.year},{month.month},1000"
        for month in map(JAN2011.plus, range(max(months.values())))
    ]
    for v_idx, (name, n_months) in enumerate(months.items()):
        uptake, panel = synth_vaccine(40 + v_idx, n_months=n_months, n_queries=12)
        series = uptake.series
        for k, month in enumerate(series.months()):
            doses = int(round(series.values[k] * 10))
            registry_rows.append(f"{name},{month.year},{month.month},{doses}")
        trend_rows = ["query,year,month,frequency"]
        for j, q in enumerate(panel.query_names):
            for k, month in enumerate(series.months()):
                trend_rows.append(f"{q},{month.year},{month.month},{panel.matrix[k, j]:.4f}")
        (root / f"trends_{name}.csv").write_text("\n".join(trend_rows) + "\n")
    (root / "registry.csv").write_text("\n".join(registry_rows) + "\n")
    (root / "cohorts.csv").write_text("\n".join(cohort_rows) + "\n")
    config = (
        "[data]\n"
        f"registry = {root / 'registry.csv'}\n"
        f"cohorts = {root / 'cohorts.csv'}\n"
        "\n"
        "[vaccines]\n"
        + "".join(f"{name} = {root / f'trends_{name}.csv'}\n" for name in months)
        + "\n"
        "[backtest]\n"
        "seed = 3\n"
        "bagging_subset_size = 4\n"
        + settings
    )
    (root / "experiment.ini").write_text(config)


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Two-vaccine experiment on disk: registry, cohorts, trends, config."""
    root = tmp_path_factory.mktemp("experiment")
    write_experiment(root, {"VAX-A": 40, "VAX-B": 40})
    return root


def with_settings(experiment, directory, **settings):
    """A copy of the experiment config with ``settings`` added to [backtest]."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read(experiment / "experiment.ini")
    parser["backtest"].update(settings)
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "experiment.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    return config


def run_predict(config, capsys):
    code = main(["predict", "--config", str(config), "--vaccine", "VAX-A"])
    out, err = capsys.readouterr()
    return code, out, err


class TestValidate:
    def test_ok(self, experiment, capsys):
        assert main(["validate", "--config", str(experiment / "experiment.ini")]) == 0
        window = "uptake 2011-01..2014-04 (40 months), panel 12 queries, shared window 2011-01..2014-04"
        assert capsys.readouterr().out == (
            f"VAX-A: {window}\nVAX-B: {window}\nconfig ok: seed=3, warmups=24/12, ar_lags=12\n"
        )

    @pytest.mark.parametrize(
        "months, settings, message",
        [
            (20, "", "need 25 months, series spans 20"),
            (30, "", "level-0 log covers 6 months, need 13"),
            (30, "end_month = 2012-12\n", "need 25 months, series spans 24"),
            # `predict` needs one level-1 month fewer and runs on this one
            # (TestPredict::test_matches_backtest_cell[level1_warmup]).
            (40, "level1_warmup_months = 16\n", "level-0 log covers 16 months, need 17"),
        ],
        ids=["short", "level1-warmup", "end-month", "level1-boundary"],
    )
    def test_a_vaccine_the_backtest_fails_fails_validation(
        self, tmp_path, capsys, months, settings, message
    ):
        # W fails too: the one error line names the first failing vaccine in
        # config order, with the message of its backtest error row.
        write_experiment(tmp_path, {"V": months, "W": 20}, settings)
        config = str(tmp_path / "experiment.ini")
        assert main(["validate", "--config", config]) == 1
        assert capsys.readouterr() == ("", f"error: vaccine 'V': InsufficientHistory: {message}\n")
        assert main(["backtest", "--config", config, "--vaccine", "V", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[1:] == [["V", "ERROR", f"InsufficientHistory: {message}", "", ""]]

    def test_out_takes_the_lines(self, experiment, tmp_path, capsys):
        config = str(experiment / "experiment.ini")
        assert main(["validate", "--config", config]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "v.txt"
        assert main(["validate", "--config", config, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_missing_config(self, capsys):
        assert main(["validate", "--config", "/nonexistent.ini"]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_flag_required(self, capsys):
        assert main(["validate"]) == 1

    def test_byte_order_marks_are_allowed(self, experiment, tmp_path):
        # Excel's "CSV UTF-8" starts a file with a UTF-8 byte-order mark.
        for path in experiment.iterdir():
            text = path.read_text(encoding="utf-8").replace(str(experiment), str(tmp_path))
            (tmp_path / path.name).write_text("\ufeff" + text, encoding="utf-8")

        def loaded(root):
            datasets, cfg = _load_experiment(str(root / "experiment.ini"), None, None)
            return cfg, {
                name: (E.series.start, E.series.values.tolist(), Q.start, Q.query_names,
                       Q.matrix.tolist())
                for name, (E, Q) in datasets.items()
            }

        assert loaded(tmp_path) == loaded(experiment)

    @pytest.mark.parametrize(
        "rows, culprit, names_vaccine",
        [
            (b"V,2011,99,1\n", "registry", False),
            (None, "registry", False),
            (b"V,2011,1,\xff\n", "registry", False),
            ("directory", "registry", False),
            (b"V,2011,1,1\nV,2011,3,1\n", "registry", True),
            (b"V,1990,1,1\n", "cohorts", True),
            (b"V,2011,1,1\n", "trends", False),
        ],
        ids=["bad-month", "missing", "not-utf8", "directory", "gap", "no-cohort", "no-trends"],
    )
    def test_broken_data_file(self, experiment, tmp_path, capsys, rows, culprit, names_vaccine):
        # The registry's data rows are ``rows`` (None: no registry file). One
        # error line names the file at fault, and the vaccine where the fault
        # is in one vaccine's months.
        paths = {
            "registry": tmp_path / "bad.csv",
            "cohorts": experiment / "cohorts.csv",
            "trends": experiment / "trends_VAX-A.csv",
        }
        if culprit == "trends":
            paths["trends"] = tmp_path / "missing.csv"
        if rows == "directory":
            paths["registry"].mkdir()
        elif rows is not None:
            paths["registry"].write_bytes(b"vaccine,year,month,doses\n" + rows)
        config = (
            "[data]\n"
            f"registry = {paths['registry']}\n"
            f"cohorts = {paths['cohorts']}\n"
            "[vaccines]\n"
            f"V = {paths['trends']}\n"
        )
        (tmp_path / "broken.ini").write_text(config)
        assert main(["validate", "--config", str(tmp_path / "broken.ini")]) == 1
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert out == "" and line.startswith(f"error: {paths[culprit]}")
        assert ("vaccine 'V': " in line) == names_vaccine

    @pytest.mark.parametrize(
        "setting",
        [
            "bagging_subsets = 0",
            "hw_season_length = 0",
            "wm_eta = 0",
            "svr_cost = inf",
            "ar_lags = x",
            "row_bagging = yes",  # removed; an unknown key like any other
        ],
    )
    def test_invalid_backtest_setting(self, experiment, tmp_path, capsys, setting):
        config = (experiment / "experiment.ini").read_text() + setting + "\n"
        (tmp_path / "bad.ini").write_text(config)
        for command in ("validate", "backtest", "predict"):
            argv = [command, "--config", str(tmp_path / "bad.ini"), "--vaccine", "VAX-A"]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: invalid config" in captured.err

    def test_every_backtest_field_parses(self, experiment, tmp_path):
        expected = BacktestConfig(
            level0_warmup_months=30, level1_warmup_months=6, ar_lags=3, arima_orders=(2, 0, 1),
            hw_season_length=6, bagging_subset_size=5, bagging_subsets=7, wm_eta=4.5, wm_epsilon=1.5, svr_cost=2.5, svr_tube_eps=0.2, svr_gamma=0.5,
            seed=8, end_month=MonthStamp(2013, 6), level1_sliding=9,
        )
        lines = [
            "level0_warmup_months = 30", "level1_warmup_months = 6", "ar_lags = 3",
            "arima_orders = 2, 0, 1", "hw_season_length = 6", "bagging_subset_size = 5",
            "bagging_subsets = 7", "wm_eta = 4.5", "wm_epsilon = 1.5",
            "svr_cost = 2.5", "svr_tube_eps = 0.2", "svr_gamma = 0.5", "seed = 8",
            "end_month = 2013-06", "level1_sliding = 9",
        ]
        config = (experiment / "experiment.ini").read_text().split("[backtest]")[0]
        (tmp_path / "full.ini").write_text(config + "[backtest]\n" + "\n".join(lines) + "\n")
        _, cfg = _load_experiment(str(tmp_path / "full.ini"), ["VAX-A"], None)
        assert cfg == expected
        assert {line.split(" = ")[0] for line in lines} == set(vars(expected))

    def test_readme_lists_every_backtest_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"; any BacktestConfig field:(.*?); valid ranges:", readme, re.S)
        text = re.sub(r"\([^)]*\)", "", block.group(1).replace(";", ""))
        listed = [key.strip() for key in text.split(",")]
        assert listed == [f.name for f in dataclasses.fields(BacktestConfig)]

    def test_default_section_feeds_interpolation(self, experiment, tmp_path, capsys):
        # [DEFAULT] keys are visible in every section; they name no vaccine
        # and no [backtest] setting.
        config = (
            "[DEFAULT]\n"
            f"root = {experiment}\n"
            "[data]\n"
            "registry = %(root)s/registry.csv\n"
            "cohorts = %(root)s/cohorts.csv\n"
            "[vaccines]\n"
            "VAX-A = %(root)s/trends_VAX-A.csv\n"
            "[backtest]\n"
            "seed = 3\n"
        )
        (tmp_path / "defaults.ini").write_text(config)
        assert main(["validate", "--config", str(tmp_path / "defaults.ini")]) == 0
        out = capsys.readouterr().out
        assert "VAX-A" in out and "root" not in out and "config ok" in out

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda text: text + "seed = 4\n", "invalid config", id="key_twice"),
            pytest.param(
                lambda text: text + "bagging_subset = 5\n",
                "unknown [backtest] keys: bagging_subset",
                id="unknown_key",
            ),
            pytest.param(
                lambda text: "\n".join(
                    line for line in text.splitlines() if not line.startswith("registry")
                ),
                "missing the 'registry' key",
                id="no_registry",
            ),
            pytest.param(
                lambda text: "\n".join(
                    line for line in text.splitlines() if not line.startswith("cohorts")
                ),
                "missing the 'cohorts' key",
                id="no_cohorts",
            ),
            pytest.param(lambda text: "seed = 1\n" + text, "invalid config", id="no_header"),
        ],
    )
    def test_malformed_experiment_file(self, experiment, tmp_path, capsys, edit, message):
        config = edit((experiment / "experiment.ini").read_text())
        (tmp_path / "bad.ini").write_text(config)
        assert main(["validate", "--config", str(tmp_path / "bad.ini")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


class TestBacktest:
    def test_csv_deterministic_and_logged(self, experiment, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        logs = tmp_path / "logs"
        args = [
            "backtest",
            "--config", str(experiment / "experiment.ini"),
            "--format", "csv",
        ]
        assert main(args + ["--out", str(out1), "--log-dir", str(logs)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert text.splitlines()[0] == "vaccine,method,rmse,beats_naive,is_row_min"
        assert "VAX-A" in text and "VAX-B" in text
        assert sorted(p.name for p in logs.glob("*.log.csv")) == [
            "VAX-A.log.csv",
            "VAX-B.log.csv",
        ]
        log = read_log_csv(logs / "VAX-A.log.csv")
        assert len(log.methods()) == 44
        assert write_log_csv(log) == (logs / "VAX-A.log.csv").read_text()

    def test_vaccine_filter_and_markdown(self, experiment, tmp_path):
        out = tmp_path / "r.md"
        assert main([
            "backtest",
            "--config", str(experiment / "experiment.ini"),
            "--vaccine", "VAX-B",
            "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert "VAX-B" in text and "VAX-A" not in text
        assert "## Single-source methods" in text
        assert "## Ensemble, level-1 SVR-gaussian" in text

    def test_seed_flag_wins(self, experiment, tmp_path, capsys):
        args = [
            "backtest",
            "--config", str(experiment / "experiment.ini"),
            "--vaccine", "VAX-A",
            "--format", "csv",
        ]
        assert main(args + ["--out", str(tmp_path / "a.csv"), "--seed", "3"]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv"), "--seed", "4"]) == 0
        a = (tmp_path / "a.csv").read_text()
        b = (tmp_path / "b.csv").read_text()
        assert a != b  # bagging stream reseeded

    def test_level0_window_flag(self, experiment, tmp_path):
        out = tmp_path / "r.csv"
        assert main([
            "backtest",
            "--config", str(experiment / "experiment.ini"),
            "--vaccine", "VAX-A",
            "--format", "csv",
            "--level0-window",
            "--out", str(out),
        ]) == 0
        # One CSV table: the level-0 window rows follow under the one header.
        header = ["vaccine", "method", "rmse", "beats_naive", "is_row_min"]
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert [row for row in rows if row == header] == [header] == rows[:1]
        assert [row[0] for row in rows[1:]] == ["VAX-A"] * 44 + ["VAX-A (level0 window)"] * 8
        assert rows[45][:2] == ["VAX-A (level0 window)", "Naive"]

    def test_level0_window_markdown_appends_tables(self, experiment, tmp_path):
        args = [
            "backtest",
            "--config", str(experiment / "experiment.ini"),
            "--vaccine", "VAX-A",
        ]
        assert main(args + ["--out", str(tmp_path / "plain.md")]) == 0
        assert main(args + ["--level0-window", "--out", str(tmp_path / "both.md")]) == 0
        plain = (tmp_path / "plain.md").read_text()
        head, extra = (tmp_path / "both.md").read_text().split(plain, 1)
        assert head == ""
        assert extra.startswith("## Single-source methods\n")
        assert "| VAX-A (level0 window) |" in extra and "Ensemble" not in extra

    def test_unknown_vaccine(self, experiment, capsys):
        assert main([
            "backtest",
            "--config", str(experiment / "experiment.ini"),
            "--vaccine", "NOPE",
        ]) == 1

    @pytest.mark.parametrize("vaccine", ["../escaped", "a/b"])
    def test_log_dir_takes_only_logs_inside_it(self, experiment, tmp_path, capsys, vaccine):
        # A vaccine id whose log would lie outside --log-dir fails before any
        # fit, and nothing is written; without --log-dir the id is valid.
        registry = (experiment / "registry.csv").read_text().replace("VAX-A,", f"{vaccine},")
        (tmp_path / "registry.csv").write_text(registry)
        config = tmp_path / "experiment.ini"
        config.write_text(
            f"[data]\nregistry = {tmp_path / 'registry.csv'}\n"
            f"cohorts = {experiment / 'cohorts.csv'}\n"
            f"[vaccines]\n{vaccine} = {experiment / 'trends_VAX-A.csv'}\n"
            "[backtest]\nseed = 3\nbagging_subset_size = 4\n"
        )
        before = sorted(tmp_path.rglob("*"))
        args = ["backtest", "--config", str(config), "--out", str(tmp_path / "report.md")]
        assert main(args + ["--log-dir", str(tmp_path / "run" / "logs")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: vaccine {vaccine!r}: ")
        assert sorted(tmp_path.rglob("*")) == before
        assert main(args) == 0


class TestArguments:
    @pytest.mark.parametrize(
        "argv",
        [["backtest", "--bogus"], ["frobnicate"], ["backtest", "--seed", "x"]],
        ids=["unknown-flag", "unknown-command", "non-integer-seed"],
    )
    def test_a_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: uptakecast") and "uptakecast: error: " in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: uptakecast")

    @pytest.mark.parametrize(
        "command, flag, name",
        [
            ("backtest", "--out", "nodir/report.md"),
            ("predict", "--out", "nodir/p.txt"),
            ("report", "--out", "nodir/x.md"),
            ("backtest", "--out", "adir"),
            ("backtest", "--log-dir", "afile"),
            ("backtest", "--log-dir", "afile/logs"),
        ],
        ids=["backtest-out-no-dir", "predict-out-no-dir", "report-out-no-dir", "out-a-dir",
             "log-dir-a-file", "log-dir-under-a-file"],
    )
    def test_an_unwritable_path_fails_before_any_fit(
        self, experiment, tmp_path, capsys, monkeypatch, command, flag, name
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the output path was checked")

        monkeypatch.setattr("uptakecast.cli.run_full_experiment", no_fit)
        monkeypatch.setattr("uptakecast.cli.run_level0_backtest", no_fit)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        (tmp_path / "logs").mkdir()
        before = sorted(tmp_path.rglob("*"))
        argv = [command, "--config", str(experiment / "experiment.ini"), "--vaccine", "VAX-A"]
        if command == "report":
            argv = [command, "--log-dir", str(tmp_path / "logs")]
        assert main(argv + [flag, str(tmp_path / name)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {flag} {tmp_path / name}: ")
        assert sorted(tmp_path.rglob("*")) == before


LOG_HEADER = (
    "vaccine,method,year,month,predicted,actual,train_start_year,"
    "train_start_month,train_end_year,train_end_month,diagnostic\n"
)


@pytest.fixture(scope="module")
def markdown_run(experiment, tmp_path_factory):
    """``backtest`` markdown for both vaccines and the logs it wrote."""
    root = tmp_path_factory.mktemp("markdown_run")
    assert main([
        "backtest",
        "--config", str(experiment / "experiment.ini"),
        "--out", str(root / "report.md"),
        "--log-dir", str(root / "logs"),
    ]) == 0
    return (root / "report.md").read_text(), root / "logs"


class TestReport:
    def test_reemit_matches_backtest_rmse(self, experiment, tmp_path, capsys):
        logs = tmp_path / "logs"
        out = tmp_path / "direct.csv"
        assert main([
            "backtest",
            "--config", str(experiment / "experiment.ini"),
            "--vaccine", "VAX-A",
            "--format", "csv",
            "--out", str(out),
            "--log-dir", str(logs),
        ]) == 0
        reemitted = tmp_path / "reemitted.csv"
        assert main([
            "report", "--log-dir", str(logs), "--format", "csv", "--out", str(reemitted)
        ]) == 0
        assert reemitted.read_text() == out.read_text()

    def test_level0_window_csv_equals_backtest(self, experiment, tmp_path):
        logs = tmp_path / "logs"
        direct, reemitted = tmp_path / "direct.csv", tmp_path / "reemitted.csv"
        argv = ["--format", "csv", "--level0-window", "--log-dir", str(logs), "--out"]
        config = ["--config", str(experiment / "experiment.ini")]
        assert main(["backtest", *config, *argv, str(direct)]) == 0
        assert main(["report", *argv, str(reemitted)]) == 0
        assert "VAX-B (level0 window)" in direct.read_text()
        assert reemitted.read_bytes() == direct.read_bytes()

    def test_vaccine_filter(self, markdown_run, tmp_path):
        _, logs = markdown_run
        both, only_b = tmp_path / "both.csv", tmp_path / "b.csv"
        argv = ["report", "--log-dir", str(logs), "--format", "csv", "--out"]
        assert main(argv + [str(both)]) == 0
        assert main(argv + [str(only_b), "--vaccine", "VAX-B"]) == 0
        header, *rows = both.read_text().splitlines(keepends=True)
        assert only_b.read_text() == header + "".join(r for r in rows if r.startswith("VAX-B,"))
        assert any(r.startswith("VAX-A,") for r in rows)

    def test_unknown_vaccine(self, markdown_run, capsys):
        _, logs = markdown_run
        assert main(["report", "--log-dir", str(logs), "--vaccine", "VAX-A",
                     "--vaccine", "NOPE"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: vaccines not in the logs: ['NOPE']"

    def test_missing_log_dir(self, tmp_path, capsys):
        assert main(["report", "--log-dir", str(tmp_path / "void")]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            (LOG_HEADER + "X,Naive,2013,1,not-a-number,50.0,2011,1,2012,12,\n", "line 2"),
            (LOG_HEADER + "X,Naive,2013,1.5,49.0,50.0,2011,1,2012,12,\n", "line 2"),
            (LOG_HEADER + "X,Naive,2013,1,49.0,50.0,2011,1,2012,12,\nX,Naive,2013,2,49.0\n",
             "line 3"),
            (LOG_HEADER, "no log entries"),
            ("", "empty file"),
            (LOG_HEADER + "X,Naive,2013,1,nan,50.0,2011,1,2012,12,\n", "line 2"),
            (LOG_HEADER + "X,Naive,2013,1,49.0,inf,2011,1,2012,12,\n", "line 2"),
            (LOG_HEADER + "X,Naive,2013,1,49.0,-1.0,2011,1,2012,12,\n", "line 2"),
            ("vaccine,method\nX,Naive\n", "expected header"),
            (LOG_HEADER + "X,Naive,2013,1,49.0,50.0,2011,1,2012,12,\n"
             "X,HW,2013,1,49.5,51.0,2011,1,2012,12,\n", "two different actual values"),
            (LOG_HEADER + "X,Naive,2013,1,49.0,50.0,2011,1,2012,12,\n"
             "X,HW,2013,2,49.5,51.0,2011,1,2013,1,\n", "no months shared by every method"),
        ],
        ids=[
            "unparsable-number", "non-integer-month", "short-row", "header-only", "empty-file",
            "nan-prediction", "inf-actual", "negative-actual", "wrong-header", "two-actuals",
            "no-shared-month",
        ],
    )
    def test_malformed_log_is_validation_error(self, tmp_path, capsys, text, message):
        # One error line, and it names the file, and a row's line after it.
        logs = tmp_path / "logs"
        logs.mkdir()
        path = logs / "X.log.csv"
        path.write_text(text)
        assert main(["report", "--log-dir", str(logs)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert re.match(rf"error: {re.escape(str(path))}( line \d+)?: ", line) and message in line

    def test_a_log_with_a_bom_and_crlf_line_ends_reads(self, markdown_run, tmp_path):
        _, logs = markdown_run
        marked = tmp_path / "marked"
        marked.mkdir()
        for path in logs.iterdir():
            text = "\ufeff" + path.read_text(encoding="utf-8").replace("\n", "\r\n")
            (marked / path.name).write_bytes(text.encode("utf-8"))
        plain, read = tmp_path / "plain.csv", tmp_path / "marked.csv"
        argv = ["report", "--format", "csv", "--out"]
        assert main(argv + [str(plain), "--log-dir", str(logs)]) == 0
        assert main(argv + [str(read), "--log-dir", str(marked)]) == 0
        assert read.read_text() == plain.read_text()

    def test_a_log_that_is_not_utf8_is_a_validation_error(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "X.log.csv").write_bytes(b"vaccine,method\xff\n")
        assert main(["report", "--log-dir", str(logs)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {logs / 'X.log.csv'}: ")

    def test_markdown_reemit_has_no_unknown_seed(self, markdown_run, tmp_path):
        # The logs do not record the seed, so the re-emitted markdown leaves
        # out the seed sentence and is otherwise the backtest's.
        direct, logs = markdown_run
        out = tmp_path / "reemitted.md"
        assert main(["report", "--log-dir", str(logs), "--out", str(out)]) == 0
        assert ". Seed: 3." in direct
        assert out.read_text() == direct.replace(". Seed: 3.", ".")

    def test_markdown_with_different_method_sets(self, tmp_path):
        header = (
            "vaccine,method,year,month,predicted,actual,train_start_year,"
            "train_start_month,train_end_year,train_end_month,diagnostic\n"
        )
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "X.log.csv").write_text(
            header
            + "X,Naive,2013,1,49.0,50.0,2011,1,2012,12,\n"
            + "X,HW,2013,1,49.5,50.0,2011,1,2012,12,\n"
        )
        (logs / "Y.log.csv").write_text(header + "Y,Naive,2013,1,10.0,11.0,2011,1,2012,12,\n")
        out = tmp_path / "report.md"
        assert main(["report", "--log-dir", str(logs), "--out", str(out)]) == 0
        assert out.read_text() == (
            "## Single-source methods\n"
            "\n"
            "| Vaccine | Naive | HW |\n"
            "|---|---|---|\n"
            "| X | 1.000 | **[0.500]** |\n"
            "| Y | [1.000] | - |\n"
            "\n"
            "Evaluation windows: 2013-01..2013-01.\n"
            "**bold**: beats naive; [brackets]: lowest RMSE for the vaccine.\n"
        )

    def test_a_method_with_a_non_meta_prefix_is_single_source(self, tmp_path):
        # Only a level-1 model's name before the ":" makes an ensemble, so
        # "Holt:Winters" is a single-source column in markdown and a level-0
        # window row, as in the CSV; it is also the row minimum.
        header = (
            "vaccine,method,year,month,predicted,actual,train_start_year,"
            "train_start_month,train_end_year,train_end_month,diagnostic\n"
        )
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "X.log.csv").write_text(
            header
            + "X,Naive,2013,1,49.0,50.0,2011,1,2012,12,\n"
            + "X,Holt:Winters,2013,1,49.5,50.0,2011,1,2012,12,\n"
            + "X,Naive,2013,2,50.0,52.0,2011,1,2013,1,\n"
            + "X,Holt:Winters,2013,2,51.5,52.0,2011,1,2013,1,\n"
            + "X,OLS:HW+O,2013,2,51.0,52.0,2013,1,2013,1,\n"
        )
        md, csv_out = tmp_path / "report.md", tmp_path / "report.csv"
        argv = ["report", "--log-dir", str(logs), "--level0-window", "--out"]
        assert main(argv + [str(md)]) == 0
        assert main(argv + [str(csv_out), "--format", "csv"]) == 0
        single = (
            "## Single-source methods\n"
            "\n"
            "| Vaccine | Naive | Holt:Winters |\n"
            "|---|---|---|\n"
        )
        footer = "**bold**: beats naive; [brackets]: lowest RMSE for the vaccine.\n"
        assert md.read_text() == (
            single
            + "| X | 2.000 | **[0.500]** |\n"
            "\n"
            "## Ensemble, level-1 OLS\n"
            "\n"
            "| Vaccine | HW+O |\n"
            "|---|---|\n"
            "| X | **1.000** |\n"
            "\n"
            "Evaluation windows: 2013-02..2013-02.\n"
            + footer
            + single
            + "| X (level0 window) | 1.581 | **[0.500]** |\n"
            "\n"
            "Evaluation windows: 2013-01..2013-02.\n"
            + footer
        )
        rows = [line.split(",")[:2] for line in csv_out.read_text().splitlines()[1:]]
        assert rows == [["X", "Naive"], ["X", "Holt:Winters"], ["X", "OLS:HW+O"],
                        ["X (level0 window)", "Naive"], ["X (level0 window)", "Holt:Winters"]]

    def test_a_vaccine_in_two_logs_is_a_validation_error(self, markdown_run, tmp_path, capsys):
        _, logs = markdown_run
        copied = tmp_path / "logs"
        copied.mkdir()
        for path in logs.iterdir():
            (copied / path.name).write_bytes(path.read_bytes())
        (copied / "VAX-A copy.log.csv").write_bytes((logs / "VAX-A.log.csv").read_bytes())
        assert main(["report", "--log-dir", str(copied)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: vaccine 'VAX-A' is in two logs: {copied / 'VAX-A copy.log.csv'}"
                       f" and {copied / 'VAX-A.log.csv'}\n")

    def test_one_file_with_two_vaccines(self, markdown_run, tmp_path):
        _, logs = markdown_run
        a = (logs / "VAX-A.log.csv").read_text()
        b = (logs / "VAX-B.log.csv").read_text()
        joined = tmp_path / "joined"
        joined.mkdir()
        (joined / "both.log.csv").write_text(a + b.split("\n", 1)[1])
        separate, together = tmp_path / "separate.csv", tmp_path / "together.csv"
        argv = ["report", "--format", "csv", "--out"]
        assert main(argv + [str(separate), "--log-dir", str(logs)]) == 0
        assert main(argv + [str(together), "--log-dir", str(joined)]) == 0
        assert together.read_text() == separate.read_text()
        assert {row.split(",")[0] for row in separate.read_text().splitlines()[1:]} == {
            "VAX-A", "VAX-B"
        }


class TestPredict:
    def test_next_month_predictions(self, experiment, tmp_path):
        out = tmp_path / "pred.csv"
        assert main([
            "predict",
            "--config", str(experiment / "experiment.ini"),
            "--vaccine", "VAX-A",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("next-month predictions for VAX-A, target 2014-05")
        body = dict(line.split(",", 1) for line in lines[1:])
        assert len(body) == 44
        values = np.array([float(v) for v in body.values()])
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"level1_sliding": "12"},
            {"bagging_subset_size": "13"},
            # The fixture's 40 months leave 16 level-0 months: the warm-up boundary.
            {"level1_warmup_months": "16"},
        ],
        ids=["defaults", "level1_sliding", "bagging_fallback", "level1_warmup"],
    )
    def test_matches_backtest_cell(self, experiment, tmp_path, capsys, overrides):
        """predict equals the backtest's cell for the month after the last one.

        The target month's query frequencies are unobserved, so predict's web
        models deliberately score the last observed row instead. The backtest
        therefore runs on the history extended by one month whose panel row
        repeats the last observed row (its uptake value is never used).
        """
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read(experiment / "experiment.ini")
        parser["backtest"].update(overrides)
        config = tmp_path / "experiment.ini"
        with open(config, "w") as fh:
            parser.write(fh)

        code = main(["predict", "--config", str(config), "--vaccine", "VAX-A"])
        out, err = capsys.readouterr()
        assert code == 0
        header, *body = out.splitlines()
        predicted = {m: float(v) for m, v in (line.rsplit(",", 1) for line in body)}

        datasets, cfg = _load_experiment(str(config), ["VAX-A"], None)
        uptake, panel = datasets["VAX-A"]
        series = uptake.series
        target = series.end.plus(1)
        extended = UptakeSeries(
            TimeSeries(series.start, np.append(series.values, series.values[-1]))
        )
        extended_panel = QueryPanel(
            panel.start, panel.query_names, np.vstack([panel.matrix, panel.matrix[-1]])
        )
        log0 = run_level0_backtest(extended, extended_panel, cfg, vaccine="VAX-A")
        log = log0.merge(run_level1_backtest(log0, cfg, vaccine="VAX-A"))

        assert header == f"next-month predictions for VAX-A, target {target}:"
        assert list(predicted) == list(cfg.method_order())
        for method, value in predicted.items():
            assert value == log.prediction(method, target, "VAX-A"), method
        if "bagging_subset_size" in overrides:
            assert predicted["B"] == predicted["WM"] == predicted["Naive"]
            for method in ("B", "WM"):
                assert f"{method} {target}: fallback=naive (PanelTooNarrow: " in err

    def test_level1_warmup_not_covered(self, experiment, tmp_path, capsys):
        # The backtest has no level-1 cell for this month either.
        config = tmp_path / "experiment.ini"
        config.write_text(
            (experiment / "experiment.ini").read_text() + "level1_warmup_months = 17\n"
        )
        code = main(["predict", "--config", str(config), "--vaccine", "VAX-A"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: level-0 log covers 17 months, need 18\n"

    # level0_warmup_months - 1 and level0_warmup_months observed months
    @pytest.mark.parametrize("n_months", [23, 24])
    def test_short_history_counts_observed_months(self, experiment, tmp_path, capsys,
                                                  n_months):
        end = MonthStamp(2011, 1).plus(n_months - 1)
        config = with_settings(experiment, tmp_path, end_month=str(end))
        code, out, err = run_predict(config, capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: need 25 months, series spans {n_months}\n"

    def test_notes_in_method_order(self, experiment, tmp_path, capsys):
        # 13-query bagging subsets on a 12-query panel: B and WM fall back.
        config = with_settings(experiment, tmp_path, bagging_subset_size="13")
        code, _, err = run_predict(config, capsys)
        assert code == 0
        methods = [line.split(" ", 1)[0] for line in err.splitlines()]
        order = BacktestConfig().method_order()
        assert methods == sorted(set(methods), key=order.index)
        assert methods.index("WM") < methods.index("B")

    def test_end_month_equals_cut_inputs(self, experiment, tmp_path, capsys):
        """predict with ``end_month`` inside the data equals predict on the
        inputs cut at that month."""
        end = MonthStamp(2014, 2)
        config = with_settings(experiment, tmp_path / "end", end_month=str(end))
        cut = tmp_path / "cut"
        cut.mkdir()
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read(experiment / "experiment.ini")
        for section, key in [("data", "registry"), ("vaccines", "VAX-A"), ("vaccines", "VAX-B")]:
            source = Path(parser[section][key])
            header, *rows = source.read_text().splitlines()
            year = header.split(",").index("year")
            kept = [
                row for row in rows
                if MonthStamp(*map(int, row.split(",")[year : year + 2])) <= end
            ]
            (cut / source.name).write_text("\n".join([header] + kept) + "\n")
            parser[section][key] = str(cut / source.name)
        with open(cut / "experiment.ini", "w") as fh:
            parser.write(fh)

        ended = run_predict(config, capsys)
        assert ended[0] == 0
        assert ended[1].startswith(f"next-month predictions for VAX-A, target {end.plus(1)}:")
        assert run_predict(cut / "experiment.ini", capsys) == ended

    def test_requires_single_vaccine(self, experiment, capsys):
        assert main(["predict", "--config", str(experiment / "experiment.ini")]) == 1


class TestSubprocessEntry:
    def test_module_invocation(self, experiment):
        result = subprocess.run(
            [sys.executable, "-m", "uptakecast.cli", "validate",
             "--config", str(experiment / "experiment.ini")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "config ok" in result.stdout

    def test_the_program_imports_no_scipy(self):
        # scipy is a test dependency only (the Nelder-Mead oracle); importing
        # scipy.optimize used to be most of the start-up cost of every command.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, uptakecast.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
