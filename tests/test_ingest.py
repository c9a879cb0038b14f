import csv
import io

import numpy as np
import pytest

from uptakecast.backtest import BacktestReport
from uptakecast.errors import (
    DiagnosticWarning,
    GapError,
    GapInRegistry,
    MissingCohort,
    ParseError,
    SchemaError,
)
from uptakecast.ingest import (
    CohortRecord,
    RegistryRecord,
    compute_uptake,
    emit_report,
    load_cohorts,
    load_registry,
    load_trends,
)
from uptakecast.timeseries import MonthStamp

M = MonthStamp


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRegistry:
    def test_well_formed(self, tmp_path):
        path = write(
            tmp_path,
            "reg.csv",
            "vaccine,year,month,doses\nMMR-1,2011,1,500\nMMR-1,2011,2,520\nHPV-1,2011,1,300\n",
        )
        records = load_registry(path)
        assert len(records) == 3
        assert records[0] == RegistryRecord("MMR-1", M(2011, 1), 500)

    def test_parse_error_carries_line(self, tmp_path):
        path = write(tmp_path, "reg.csv", "vaccine,year,month,doses\nMMR-1,2011,x,500\n")
        with pytest.raises(ParseError) as err:
            load_registry(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "row, error",
        [("MMR-1,2011,1,x", ParseError), ("MMR-1,2011,1,-3", SchemaError)],
        ids=["not-an-integer", "negative"],
    )
    def test_a_row_error_names_its_file_and_line(self, tmp_path, row, error):
        path = write(tmp_path, "reg.csv", f"vaccine,year,month,doses\n{row}\n")
        with pytest.raises(error) as err:
            load_registry(path)
        assert str(err.value).startswith(f"{path} line 2: ")
        if error is ParseError:
            assert err.value.line == 2

    def test_schema_violations(self, tmp_path):
        bad_header = write(tmp_path, "h.csv", "vaccine,year,month,count\n")
        with pytest.raises(SchemaError):
            load_registry(bad_header)
        negative = write(tmp_path, "n.csv", "vaccine,year,month,doses\nMMR-1,2011,1,-3\n")
        with pytest.raises(SchemaError):
            load_registry(negative)
        duplicate = write(
            tmp_path,
            "d.csv",
            "vaccine,year,month,doses\nMMR-1,2011,1,5\nMMR-1,2011,1,6\n",
        )
        with pytest.raises(SchemaError):
            load_registry(duplicate)


class TestLoadCohorts:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "c.csv", "year,month,expected\n2011,1,1000\n2011,2,990\n")
        records = load_cohorts(path)
        assert records == [CohortRecord(M(2011, 1), 1000), CohortRecord(M(2011, 2), 990)]

    def test_positive_count_required(self, tmp_path):
        path = write(tmp_path, "c.csv", "year,month,expected\n2011,1,0\n")
        with pytest.raises(SchemaError):
            load_cohorts(path)


class TestLoadTrends:
    def test_pivot(self, tmp_path):
        rows = ["query,year,month,frequency"]
        for q in ("polio", "vaccine"):
            for k in range(3):
                rows.append(f"{q},2011,{k + 1},{10 * (k + 1)}")
        panel = load_trends(write(tmp_path, "t.csv", "\n".join(rows) + "\n"))
        assert panel.query_names == ("polio", "vaccine")
        assert panel.n_months == 3
        np.testing.assert_array_equal(panel.matrix[:, 0], [10, 20, 30])

    def test_frequency_range(self, tmp_path):
        path = write(tmp_path, "t.csv", "query,year,month,frequency\npolio,2011,1,101\n")
        with pytest.raises(SchemaError):
            load_trends(path)

    def test_gap_names_query(self, tmp_path):
        text = (
            "query,year,month,frequency\n"
            "polio,2011,1,10\npolio,2011,2,20\npolio,2011,3,30\n"
            "difteri,2011,1,5\ndifteri,2011,3,6\n"
        )
        with pytest.raises(GapError, match="difteri"):
            load_trends(write(tmp_path, "t.csv", text))

    def test_all_zero_query_dropped_with_warning(self, tmp_path):
        text = (
            "query,year,month,frequency\n"
            "polio,2011,1,10\npolio,2011,2,20\n"
            "dead,2011,1,0\ndead,2011,2,0\n"
        )
        with pytest.warns(DiagnosticWarning, match="dead"):
            panel = load_trends(write(tmp_path, "t.csv", text))
        assert panel.query_names == ("polio",)

    def test_zeros_kept_when_not_all_zero(self, tmp_path):
        text = "query,year,month,frequency\npolio,2011,1,0\npolio,2011,2,20\n"
        panel = load_trends(write(tmp_path, "t.csv", text))
        assert panel.matrix[0, 0] == 0.0  # privacy-threshold zeros stay zeros


class TestComputeUptake:
    def test_direct_ratio(self):
        registry = [RegistryRecord("MMR-1", M(2011, 1), 500)]
        cohorts = [CohortRecord(M(2011, 1), 1000)]
        uptake = compute_uptake(registry, cohorts)
        assert uptake.series.values[0] == 50.0

    def test_catchup_exceeds_100(self):
        uptake = compute_uptake(
            [RegistryRecord("MMR-1", M(2011, 1), 1100)], [CohortRecord(M(2011, 1), 1000)]
        )
        assert uptake.series.values[0] == 110.0

    def test_missing_cohort(self):
        with pytest.raises(MissingCohort):
            compute_uptake(
                [RegistryRecord("MMR-1", M(2011, 1), 1)], [CohortRecord(M(2012, 1), 10)]
            )

    def test_gap_in_registry(self):
        registry = [
            RegistryRecord("MMR-1", M(2011, 1), 1),
            RegistryRecord("MMR-1", M(2011, 3), 1),
        ]
        cohorts = [CohortRecord(M(2011, k), 10) for k in (1, 2, 3)]
        with pytest.raises(GapInRegistry):
            compute_uptake(registry, cohorts)

    def test_linear_in_doses(self):
        rng = np.random.default_rng(0)
        doses = rng.integers(100, 900, 6)
        registry = [RegistryRecord("V", M(2011, k + 1), int(d)) for k, d in enumerate(doses)]
        cohorts = [CohortRecord(M(2011, k + 1), 1000) for k in range(6)]
        u1 = compute_uptake(registry, cohorts)
        doubled = [RegistryRecord("V", r.month, 2 * r.doses_given) for r in registry]
        u2 = compute_uptake(doubled, cohorts)
        np.testing.assert_allclose(u2.series.values, 2 * u1.series.values)


def tiny_report():
    return BacktestReport(
        vaccine="MMR-1",
        window_start=M(2014, 1),
        window_end=M(2014, 3),
        n_months=3,
        rmse={"Naive": 2.0, "HW": 1.5, "OLS:HW+WM": 1.0},
        seed=7,
    )


def read_report_csv(text):
    """The data rows of a CSV report, keyed (vaccine, method)."""
    return {(row[0], row[1]): row[2:] for row in list(csv.reader(io.StringIO(text)))[1:]}


class TestEmitReport:
    def test_csv_roundtrip_exact(self):
        report = tiny_report()
        rows = read_report_csv(emit_report([report], format="csv"))
        assert list(rows) == [("MMR-1", m) for m in report.rmse]
        for (_, method), (rmse, beats, row_min) in rows.items():
            assert float(rmse) == report.rmse[method]  # repr round-trips exactly
            assert beats == str(report.beats_naive[method]).lower()
            assert row_min == str(report.is_row_min[method]).lower()

    def test_markers(self):
        text = emit_report([tiny_report()], format="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "vaccine,method,rmse,beats_naive,is_row_min"
        naive_row = next(l for l in lines if ",Naive," in l)
        assert naive_row.endswith("false,false")
        best_row = next(l for l in lines if "OLS:HW+WM" in l)
        assert best_row.endswith("true,true")

    def test_single_method_is_row_min(self):
        report = BacktestReport(
            vaccine="X",
            window_start=M(2014, 1),
            window_end=M(2014, 1),
            n_months=1,
            rmse={"Naive": 3.0},
        )
        assert ",Naive,3.0,false,true" in emit_report([report], format="csv")

    def test_markdown_golden(self):
        text = emit_report([tiny_report()], format="markdown")
        golden = (
            "## Single-source methods\n"
            "\n"
            "| Vaccine | Naive | HW |\n"
            "|---|---|---|\n"
            "| MMR-1 | 2.000 | **1.500** |\n"
            "\n"
            "## Ensemble, level-1 OLS\n"
            "\n"
            "| Vaccine | HW+WM |\n"
            "|---|---|\n"
            "| MMR-1 | **[1.000]** |\n"
            "\n"
            "Evaluation windows: 2014-01..2014-03. Seed: 7.\n"
            "**bold**: beats naive; [brackets]: lowest RMSE for the vaccine.\n"
        )
        assert text == golden

    def test_error_annotation(self):
        failed = BacktestReport(
            vaccine="HPV-9",
            window_start=None,
            window_end=None,
            n_months=0,
            rmse={},
            error="InsufficientHistory: need 25 months",
        )
        csv_text = emit_report([failed], format="csv")
        assert "HPV-9,ERROR,InsufficientHistory: need 25 months" in csv_text
        md_text = emit_report([failed], format="markdown")
        assert "ERROR HPV-9" in md_text
        rows = read_report_csv(emit_report([tiny_report(), failed], format="csv"))
        assert rows[("HPV-9", "ERROR")] == ["InsufficientHistory: need 25 months", "", ""]
        assert [m for v, m in rows if v == "MMR-1"] == list(tiny_report().rmse)

