"""CSV/markdown/SVG rendering: the single formatting path for all outputs."""

import csv
import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles

from lossdiag import (
    LossVector,
    SelectionRule,
    SummarySet,
    ValidationError,
    band_masses,
    concordance,
    select,
    standardize_profile,
)
from lossdiag.correlate import SweepRow
from lossdiag.distill import LabCheckpoint
from lossdiag.render import (
    band_table,
    concordance_table,
    crossing_table,
    csv_table,
    distance_table,
    dose_table,
    family_stats_table,
    fmt,
    markdown_report,
    markdown_section,
    profile_table,
    selection_table,
    summary_table,
    svg_chart,
    sweep_table,
)


class TestFmt:
    def test_significant_digits(self):
        assert fmt(1.708) == "1.708"
        assert fmt(0.525) == "0.525"
        assert fmt(1234567.0) == "1.23457e+06"
        assert fmt(math.pi, precision=3) == "3.14"
        assert fmt(0.000123456789) == "0.000123457"

    def test_special_values(self):
        assert fmt(-0.0) == "0"
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        with pytest.raises(ValidationError):
            fmt(math.nan)
        with pytest.raises(ValidationError):
            fmt(1.0, precision=0)


class TestCsvTable:
    def test_line_endings_and_trailing_newline(self):
        text = csv_table(["a", "b"], [[1, 2.5], ["x", 3]])
        assert text == "a,b\n1,2.5\nx,3\n"
        assert "\r" not in text

    def test_quoting(self):
        text = csv_table(["a"], [["x,y"], ['say "hi"'], ["line\nbreak"]])
        lines = text.split("\n")
        assert lines[1] == '"x,y"'
        assert lines[2] == '"say ""hi"""'
        assert lines[3] == '"line'  # embedded newline is quoted, not escaped

    def test_quoted_ids_read_back_through_csv_reader(self):
        ids = ["a\rb", "c\r\nd", "e\nf", "g,h", 'i"j']
        text = summary_table([SummarySet(cid, 1.0, {50: 1.0}, 3) for cid in ids])
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["checkpoint_id", "mean", "p50", "count"]
        assert rows[1:] == [[cid, "1", "1", "3"] for cid in ids]

    def test_bool_cells_rejected(self):
        with pytest.raises(ValidationError):
            csv_table(["a"], [[True]])

    def test_row_width_checked(self):
        with pytest.raises(ValidationError, match="2 cells"):
            csv_table(["a"], [[1, 2]])

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.text(alphabet=st.sampled_from('ab ,"\n\r;.-é'), max_size=8),
                    st.integers(-(10**20), 10**20),
                    st.integers(-(2**31), 2**31 - 1).map(np.int64),
                    st.integers(0, 255).map(np.uint8),
                    st.floats(allow_nan=False, width=32).map(np.float32),
                    st.floats(allow_nan=False),
                    st.sampled_from((math.inf, -math.inf, -0.0, np.float64(-0.0))),
                ),
                min_size=3,
                max_size=3,
            ),
            max_size=6,
        ),
        precision=st.integers(1, 17),
    )
    def test_bytes_equal_char_scan_reference(self, rows, precision):
        want = ["a,b,c"] + [
            ",".join(oracles.cell_by_char_scan(v, precision) for v in row) for row in rows
        ]
        assert csv_table(["a", "b", "c"], rows, precision) == "\n".join(want) + "\n"


    @settings(max_examples=150, deadline=None)
    @given(
        matrix=arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 40)),
            elements=st.one_of(
                st.floats(allow_nan=False),
                st.sampled_from((math.inf, -math.inf, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308)),
            ),
        ),
        precision=st.integers(1, 17),
        nan_at=st.none() | st.tuples(st.integers(0, 4), st.integers(0, 39)),
    )
    def test_matrix_rows_equal_per_cell_format(self, matrix, precision, nan_at):
        # A row's floats are formatted together; each must read as format()
        # alone would print it, and one NaN anywhere refuses the row.
        n_rows, n_cols = matrix.shape
        header = ["id", *(f"c{j}" for j in range(n_cols))]
        if nan_at is not None:
            matrix[nan_at[0] % n_rows, nan_at[1] % n_cols] = math.nan
        as_floats = [[f"r{i}", *row.tolist()] for i, row in enumerate(matrix)]
        as_scalars = [[f"r{i}", *row] for i, row in enumerate(matrix)]
        for rows in (as_floats, as_scalars):
            if nan_at is not None:
                with pytest.raises(ValidationError, match="refusing to render NaN"):
                    csv_table(header, rows, precision)
                continue
            want = [",".join(header)] + [
                ",".join([row[0], *(oracles.float_by_format(float(v), precision) for v in row[1:])])
                for row in rows
            ]
            assert csv_table(header, iter(rows), precision) == "\n".join(want) + "\n"


class TestSummaryTable:
    def test_exact_row_rendering(self):
        s = SummarySet("student-top5", 1.708, {50: 0.525, 95: 7.82}, 4)
        text = summary_table([s])
        assert text == (
            "checkpoint_id,mean,p50,p95,count\n"
            "student-top5,1.708,0.525,7.82,4\n"
        )

    def test_percentile_names_zero_padded(self):
        s = SummarySet("c", 1.0, {5: 0.1, 50: 0.5}, 10)
        assert summary_table([s]).startswith("checkpoint_id,mean,p05,p50,count\n")

    def test_grid_mismatch(self):
        a = SummarySet("a", 1.0, {50: 0.5}, 10)
        b = SummarySet("b", 1.0, {50: 0.5, 95: 1.0}, 10)
        with pytest.raises(ValidationError, match="'b'"):
            summary_table([a, b])

    def test_empty(self):
        with pytest.raises(ValidationError):
            summary_table([])


def _report(ids_values, names=("mean", "p50")):
    table = {
        cid: SummarySet(cid, v, {50: v + 1.0}, 10) for cid, v in ids_values.items()
    }
    return concordance(table, names, family="fam")


class TestConcordanceTable:
    def test_structure(self):
        rep = _report({"a": 1.0, "b": 2.0, "c": 3.0})
        lines = concordance_table([rep]).splitlines()
        assert lines[0] == (
            "family,summaries,checkpoints,total_pairs,concordant_pairs,"
            "tied_pairs,pi,pi(mean;p50)"
        )
        assert lines[1] == "fam,mean;p50,3,3,3,0,1,1"

    def test_mismatched_summary_sets(self):
        rep = _report({"a": 1.0, "b": 2.0})
        table = {cid: SummarySet(cid, v, {50: v, 95: v + 1}, 10)
                 for cid, v in (("a", 1.0), ("b", 2.0))}
        other = concordance(table, ("mean", "p95"))
        with pytest.raises(ValidationError):
            concordance_table([rep, other])

    def test_empty(self):
        with pytest.raises(ValidationError):
            concordance_table([])


def _profile(cid, scale=1.0, tail=1.9):
    pct = {k: scale * (k / 50.0) for k in (5, 25, 50, 75)}
    pct[95] = scale * tail
    return standardize_profile(
        SummarySet(cid, 1.0, pct, 10), grid=(5, 25, 50, 75, 95)
    )


class TestProfileTables:
    def test_profile_table_structure(self):
        lines = profile_table([_profile("a"), _profile("b", 2.0)]).splitlines()
        assert lines[0] == "checkpoint_id,p05,p25,p50,p75,p95,iqr"
        assert len(lines) == 3
        # Standardization removes the scale; at 6 significant digits both
        # rows agree on everything except id and iqr.
        assert lines[1].split(",")[1:-1] == lines[2].split(",")[1:-1]

    def test_distance_table_symmetric(self):
        lines = distance_table([_profile("a"), _profile("c", tail=2.9)]).splitlines()
        assert lines[0] == "checkpoint_id,a,c"
        a_row = lines[1].split(",")
        c_row = lines[2].split(",")
        assert a_row[1] == c_row[2] == "0"
        assert a_row[2] == c_row[1] == "1"  # profiles differ by 1.0 at p95 only

    def test_distance_table_inf_tail(self):
        # A +inf p95 used to make the diagonal NaN, so the table refused
        # to render.
        table = distance_table([_profile("a"), _profile("t", tail=math.inf)])
        assert table.splitlines()[1:] == ["a,0,inf", "t,inf,0"]

    def test_empty(self):
        with pytest.raises(ValidationError):
            profile_table([])
        with pytest.raises(ValidationError):
            distance_table([])

    def test_profiles_on_two_grids_are_refused(self):
        other = standardize_profile(SummarySet("b", 1.0, {25: 0.5, 50: 1.0, 75: 1.5}, 10),
                                    grid=(25, 50, 75))
        with pytest.raises(ValidationError, match="^profiles use different percentile grids$"):
            profile_table([_profile("a"), other])


class TestBandTable:
    def test_header_band_names(self):
        table = band_masses(LossVector("c", [0.05, 0.3, 1.0, 2.0, 7.0, 12.0]))
        lines = band_table([table]).splitlines()
        assert lines[0] == (
            "checkpoint_id,band[0;0.1),band[0.1;0.5),band[0.5;1.5),"
            "band[1.5;5),band[5;10),band[10;inf)"
        )

    def test_masses_fixed_to_one_decimal(self):
        table = band_masses(LossVector("c", [0.05, 0.05, 0.3]))
        line = band_table([table]).splitlines()[1]
        assert line == "c,66.7,33.3,0.0,0.0,0.0,0.0"

    def test_bounds_mismatch(self):
        a = band_masses(LossVector("a", [0.3]))
        b = band_masses(LossVector("b", [0.3]), bounds=(1.0,))
        with pytest.raises(ValidationError):
            band_table([a, b])

    def test_empty(self):
        with pytest.raises(ValidationError, match="^no band tables to render$"):
            band_table([])


def _two_grids():
    return [SummarySet("a", 1.0, {50: 0.5}, 10), SummarySet("b", 1.0, {50: 0.5, 95: 1.0}, 10)]


def _two_summary_sets():
    table = {cid: SummarySet(cid, v, {50: v, 95: v + 1}, 10) for cid, v in (("a", 1.0), ("b", 2.0))}
    return [_report({"a": 1.0, "b": 2.0}), concordance(table, ("mean", "p95"))]


def _two_profile_grids():
    other = SummarySet("b", 1.0, {25: 0.5, 50: 1.0, 75: 1.5}, 10)
    return [_profile("a"), standardize_profile(other, grid=(25, 50, 75))]


def _two_band_bounds():
    return [band_masses(LossVector("a", [0.3])), band_masses(LossVector("b", [0.3]), bounds=(1.0,))]


class TestTableShapeRefusals:
    # Each table refuses an empty input and items whose columns differ from
    # the first item's, each with its own message.
    @pytest.mark.parametrize("table, items, message", [
        (summary_table, list, "no summaries to render"),
        (summary_table, _two_grids, "summary 'b' has a different percentile grid"),
        (concordance_table, list, "no concordance reports to render"),
        (concordance_table, _two_summary_sets, "concordance reports use different summary sets"),
        (profile_table, list, "no profiles to render"),
        (profile_table, _two_profile_grids, "profiles use different percentile grids"),
        (band_table, list, "no band tables to render"),
        (band_table, _two_band_bounds, "band tables use different bounds"),
    ], ids=["summary-empty", "summary-grid", "concordance-empty", "concordance-pairs",
            "profile-empty", "profile-grid", "band-empty", "band-bounds"])
    def test_each_refusal_names_its_table(self, table, items, message):
        with pytest.raises(ValidationError) as exc:
            table(items())
        assert str(exc.value) == message


class TestSmallTables:
    def test_family_stats(self):
        text = family_stats_table([("scratch", 3, 2.24, 0.14)])
        assert text == (
            "family,checkpoints,p95_tilde_mean,p95_tilde_std\n"
            "scratch,3,2.24,0.14\n"
        )

    def test_sweep(self):
        rows = [SweepRow("mean", -0.217, -0.186), SweepRow("p50", -0.935, -0.911)]
        text = sweep_table(rows)
        assert text == (
            "summary,pearson_r,spearman_rho\n"
            "mean,-0.217,-0.186\n"
            "p50,-0.935,-0.911\n"
        )
        with pytest.raises(ValidationError):
            sweep_table([])

    def test_selection(self):
        table = {
            "t": SummarySet("t", 1.0, {50: 0.8}, 10),
            "s": SummarySet("s", 2.0, {50: 0.4}, 10),
        }
        result = select(table, [SelectionRule("best-median", "p50", "min")])
        text = selection_table(result)
        assert text == (
            "rule,column,direction,checkpoint_id,value\n"
            "best-median,p50,min,s,0.4\n"
        )

    def test_dose(self):
        def record(k, family, mean, median, p95):
            summary = SummarySet(family, mean, {50: median, 95: p95}, 10)
            return LabCheckpoint(k, family, family, 0, "token-ce", None, summary, {})

        records = [record(None, "teacher", 1.0, 0.4, 3.0),
                   record(2, "trained", 1.7, 0.5, 7.8),
                   record("full", "oracle", 1.5, 0.6, 5.7)]
        lines = dose_table(records).splitlines()
        # The teacher has no K, so no dose row.
        assert lines == ["k,source,mean,median,p95",
                         "2,trained,1.7,0.5,7.8",
                         "full,oracle,1.5,0.6,5.7"]
        with pytest.raises(ValidationError):
            dose_table([])
        with pytest.raises(ValidationError):
            dose_table(records[:1])

    def test_crossing_none_case(self):
        lines = crossing_table(
            [("fam", "p50", 2.46, 379_000), ("fam", "mean", 2.46, None)]
        ).splitlines()
        assert lines[0] == "family,summary,reference,crossing_step"
        assert lines[1] == "fam,p50,2.46,379000"
        assert lines[2] == "fam,mean,2.46,none"


class TestMarkdown:
    def test_section_fencing(self):
        assert markdown_section("Summaries", "a,b\n1,2\n") == (
            "## Summaries\n\n```csv\na,b\n1,2\n```\n"
        )

    def test_report_assembly(self):
        text = markdown_report("Diagnostics", [("S", "a\n1\n"), ("T", "b\n2\n")])
        assert text.startswith("# Diagnostics\n\n## S\n")
        assert "```csv\na\n1\n```" in text
        assert "## T" in text


class TestSvgChart:
    def test_line_chart_structure(self):
        text = svg_chart(
            [("median", [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]),
             ("mean", [1.0, 2.0, 3.0], [4.0, 4.5, 5.0])],
            "step", "loss",
        )
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{ns}svg"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 2
        labels = [t.text for t in root.findall(f"{ns}text")]
        assert "median" in labels and "mean" in labels
        assert "step" in labels and "loss" in labels

    def test_scatter_chart_points(self):
        text = svg_chart([("s", [1.0, 2.0], [3.0, 4.0])], "x", "y", kind="scatter")
        root = ET.fromstring(text)
        assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == 2

    def test_deterministic_bytes(self):
        series = [("s", [0.1, 0.2, 0.4], [5.0, 4.0, 4.5])]
        assert svg_chart(series, "x", "y") == svg_chart(series, "x", "y")

    def test_validation(self):
        with pytest.raises(ValidationError):
            svg_chart([("s", [1.0], [1.0])], "x", "y", kind="pie")
        with pytest.raises(ValidationError):
            svg_chart([], "x", "y")
        with pytest.raises(ValidationError):
            svg_chart([("s", [], [])], "x", "y")
        with pytest.raises(ValidationError):
            svg_chart([("s", [1.0, math.inf], [1.0, 2.0])], "x", "y")
        with pytest.raises(ValidationError):
            svg_chart([("s", [1.0, 2.0], [1.0])], "x", "y")
