"""Unit tests for the plain-text report renderer."""

from __future__ import annotations

from repro.analysis.report import format_value, render_series, render_table


class TestReport:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(None) == "-"
        assert format_value(0.123456) == "0.1235"
        assert format_value(float("nan")) == "nan"
        assert format_value("text") == "text"

    def test_render_table_alignment_and_missing_cells(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22}]
        text = render_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "-" in lines[-1]  # missing "b" cell rendered as -

    def test_render_table_with_title_keeps_the_first_rows_key_order(self):
        text = render_table([{"b": 1, "a": 2}, {"a": 3, "b": 4}], title="T")
        assert text.splitlines()[0] == "T"
        assert text.splitlines()[1].split() == ["b", "a"]

    def test_render_empty_table(self):
        assert "(no rows)" in render_table([])

    def test_render_series(self):
        assert render_series([1.0, 0.5], "range") == "range: 1, 0.5"
