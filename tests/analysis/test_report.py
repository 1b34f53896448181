"""Unit tests for the plain-text report renderer."""

from __future__ import annotations

from repro.analysis.report import format_value, render_series, render_table


class TestReport:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(None) == "-"
        assert format_value(0.123456, precision=3) == "0.123"
        assert format_value(float("nan")) == "nan"
        assert format_value("text") == "text"

    def test_render_table_alignment_and_missing_cells(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22}]
        text = render_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "-" in lines[-1]  # missing "b" cell rendered as -

    def test_render_table_with_title_and_columns(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b", "a"], title="T")
        assert text.splitlines()[0] == "T"
        assert text.splitlines()[1].startswith("b")

    def test_render_empty_table(self):
        assert "(no rows)" in render_table([])

    def test_render_series(self):
        assert render_series([1.0, 0.5], "range") == "range: 1, 0.5"
