"""Unit tests for the resilience bounds (Theorems 1, 3, 4, 5, 6 as predicates)."""

from __future__ import annotations

import pytest

from repro.core.conditions import (
    SystemConfiguration,
    check_approx_async,
    check_exact_sync,
    check_restricted_async,
    check_restricted_sync,
    minimum_processes_approx_async,
    minimum_processes_exact_sync,
    minimum_processes_restricted_async,
    minimum_processes_restricted_sync,
    minimum_processes_scalar,
    resilience_table,
)
from repro.engine.factories import minimum_processes_for
from repro.exceptions import ConfigurationError, ResilienceError


class TestMinimumProcesses:
    def test_exact_sync_matches_paper_formula(self):
        # max(3f+1, (d+1)f+1)
        assert minimum_processes_exact_sync(1, 1) == 4
        assert minimum_processes_exact_sync(2, 1) == 4
        assert minimum_processes_exact_sync(3, 1) == 5
        assert minimum_processes_exact_sync(2, 2) == 7
        assert minimum_processes_exact_sync(5, 2) == 13

    def test_approx_async_matches_paper_formula(self):
        # (d+2)f + 1
        assert minimum_processes_approx_async(1, 1) == 4
        assert minimum_processes_approx_async(2, 1) == 5
        assert minimum_processes_approx_async(3, 2) == 11

    def test_restricted_bounds(self):
        assert minimum_processes_restricted_sync(2, 1) == 5
        assert minimum_processes_restricted_async(2, 1) == 7
        assert minimum_processes_restricted_async(1, 2) == 11

    def test_async_bound_is_exactly_f_larger_for_d_above_one(self):
        # The paper notes the asynchronous lower bound exceeds the synchronous
        # one by exactly f whenever d > 1.
        for dimension in range(2, 8):
            for fault_bound in range(1, 4):
                assert (
                    minimum_processes_approx_async(dimension, fault_bound)
                    == minimum_processes_exact_sync(dimension, fault_bound) + fault_bound
                )

    def test_bounds_coincide_for_scalar_case(self):
        # For d = 1 both vector bounds collapse to the classical 3f + 1.
        for fault_bound in range(1, 5):
            assert minimum_processes_exact_sync(1, fault_bound) == 3 * fault_bound + 1
            assert minimum_processes_approx_async(1, fault_bound) == 3 * fault_bound + 1

    def test_fault_free_needs_two(self):
        assert minimum_processes_exact_sync(4, 0) == 2
        assert minimum_processes_approx_async(4, 0) == 2

    def test_scalar_bound(self):
        assert minimum_processes_scalar(1) == 4
        assert minimum_processes_scalar(0) == 2

    def test_dispatch(self):
        assert minimum_processes_for("exact", 3, 1) == 5
        assert minimum_processes_for("coordinatewise", 3, 1) == 4

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            minimum_processes_exact_sync(0, 1)
        with pytest.raises(ConfigurationError):
            minimum_processes_approx_async(2, -1)


class TestChecks:
    def test_check_passes_at_bound(self):
        check_exact_sync(SystemConfiguration(5, 3, 1))
        check_approx_async(SystemConfiguration(5, 2, 1))
        check_restricted_sync(SystemConfiguration(5, 2, 1))
        check_restricted_async(SystemConfiguration(7, 2, 1))

    def test_check_fails_below_bound(self):
        with pytest.raises(ResilienceError):
            check_exact_sync(SystemConfiguration(4, 3, 1))
        with pytest.raises(ResilienceError):
            check_approx_async(SystemConfiguration(4, 2, 1))
        with pytest.raises(ResilienceError):
            check_restricted_async(SystemConfiguration(6, 2, 1))

    def test_allow_insufficient_bypasses(self):
        check_exact_sync(SystemConfiguration(4, 3, 1), allow_insufficient=True)


class TestResilienceTable:
    def test_rows_cover_grid(self):
        rows = resilience_table([1, 2], [1, 2])
        assert len(rows) == 4
        assert {row["dimension"] for row in rows} == {1, 2}

    def test_row_values_are_consistent(self):
        rows = resilience_table([3], [2])
        row = rows[0]
        assert row["exact_sync"] == 9
        assert row["approx_async"] == 11
        assert row["restricted_async"] == 15
