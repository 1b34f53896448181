"""Package-level tests: public API surface and exception hierarchy."""

from __future__ import annotations

import importlib

import pytest

import repro
from repro import exceptions


PUBLIC_MODULES = [
    "repro.geometry",
    "repro.core",
    "repro.network",
    "repro.processes",
    "repro.byzantine",
    "repro.consensus",
    "repro.broadcast",
    "repro.analysis",
    "repro.workloads",
    "repro.cli",
]


class TestPublicSurface:
    def test_version_is_exposed(self):
        assert repro.__version__

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_subpackages_import_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES[:-1])
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name}"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name)


class TestExceptionHierarchy:
    def test_every_error_derives_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not exceptions.ReproError:
                assert issubclass(obj, exceptions.ReproError), name

    def test_resilience_error_is_a_configuration_error(self):
        assert issubclass(exceptions.ResilienceError, exceptions.ConfigurationError)

    def test_empty_intersection_is_a_geometry_error(self):
        assert issubclass(exceptions.EmptyIntersectionError, exceptions.GeometryError)

    def test_agreement_violation_is_a_protocol_error(self):
        assert issubclass(exceptions.AgreementViolation, exceptions.ProtocolError)

    def test_linear_program_error_carries_status(self):
        error = exceptions.LinearProgramError("boom", status=4)
        assert error.status == 4
