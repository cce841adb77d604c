"""The package surface: the PACKAGE_EXPORTS manifest and its PEP 562
lazy resolution."""

import importlib
import subprocess
import sys

import pytest

import repro


class TestPackageExports:
    def test_manifest_is_frozen(self):
        with pytest.raises(TypeError):
            repro.PACKAGE_EXPORTS["Evil"] = "repro.api"

    def test_manifest_names_the_session_facade(self):
        assert set(repro.PACKAGE_EXPORTS) == {
            "Session", "LocalSession", "RemoteSession", "session",
            "ServeClient", "SweepJob", "GraphSpec", "SweepOutcome",
            "AcceleratorConfig", "SimStats",
        }

    @pytest.mark.parametrize("name", sorted(repro.PACKAGE_EXPORTS))
    def test_every_export_resolves_to_its_declared_module(self, name):
        module = importlib.import_module(repro.PACKAGE_EXPORTS[name])
        assert getattr(repro, name) is getattr(module, name)

    def test_all_covers_exports_and_errors(self):
        assert set(repro.PACKAGE_EXPORTS) <= set(repro.__all__)
        assert "ReproError" in repro.__all__
        assert "ServeError" in repro.__all__

    def test_star_import_binds_every_name_in_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_import_binds_no_export_eagerly(self):
        """``import repro`` stays cheap: an export is bound on first
        use, so none can shadow the manifest's lazy resolution."""
        code = ("import repro, sys; "
                "print(sorted(set(vars(repro)) & set(repro.PACKAGE_EXPORTS)),"
                " 'repro.api' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["[]", "False"]

    def test_dir_lists_lazy_names(self):
        assert "Session" in dir(repro)

    @pytest.mark.parametrize("name", ["ResultCache", "code_version",
                                      "run_sweep"])
    def test_retired_alias_is_gone(self, name):
        """The deprecated top-level aliases are deleted; these names
        live in ``repro.sweep`` only."""
        assert name not in repro.__all__
        assert name not in dir(repro)
        with pytest.raises(AttributeError):
            getattr(repro, name)
        assert hasattr(importlib.import_module("repro.sweep"), name)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_an_export
