"""Public-API surface tests: every documented export resolves, and the
package's layering holds (core never imports eval/techniques)."""

import importlib
import sys

import pytest


PACKAGES = ["repro", "repro.core", "repro.mem", "repro.cpu",
            "repro.osmodel", "repro.techniques", "repro.sparse",
            "repro.workloads", "repro.eval", "repro.robust", "repro.fleet"]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_top_level_convenience(self):
        import repro
        assert repro.PAGE_SIZE == 4096
        assert repro.LINE_SIZE == 64
        system = repro.OverlaySystem()
        assert system is not None
        assert repro.__version__

    def test_techniques_sparse_entry_point(self):
        from repro.techniques.sparse import (OverlaySparseMatrix,
                                             ideal_memory_bytes, run_spmv)
        assert callable(run_spmv)


class TestLayering:
    def test_core_does_not_import_higher_layers(self):
        """repro.core must be usable without techniques/eval/osmodel.

        The already-imported modules are restored afterwards: leaving
        fresh copies in ``sys.modules`` would split later tests across
        two module worlds (their imports bound to the old copies, call
        -time deferred imports resolving to the new ones), breaking
        every process-wide singleton such as the engine's hook slots.
        """
        saved = {name: module for name, module in sys.modules.items()
                 if name.startswith("repro")}
        for name in saved:
            del sys.modules[name]
        try:
            importlib.import_module("repro.core")
            loaded = [name for name in sys.modules
                      if name.startswith("repro")]
            for forbidden in ("repro.techniques", "repro.eval",
                              "repro.osmodel", "repro.sparse",
                              "repro.workloads"):
                assert not any(name.startswith(forbidden)
                               for name in loaded), (
                    f"repro.core transitively imports {forbidden}")
        finally:
            for name in [candidate for candidate in sys.modules
                         if candidate.startswith("repro")]:
                del sys.modules[name]
            sys.modules.update(saved)

    def test_config_importable_standalone(self):
        from repro.config import DEFAULT_CONFIG
        assert DEFAULT_CONFIG.page_bytes == 4096
