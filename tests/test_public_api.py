"""Contract tests for the package's public API surface."""

import inspect

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_present(self):
        assert repro.__version__.count(".") == 2

    def test_error_hierarchy(self):
        from repro import (
            ConfigError,
            DeadlockError,
            KernelBuildError,
            KernelValidationError,
            LaunchError,
            ReproError,
            SimulationError,
        )

        for exc in (ConfigError, KernelBuildError, KernelValidationError,
                    LaunchError, SimulationError):
            assert issubclass(exc, ReproError)
        assert issubclass(DeadlockError, SimulationError)

    def test_scheme_names_stable(self):
        # Downstream users key on these names; removing one is breaking.
        expected = {
            "rr", "gto", "two_level", "caws", "gcaws", "cawa",
            "rr+cacp", "gto+cacp", "two_level+cacp",
        }
        assert expected <= set(repro.SCHEMES)

    def test_workload_names_stable(self):
        from repro.workloads import workload_names

        assert set(workload_names()) == {
            "bfs", "b+tree", "heartwall", "kmeans", "needle", "srad_1",
            "strcltr_small", "backprop", "particle", "pathfinder",
            "strcltr_mid", "tpacf",
        }


class TestDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro", "repro.config", "repro.isa", "repro.isa.kernel",
            "repro.isa.asm", "repro.simt", "repro.sm", "repro.gpu",
            "repro.memory", "repro.scheduling", "repro.core",
            "repro.core.cpl", "repro.core.cacp", "repro.workloads",
            "repro.stats", "repro.experiments", "repro.cli",
        ],
    )
    def test_module_documented(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, module_name

    def test_public_classes_documented(self):
        from repro import GPU, GPUConfig, KernelBuilder
        from repro.core import CACPPolicy, CriticalityPredictor
        from repro.scheduling import GCAWSScheduler

        for cls in (GPU, GPUConfig, KernelBuilder, CACPPolicy,
                    CriticalityPredictor, GCAWSScheduler):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 20
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                # inspect.getdoc resolves docstrings inherited from the
                # base class (e.g. scheduler/policy interface overrides).
                assert inspect.getdoc(member), (
                    f"{cls.__name__}.{name} lacks a docstring"
                )


class TestLayering:
    """The service and the library never depend on the command line."""

    def test_serve_validates_a_figure_job_without_the_cli(self):
        import subprocess
        import sys
        from pathlib import Path

        src = Path(repro.__file__).resolve().parent.parent
        probe = (
            "import sys, repro.serve\n"
            "from repro.serve.jobs import JobSpec\n"
            "JobSpec.from_payload({'kind': 'figure', 'figure': 9})\n"
            "assert 'repro.cli' not in sys.modules, 'repro.cli was imported'\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={"PYTHONPATH": str(src)}, timeout=120)

    def test_only_main_imports_the_cli(self):
        import ast
        from pathlib import Path

        package = Path(repro.__file__).resolve().parent
        importers = set()
        for path in package.rglob("*.py"):
            here = ["repro", *path.relative_to(package).parent.parts]
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    targets = {a.name for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    parts = here[:len(here) - node.level + 1] if node.level else []
                    module = ".".join(parts + [node.module or ""]).strip(".")
                    targets = {module} | {f"{module}.{a.name}"
                                          for a in node.names}
                else:
                    continue
                if "repro.cli" in targets:
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"__main__.py"}
