"""Startup: what importing the package and a warm invocation load.

Package ``__init__``s export lazily (:mod:`repro._lazy`) and the
simulator layers import only where a run executes, so ``import
repro.cli``, a fully cached ``figure2`` and ``table1`` never load the
simulator, DNS, transport, synthesis scoring, conformance or service
stacks.  The checks count modules in a fresh interpreter rather than
time anything.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules a warm invocation must never load: each is the entry point
#: of a layer that only executing a run (or serving) needs.
HEAVY = (
    "repro.simnet.scheduler", "repro.dns.auth", "repro.transport.tcp",
    "repro.testbed.topology", "repro.synthesis.score",
    "repro.conformance.probe", "repro.service.http", "http.server",
)

PACKAGES = sorted(info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.") if info.ispkg)


def _fresh(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)


class TestFreshImports:
    @pytest.mark.parametrize("statement", [
        "from repro.population import PopulationLatencyExperiment",
        "import repro.synthesis.experiments",
    ])
    def test_imports_first_without_a_cycle(self, statement):
        done = _fresh(statement)
        assert done.returncode == 0, done.stderr

    def test_first_lookup_loads_the_catalogue_in_order(self):
        listing = ("from repro.experiments import all_experiments\n"
                   "print(' '.join(e.name for e in all_experiments()))\n")
        eager = _fresh("import repro.experiments.catalog\n" + listing)
        lazy = _fresh(
            "import sys\n"
            "import repro.experiments\n"
            "assert 'repro.experiments.catalog' not in sys.modules\n"
            + listing)
        assert lazy.returncode == 0, lazy.stderr
        assert lazy.stdout == eager.stdout
        assert lazy.stdout.startswith("table1 table2 ")

    def test_register_first_keeps_the_builtins_first(self):
        done = _fresh(
            "from repro.experiments import (Experiment, experiment_names,\n"
            "                               register)\n"
            "class Late(Experiment):\n"
            "    name = 'late'\n"
            "register(Late())\n"
            "names = list(experiment_names())\n"
            "assert names[0] == 'table1' and names[-1] == 'late', names\n")
        assert done.returncode == 0, done.stderr


class TestWarmStartup:
    def test_warm_figure2_loads_no_simulator(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path), "figure2", "--step", "50"]
        assert main(argv) == 0
        capsys.readouterr()
        script = (
            "import io, json, sys, contextlib\n"
            f"heavy = {HEAVY!r}\n"
            "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
            "import repro.cli\n"
            "after_import = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    repro.cli.main({argv!r})\n"
            "print(json.dumps({'import': after_import,\n"
            "                  'warm': loaded(),\n"
            "                  'out': out.getvalue()}))\n")
        done = _fresh(script)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["import"] == []
        assert report["warm"] == []
        assert "misses=0 stores=0" in report["out"]


    def test_table1_loads_no_simulator(self):
        """A pure experiment renders from parameter presets alone."""
        script = (
            "import io, json, sys, contextlib\n"
            f"heavy = {HEAVY!r}\n"
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    repro.cli.main(['table1'])\n"
            "print(json.dumps([m for m in heavy if m in sys.modules]))\n")
        done = _fresh(script)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExports:
    def test_every_export_is_its_leaf_object(self, package):
        pkg = importlib.import_module(package)
        assert pkg.__all__, package
        leaves = [importlib.import_module(info.name)
                  for info in pkgutil.iter_modules(pkg.__path__,
                                                   package + ".")]
        for name in pkg.__all__:
            value = getattr(pkg, name)
            assert vars(pkg)[name] is value  # cached in the globals
            assert any(getattr(leaf, name, None) is value
                       for leaf in leaves), f"{package}.{name}"

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(pkg, "no_such_export")

    def test_dir_lists_the_exports(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))
