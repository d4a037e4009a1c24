import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rdtune

MODULES = [rdtune] + [
    importlib.import_module(f"rdtune.{info.name}") for info in pkgutil.iter_modules(rdtune.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_exported_names_resolve(module):
    # A name left in __all__ after its definition is deleted breaks
    # `from module import *`; the package's own imports break `import rdtune`.
    names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    assert [n for n in names if not hasattr(module, n)] == []
    exec(f"from {module.__name__} import *", {})


def test_import_loads_no_numpy_or_network_stack():
    # The package has no runtime dependencies; xml.sax.saxutils would pull
    # in urllib.request and with it http, ssl and email, and statistics
    # would pull in fractions and decimal.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, rdtune; print(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    banned = {"numpy", "xml", "http", "ssl", "email", "fractions", "decimal", "statistics"}
    assert [m for m in proc.stdout.split() if m.split(".")[0] in banned] == []


# The modules rdtune/__init__.py star-imports; the CLI is the entry point,
# not library API.
LIBRARY = [m for m in MODULES[1:] if m.__name__ != "rdtune.cli"]
DROPPED = ("parse_metric_report", "synth_encode", "PlotLayout", "compute_layout", "render_svg")


def test_package_exports_exactly_the_module_lists():
    # Each module's __all__ is the one statement of what the package exports;
    # errors.py has none and exports its exception classes.
    expected = {info.name for info in pkgutil.iter_modules(rdtune.__path__)}
    for module in LIBRARY:
        expected |= set(getattr(module, "__all__", [n for n in vars(module) if n[0] != "_"]))
    assert {n for n in vars(rdtune) if n[0] != "_"} == expected
    assert rdtune.__version__
    assert [n for n in DROPPED if hasattr(rdtune, n)] == []
    # Dropped from the package, kept in their modules.
    assert all(any(hasattr(m, n) for m in LIBRARY) for n in DROPPED)


ROOT = Path(__file__).resolve().parent.parent


def test_every_export_is_read_by_a_pipeline_path():
    # A public name that neither the package, the demos nor the benchmark
    # reads (as a name or an attribute) is API no pipeline path uses.
    read = set()
    for top in ("src/rdtune", "demos", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    modules = {info.name for info in pkgutil.iter_modules(rdtune.__path__)}
    exported = {n for n in vars(rdtune) if n[0] != "_"} - modules
    assert sorted(exported - read) == []
