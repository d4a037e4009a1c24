import importlib
import pkgutil

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
