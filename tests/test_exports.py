"""Every exported name resolves, so an export left behind by a deletion fails,
and every public function or class of a layer module is exported."""

import importlib
import inspect
import pkgutil

import pytest

import tournhom

MODULES = ["tournhom"] + [
    f"tournhom.{info.name}"
    for info in pkgutil.iter_modules(tournhom.__path__)
    if info.name != "__main__"  # running it starts the command line
]
LAYERS = [
    "digraphs", "homcount", "gadgets", "hosts", "spectral", "region", "reduction",
    "convergence", "suites",
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    # `from m import *` raises AttributeError for a name in m.__all__ that m lacks
    exec(f"from {module} import *", {})


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_definition_is_exported(layer):
    module = importlib.import_module(f"tournhom.{layer}")
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        # `unwrap` sees through a wrapper such as `functools.lru_cache`
        and (inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
