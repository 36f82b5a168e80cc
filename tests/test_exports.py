"""Every exported name resolves, so an export left behind by a deletion fails."""

import pkgutil

import pytest

import tournhom

MODULES = ["tournhom"] + [
    f"tournhom.{info.name}"
    for info in pkgutil.iter_modules(tournhom.__path__)
    if info.name != "__main__"  # running it starts the command line
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    # `from m import *` raises AttributeError for a name in m.__all__ that m lacks
    exec(f"from {module} import *", {})
