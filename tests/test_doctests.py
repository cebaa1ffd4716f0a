"""Run every pegball module's doctest examples.

Modules are taken from sys.modules: the package binds pegball.distance to the
distance function, which shadows the submodule of that name.
"""

import doctest
import importlib
import pkgutil
import sys

import pytest

import pegball

MODULES = sorted(f"pegball.{info.name}"
                 for info in pkgutil.iter_modules(pegball.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    importlib.import_module(name)
    result = doctest.testmod(sys.modules[name])
    assert result.failed == 0
