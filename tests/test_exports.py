"""Every name a module lists in __all__ exists on it, so `import *` works."""

import importlib
import pkgutil

import pytest

import knotmorse

MODULES = sorted(m.name for m in pkgutil.iter_modules(knotmorse.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists_on_its_module(name):
    module = importlib.import_module("knotmorse." + name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
