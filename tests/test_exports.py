import importlib
import pkgutil

import pytest

import qdimer

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(qdimer.__path__))


def test_package_exports_resolve():
    missing = [name for name in qdimer.__all__ if not hasattr(qdimer, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"qdimer.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
