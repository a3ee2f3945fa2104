import importlib
import pkgutil

import pytest

import qdurrmeyer

MODULES = ["qdurrmeyer"] + [
    f"qdurrmeyer.{info.name}" for info in pkgutil.iter_modules(qdurrmeyer.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from qdurrmeyer import *", namespace)
    assert set(qdurrmeyer.__all__) <= set(namespace)
