import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qdurrmeyer

MODULES = ["qdurrmeyer"] + [
    f"qdurrmeyer.{info.name}" for info in pkgutil.iter_modules(qdurrmeyer.__path__)
]
SOURCES = sorted(p for p in Path(qdurrmeyer.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from qdurrmeyer import *", namespace)
    assert set(qdurrmeyer.__all__) <= set(namespace)


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_used(path):
    # a name imported only to be re-exported belongs in __all__
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"qdurrmeyer.{path.stem}")
    used |= set(getattr(module, "__all__", ()))
    assert {name: line for name, line in imported.items() if name not in used} == {}
