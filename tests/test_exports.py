import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qdurrmeyer

MODULES = ["qdurrmeyer"] + [
    f"qdurrmeyer.{info.name}" for info in pkgutil.iter_modules(qdurrmeyer.__path__)
]
ALL_SOURCES = sorted(Path(qdurrmeyer.__file__).parent.glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]
# what `from qdurrmeyer import cli` must not load: no command needs the first two, and
# JSON output and the `verify` command import the last two when they run
DEFERRED = {"dataclasses", "inspect", "json", "qdurrmeyer.verify"}


def _run_fresh(code: str) -> list[str]:
    """The stdout lines of `code` run in a fresh interpreter that finds this package."""
    src = str(Path(qdurrmeyer.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from qdurrmeyer import *", namespace)
    assert set(qdurrmeyer.__all__) <= set(namespace)


def test_build_report_resolves_lazily():
    from qdurrmeyer import verify

    assert qdurrmeyer.build_report is verify.build_report
    assert "build_report" in dir(qdurrmeyer)
    with pytest.raises(AttributeError):
        qdurrmeyer.no_such_name


def test_verify_submodule_imports_on_a_fresh_package():
    lines = _run_fresh("import qdurrmeyer\n"
                       "from qdurrmeyer import verify\n"
                       "print(verify.__name__, qdurrmeyer.build_report is verify.build_report)")
    assert lines == ["qdurrmeyer.verify True"]


def test_cli_import_leaves_the_verify_suite_and_its_modules_unloaded():
    lines = _run_fresh("import io, sys\n"
                       "bare = set(sys.modules)\n"
                       "from qdurrmeyer import cli\n"
                       "print(sorted(set(sys.modules) - bare))\n"
                       "sys.stdout = io.StringIO()\n"
                       "code = cli.main(['verify', '--n-max', '1'])\n"
                       "sys.stdout = sys.__stdout__\n"
                       "print(code, 'qdurrmeyer.verify' in sys.modules)")
    new = set(ast.literal_eval(lines[0]))
    assert "qdurrmeyer.cli" in new and new & DEFERRED == set()
    assert lines[1] == "0 True"


def test_readme_quickstart_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})


def _imported(nodes) -> dict[str, int]:
    """name -> line of each import statement among nodes; `__future__` binds no name."""
    return {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }


def _read_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_used(path):
    # a name imported only to be re-exported belongs in __all__
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _imported(tree.body)
    used = _read_names(tree)
    module = importlib.import_module(f"qdurrmeyer.{path.stem}")
    used |= set(getattr(module, "__all__", ()))
    assert {name: line for name, line in imported.items() if name not in used} == {}


@pytest.mark.parametrize("path", ALL_SOURCES, ids=[p.name for p in ALL_SOURCES])
def test_every_function_level_import_is_used(path):
    # an import deferred into a function must be read in that function
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = _read_names(fn)
            unused.update((name, line) for name, line in _imported(ast.walk(fn)).items()
                          if name not in used)
    assert unused == {}
