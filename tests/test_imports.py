"""The library imports only the standard library and itself (pyproject lists no dependencies),
its source compiles on every supported Python (3.10 or later), and every name imported from
it anywhere in the repository exists."""

import ast
import importlib
import sys
from pathlib import Path

import interestprof

PACKAGE_DIR = Path(interestprof.__file__).resolve().parent
REPO_DIR = Path(__file__).resolve().parent.parent


def imported_top_levels(path: Path) -> set[str]:
    """Top-level module of every import in a file; relative imports count as the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("interestprof" if node.level else node.module.split(".")[0])
    return names


def test_library_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 10
    third_party = {
        path.name: sorted(name for name in imported_top_levels(path)
                          if name != "interestprof" and name not in sys.stdlib_module_names)
        for path in sources
    }
    assert {name: mods for name, mods in third_party.items() if mods} == {}


def test_import_scan_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os.path, numpy as np\n"
        "from json import dumps\n"
        "from . import errors\n"
        "from .taxonomy import TOPICS\n"
        "def f():\n"
        "    import scipy.stats\n"
        "if True:\n"
        "    from pandas import DataFrame\n"
    )
    assert imported_top_levels(probe) == {"os", "numpy", "json", "interestprof", "scipy",
                                          "pandas"}


def test_every_string_constant_encodes_as_utf8():
    # Python 3.13 cleans docstrings at compile time and fails on a lone
    # surrogate, so a "\ud800" written without a doubled backslash stops the import.
    bad = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    node.value.encode("utf-8")
                except UnicodeEncodeError:
                    bad.setdefault(path.name, []).append(node.lineno)
    assert bad == {}


def test_every_module_parses_as_python_3_10():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def names_imported_from_the_package(path: Path) -> list[tuple[str, str, int]]:
    """(module, name, line) of every ``from interestprof... import name`` in a file, at any
    depth; a relative import counts as one from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = "interestprof" + (f".{node.module}" if node.module else "")
        elif node.module.split(".")[0] == "interestprof":
            module = node.module
        else:
            continue
        found += [(module, alias.name, node.lineno) for alias in node.names]
    return found


def test_every_name_imported_from_the_package_exists():
    # perfbench/workloads.py imports inside a function, where only the benchmark would fail.
    workloads = REPO_DIR / "perfbench" / "workloads.py"
    assert ("interestprof.ingest", "serialize_predictions") in {
        (module, name) for module, name, _ in names_imported_from_the_package(workloads)}
    missing = []
    for folder in ("src", "scripts", "tests", "perfbench"):
        for path in sorted((REPO_DIR / folder).rglob("*.py")):
            for module, name, line in names_imported_from_the_package(path):
                if hasattr(importlib.import_module(module), name):
                    continue
                try:  # a submodule, such as ``from interestprof import ingest``
                    importlib.import_module(f"{module}.{name}")
                except ImportError:
                    missing.append(f"{path.relative_to(REPO_DIR)}:{line}: {module}.{name}")
    assert missing == []


def package_import_graph(package_dir: Path) -> dict[str, set[str]]:
    """Module -> the package modules it imports relatively, at any depth: top-level,
    in a function or under ``TYPE_CHECKING``. ``from . import x`` names module x when
    there is one, else the package's ``__init__``."""
    graph = {}
    for path in sorted(package_dir.glob("*.py")):
        targets = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            if node.module:
                targets.add(node.module.split(".")[0])
            else:
                targets.update(alias.name if (package_dir / f"{alias.name}.py").exists()
                               else "__init__" for alias in node.names)
    return graph


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph as [a, b, ..., a], or [] when there is none."""
    done: set[str] = set()
    path: list[str] = []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done or module not in graph:
            return []
        path.append(module)
        for target in sorted(graph[module]):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_package_modules_import_each_other_without_a_cycle():
    graph = package_import_graph(PACKAGE_DIR)
    assert "scoring" in graph["ingest"] and "taxonomy" in graph["__init__"]
    assert import_cycle(graph) == []


def test_import_cycle_scan_sees_function_level_and_type_checking_imports(tmp_path):
    (tmp_path / "a.py").write_text("def f():\n    from .b import g\n")
    (tmp_path / "b.py").write_text(
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from . import c\n")
    (tmp_path / "c.py").write_text("from . import a, __version__\n")
    (tmp_path / "__init__.py").write_text("__version__ = '0'\n")
    graph = package_import_graph(tmp_path)
    assert graph == {"__init__": set(), "a": {"b"}, "b": {"c"}, "c": {"a", "__init__"}}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    (tmp_path / "c.py").write_text("from . import __version__\n")
    assert import_cycle(package_import_graph(tmp_path)) == []
