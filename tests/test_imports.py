"""The library imports only the standard library and itself (pyproject lists no dependencies),
and its source compiles on every supported Python (3.10 or later)."""

import ast
import sys
from pathlib import Path

import interestprof

PACKAGE_DIR = Path(interestprof.__file__).resolve().parent


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
