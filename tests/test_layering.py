"""Layering guard: ``csvio`` is the package's one CSV layer."""

import ast
from pathlib import Path

import hiermlc

PACKAGE = Path(hiermlc.__file__).parent


def scan(source: str) -> tuple[list[str], bool]:
    """The ``csv`` imports of a module, and whether it names ``DictReader``."""
    imports, names_dict_reader = [], False
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imports += [a.name for a in node.names if a.name.split(".")[0] == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "csv":
            imports.append("from csv")
        names = {getattr(node, key, None) for key in ("id", "attr", "name")}
        names_dict_reader |= "DictReader" in names
    return imports, names_dict_reader


def modules() -> dict[str, str]:
    found = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert "csvio.py" in found and "cli.py" in found
    return found


def test_only_csvio_imports_csv():
    offenders = {
        name: imports
        for name, source in modules().items()
        if name != "csvio.py" and (imports := scan(source)[0])
    }
    assert offenders == {}


def test_no_module_names_dict_reader():
    assert [name for name, source in modules().items() if scan(source)[1]] == []


def test_guard_sees_each_form():
    assert scan("import csv") == (["csv"], False)
    assert scan("import csv as c\nc.DictReader") == (["csv"], True)
    assert scan("from csv import reader") == (["from csv"], False)
    assert scan("from csv import DictReader") == (["from csv"], True)
    assert scan("from .csvio import reader\nimport csvio") == ([], False)
