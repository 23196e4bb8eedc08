"""Layering guards: ``csvio`` is the package's one CSV layer and the one
module that saves or loads ``.npy`` files, and ``pipeline.synthetic_split``
its one synthetic-data path."""

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


NPY_CALLS = {"save", "load"}


def npy_uses(source: str) -> list[str]:
    """Each ``numpy.save`` or ``numpy.load`` a module reaches, by any alias."""
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "numpy"
    }
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy":
            uses += [f"from numpy import {a.name}" for a in node.names if a.name in NPY_CALLS]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in NPY_CALLS
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_only_csvio_saves_or_loads_npy():
    offenders = {
        name: uses
        for name, source in modules().items()
        if name != "csvio.py" and (uses := npy_uses(source))
    }
    assert offenders == {}
    assert sorted(set(npy_uses(modules()["csvio.py"]))) == ["np.load", "np.save"]


def test_npy_guard_sees_each_form():
    assert npy_uses("import numpy as np\nnp.load(fh)") == ["np.load"]
    assert npy_uses("import numpy\nnumpy.save(fh, a)") == ["numpy.save"]
    assert npy_uses("from numpy import load") == ["from numpy import load"]
    assert npy_uses("import numpy as np\nimport json\njson.load(fh)\nnp.savez(f)") == []


SYNTHETIC = {"generate_synthetic", "inject_uncertainty"}


def synthetic_uses(source: str) -> set[tuple[str, str]]:
    """(top-level function or class, name) for each use of the synthetic
    generators in a module other than an import; "<module>" for uses
    outside any function or class."""
    uses = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in SYNTHETIC:
                uses.add((owner, name))
    return uses


def test_only_synthetic_split_generates():
    found = {
        name: uses for name, source in modules().items() if (uses := synthetic_uses(source))
    }
    assert found == {
        "pipeline.py": {
            ("synthetic_split", "generate_synthetic"),
            ("synthetic_split", "inject_uncertainty"),
        }
    }


def test_synthetic_guard_sees_each_use():
    source = (
        "from .data import generate_synthetic, inject_uncertainty\n"
        "def synthetic_split(spec, n, seed):\n"
        "    return generate_synthetic(spec, n, seed)\n"
        "def ablation(spec, seeds):\n"
        "    def split(seed):\n"
        "        return data_mod.inject_uncertainty(split, 0.3, seed)\n"
        "    return [split(seed) for seed in seeds]\n"
        "class Runner:\n"
        "    make = staticmethod(generate_synthetic)\n"
        "FRESH = generate_synthetic(SPEC, 10, 0)\n"
    )
    assert synthetic_uses(source) == {
        ("synthetic_split", "generate_synthetic"),
        ("ablation", "inject_uncertainty"),
        ("Runner", "generate_synthetic"),
        ("<module>", "generate_synthetic"),
    }
