"""Layering guards: ``csvio`` is the package's one CSV layer and the one
module that writes files, saves or loads ``.npy`` files or hashes files,
``pipeline.synthetic_split`` its one synthetic-data path, which only
``cli.cmd_gen`` and ``pipeline.hierarchical_ablation`` call, a dataset's
features come only from a features file or the generator, every public
name of the package is reached by the package or the benchmark, not by
tests alone, and ``cli.main`` maps each exit code from one exception
type."""

import ast
import re
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


def hashing_uses(source: str) -> list[str]:
    """Each import of ``hashlib`` and each mention of ``sha256_file`` in a module."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            uses += [a.name for a in node.names if a.name.split(".")[0] == "hashlib"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "hashlib":
            uses.append("from hashlib")
        elif "sha256_file" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
            uses.append("sha256_file")
    return uses


def test_only_csvio_hashes_files():
    offenders = {
        name: uses
        for name, source in modules().items()
        if name != "csvio.py" and (uses := hashing_uses(source))
    }
    assert offenders == {}


def test_hashing_guard_sees_each_form():
    assert hashing_uses("import hashlib") == ["hashlib"]
    assert hashing_uses("import hashlib as h\nh.sha256()") == ["hashlib"]
    assert hashing_uses("from hashlib import sha256") == ["from hashlib"]
    assert hashing_uses("from .csvio import read_sidecar, sha256_file") == ["sha256_file"]
    assert hashing_uses("from . import csvio\ncsvio.sha256_file(p)") == ["sha256_file"]
    assert hashing_uses("import hashlibs\nsha256 = digest = 1") == []


RENAMES = {"replace", "rename"}
WRITE_METHODS = {"write_text", "write_bytes", "rename"}
WRITE_MODE = re.compile(r"[rbt+]*[wax][rwaxbt+]*").fullmatch


def write_uses(source: str) -> list[str]:
    """Each call by which a module writes a file: ``os.replace`` or
    ``os.rename`` by any alias or import, ``Path.replace`` (one argument,
    where ``str.replace`` takes two), ``.rename``, ``.write_text``,
    ``.write_bytes``, and ``open`` with a ``w``, ``a`` or ``x`` mode among
    its first two arguments or as ``mode``."""
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "os"
    }
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "os":
            uses += [f"from os import {a.name}" for a in node.names if a.name in RENAMES]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in aliases
        if name == "open":
            args = node.args[:2] + [k.value for k in node.keywords if k.arg == "mode"]
            modes = [getattr(arg, "value", None) for arg in args]
            uses += [f"open {mode}" for mode in modes if isinstance(mode, str) and WRITE_MODE(mode)]
        elif on_os and name in RENAMES:
            uses.append(f"{func.value.id}.{name}")
        elif isinstance(func, ast.Attribute) and (
            name in WRITE_METHODS or name == "replace" and len(node.args) == 1 and not node.keywords
        ):
            uses.append(f".{name}")
    return uses


def test_only_csvio_writes_files():
    offenders = {
        name: uses
        for name, source in modules().items()
        if name != "csvio.py" and (uses := write_uses(source))
    }
    assert offenders == {}
    assert sorted(write_uses(modules()["csvio.py"])) == ["open wb", "os.replace"]


def test_write_guard_sees_each_form():
    assert write_uses("import os\nos.replace(a, b)") == ["os.replace"]
    assert write_uses("import os as o\no.rename(a, b)") == ["o.rename"]
    assert write_uses("from os import replace, rename") == [
        "from os import replace", "from os import rename"
    ]
    assert write_uses("tmp.replace(path)") == [".replace"]
    assert write_uses("tmp.rename(path)") == [".rename"]
    assert write_uses("path.write_text(s)\nPath(p).write_bytes(b)") == [
        ".write_text", ".write_bytes"
    ]
    assert write_uses("open(p, 'w')\nopen(p, mode='ab')\nio.open(p, 'x')") == [
        "open w", "open ab", "open x"
    ]
    assert write_uses("path.open('w', newline='')") == ["open w"]
    assert write_uses(
        "from dataclasses import replace\n"
        "replace(config, seed=1)\n"
        "text.replace('a', 'b')\n"
        "open(p)\nopen(p, 'rb')\npath.open()\nread_text(p)\nos.path.join(a, b)"
    ) == []


SYNTHETIC = {"generate_synthetic", "inject_uncertainty", "synthetic_split"}


def synthetic_uses(source: str) -> set[tuple[str, str]]:
    """(top-level function or class, name) for each use of the synthetic
    generators or of ``synthetic_split`` in a module other than an import
    or a definition; "<module>" for uses outside any function or class."""
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
        "cli.py": {("cmd_gen", "synthetic_split")},
        "pipeline.py": {
            ("synthetic_split", "generate_synthetic"),
            ("synthetic_split", "inject_uncertainty"),
            ("hierarchical_ablation", "synthetic_split"),
        },
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
        "def named_split(config, spec):\n"
        "    return pipeline.synthetic_split(spec, 8, 2, 0.1, config.seed)\n"
    )
    assert synthetic_uses(source) == {
        ("synthetic_split", "generate_synthetic"),
        ("ablation", "inject_uncertainty"),
        ("Runner", "generate_synthetic"),
        ("<module>", "generate_synthetic"),
        ("named_split", "synthetic_split"),
    }


def dataset_calls(source: str) -> set[str]:
    """The top-level functions and classes of a module that call
    ``Dataset``, by name or as an attribute; "<module>" for calls outside
    any function or class."""
    owners = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Dataset":
                    owners.add(getattr(top, "name", "<module>"))
    return owners


def test_features_come_from_a_file_or_the_generator():
    found = {
        name: owners for name, source in modules().items() if (owners := dataset_calls(source))
    }
    assert found == {
        "data.py": {"load_dataset", "generate_synthetic"},
        "pipeline.py": {"synthetic_split"},
    }


def test_dataset_guard_sees_each_form():
    source = (
        "from .data import Dataset\n"
        "def load_dataset(f, l, tree):\n"
        "    return Dataset(features=f, labels=l, ids=None)\n"
        "def stub(labels):\n"
        "    def inner():\n"
        "        return data_mod.Dataset(np.zeros((3, 7)), labels, None)\n"
        "    return inner()\n"
        "class Loader:\n"
        "    def load(self):\n"
        "        return Dataset(*self.parts)\n"
        "EMPTY = Dataset(X, Y, None)\n"
        "def relabel(dataset: Dataset, labels) -> Dataset:\n"
        "    assert isinstance(dataset, Dataset)\n"
        "    return replace(dataset, labels=labels)\n"
    )
    assert dataset_calls(source) == {"load_dataset", "stub", "Loader", "<module>"}


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(module: ast.Module) -> dict[str, ast.AST]:
    """Each public top-level function or class of a module, and each public
    method or property of a public class, by qualified name."""
    found = {}
    for top in module.body:
        if isinstance(top, DEFINITIONS) and not top.name.startswith("_"):
            found[top.name] = top
            for node in top.body if isinstance(top, ast.ClassDef) else ():
                if isinstance(node, DEFINITIONS[:2]) and not node.name.startswith("_"):
                    found[f"{top.name}.{node.name}"] = node
    return found


def mention(node: ast.AST) -> str | None:
    """The name a node spells: a Name, an Attribute, an imported name or a
    string constant."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def unreached(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """``module.name`` of each public definition in the ``package`` sources
    that no source of either set names outside its own definition.

    A name is matched by its spelling alone, so a definition spelled like
    an unrelated variable, attribute or string, such as ``points`` or
    ``n``, passes whether or not anything reaches it.
    """
    trees = {name: ast.parse(source) for name, source in {**others, **package}.items()}
    named: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if (text := mention(node)) is not None:
                named.setdefault(text, []).append(id(node))
    found = []
    for module in package:
        for qualified, node in public_definitions(trees[module]).items():
            inside = {id(n) for n in ast.walk(node)}
            if all(i in inside for i in named.get(node.name, [])):
                found.append(f"{Path(module).stem}.{qualified}")
    return found


def test_every_public_name_is_reached():
    """Public API that only tests call is deleted, not kept."""
    perfbench = {f"perfbench/{p.name}": p.read_text(encoding="utf-8")
                 for p in PERFBENCH.glob("*.py")}
    assert "perfbench/tracer.py" in perfbench
    assert unreached(modules(), perfbench) == []


def test_reach_guard_sees_each_form():
    package = {
        "a.py": (
            "class Tree:\n"
            "    def roots(self):\n"
            "        return self.roots()\n"  # its own definition does not count
            "    def leaves(self):\n"
            "        pass\n"
            "    @property\n"
            "    def names(self):\n"
            "        return ()\n"
            "    def _walk(self):\n"
            "        pass\n"
            "def build():\n"
            "    return Tree().leaves()\n"
            "def load():\n"
            "    return build()\n"
            "def _private():\n"
            "    pass\n"
            "class _Hidden:\n"
            "    def shown(self):\n"
            "        pass\n"
        ),
        "b.py": "from .a import load as read\nprint(read().names)\n",
    }
    assert unreached(package, {}) == ["a.Tree.roots"]
    assert unreached({"a.py": package["a.py"]}, {}) == ["a.Tree.roots", "a.Tree.names", "a.load"]
    assert unreached(package, {"bench.py": 'TARGETS = [("a:Tree", "roots")]'}) == []


def main_handlers(source: str) -> list[str]:
    """The exception types that the handlers of a module's top-level
    ``main`` name, in order, as source text ("" for a bare ``except``)."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "main":
            return [
                ast.unparse(handler.type) if handler.type else ""
                for node in ast.walk(top)
                if isinstance(node, ast.Try)
                for handler in node.handlers
            ]
    return []


def test_each_exit_code_has_one_exception_type():
    """1 ``ConfigError``, 2 ``DataFormatError``, 3 ``NumericError``, and 4
    any other exception: no handler maps a builtin type onto 1 to 3."""
    assert main_handlers(modules()["cli.py"]) == [
        "ConfigError", "DataFormatError", "NumericError", "Exception"
    ]


def test_handler_guard_sees_an_added_arm():
    source = modules()["cli.py"]
    arm = "    except NumericError as exc:"
    assert source.count(arm) == 1
    widened = source.replace(arm, "    except ValueError:\n        return EXIT_DATA\n" + arm)
    assert main_handlers(widened) == [
        "ConfigError", "DataFormatError", "ValueError", "NumericError", "Exception"
    ]
    assert main_handlers(
        "def main():\n"
        "    try:\n        pass\n"
        "    except (DataFormatError, FileNotFoundError, ValueError) as exc:\n        pass\n"
        "    except:\n        pass\n"
        "def helper():\n"
        "    try:\n        pass\n    except KeyError:\n        pass\n"
    ) == ["(DataFormatError, FileNotFoundError, ValueError)", ""]
