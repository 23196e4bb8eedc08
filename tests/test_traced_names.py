"""Guard: every name the benchmark's tracer wraps is still bound, and
every argument its byte hooks read is still a path.

``perfbench/tracer.py`` wraps functions by (module, attribute) at the place
their callers look them up, and a benchmark run that finds one missing
counts a failed operation.  A byte hook sums the file sizes of the
positional arguments it names, so a parameter moved from such a position
would be read as a path.  These tests read that list without importing
the benchmark, so a rename such as ``masked_bce`` -> ``bce_loss``, or a
reordered signature, fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def targets(source: str) -> list[tuple]:
    """The module-level ``TARGETS`` list: (owner, attribute, span, byte hook)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list")


def traced_names(source: str) -> list[tuple[str, str]]:
    """The (owner, attribute) pairs of the module-level ``TARGETS`` list."""
    return [(owner, attr) for owner, attr, *_ in targets(source)]


def hooked_parameters(source: str) -> dict[str, list[str]]:
    """``owner.attribute`` -> the names of the parameters at the positions
    its byte hook reads, for each hooked ``TARGETS`` entry."""
    hooked = {}
    for owner, attr, _, hook in targets(source):
        if hook is not None:
            module, _, cls = owner.partition(":")
            obj = importlib.import_module(module)
            func = getattr(getattr(obj, cls) if cls else obj, attr)
            params = list(inspect.signature(func).parameters)
            hooked[f"{owner}.{attr}"] = [params[i] for i in hook[1]]
    return hooked


def bound(owner: str, attr: str) -> bool:
    """Whether ``module`` or ``module:Class`` binds ``attr`` itself."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = vars(obj).get(cls)
        if obj is None:
            return False
    return vars(obj).get(attr) is not None


def test_every_traced_name_is_bound():
    names = traced_names(TRACER.read_text(encoding="utf-8"))
    assert ("hiermlc.pipeline", "adam_step") in names
    assert [f"{owner}.{attr}" for owner, attr in names if not bound(owner, attr)] == []


def test_guard_sees_a_missing_name():
    source = (
        'TARGETS = [("hiermlc.model", "masked_bce", "x", None),\n'
        '           ("hiermlc.model:Mlp", "forward", "y", None)]'
    )
    assert traced_names(source) == [
        ("hiermlc.model", "masked_bce"),
        ("hiermlc.model:Mlp", "forward"),
    ]
    assert bound("hiermlc.model", "masked_bce") and bound("hiermlc.model:Mlp", "forward")
    assert not bound("hiermlc.model", "bce_loss")
    assert not bound("hiermlc.model:Mlp", "predict")
    assert not bound("hiermlc.model:Perceptron", "forward")


def test_byte_hooks_read_path_parameters():
    hooked = hooked_parameters(TRACER.read_text(encoding="utf-8"))
    assert hooked["hiermlc.evaluation.write_report"] == ["txt_path", "csv_path"]
    assert hooked["hiermlc.data.load_dataset"] == ["features_path", "labels_path"]
    assert hooked["hiermlc.data.write_labels_csv"] == ["path"]
    assert {name: params for name, params in hooked.items()
            if not all(param.endswith("path") for param in params)} == {}


def test_hook_guard_sees_a_moved_parameter():
    source = (
        'TARGETS = [("hiermlc.data", "write_labels_csv", "x", ("after", (0,))),\n'
        '           ("hiermlc.data", "write_features_csv", "x", ("after", (1,))),\n'
        '           ("hiermlc.data", "load_csv", "x", None)]'
    )
    assert hooked_parameters(source) == {
        "hiermlc.data.write_labels_csv": ["path"],
        "hiermlc.data.write_features_csv": ["features"],
    }
