"""Guard: every name the benchmark's tracer wraps is still bound.

``perfbench/tracer.py`` wraps functions by (module, attribute) at the place
their callers look them up, and a benchmark run that finds one missing
counts a failed operation.  This test reads that list without importing
the benchmark, so a rename such as ``masked_bce`` -> ``bce_loss`` fails
here first.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names(source: str) -> list[tuple[str, str]]:
    """The (owner, attribute) pairs of the module-level ``TARGETS`` list."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(owner, attr) for owner, attr, *_ in ast.literal_eval(node.value)]
    raise AssertionError("no TARGETS list")


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
