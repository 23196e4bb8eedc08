"""Call-site tracing for the benchmark's traced run.

The tracer replaces each public function listed in ``TARGETS`` with a
wrapper at the place its caller looks it up, records one span per call
in memory, and puts every original back when the ``with`` block ends.
A span is ``(name, start, end, parent, run_id)``; ``parent`` is the index
of the enclosing span, or -1.  Span names are ``<layer>.<what>`` where the
layer is a module of ``src/hiermlc``; per-layer metrics are computed from
the spans plus a few counters taken at the same call sites.

A target that no longer exists (a later change removed or renamed it) is
skipped and listed in ``Tracer.missing``; the benchmark counts that as a
failed operation, so a renamed function cannot pass for a per-layer gain.
"""

from __future__ import annotations

import csv
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# (module, attribute, span name, byte hook).  The module is where the
# caller looks the name up: ``pipeline`` and ``cli`` bind most names with
# ``from ... import``, ``cli`` reaches ``data_mod.*`` and ``eval_mod.*``
# through the module, and ``policy``/``data``/``model``/``pipeline`` reach
# ``seeding.*`` through the module.  ``Mlp.forward`` is patched on the
# class.  The byte hook names the positional path arguments whose file
# sizes count, read before the call for loads and after it for writes.
TARGETS = [
    ("hiermlc.cli", "load_config", "config.load_config", None),
    ("hiermlc.config", "load_config", "config.load_config", None),
    ("hiermlc.config", "load_tree", "hierarchy.load_tree", None),
    ("hiermlc.cli", "generate_synthetic", "data.generate_synthetic", None),
    ("hiermlc.pipeline", "generate_synthetic", "data.generate_synthetic", None),
    ("hiermlc.cli", "inject_uncertainty", "data.inject_uncertainty", None),
    ("hiermlc.pipeline", "inject_uncertainty", "data.inject_uncertainty", None),
    ("hiermlc.data", "write_features_csv", "data.csv_write", ("after", (0,))),
    ("hiermlc.data", "write_labels_csv", "data.csv_write", ("after", (0,))),
    ("hiermlc.data", "load_dataset", "data.csv_read", ("before", (0, 1))),
    ("hiermlc.seeding", "stream", "seeding.stream", None),
    ("hiermlc.pipeline", "apply_policy", "policy.apply_policy", None),
    ("hiermlc.model:Mlp", "forward", "model.forward", None),
    ("hiermlc.pipeline", "masked_bce", "model.masked_bce", None),
    ("hiermlc.pipeline", "backward", "model.backward", None),
    ("hiermlc.pipeline", "adam_step", "model.adam_step", None),
    ("hiermlc.cli", "save_checkpoint", "model.checkpoint", ("after", (0,))),
    ("hiermlc.cli", "load_checkpoint", "model.checkpoint", ("before", (0,))),
    ("hiermlc.cli", "train_ensemble", "pipeline.train_ensemble", None),
    ("hiermlc.pipeline", "train_member", "pipeline.train_member", None),
    ("hiermlc.cli", "predict_unconditional", "pipeline.predict_unconditional", None),
    ("hiermlc.cli", "propagate", "hierarchy.propagate", None),
    ("hiermlc.pipeline", "propagate", "hierarchy.propagate", None),
    ("hiermlc.evaluation", "roc_curve", "evaluation.roc_curve", None),
    ("hiermlc.evaluation", "auc", "evaluation.auc", None),
    ("hiermlc.evaluation", "reader_study", "evaluation.reader_study", None),
    ("hiermlc.evaluation", "write_predictions_csv", "evaluation.csv_write", ("after", (0,))),
    ("hiermlc.evaluation", "write_report", "evaluation.csv_write", ("after", (1, 2))),
    ("hiermlc.evaluation", "write_roc_points_csv", "evaluation.csv_write", ("after", (0,))),
]


def resolve(owner: str):
    """Module, or class inside a module for ``module:Class``."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def current_targets() -> dict[tuple[str, str], object]:
    """The objects the traced names are bound to right now."""
    out = {}
    for owner, attr, _, _ in TARGETS:
        found = vars(resolve(owner)).get(attr)
        if found is not None:
            out[(owner, attr)] = found
    return out


def _file_bytes(args, positions) -> int:
    return sum(os.path.getsize(args[i]) for i in positions if i < len(args))


class Tracer:
    """In-memory span recorder; install with ``with tracer.installed():``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)

    def _wrap(self, fn, name: str, byte_hook):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "evaluation.reader_study":
                tracer.counters["evaluation.scored_labels"] += len(args[0])
            if byte_hook and byte_hook[0] == "before":
                tracer.counters[name + ".bytes"] += _file_bytes(args, byte_hook[1])
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if byte_hook and byte_hook[0] == "after":
                tracer.counters[name + ".bytes"] += _file_bytes(args, byte_hook[1])
            if name == "model.backward":
                tracer._count_grad_elements(args[0], result)
            return result

        return wrapper

    def _count_grad_elements(self, model, grads) -> None:
        """Gradient elements backward returned, and those of frozen layers."""
        for frozen, layer_grads in zip(model.frozen, grads):
            n = sum(g.size for g in layer_grads or () if g is not None)
            self.counters["model.grad_elements"] += n
            if frozen:
                self.counters["model.frozen_grad_elements"] += n

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals = []
        try:
            for owner, attr, name, byte_hook in TARGETS:
                obj = resolve(owner)
                fn = vars(obj).get(attr)
                if fn is None:
                    self.missing.append(f"{owner}.{attr}")
                    continue
                originals.append((obj, attr, fn))
                setattr(obj, attr, self._wrap(fn, name, byte_hook))
            yield self
        finally:
            for obj, attr, fn in reversed(originals):
                setattr(obj, attr, fn)

    def write_spans(self, path: Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "start", "end", "parent", "run_id"])
            writer.writerows(s for s in self.spans if s is not None)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _under(spans, i: int, name: str) -> bool:
    """Whether span i has an ancestor called ``name``."""
    j = spans[i][3]
    while j >= 0:
        if spans[j][0] == name:
            return True
        j = spans[j][3]
    return False


def span_totals(spans) -> tuple[dict, dict, dict, list[bool]]:
    """Per-name busy time, self time and call count, plus training flags.

    Busy time sums spans not nested in a span of the same name.  Self time
    subtracts the time covered by child spans of other layers; a nested
    span of the same layer is transparent, so ``pipeline.train_ensemble``
    keeps the loop work done inside ``pipeline.train_member``.  A span is
    in training when it or an ancestor is ``pipeline.train_member``.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    other = [0.0] * n
    training = [False] * n
    nested_same = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent < 0:
            training[i] = name == "pipeline.train_member"
            continue
        training[i] = training[parent] or name == "pipeline.train_member"
        nested_same[i] = _under(spans, i, name)
        layer = _layer(name)
        top = _layer(spans[parent][0])
        if layer == top:
            continue
        j = parent
        while j >= 0 and _layer(spans[j][0]) == top:
            other[j] += dur[i]
            j = spans[j][3]
    busy: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        if not nested_same[i]:
            busy[s[0]] += dur[i]
            self_time[s[0]] += dur[i] - other[i]
    return busy, self_time, calls, training


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by metric name."""
    spans = tracer.spans  # all closed once the traced block has ended
    busy, self_time, calls, training = span_totals(spans)
    c = tracer.counters
    steps = calls["model.adam_step"]
    members = calls["pipeline.train_member"]
    train_forward = sum(
        1 for s, t in zip(spans, training) if t and s[0] == "model.forward"
    )
    train_model_s = sum(
        s[2] - s[1]
        for s, t in zip(spans, training)
        if t and s[0] in ("model.forward", "model.masked_bce", "model.backward", "model.adam_step")
    )
    scored = c["evaluation.scored_labels"] + sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "evaluation.auc" and not _under(spans, i, "evaluation.reader_study")
    )
    m = {
        "config.load_config.s": busy["config.load_config"],
        "hierarchy.load_tree.s": busy["hierarchy.load_tree"],
        "data.generate_synthetic.s": busy["data.generate_synthetic"],
        "data.inject_uncertainty.s": busy["data.inject_uncertainty"],
        "data.csv_write.s": busy["data.csv_write"],
        "data.csv_write.bytes": c["data.csv_write.bytes"],
        "data.csv_read.s": busy["data.csv_read"],
        "data.csv_read.bytes": c["data.csv_read.bytes"],
        "seeding.stream.calls": calls["seeding.stream"],
        "seeding.stream.s": busy["seeding.stream"],
        "policy.apply_policy.s": busy["policy.apply_policy"],
        "policy.apply_policy.calls": calls["policy.apply_policy"],
        "policy.targets_per_member": _ratio(calls["policy.apply_policy"], members),
        "model.step.count": steps,
        "model.forward.s": busy["model.forward"],
        "model.masked_bce.s": busy["model.masked_bce"],
        "model.backward.s": busy["model.backward"],
        "model.adam_step.s": busy["model.adam_step"],
        "model.step_us": _ratio(train_model_s * 1e6, steps),
        "model.traces_per_step": _ratio(train_forward + calls["model.backward"], steps),
        "model.frozen_grad_frac": _ratio(
            c["model.frozen_grad_elements"], c["model.grad_elements"]
        ),
        "model.checkpoint.s": busy["model.checkpoint"],
        "model.checkpoint.bytes": c["model.checkpoint.bytes"],
        "pipeline.train_ensemble.s": busy["pipeline.train_ensemble"],
        "pipeline.train_ensemble.self_s": self_time["pipeline.train_ensemble"],
        "pipeline.predict_unconditional.s": busy["pipeline.predict_unconditional"],
        "hierarchy.propagate.s": busy["hierarchy.propagate"],
        "pipeline.hierarchical_ablation.self_s": self_time["pipeline.hierarchical_ablation"],
        "evaluation.roc_curve.s": busy["evaluation.roc_curve"],
        "evaluation.auc.s": busy["evaluation.auc"],
        "evaluation.reader_study.s": busy["evaluation.reader_study"],
        "evaluation.sweeps_per_label": _ratio(
            calls["evaluation.roc_curve"] + calls["evaluation.auc"], scored
        ),
        "evaluation.csv_write.s": busy["evaluation.csv_write"],
        "evaluation.csv_write.bytes": c["evaluation.csv_write.bytes"],
    }
    for cmd in ("gen", "train", "predict", "eval"):
        m[f"cli.{cmd}.self_s"] = self_time[f"cli.{cmd}"]
    return {k: float(v) for k, v in m.items()}

