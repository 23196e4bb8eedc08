"""Run configuration: one JSON file drives gen, train, predict, and eval.

The dataclasses below are the schema: one recursive builder reads their
annotations, rejects unknown keys and type-checks each value, naming the
JSON path (``data.synthetic.n_train``) in its ``ConfigError``.  Only the
renames are written out: ``policy`` fills ``policy_name``/``lsr_ones``/
``lsr_zeros``, and ``data`` fills ``synthetic`` or ``csv_data``.

The effective config (file plus any CLI overrides) is snapshotted into
the output directory as canonical JSON.  The output directory itself is
deliberately left out of the snapshot so identical runs into different
directories produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .hierarchy import LabelTree, default_hierarchy_path, load_tree
from .model import OptimizerConfig
from .policy import (
    DEFAULT_LSR_ONES,
    DEFAULT_LSR_ZEROS,
    POLICIES,
    UncertaintyPolicy,
    check_lsr,
    make_policy,
)


def _at_least(config, bounds: dict, prefix: str = "") -> None:
    for key, least in bounds.items():
        value = getattr(config, key)
        if value < least:
            raise ConfigError(f"{prefix}{key} must be >= {least}, got {value}")


@dataclass
class SyntheticDataConfig:
    """Spec for generated data: per-node theta plus feature geometry."""

    theta: dict[str, float]
    feature_dim: int = 16
    feature_noise: float = 0.5
    n_train: int = 2000
    n_eval: int = 2000
    uncertainty_rate: float = 0.0

    def __post_init__(self):
        bounds = dict(n_train=1, n_eval=1, feature_dim=1, feature_noise=0)
        _at_least(self, bounds, prefix="data.synthetic.")
        if not 0.0 <= self.uncertainty_rate <= 1.0:
            raise ConfigError("data.synthetic.uncertainty_rate must lie in [0, 1]")
        for name, value in self.theta.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"theta for node {name!r} is {value}, outside [0, 1]")


@dataclass
class CsvDataConfig:
    """On-disk dataset: a features CSV and a labels CSV per split, all four
    required."""

    train_labels: str
    eval_labels: str
    train_features: str
    eval_features: str


@dataclass
class RunConfig:
    """Effective settings of one run, as parsed from the config file.

    ``workers`` is accepted and ignored: training runs every ensemble
    member in one stacked step, without a thread pool.  The key is still
    parsed, validated (>= 1) and snapshotted unchanged, because
    ``config.json`` is one of the run's byte-identical artifacts.
    """

    seed: int
    out: str
    hierarchy: str = "default"
    mode: str = "conditional"  # or "flat"
    policy_name: str = "ones"
    lsr_ones: tuple[float, float] = DEFAULT_LSR_ONES
    lsr_zeros: tuple[float, float] = DEFAULT_LSR_ZEROS
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    stage1_iterations: int = 1000
    stage2_iterations: int = 500
    hidden_sizes: tuple[int, ...] = (32,)
    ensemble_size: int = 6
    workers: int = 1
    eval_subset: tuple[str, ...] | None = None
    reader_points: str | None = None
    missing_as_negative: bool = False
    synthetic: SyntheticDataConfig | None = None
    csv_data: CsvDataConfig | None = None

    def __post_init__(self):
        _at_least(self, dict(seed=0, stage1_iterations=0, stage2_iterations=0))
        _at_least(self, dict(ensemble_size=1, workers=1))
        if self.mode not in ("conditional", "flat"):
            raise ConfigError(f"mode must be conditional or flat, got {self.mode!r}")
        for i, size in enumerate(self.hidden_sizes):
            if size < 1:
                raise ConfigError(f"hidden_sizes[{i}] must be >= 1, got {size}")
        if self.eval_subset == ():
            raise ConfigError("eval_subset must name at least one label")
        if self.eval_subset and len(set(self.eval_subset)) < len(self.eval_subset):
            twice = sorted({n for n in self.eval_subset if self.eval_subset.count(n) > 1})
            raise ConfigError(f"eval_subset names label(s) more than once: {twice}")
        if self.synthetic is None and self.csv_data is None:
            raise ConfigError("config needs a data section (synthetic or csv)")
        if self.policy_name not in POLICIES:
            raise ConfigError(
                f"policy.name must be one of {list(POLICIES)}, got {self.policy_name!r}"
            )
        for key in ("lsr_ones", "lsr_zeros"):  # --policy may switch to either band
            try:
                check_lsr(getattr(self, key))
            except ValueError as exc:
                raise ConfigError(f"policy.{key}: {exc}") from exc

    def hierarchy_path(self) -> Path:
        if self.hierarchy == "default":
            return default_hierarchy_path()
        return Path(self.hierarchy)

    def load_tree(self) -> LabelTree:
        path = self.hierarchy_path()
        if not path.is_file():
            raise ConfigError(f"hierarchy file not found: {path}")
        tree = load_tree(path)
        unknown = [n for n in self.eval_subset or () if n not in tree.names]
        if unknown:
            raise ConfigError(f"eval_subset names unknown label(s): {unknown}")
        return tree

    def policy(self) -> UncertaintyPolicy:
        return make_policy(self.policy_name, self.lsr_ones, self.lsr_zeros)


# JSON ``policy`` key -> RunConfig field
_POLICY = {"name": "policy_name", "lsr_ones": "lsr_ones", "lsr_zeros": "lsr_zeros"}
# RunConfig fields that are not JSON keys: ``policy`` and ``data`` fill them.
_RENAMED = {*_POLICY.values(), "synthetic", "csv_data"}
_KIND = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


@cache
def _hints(cls) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _check_keys(keys, allowed, where: str) -> None:
    unknown = set(keys) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")


def _value(tp, value, path: str):
    """``value`` checked against the annotation ``tp``; arrays become tuples."""
    if tp in _KIND:
        if tp is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:  # beyond float64's range, as JSON's 1e400 is
                value = np.inf if value > 0 else -np.inf
        if not isinstance(value, tp) or (tp is int and isinstance(value, bool)):
            raise ConfigError(f"{path} must be {_KIND[tp]}, got {value!r}")
        if tp is float and not np.isfinite(value):  # JSON has no NaN or Infinity
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
        return value
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if value is None else _value(args[0], value, path)
    if is_dataclass(tp) or origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a JSON object, got {value!r}")
        if origin is dict:
            return {k: _value(args[1], v, f"{path}.{k}") for k, v in value.items()}
        return _build(tp, {k: (f"{path}.{k}", v) for k, v in value.items()}, path)
    # tuple[X, ...] or tuple[X, Y]
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a JSON array, got {value!r}")
    if args[-1] is Ellipsis:
        args = args[:1] * len(value)
    elif len(value) != len(args):
        raise ConfigError(f"{path} must hold {len(args)} values, got {len(value)}")
    items = enumerate(zip(args, value))
    return tuple(_value(t, v, f"{path}[{i}]") for i, (t, v) in items)


def _build(cls, items: dict[str, tuple[str, object]], where: str):
    """``cls`` from field name -> (JSON path, JSON value) items."""
    hints = _hints(cls)
    _check_keys(items, hints, where)
    kwargs = {name: _value(hints[name], v, path) for name, (path, v) in items.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # a missing key, or a value out of range
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    _check_keys(raw, _hints(RunConfig).keys() - _RENAMED | {"policy", "data"}, "config")
    items = {"out": ("out", "run")}
    items.update((k, (k, v)) for k, v in raw.items() if k not in ("policy", "data"))
    policy = raw.get("policy", {})
    if not isinstance(policy, dict):  # a bare policy name
        policy = {"name": policy}
    _check_keys(policy, _POLICY, "policy")
    items.update((_POLICY[k], (f"policy.{k}", v)) for k, v in policy.items())
    data = raw.get("data")
    if isinstance(data, dict) and "synthetic" in data:
        _check_keys(data, {"synthetic"}, "data")
        items["synthetic"] = ("data.synthetic", data["synthetic"])
    elif data is not None:
        items["csv_data"] = ("data", data)
    return _build(RunConfig, items, "config")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    config = config_from_dict(raw)
    # a relative hierarchy path is taken relative to the config file, so
    # shipped configs work from any working directory
    if config.hierarchy != "default" and not Path(config.hierarchy).is_absolute():
        config.hierarchy = str(path.parent / config.hierarchy)
    return config


def _json_object(pairs) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


def config_to_dict(config: RunConfig) -> dict:
    """Effective config as a plain dict, without the output directory."""
    out = asdict(config, dict_factory=_json_object)
    del out["out"]
    out["policy"] = {key: out.pop(name) for key, name in _POLICY.items()}
    synthetic, csv_data = out.pop("synthetic"), out.pop("csv_data")
    out["data"] = {"synthetic": synthetic} if synthetic is not None else csv_data
    return out


def synthetic_spec_theta(config: SyntheticDataConfig, tree: LabelTree) -> np.ndarray:
    """Theta dict to an index-aligned vector, validating the name set."""
    missing = [n for n in tree.names if n not in config.theta]
    if missing:
        raise ConfigError(f"data.synthetic.theta missing node(s): {missing}")
    unknown = [n for n in config.theta if n not in tree.names]
    if unknown:
        raise ConfigError(f"data.synthetic.theta names unknown node(s): {unknown}")
    return np.array([config.theta[n] for n in tree.names], dtype=np.float64)
