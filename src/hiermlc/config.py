"""Run configuration: one JSON file drives gen, train, predict, and eval.

The effective config (file plus any CLI overrides) is snapshotted into
the output directory as canonical JSON.  The output directory itself is
deliberately left out of the snapshot so identical runs into different
directories produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .hierarchy import LabelTree, default_hierarchy_path, load_tree
from .model import OptimizerConfig
from .policy import (
    DEFAULT_LSR_ONES,
    DEFAULT_LSR_ZEROS,
    UncertaintyPolicy,
    make_policy,
)


@dataclass
class SyntheticDataConfig:
    """Spec for generated data: per-node theta plus feature geometry."""

    theta: dict[str, float]
    feature_dim: int = 16
    feature_noise: float = 0.5
    n_train: int = 2000
    n_eval: int = 2000
    uncertainty_rate: float = 0.0


@dataclass
class CsvDataConfig:
    """On-disk dataset: label CSVs with optional feature CSVs."""

    train_labels: str
    eval_labels: str
    train_features: str | None = None
    eval_features: str | None = None


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in ("conditional", "flat"):
            raise ConfigError(f"mode must be conditional or flat, got {self.mode!r}")
        if self.ensemble_size < 1:
            raise ConfigError("ensemble_size must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.synthetic is None and self.csv_data is None:
            raise ConfigError("config needs a data section (synthetic or csv)")

    def hierarchy_path(self) -> Path:
        if self.hierarchy == "default":
            return default_hierarchy_path()
        return Path(self.hierarchy)

    def load_tree(self) -> LabelTree:
        path = self.hierarchy_path()
        if not path.exists():
            raise ConfigError(f"hierarchy file not found: {path}")
        return load_tree(path)

    def policy(self) -> UncertaintyPolicy:
        try:
            return make_policy(self.policy_name, self.lsr_ones, self.lsr_zeros)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _take(raw: dict, allowed: set[str], where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")


def _parse_optimizer(raw: dict) -> OptimizerConfig:
    _take(raw, {f for f in OptimizerConfig.__dataclass_fields__}, "optimizer")
    try:
        return OptimizerConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer config: {exc}") from exc


def config_from_dict(raw: dict) -> RunConfig:
    raw = dict(raw)
    _take(
        raw,
        {
            "seed", "out", "hierarchy", "mode", "policy", "optimizer",
            "stage1_iterations", "stage2_iterations", "hidden_sizes",
            "ensemble_size", "workers", "eval_subset", "reader_points",
            "missing_as_negative", "data",
        },
        "config",
    )
    if "seed" not in raw:
        raise ConfigError("config must set a seed")
    kwargs: dict = {
        "seed": int(raw["seed"]),
        "out": str(raw.get("out", "run")),
    }
    for key in (
        "hierarchy", "mode", "stage1_iterations", "stage2_iterations",
        "ensemble_size", "workers", "reader_points", "missing_as_negative",
    ):
        if key in raw:
            kwargs[key] = raw[key]
    if "hidden_sizes" in raw:
        kwargs["hidden_sizes"] = tuple(int(h) for h in raw["hidden_sizes"])
    if "eval_subset" in raw and raw["eval_subset"] is not None:
        kwargs["eval_subset"] = tuple(raw["eval_subset"])

    pol = raw.get("policy", {})
    if isinstance(pol, str):
        pol = {"name": pol}
    _take(pol, {"name", "lsr_ones", "lsr_zeros"}, "policy")
    kwargs["policy_name"] = pol.get("name", "ones")
    if "lsr_ones" in pol:
        kwargs["lsr_ones"] = tuple(float(v) for v in pol["lsr_ones"])
    if "lsr_zeros" in pol:
        kwargs["lsr_zeros"] = tuple(float(v) for v in pol["lsr_zeros"])

    if "optimizer" in raw:
        kwargs["optimizer"] = _parse_optimizer(dict(raw["optimizer"]))

    data = raw.get("data")
    if not isinstance(data, dict):
        raise ConfigError("config needs a data section (synthetic or csv)")
    if "synthetic" in data:
        _take(data, {"synthetic"}, "data")
        syn = dict(data["synthetic"])
        _take(
            syn,
            {f for f in SyntheticDataConfig.__dataclass_fields__},
            "data.synthetic",
        )
        if "theta" not in syn:
            raise ConfigError("data.synthetic must map node names to theta values")
        syn["theta"] = {str(k): float(v) for k, v in syn["theta"].items()}
        try:
            kwargs["synthetic"] = SyntheticDataConfig(**syn)
        except TypeError as exc:
            raise ConfigError(f"bad synthetic data config: {exc}") from exc
    else:
        _take(data, {f for f in CsvDataConfig.__dataclass_fields__}, "data")
        try:
            kwargs["csv_data"] = CsvDataConfig(**data)
        except TypeError as exc:
            raise ConfigError(f"bad csv data config: {exc}") from exc

    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    config = config_from_dict(raw)
    # a relative hierarchy path is taken relative to the config file, so
    # shipped configs work from any working directory
    if config.hierarchy != "default" and not Path(config.hierarchy).is_absolute():
        config.hierarchy = str(path.parent / config.hierarchy)
    return config


def config_to_dict(config: RunConfig) -> dict:
    """Effective config as a plain dict, without the output directory."""
    out: dict = {
        "seed": config.seed,
        "hierarchy": config.hierarchy,
        "mode": config.mode,
        "policy": {
            "name": config.policy_name,
            "lsr_ones": list(config.lsr_ones),
            "lsr_zeros": list(config.lsr_zeros),
        },
        "optimizer": asdict(config.optimizer),
        "stage1_iterations": config.stage1_iterations,
        "stage2_iterations": config.stage2_iterations,
        "hidden_sizes": list(config.hidden_sizes),
        "ensemble_size": config.ensemble_size,
        "workers": config.workers,
        "eval_subset": list(config.eval_subset) if config.eval_subset else None,
        "reader_points": config.reader_points,
        "missing_as_negative": config.missing_as_negative,
    }
    if config.synthetic is not None:
        out["data"] = {"synthetic": asdict(config.synthetic)}
    else:
        assert config.csv_data is not None
        out["data"] = {
            k: v for k, v in asdict(config.csv_data).items() if v is not None
        }
    return out


def snapshot_config(config: RunConfig, out_dir: Path) -> None:
    """Write the effective config into the run directory, canonically."""
    payload = json.dumps(config_to_dict(config), sort_keys=True, indent=2)
    (out_dir / "config.json").write_text(payload + "\n", encoding="utf-8")


def synthetic_spec_theta(config: SyntheticDataConfig, tree: LabelTree) -> np.ndarray:
    """Theta dict to an index-aligned vector, validating the name set."""
    missing = [n for n in tree.names if n not in config.theta]
    if missing:
        raise ConfigError(f"data.synthetic.theta missing node(s): {missing}")
    unknown = [n for n in config.theta if n not in tree.names]
    if unknown:
        raise ConfigError(f"data.synthetic.theta names unknown node(s): {unknown}")
    theta = np.array([config.theta[n] for n in tree.names], dtype=np.float64)
    bad = np.flatnonzero((theta < 0.0) | (theta > 1.0))
    if bad.size:
        name = tree.names[int(bad[0])]
        raise ConfigError(
            f"theta for node {name!r} is {theta[int(bad[0])]}, outside [0, 1]"
        )
    return theta
