"""Command-line entry point: gen, train, predict, eval, ablate.

Every run is driven by a JSON config file; ``--seed``, ``--out``,
``--mode`` and ``--policy`` override the matching config keys.  The
effective config is snapshotted into the output directory, and all
outputs are deterministic given config plus seed: reruns produce
byte-identical files.

Every file goes through ``csvio``, which replaces each whole.  ``gen``
and ``train`` each delete their section of the run record,
``manifest.json``, before their first write and write it last, and
``eval`` its reports, so an interrupted command leaves no record and the
commands after it ask for it to be run again.

``predict`` and ``eval`` load their ensemble in ``_final_checkpoints``
alone, before any eval file is read, and refuse a member whose outputs
do not match the hierarchy's labels.

``ablate`` trains conditional ``ones-lsr`` against flat ``ones`` on
fresh synthetic data for ``--seeds`` seeds from ``--seed`` on, and
writes their leaf AUCs with the effective config to ``ablation.json``;
its two arms are fixed, so it takes no ``--mode`` or ``--policy``.

Exit codes: 0 success, 1 ``ConfigError``, 2 ``DataFormatError``, 3
``NumericError``, 4 any other exception, printed with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from .config import RunConfig, config_to_dict, load_config, synthetic_spec_theta
from .csvio import column_indices, file_digests, read_id_matrix, write_json, write_table
# unused here: the benchmark's perfbench/tracer.py wraps the last two names in cli
from .data import SyntheticSpec, generate_synthetic, inject_uncertainty
from .errors import ConfigError, DataFormatError, NumericError
from .hierarchy import LabelTree, propagate, safe_name
from .model import Mlp, load_checkpoint, save_checkpoint
from .pipeline import (
    TrainPlan,
    hierarchical_ablation,
    predict_flat,
    predict_unconditional,
    synthetic_split,
    train_ensemble,
)
from .policy import POLICIES, make_policy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems follow the exit-code contract
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hiermlc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="run config JSON file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="override output directory")
        if name == "ablate":
            p.add_argument("--seeds", type=int, default=10, help="seeds to run (>= 1)")
            p.set_defaults(mode=None, policy=None)  # both arms are fixed
            continue
        p.add_argument(
            "--mode", choices=("conditional", "flat"), help="override training mode"
        )
        p.add_argument(
            "--policy",
            choices=POLICIES,
            help="override uncertainty policy",
        )
        if name == "eval":
            p.add_argument(
                "--predictions",
                help="evaluate this predictions CSV instead of running the ensemble",
            )
    return parser


def _effective_config(args) -> RunConfig:
    config = load_config(args.config)
    flags = dict(seed=args.seed, out=args.out, mode=args.mode, policy_name=args.policy)
    updates = {field: value for field, value in flags.items() if value is not None}
    config = replace(config, **updates) if updates else config
    _check_out(config.out)
    return config


def _check_out(out: str) -> None:
    """Reject an output directory that names a file or lies under one,
    before a command does any work."""
    path = Path(out)
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise ConfigError(f"output directory {out}: {existing} is not a directory")
            return


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# eval's record, deleted before its first write and written last.
_REPORTS = ("report.txt", "report.csv")
# What predict and eval derive from the checkpoints, and what train,
# predict and eval derive from gen's data.  train and gen delete them with
# what they came from, so no run directory mixes the two.
_DERIVED_FROM_MODELS = (
    "checkpoints/member*.json",
    "predictions.csv",
    "predictions.csv.npy",
    *_REPORTS,
    "roc_*.csv",
)
_DERIVED_FROM_DATA = (*_DERIVED_FROM_MODELS, "loss_log.csv")


def _remove_stale(out: Path, patterns) -> None:
    for pattern in patterns:
        for stale in out.glob(pattern):
            stale.unlink()


def cmd_gen(args) -> int:
    """Write a synthetic dataset (features+labels CSV pairs) plus provenance."""
    config = _effective_config(args)
    syn = config.synthetic
    if syn is None:
        raise ConfigError("gen requires a data.synthetic section")
    tree = config.load_tree()
    theta = synthetic_spec_theta(syn, tree)
    spec = SyntheticSpec(tree, theta, syn.feature_noise, syn.feature_dim)
    train, held_out = synthetic_split(
        spec, syn.n_train, syn.n_eval, syn.uncertainty_rate, config.seed
    )
    # rows named row00000, ... in generator order; only the halves stay alive
    ids = data_mod.row_ids(syn.n_train + syn.n_eval)
    splits = (("train", train, ids[: syn.n_train]), ("eval", held_out, ids[syn.n_train :]))
    del ids
    marginals = dict(zip(tree.names, propagate(tree, spec.theta).tolist()))

    out = _out_dir(config)
    # the record goes first and is written last
    _remove_stale(out, (_MANIFEST, *_DERIVED_FROM_DATA))
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    for split, dataset, ids in splits:
        data_mod.write_features_csv(data_dir / f"{split}_features.csv", dataset.features, ids)
        data_mod.write_labels_csv(data_dir / f"{split}_labels.csv", dataset.labels, tree, ids)
    write_json(out / "config.json", config_to_dict(config))
    data = _manifest(config, tree)["data"]
    provenance = {**data, "hierarchy": config.hierarchy, "true_marginals": marginals}
    write_json(data_dir / "provenance.json", provenance)
    write_json(out / _MANIFEST, {"data": data})
    print(f"wrote {syn.n_train} train / {syn.n_eval} eval rows to {data_dir}")
    return EXIT_OK


# The run record: gen's data section and train's train section.
_MANIFEST = "manifest.json"


def _manifest(config: RunConfig, tree: LabelTree) -> dict:
    """The run record of ``config``.  ``train`` holds what made the
    checkpoints: the effective config less the keys that steer only eval
    (``eval_subset``, ``reader_points``, the eval files) or nothing
    (``workers``, ``optimizer.iterations`` and ``optimizer.seed``), with
    a CSV config's training files by their sha256.  ``data`` holds, for
    synthetic data, the keys that decide gen's data.  Both name the
    hierarchy by its forest, each label's index and parent, so one forest
    reached by any path is one hierarchy."""
    parents = [tree.names[p] if p >= 0 else None for p in tree.parent_index.tolist()]
    forest = {name: [k, parent] for k, (name, parent) in enumerate(zip(tree.names, parents))}
    train = {**config_to_dict(config), "hierarchy": forest}
    del train["eval_subset"], train["reader_points"], train["workers"]
    del train["optimizer"]["iterations"], train["optimizer"]["seed"]
    if config.synthetic is None:
        digests = file_digests(_split_files(config, tree, "train"))
        train["data"] = {f"train_{kind}": digest for kind, digest in zip(_KINDS, digests)}
        return {"train": train}
    data = dict(seed=config.seed, hierarchy=forest, **asdict(config.synthetic))
    return {"train": train, "data": data}


def _flat(record: dict, prefix: str = "") -> dict:
    """``record`` with its nested objects spelled as dotted keys."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _recorded(out: Path, section: str, remedy: str) -> dict:
    """The ``section`` of the run record in ``out``."""
    path = out / _MANIFEST
    try:
        recorded = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        recorded = None
    recorded = recorded.get(section) if isinstance(recorded, dict) else None
    if not isinstance(recorded, dict):
        raise ConfigError(f"{path}: {section} section is missing or unreadable; {remedy}")
    return recorded


# The flag that overrides a key, for the hint on a mismatch.
_FLAGS = {"seed": "--seed", "mode": "--mode", "policy.name": "--policy"}


def _check_record(out: Path, section: str, manifest: dict, made: str, command: str) -> None:
    """Refuse the ``section`` of ``out``'s run record where it differs from
    ``manifest``'s at any dotted key, naming each such key, both values and
    the flags that restore them, or else asking to run ``command``."""
    remedy = f"run {command} again"
    was, now = _flat(_recorded(out, section, remedy)), _flat(manifest[section])
    differing = sorted(k for k in was.keys() | now.keys() if was.get(k) != now.get(k))
    if differing:
        values = "; ".join(f"{k} {was.get(k)!r}, not {now.get(k)!r}" for k in differing)
        flags = " ".join(f"{_FLAGS[k]} {was.get(k)}" for k in differing if k in _FLAGS)
        remedy = f"pass {flags} or {remedy}" if flags else remedy
        raise ConfigError(f"{made} under another config: {values}; {remedy}")


_KINDS = ("features", "labels")


def _split_files(
    config: RunConfig, tree: LabelTree, split: str, kinds=_KINDS
) -> tuple[str | Path, ...]:
    """The "train" or "eval" split's file of each of ``kinds``, the
    config's or gen's CSV; each must exist, and gen's only as written
    under the same config, so no run mixes data and config."""
    if config.synthetic is None:
        files = tuple(getattr(config.csv_data, f"{split}_{kind}") for kind in kinds)
    else:
        data_dir = Path(config.out) / "data"
        if not any((data_dir / f"{split}_{kind}.csv").exists() for kind in _KINDS):
            raise ConfigError(f"no {split} data under {data_dir}; run gen first")
        made = f"{data_dir} was generated"
        _check_record(data_dir.parent, "data", _manifest(config, tree), made, "gen")
        files = tuple(data_dir / f"{split}_{kind}.csv" for kind in kinds)
    for kind, path in zip(kinds, files):
        if not Path(path).is_file():
            what = "training" if split == "train" else "eval"
            raise ConfigError(f"{what} {kind} file not found: {path}")
    return files


def _scored(config: RunConfig, labels: np.ndarray) -> np.ndarray:
    """A split's labels, its blank cells read as negatives under
    ``missing_as_negative``."""
    if not config.missing_as_negative:
        return labels
    return np.where(labels == data_mod.MISSING, data_mod.NEG, labels)


def cmd_train(args) -> int:
    """Train the ensemble (two-stage conditional or flat) and write checkpoints."""
    config = _effective_config(args)
    tree = config.load_tree()  # validate inputs before any writes
    dataset = data_mod.load_dataset(*_split_files(config, tree, "train"), tree)
    manifest = _manifest(config, tree)  # a CSV config's files hashed as they were read
    dataset = replace(dataset, labels=_scored(config, dataset.labels))
    plan = TrainPlan(
        policy=config.policy(),
        optimizer=config.optimizer,
        stage1_iterations=config.stage1_iterations,
        stage2_iterations=config.stage2_iterations,
        conditional=config.mode == "conditional",
    )
    members = train_ensemble(
        dataset,
        tree,
        plan,
        config.hidden_sizes,
        config.seed,
        config.ensemble_size,
    )

    out = _out_dir(config)
    ckpt_dir = out / "checkpoints"
    # the train section goes first and is written last, with what an earlier run left
    write_json(out / _MANIFEST, {k: v for k, v in manifest.items() if k != "train"})
    _remove_stale(out, _DERIVED_FROM_MODELS)
    ckpt_dir.mkdir(exist_ok=True)
    for i, member in enumerate(members):
        meta = {"member": i, "seed": member.seed, "mode": config.mode}
        for stage, model in (("stage1", member.stage1), ("final", member.final)):
            if model is not None:
                path = ckpt_dir / f"member{i:02d}_{stage}.json"
                save_checkpoint(path, model, extra={**meta, "stage": stage})
    losses = [
        [i, stage, epoch, repr(loss)]
        for i, member in enumerate(members)
        for stage, epoch, loss in member.loss_log
    ]
    header = ["member", "stage", "epoch", "mean_loss"]
    write_table(out / "loss_log.csv", header, losses)
    write_json(out / "config.json", config_to_dict(config))
    write_json(out / _MANIFEST, manifest)
    print(f"trained {len(members)} member(s); checkpoints in {ckpt_dir}")
    return EXIT_OK


def _final_checkpoints(config: RunConfig, tree: LabelTree) -> list[Mlp]:
    """The ensemble: the config's ``ensemble_size`` final members, if
    ``train`` recorded what made them as ``config`` would make them, each
    with one output per label of ``tree``."""
    out = Path(config.out)
    ckpt_dir = out / "checkpoints"
    _check_record(out, "train", _manifest(config, tree), f"{ckpt_dir} was trained", "train")
    paths = [ckpt_dir / f"member{i:02d}_final.json" for i in range(config.ensemble_size)]
    missing = [path.name for path in paths if not path.is_file()]
    if missing:
        raise ConfigError(f"{ckpt_dir} lacks {', '.join(missing)}; run train again")
    members = [load_checkpoint(path) for path in paths]
    for path, member in zip(paths, members):
        if member.output_dim != tree.K:
            raise ConfigError(
                f"{path} has {member.output_dim} outputs but the hierarchy has "
                f"{tree.K} labels; run train again"
            )
    return members


def _ensemble_probs(
    config: RunConfig, tree: LabelTree, members: list[Mlp], path, features: np.ndarray
) -> np.ndarray:
    """The probabilities ``members`` give the eval rows' ``features``, read
    from ``path``, propagated if conditional and raw if flat: predict's
    and eval's one path to them."""
    for member in members:
        if member.input_dim != features.shape[1]:
            what = f"{features.shape[1]} feature columns; the checkpoints take {member.input_dim}"
            raise DataFormatError(f"{path} has {what}")
    if config.mode == "flat":
        probs = predict_flat(members, features)
    else:
        probs = predict_unconditional(members, tree, features)
    if np.isnan(probs).any():  # finite inputs that overflow the model
        raise NumericError(f"the ensemble's outputs on {path} overflow to NaN")
    return probs


def cmd_predict(args) -> int:
    """Write ensemble predictions for the eval rows."""
    config = _effective_config(args)
    tree = config.load_tree()
    (features_path,) = _split_files(config, tree, "eval", ("features",))  # reads no labels
    members = _final_checkpoints(config, tree)  # before the features are read
    _, ids, features = read_id_matrix(features_path, "feature")
    probs = _ensemble_probs(config, tree, members, features_path, features)
    path = _out_dir(config) / "predictions.csv"
    eval_mod.write_predictions_csv(path, ids, probs, tree.names)
    print(f"wrote predictions for {len(ids)} rows to {path}")
    return EXIT_OK


def _binary_ground_truth(labels: np.ndarray, ids, tree: LabelTree, path) -> np.ndarray:
    """The eval labels read from ``path`` as booleans; every label must be
    1.0 or 0.0 in each row, and take both values, for its ROC curve."""
    bad = ~np.isin(labels, (data_mod.POS, data_mod.NEG))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataFormatError(
            f"{path}: ground truth must be binary; row {ids[row]!r} label "
            f"{tree.names[col]!r} is not 1.0/0.0"
        )
    truth = labels == data_mod.POS
    for name, positives in zip(tree.names, truth.sum(axis=0).tolist()):
        if positives in (0, len(truth)):
            raise DataFormatError(
                f"{path}: label {name!r} has {positives} positives and "
                f"{len(truth) - positives} negatives; a ROC curve needs both"
            )
    return truth


def cmd_eval(args) -> int:
    """ROC/AUC report with optional reader operating-point comparison."""
    config = _effective_config(args)
    tree = config.load_tree()
    points = {}
    if config.reader_points:
        if not Path(config.reader_points).is_file():
            raise ConfigError(f"reader_points file not found: {config.reader_points}")
        points = eval_mod.load_operating_points(config.reader_points)
    unknown = sorted(set(points) - set(tree.names))
    if unknown:
        raise DataFormatError(
            f"{config.reader_points}: reader points for unknown label(s) {unknown}"
        )
    # a supplied predictions file is scored against the labels alone and
    # runs no checkpoints; else they are checked before any eval file is read
    if args.predictions:
        if not Path(args.predictions).is_file():
            raise DataFormatError(f"predictions file not found: {args.predictions}")
        (labels_path,) = _split_files(config, tree, "eval", ("labels",))
        labels, ids = data_mod.load_labels_csv(labels_path, tree)
    else:
        features_path, labels_path = _split_files(config, tree, "eval")
        members = _final_checkpoints(config, tree)
        dataset = data_mod.load_dataset(features_path, labels_path, tree)
        labels, ids = dataset.labels, dataset.ids
    truth = _binary_ground_truth(_scored(config, labels), ids, tree, labels_path)

    if args.predictions:
        names, written_ids, probs = read_id_matrix(args.predictions, "prediction")
        cols = column_indices(args.predictions, names, tree.names, "label")
        if written_ids != ids:
            raise DataFormatError("predictions row ids do not match the eval dataset")
        probs = probs[:, cols]
    else:
        probs = _ensemble_probs(config, tree, members, features_path, dataset.features)

    scores_by_label = {name: probs[:, tree.index_of(name)] for name in tree.names}
    truth_by_label = {name: truth[:, tree.index_of(name)] for name in tree.names}
    report = eval_mod.reader_study(scores_by_label, truth_by_label, points, config.eval_subset)

    out = _out_dir(config)
    _remove_stale(out, _REPORTS)
    eval_mod.write_predictions_csv(out / "predictions.csv", ids, probs, tree.names)
    for name, curve in report.curves.items():
        eval_mod.write_roc_points_csv(out / f"roc_{safe_name(name)}.csv", curve)
    if not args.predictions:  # a scored file skips the config check: keep config.json
        write_json(out / "config.json", config_to_dict(config))
    eval_mod.write_report(report, out / "report.txt", out / "report.csv")
    print(
        f"mean_auc_selected={report.mean_auc_selected:.6f} "
        f"mean_readers_below={report.mean_readers_below:.6f} -> {out / 'report.txt'}"
    )
    return EXIT_OK


def cmd_ablate(args) -> int:
    """Leaf AUC of conditional ones-lsr against flat ones training, per seed."""
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    config = _effective_config(args)
    syn = config.synthetic
    if syn is None:
        raise ConfigError("ablate requires a data.synthetic section")
    tree = config.load_tree()
    seeds = list(range(config.seed, config.seed + args.seeds))
    result = hierarchical_ablation(
        tree,
        synthetic_spec_theta(syn, tree),
        seeds,
        n_train=syn.n_train,
        n_eval=syn.n_eval,
        uncertainty_rate=syn.uncertainty_rate,
        smoothed_policy=make_policy("ones-lsr", config.lsr_ones, config.lsr_zeros),
        hard_policy=make_policy("ones"),
        optimizer=config.optimizer,
        stage1_iterations=config.stage1_iterations,
        stage2_iterations=config.stage2_iterations,
        hidden_sizes=config.hidden_sizes,
        feature_dim=syn.feature_dim,
        feature_noise=syn.feature_noise,
    )

    print(f"leaf labels: {', '.join(result.leaf_names)}")
    print("seed  conditional      flat")
    for seed, c, f in zip(seeds, result.conditional_by_seed, result.flat_by_seed):
        print(f"{seed:4d}  {c:.6f}     {f:.6f}")
    print(f"mean  {result.mean_conditional:.6f}     {result.mean_flat:.6f}")
    print(f"delta (conditional - flat): {result.delta:+.6f}")

    payload = {
        "config": config_to_dict(config),
        "seeds": seeds,
        "leaf_names": list(result.leaf_names),
        "conditional_by_seed": result.conditional_by_seed,
        "flat_by_seed": result.flat_by_seed,
        "mean_conditional": result.mean_conditional,
        "mean_flat": result.mean_flat,
        "delta": result.delta,
    }
    path = _out_dir(config) / "ablation.json"
    write_json(path, payload)
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # every numeric fault that matters raises NumericError; numpy's
        # warnings would only print ahead of its one error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception:  # a bug or an OS failure, never the input's fault
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
