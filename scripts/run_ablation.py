#!/usr/bin/env python
"""Hierarchy ablation on the shipped synthetic benchmark.

Trains, for each seed, a conditional two-stage model with smoothed
uncertain labels (scored by propagated probabilities) against a flat
single-stage baseline with hard positive uncertain labels (scored by
raw sigmoid outputs), then reports mean leaf-label AUC per arm and the
signed delta.
"""

import argparse
import json
import sys
from pathlib import Path

from hiermlc.config import load_config, synthetic_spec_theta
from hiermlc.errors import ConfigError, DataFormatError
from hiermlc.pipeline import hierarchical_ablation
from hiermlc.policy import make_policy

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO_ROOT / "configs" / "benchmark.json"


def at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config",
        default=str(DEFAULT_CONFIG),
        help="benchmark config supplying hierarchy, theta, and optimizer",
    )
    parser.add_argument(
        "--seeds", type=at_least(1), default=10, help="number of seeds (>= 1)"
    )
    parser.add_argument(
        "--first-seed", type=at_least(0), default=0, help="first seed (>= 0)"
    )
    parser.add_argument("--out", help="optional JSON results file")
    args = parser.parse_args()

    try:
        config = load_config(args.config)
        if config.synthetic is None:
            parser.error("ablation needs a config with a synthetic data section")
        tree = config.load_tree()
        syn = config.synthetic
        theta = synthetic_spec_theta(syn, tree)
    except ConfigError as exc:  # exit codes as hiermlc's
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    result = hierarchical_ablation(
        tree,
        theta,
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

    if args.out:
        payload = {
            "seeds": seeds,
            "leaf_names": list(result.leaf_names),
            "conditional_by_seed": result.conditional_by_seed,
            "flat_by_seed": result.flat_by_seed,
            "mean_conditional": result.mean_conditional,
            "mean_flat": result.mean_flat,
            "delta": result.delta,
        }
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
