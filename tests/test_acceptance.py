"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its claim, checks it at the stated tolerance, and
enforces the runtime budget where one applies.  Run with ``pytest -v``
to get one pass/fail line per criterion.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from hiermlc.cli import main
from hiermlc.config import load_config, synthetic_spec_theta
from hiermlc.data import (
    MISSING,
    NEG,
    POS,
    UNC,
    SyntheticSpec,
)
from hiermlc.evaluation import DEFAULT_AUC_SUBSET, OperatingPoint, auc, reader_study
from hiermlc.hierarchy import build_tree, propagate
from hiermlc.model import (
    Mlp,
    backward,
    forward_trace,
    layer_views,
    load_checkpoint,
    masked_bce,
)
from hiermlc.pipeline import (
    TrainPlan,
    hierarchical_ablation,
    predict_unconditional,
    synthetic_split,
    train_ensemble,
)
from hiermlc.policy import apply_policy, make_policy
from oracles import (
    enumerate_marginals,
    finite_difference_grads,
    max_relative_gradient_error,
    pairwise_auc,
    random_forest,
)


def test_criterion_01_propagation_matches_exhaustive_enumeration(configs_dir):
    # 100 random forests, K <= 6: chain-rule propagation vs 2^K sums
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        tree = random_forest(rng, int(rng.integers(1, 7)))
        cond = rng.random(tree.K)
        got = propagate(tree, cond)
        want = enumerate_marginals(tree, cond)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    print(f"\npropagation oracle: max abs err {worst:.2e} over 100 trees, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_auc_matches_pairwise_statistic():
    # 200 random score/label instances with ties, n <= 500
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(4, 501))
        if trial % 2:
            scores = rng.random(n)
        else:
            scores = rng.integers(0, 6, size=n).astype(float) / 5.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(auc(scores, labels) - pairwise_auc(scores, labels)))
    elapsed = time.perf_counter() - start
    print(f"\nauc oracle: max abs err {worst:.2e} over 200 instances, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def _min_kink_distance(model, x):
    """Smallest |pre-activation| over the hidden layers for a batch."""
    closest = np.inf
    h = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        if i == model.n_layers - 1:
            break
        closest = min(closest, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    return closest


def test_criterion_03_gradients_match_finite_differences():
    # 50 model/input/mask instances, central differences with h=1e-5.
    # The loss is non-differentiable exactly at rectifier kinks, so the
    # check is only well posed away from them: biases are jittered and
    # instances with a pre-activation within 1e-3 of zero are redrawn.
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    shapes = [(4, 5, 3), (3, 4, 4, 2), (2, 2), (6, 8, 5)]
    worst = 0.0
    accepted = 0
    while accepted < 50:
        model = Mlp.init(list(shapes[accepted % len(shapes)]), int(rng.integers(1 << 30)))
        for b in model.biases:
            b += 0.1 * rng.standard_normal(b.shape)
        n = int(rng.integers(1, 6))
        x = rng.standard_normal((n, model.input_dim))
        if _min_kink_distance(model, x) < 1e-3:
            continue
        targets = rng.random((n, model.output_dim))
        mask = rng.random((n, model.output_dim)) < 0.7
        trace = forward_trace(model, x)
        delta = np.empty_like(trace[0])
        masked_bce(trace[0], targets, mask, delta)
        out = layer_views(np.empty_like(model.params), model.layer_sizes)
        analytic = backward(model, trace, delta, out)
        numeric = finite_difference_grads(model, x, targets, mask, h=1e-5)
        worst = max(worst, max_relative_gradient_error(analytic, numeric))
        accepted += 1
    elapsed = time.perf_counter() - start
    print(f"\ngradient check: max rel err {worst:.2e} over 50 instances, {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_04_lsr_draw_distribution():
    # exactly 10,000 uncertain cells under uniform-[0.55, 0.85] smoothing
    rng = np.random.default_rng(404)
    labels = rng.choice(
        np.array([POS, NEG, MISSING], dtype=np.int8), size=(1000, 40)
    )
    flat = rng.choice(labels.size, size=10_000, replace=False)
    labels.ravel()[flat] = UNC
    smoothed = make_policy("ones-lsr", (0.55, 0.85), (0.0, 0.30))
    hard = make_policy("ones")
    targets, mask = apply_policy(labels, smoothed, seed=0)
    hard_targets, hard_mask = apply_policy(labels, hard, seed=0)

    unc = labels == UNC
    draws = targets[unc]
    assert draws.size == 10_000
    assert draws.min() >= 0.55 and draws.max() <= 0.85
    tolerance = 3.0 * (0.30 / np.sqrt(12.0 * 10_000))
    mean_err = abs(draws.mean() - 0.70)
    assert mean_err <= tolerance
    np.testing.assert_array_equal(targets[~unc], hard_targets[~unc])
    np.testing.assert_array_equal(mask, hard_mask)
    print(
        f"\nlsr draws: mean {draws.mean():.6f} (tolerance +-{tolerance:.6f}), "
        f"range [{draws.min():.4f}, {draws.max():.4f}], hard cells bit-unchanged"
    )


def test_criterion_05_stage2_freezes_hidden_layers(configs_dir, tmp_path):
    # benchmark-config training: hidden params identical across stages
    args = ["--config", str(configs_dir / "benchmark.json"), "--out", str(tmp_path)]
    assert main(["gen", *args]) == 0  # outside the timed training
    start = time.perf_counter()
    code = main(["train", *args])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0  # desk-scale smoke budget
    ckpts = sorted((tmp_path / "checkpoints").glob("member*_final.json"))
    assert len(ckpts) == 6
    for final_path in ckpts:
        stage1_path = final_path.with_name(
            final_path.name.replace("_final", "_stage1")
        )
        final = load_checkpoint(final_path)
        stage1 = load_checkpoint(stage1_path)
        for i in range(final.n_layers - 1):
            np.testing.assert_array_equal(final.weights[i], stage1.weights[i])
            np.testing.assert_array_equal(final.biases[i], stage1.biases[i])
        assert (final.weights[-1] != stage1.weights[-1]).any()
    print(
        f"\nfreeze invariance: {len(ckpts)} members, hidden layers "
        f"bit-identical, trained in {elapsed:.1f}s"
    )


def test_criterion_06_chain_marginal_recovery(configs_dir):
    # 3-level chain, theta (0.6, 0.7, 0.5): held-out mean predictions
    # land within +-0.05 of the exact marginals (0.6, 0.42, 0.21)
    start = time.perf_counter()
    config = load_config(configs_dir / "chain.json")
    tree = config.load_tree()
    syn = config.synthetic
    theta = synthetic_spec_theta(syn, tree)
    spec = SyntheticSpec(
        tree=tree,
        theta=theta,
        feature_noise=syn.feature_noise,
        feature_dim=syn.feature_dim,
    )
    train, held_out = synthetic_split(
        spec, syn.n_train, syn.n_eval, syn.uncertainty_rate, config.seed
    )
    plan = TrainPlan(
        policy=config.policy(),
        optimizer=config.optimizer,
        stage1_iterations=config.stage1_iterations,
        stage2_iterations=config.stage2_iterations,
    )
    members = train_ensemble(
        train, tree, plan, config.hidden_sizes, config.seed, config.ensemble_size
    )
    ensemble = [m.final for m in members]
    estimated = predict_unconditional(ensemble, tree, held_out.features).mean(axis=0)
    exact = propagate(tree, theta)
    elapsed = time.perf_counter() - start
    np.testing.assert_array_equal(exact, [0.6, 0.42, 0.21])
    deltas = estimated - exact
    print(
        "\nchain recovery: estimated "
        + np.array2string(estimated, precision=4)
        + " vs exact [0.6 0.42 0.21], deltas "
        + np.array2string(deltas, precision=4)
        + f", {elapsed:.1f}s"
    )
    assert np.all(np.abs(deltas) <= 0.05)
    assert elapsed < 60.0


def test_criterion_07_hierarchy_ablation_direction(configs_dir):
    # shipped benchmark, 30% uncertainty, 10 seeds: conditional + smoothing
    # + propagation holds a mean leaf-AUC edge over the flat hard baseline
    start = time.perf_counter()
    config = load_config(configs_dir / "benchmark.json")
    tree = config.load_tree()
    syn = config.synthetic
    assert syn.uncertainty_rate == 0.3
    theta = synthetic_spec_theta(syn, tree)
    result = hierarchical_ablation(
        tree,
        theta,
        seeds=range(10),
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
    elapsed = time.perf_counter() - start
    print(
        f"\nablation over 10 seeds: conditional {result.mean_conditional:.4f} "
        f"vs flat {result.mean_flat:.4f}, signed delta {result.delta:+.4f}, "
        f"{elapsed:.1f}s"
    )
    assert result.mean_conditional >= result.mean_flat - 0.01
    assert elapsed < 600.0


def test_criterion_08_reader_study_fixture():
    # five perfect labels with 3,3,3,2,2 reader points below the curves
    scores, labels, points = {}, {}, {}
    for i, name in enumerate(DEFAULT_AUC_SUBSET):
        scores[name] = np.array([0.9, 0.85, 0.8, 0.2, 0.15, 0.1])
        labels[name] = np.array([1, 1, 1, 0, 0, 0])
        points[name] = [
            OperatingPoint(0.5, 0.5),
            OperatingPoint(0.4, 0.8),
            # the last reader ties the plateau on two labels: not below
            OperatingPoint(0.6, 0.99 if i < 3 else 1.0),
        ]
    report = reader_study(scores, labels, points)
    counts = [report.readers_below[name] for name in DEFAULT_AUC_SUBSET]
    print(f"\nreader fixture: counts {counts}, mean {report.mean_readers_below}")
    assert counts == [3, 3, 3, 2, 2]
    assert report.mean_readers_below == 2.6


def test_criterion_09_cli_reruns_byte_identical(tmp_path):
    # same config and seed, two output directories: identical artifacts
    (tmp_path / "h.csv").write_text("name,parent,index\nA,,0\nB,A,1\n")
    raw = {
        "seed": 7,
        "hierarchy": "h.csv",
        "policy": {"name": "ones-lsr"},
        "optimizer": {"lr0": 0.01, "decay_factor": 0.5, "batch_size": 16},
        "stage1_iterations": 120,
        "stage2_iterations": 60,
        "hidden_sizes": [8],
        "ensemble_size": 2,
        "data": {
            "synthetic": {
                "theta": {"A": 0.6, "B": 0.7},
                "feature_dim": 8,
                "n_train": 300,
                "n_eval": 100,
                "uncertainty_rate": 0.2,
            }
        },
    }
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    sums = []
    for out in ("out_a", "out_b"):
        out_dir = tmp_path / out
        for command in ("gen", "train", "eval"):
            code = main(
                [command, "--config", str(config), "--out", str(out_dir)]
            )
            assert code == 0
        sums.append(
            {
                p.relative_to(out_dir).as_posix(): hashlib.sha256(
                    p.read_bytes()
                ).hexdigest()
                for p in sorted(out_dir.rglob("*"))
                if p.is_file()
            }
        )
    assert "checkpoints/member00_final.json" in sums[0]
    assert "report.txt" in sums[0] and "report.csv" in sums[0]
    assert sums[0] == sums[1]
    print(f"\ndeterminism: {len(sums[0])} artifacts byte-identical across reruns")


def test_criterion_10_ensemble_identity():
    tree = build_tree([("A", None, 0), ("B", "A", 1), ("C", None, 2)])
    rng = np.random.default_rng(1010)
    x = rng.standard_normal((400, 8))
    a = Mlp.init([8, 16, 3], 1)
    b = Mlp.init([8, 16, 3], 2)

    single = predict_unconditional([a], tree, x)
    for m in (2, 4):
        multi = predict_unconditional([a.copy() for _ in range(m)], tree, x)
        np.testing.assert_array_equal(multi, single)
    # an odd member count rounds once in the mean: stay within 1 ulp
    triple = predict_unconditional([a.copy() for _ in range(3)], tree, x)
    assert np.all(np.abs(triple - single) <= np.spacing(single))

    pair = predict_unconditional([a, b], tree, x)
    pa = propagate(tree, a.forward(x))
    pb = propagate(tree, b.forward(x))
    reference = 0.5 * pa + 0.5 * pb
    assert np.all(np.abs(pair - reference) <= np.spacing(reference))
    print("\nensemble identity: identical members exact, 2-member mean within 1 ulp")


def test_criterion_11_protocol14_runs_end_to_end(configs_dir, tmp_path):
    # configs/protocol14.json on the bundled 14-label forest, at a small
    # size: the report's mean is over the five pathologies, and reruns
    # are byte-identical
    raw = json.loads((configs_dir / "protocol14.json").read_text())
    raw.update(stage1_iterations=300, stage2_iterations=100, ensemble_size=2)
    raw["data"]["synthetic"].update(n_train=1000, n_eval=500)
    config = tmp_path / "protocol14.json"
    config.write_text(json.dumps(raw))
    sums = []
    for out in ("out_a", "out_b"):
        out_dir = tmp_path / out
        for command in ("gen", "train", "eval"):
            assert main([command, "--config", str(config), "--out", str(out_dir)]) == 0
        sums.append(
            {
                p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out_dir.rglob("*"))
                if p.is_file()
            }
        )
    report = (tmp_path / "out_a" / "report.txt").read_text()
    assert f"mean_auc_selected ({', '.join(DEFAULT_AUC_SUBSET)}): " in report
    assert sums[0] == sums[1]
    print(f"\nprotocol14: {report.splitlines()[-2]}")
