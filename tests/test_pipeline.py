import importlib.util
import inspect
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hiermlc import model as model_mod
from hiermlc import pipeline as pipeline_mod
from hiermlc.config import load_config, synthetic_spec_theta
from hiermlc.data import (
    POS,
    UNC,
    Dataset,
    SyntheticSpec,
    conditional_mask,
    generate_synthetic,
    inject_uncertainty,
)
from hiermlc.errors import ConfigError, DataFormatError, NumericError
from hiermlc.evaluation import auc
from hiermlc.hierarchy import build_tree, propagate
from hiermlc.model import Mlp, OptimizerConfig, freeze_all_but_last
from hiermlc.pipeline import (
    TrainPlan,
    hierarchical_ablation,
    member_seed,
    predict_unconditional,
    synthetic_split,
    train_ensemble,
    train_member,
    train_members,
)
from hiermlc.policy import apply_policy, make_policy
from oracles import sequential_training

PAIR = build_tree([("A", None, 0), ("B", "A", 1)])
PAIR_SPEC = SyntheticSpec(
    tree=PAIR,
    theta=np.array([0.6, 0.7]),
    feature_noise=0.5,
    feature_dim=8,
)
FAST_OPT = OptimizerConfig(
    lr0=0.01, decay_factor=0.5, batch_size=32, iterations=200, seed=0
)


def pair_datasets(n_train=3000, n_eval=1500, seed=0):
    full = generate_synthetic(PAIR_SPEC, n_train + n_eval, seed)
    x, y = full.features, full.labels
    return Dataset(x[:n_train], y[:n_train], None), Dataset(x[n_train:], y[n_train:], None)


def fast_plan(**kwargs):
    defaults = dict(
        policy=make_policy("ones"),
        optimizer=FAST_OPT,
        stage1_iterations=1500,
        stage2_iterations=400,
    )
    defaults.update(kwargs)
    return TrainPlan(**defaults)


def fresh_model(seed=0, hidden=(16,), tree=PAIR, feature_dim=8):
    return Mlp.init([feature_dim, *hidden, tree.K], seed)


def assert_same_member(a, b):
    assert a.seed == b.seed
    assert a.final.frozen == b.final.frozen
    np.testing.assert_array_equal(a.final.params, b.final.params)
    if a.stage1 is None:
        assert b.stage1 is None
    else:
        np.testing.assert_array_equal(a.stage1.params, b.stage1.params)
    assert a.loss_log == b.loss_log
    assert len(a.loss_log) > 0


class TestSyntheticSplit:
    def test_views_of_one_pass(self):
        full = generate_synthetic(PAIR_SPEC, 500, 3)
        train, held_out = synthetic_split(PAIR_SPEC, 300, 200, 0.3, 3)
        np.testing.assert_array_equal(train.features, full.features[:300])
        np.testing.assert_array_equal(held_out.features, full.features[300:])
        np.testing.assert_array_equal(held_out.labels, full.labels[300:])
        assert train.features.base is not None and train.features.base is held_out.features.base
        assert (train.labels == UNC).any() and not (held_out.labels == UNC).any()

    def test_peak_memory_near_the_rows(self, configs_dir):
        # the split holds its rows once, with room for the generator's and
        # the injection's temporaries, not the noise matrix and a copy per split
        config = load_config(configs_dir / "benchmark.json")
        tree, syn = config.load_tree(), config.synthetic
        theta = synthetic_spec_theta(syn, tree)
        spec = SyntheticSpec(tree, theta, syn.feature_noise, syn.feature_dim)
        row_bytes = 40_000 * (8 * syn.feature_dim + tree.K)
        synthetic_split(spec, 10, 10, 0.3, 3)  # tables and caches built on first use
        tracemalloc.start()
        try:
            synthetic_split(spec, 20_000, 20_000, 0.3, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * row_bytes


class TestPlanValidation:
    def test_negative_iterations(self, configs_dir):
        # the plan trusts its budgets: the config refuses a negative one,
        # also under the replace() that applies CLI overrides
        config = load_config(configs_dir / "chain.json")
        with pytest.raises(ConfigError, match="stage1_iterations must be >= 0"):
            replace(config, stage1_iterations=-1)
        with pytest.raises(ConfigError, match="stage2_iterations must be >= 0"):
            replace(config, stage2_iterations=-5)


def stage1_model(dataset, plan):
    """Stage-1 weights of a conditional member, without a stage-2 budget."""
    plan = replace(plan, stage2_iterations=0)
    return train_member(dataset, PAIR, plan, (16,), seed=0).stage1


class TestStage1:
    def test_learns_conditional_rate(self):
        # B's head sees only parent-positive rows, so its sigmoid output
        # should approach theta_B|A on held-out parent-positive rows
        train, hold = pair_datasets()
        model = stage1_model(train, fast_plan())
        a_pos = hold.labels[:, 0] == POS
        assert a_pos.sum() > 300
        b_given_a = model.forward(hold.features[a_pos])[:, 1].mean()
        assert b_given_a == pytest.approx(0.7, abs=0.05)

    def test_parent_negative_rows_carry_no_signal(self):
        train, _ = pair_datasets(n_train=800, n_eval=1)
        corrupted = replace(train, labels=train.labels.copy())
        a_neg = corrupted.labels[:, 0] != POS
        corrupted.labels[a_neg, 1] = POS  # only masked-out cells change
        plan = fast_plan(stage1_iterations=300)
        out_clean = stage1_model(train, plan)
        out_corrupt = stage1_model(corrupted, plan)
        np.testing.assert_array_equal(out_clean.params, out_corrupt.params)

    def test_empty_signal_rejected(self):
        train, _ = pair_datasets(n_train=50, n_eval=1)
        empty = replace(train, labels=train.labels.copy())
        empty.labels[:] = -2  # everything missing
        with pytest.raises(DataFormatError, match="stage1: empty effective training signal"):
            stage1_model(empty, fast_plan())

    def test_learning_rate_underflow_is_numeric(self):
        # 64 rows in batches of 32: epoch 2 begins at step 4, with lr 1e-602
        train, _ = pair_datasets(n_train=64, n_eval=1)
        optimizer = replace(FAST_OPT, decay_factor=1e-300)
        plan = fast_plan(optimizer=optimizer, stage1_iterations=4)
        stage1_model(train, plan)  # epochs 0 and 1 only
        with pytest.raises(NumericError, match="stage1: learning rate underflowed to 0 at epoch 2"):
            stage1_model(train, replace(plan, stage1_iterations=5))

    def test_loss_log_rows(self):
        train, _ = pair_datasets(n_train=200, n_eval=1)
        plan = fast_plan(stage1_iterations=20, stage2_iterations=0)
        log = train_member(train, PAIR, plan, (16,), seed=0).loss_log
        stages, epochs, losses = zip(*log)
        assert set(stages) == {"stage1"}
        assert list(epochs) == sorted(epochs)
        assert all(np.isfinite(l) for l in losses)


class TestStage2:
    def test_hidden_layers_bit_identical(self):
        train, _ = pair_datasets()
        result = train_member(train, PAIR, fast_plan(), (16,), seed=0)
        before, after = result.stage1, result.final
        assert before.frozen == [False, False]
        assert after.frozen == [True, False]
        np.testing.assert_array_equal(after.weights[0], before.weights[0])
        np.testing.assert_array_equal(after.biases[0], before.biases[0])
        assert (after.weights[1] != before.weights[1]).any()

    def test_zero_iterations_only_freezes(self):
        train, _ = pair_datasets(n_train=300, n_eval=1)
        plan = fast_plan(stage1_iterations=50, stage2_iterations=0)
        result = train_member(train, PAIR, plan, (16,), seed=0)
        assert result.final.frozen == [True, False]
        np.testing.assert_array_equal(result.final.params, result.stage1.params)

    def test_root_auc_survives_stage2(self):
        train, hold = pair_datasets()
        result = train_member(train, PAIR, fast_plan(), (16,), seed=0)
        truth = (hold.labels[:, 0] == POS).astype(int)
        auc_before = auc(result.stage1.forward(hold.features)[:, 0], truth)
        auc_after = auc(result.final.forward(hold.features)[:, 0], truth)
        assert auc_before > 0.9
        assert auc_after >= auc_before - 0.02


class TestFlatEquivalence:
    def test_flat_equals_stage1_without_hierarchy(self):
        # on a forest of roots the conditional mask admits everything, so
        # a flat run and a stage-1 run must walk identical steps
        roots = build_tree([("A", None, 0), ("B", None, 1)])
        spec = SyntheticSpec(
            tree=roots, theta=np.array([0.5, 0.4]), feature_noise=0.5, feature_dim=8
        )
        data = generate_synthetic(spec, 500, 3)
        plan = fast_plan(stage1_iterations=120, stage2_iterations=0)
        staged = train_member(data, roots, plan, (16,), seed=0)
        flat = train_member(data, roots, replace(plan, conditional=False), (16,), 0)
        np.testing.assert_array_equal(staged.stage1.params, flat.final.params)
        np.testing.assert_array_equal(staged.final.params, flat.final.params)
        assert [row[1:] for row in staged.loss_log] == [row[1:] for row in flat.loss_log]

    def test_flat_budget_is_the_stage_sum(self, monkeypatch):
        # optimizer.iterations is not a step budget: a flat plan takes
        # stage1_iterations + stage2_iterations Adam steps per member
        calls = Counter()
        adam_step = pipeline_mod.adam_step

        def counted(*args, **kwargs):
            calls["adam_step"] += 1
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "adam_step", counted)
        train, _ = pair_datasets(n_train=300, n_eval=1)
        for iterations in (7, 500):
            calls.clear()
            plan = fast_plan(
                optimizer=replace(FAST_OPT, iterations=iterations),
                stage1_iterations=25,
                stage2_iterations=15,
                conditional=False,
            )
            members = train_ensemble(train, PAIR, plan, (16,), base_seed=0, size=2)
            assert len(members) == 2
            assert calls["adam_step"] == 2 * (25 + 15)


class TestMembers:
    def test_member_seeds_distinct_and_stable(self):
        seeds = [member_seed(7, i) for i in range(20)]
        assert len(set(seeds)) == 20
        assert seeds == [member_seed(7, i) for i in range(20)]
        assert seeds != [member_seed(8, i) for i in range(20)]

    def test_conditional_member_keeps_stage1_snapshot(self):
        train, _ = pair_datasets(n_train=300, n_eval=1)
        plan = fast_plan(stage1_iterations=40, stage2_iterations=20)
        result = train_member(train, PAIR, plan, (16,), seed=11)
        assert result.seed == 11
        assert result.stage1 is not None
        assert result.stage1.frozen == [False, False]
        assert result.final.frozen == [True, False]
        np.testing.assert_array_equal(
            result.final.weights[0], result.stage1.weights[0]
        )
        assert {row[0] for row in result.loss_log} == {"stage1", "stage2"}

    def test_flat_member_has_no_snapshot(self):
        train, _ = pair_datasets(n_train=300, n_eval=1)
        plan = fast_plan(stage1_iterations=40, stage2_iterations=20, conditional=False)
        result = train_member(train, PAIR, plan, (16,), seed=5)
        assert result.stage1 is None
        assert result.final.frozen == [False, False]
        assert {row[0] for row in result.loss_log} == {"flat"}

    @pytest.mark.parametrize("conditional", [True, False], ids=["conditional", "flat"])
    def test_members_independent_of_ensemble_size_and_order(self, conditional):
        train, _ = pair_datasets(n_train=300, n_eval=1)
        plan = fast_plan(
            stage1_iterations=40,
            stage2_iterations=20,
            conditional=conditional,
        )
        three = train_ensemble(train, PAIR, plan, (16,), base_seed=0, size=3)
        five = train_ensemble(train, PAIR, plan, (16,), base_seed=0, size=5)
        for k, result in enumerate(three):
            assert_same_member(result, five[k])
            alone = train_member(train, PAIR, plan, (16,), seed=member_seed(0, k))
            assert_same_member(result, alone)
        order = [3, 0, 4, 1, 2]
        permuted = train_members(
            train, PAIR, plan, (16,), [five[j].seed for j in order]
        )
        for result, j in zip(permuted, order):
            assert_same_member(result, five[j])

    def test_member_matches_sequential_reference(self):
        train, _ = pair_datasets(n_train=300, n_eval=1)
        plan = fast_plan(stage1_iterations=40, stage2_iterations=20)
        (result,) = train_members(train, PAIR, plan, (16,), [21])
        targets, policy_mask = apply_policy(train.labels, plan.policy, 21)
        model = Mlp.init([8, 16, PAIR.K], 21)
        stage1_mask = policy_mask & conditional_mask(train.labels, PAIR)
        rows = sequential_training(
            model, train.features, targets, stage1_mask, plan.optimizer, 40, 21
        )
        np.testing.assert_array_equal(result.stage1.params, model.params)
        freeze_all_but_last(model)
        rows2 = sequential_training(
            model, train.features, targets, policy_mask, plan.optimizer, 20, 21
        )
        np.testing.assert_array_equal(result.final.params, model.params)
        expected = [("stage1", *r) for r in rows] + [("stage2", *r) for r in rows2]
        assert result.loss_log == expected


class TestFusedStep:
    def test_one_forward_per_step_and_one_adam_step_per_member(self, monkeypatch):
        calls = Counter()
        deltas = {"masked_bce": [], "backward": []}

        def counted(name, fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name in deltas:
                    bound = signature.bind(*args, **kwargs).arguments
                    deltas[name].append(bound.get("delta"))
                return fn(*args, **kwargs)

            return wrapper

        trace = counted("forward_trace", model_mod.forward_trace)
        monkeypatch.setattr(model_mod, "forward_trace", trace)
        monkeypatch.setattr(pipeline_mod, "forward_trace", trace)
        monkeypatch.setattr(Mlp, "forward", counted("Mlp.forward", Mlp.forward))
        for name in ("apply_policy", "masked_bce", "backward", "adam_step"):
            monkeypatch.setattr(
                pipeline_mod, name, counted(name, getattr(pipeline_mod, name))
            )
        train, _ = pair_datasets(n_train=300, n_eval=1)
        plan = fast_plan(stage1_iterations=40, stage2_iterations=20)
        members = train_ensemble(train, PAIR, plan, (16,), base_seed=0, size=3)
        steps = 40 + 20
        assert len(members) == 3
        assert calls["forward_trace"] == steps
        assert calls["masked_bce"] == steps
        assert calls["backward"] == steps
        assert calls["Mlp.forward"] == 0
        assert calls["adam_step"] == 3 * steps
        assert calls["apply_policy"] == 3
        # backward propagates the very delta array masked_bce wrote
        assert len(deltas["masked_bce"]) == len(deltas["backward"]) == steps
        pairs = zip(deltas["masked_bce"], deltas["backward"])
        assert all(a is not None and a is b for a, b in pairs)


class TestGradientCheck:
    def test_non_finite_gradient_stops_the_pass(self, monkeypatch):
        # 300 rows in batches of 32, all members in step: every pass is
        # the full stack, whose live parameter buffer backward receives
        seen = {}
        backward = pipeline_mod.backward

        def poisoned(model, trace, delta, out):
            grads = backward(model, trace, delta, out)
            seen["passes"] = seen.get("passes", 0) + 1
            if seen["passes"] == 45:  # stage 2, step 4
                seen["live"], seen["before"] = model.params, model.params.copy()
                out[0][0][1, 2, 3] = np.nan  # member 1's dW0
            return grads

        monkeypatch.setattr(pipeline_mod, "backward", poisoned)
        train, _ = pair_datasets(n_train=300, n_eval=1)
        plan = fast_plan(stage1_iterations=40, stage2_iterations=20)
        with pytest.raises(NumericError, match="^stage2: non-finite gradient at step 4$"):
            train_ensemble(train, PAIR, plan, (16,), base_seed=0, size=3)
        assert seen["passes"] == 45
        np.testing.assert_array_equal(seen["live"], seen["before"])


def load_tracer():
    """The benchmark's ``perfbench/tracer.py``, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedRun:
    """A traced benchmark run fails when a name the tracer wraps is gone or
    when ``model.step.count``, the ``pipeline.adam_step`` calls, is not one
    per member-step; small runs under the same tracer see both here."""

    def traced(self, run):
        tracer_mod = load_tracer()
        tracer = tracer_mod.Tracer("test")
        with tracer.installed():
            run()
        return tracer.missing, tracer_mod.layer_metrics(tracer)

    def test_ensemble(self):
        train, _ = pair_datasets(n_train=300, n_eval=1)
        plan = fast_plan(stage1_iterations=40, stage2_iterations=20)
        missing, metrics = self.traced(
            lambda: pipeline_mod.train_ensemble(train, PAIR, plan, (16,), 0, 3)
        )
        assert missing == []
        assert metrics["model.step.count"] == 3 * (40 + 20)
        # the tracer reads backward's model and returned gradients: the
        # 8x16 hidden layer is frozen for the 20 stage-2 steps of 60, and
        # backward computes nothing for it there
        assert metrics["model.frozen_grad_frac"] == 0.0

    def test_ragged_ablation(self):
        # two seeds, both arms: 4 members whose epochs fall out of step
        missing, metrics = self.traced(
            lambda: pipeline_mod.hierarchical_ablation(
                PAIR, PAIR_SPEC.theta, (0, 1), **ABLATION_ARGS
            )
        )
        assert missing == []
        assert metrics["model.step.count"] == 4 * (65 + 30)


class TestPredictUnconditional:
    def test_single_member_is_propagated_forward(self):
        rng = np.random.default_rng(0)
        model = fresh_model(seed=4)
        x = rng.standard_normal((10, 8))
        out = predict_unconditional([model], PAIR, x)
        np.testing.assert_array_equal(out, propagate(PAIR, model.forward(x)))

    def test_identical_members_average_to_themselves(self):
        rng = np.random.default_rng(1)
        model = fresh_model(seed=4)
        x = rng.standard_normal((6, 8))
        single = predict_unconditional([model], PAIR, x)
        triple = predict_unconditional([model.copy(), model.copy(), model.copy()], PAIR, x)
        np.testing.assert_allclose(triple, single, rtol=0, atol=1e-15)

    def test_two_member_mean(self):
        rng = np.random.default_rng(2)
        a, b = fresh_model(seed=1), fresh_model(seed=2)
        x = rng.standard_normal((5, 8))
        out = predict_unconditional([a, b], PAIR, x)
        expected = np.mean(
            [propagate(PAIR, a.forward(x)), propagate(PAIR, b.forward(x))], axis=0
        )
        np.testing.assert_array_equal(out, expected)

    def test_child_never_exceeds_parent(self):
        rng = np.random.default_rng(3)
        ensemble = [fresh_model(seed=s) for s in range(3)]
        out = predict_unconditional(ensemble, PAIR, rng.standard_normal((50, 8)))
        assert ((out > 0) & (out < 1)).all()
        assert (out[:, 1] <= out[:, 0]).all()


class TestAblation:
    def test_smoke(self):
        tree = build_tree([("A", None, 0), ("B", "A", 1)])
        result = hierarchical_ablation(
            tree,
            np.array([0.6, 0.5]),
            seeds=(0, 1),
            n_train=300,
            n_eval=300,
            uncertainty_rate=0.2,
            smoothed_policy=make_policy("ones-lsr"),
            hard_policy=make_policy("ones"),
            optimizer=OptimizerConfig(
                lr0=0.01, decay_factor=0.5, batch_size=32, iterations=90, seed=0
            ),
            stage1_iterations=60,
            stage2_iterations=30,
            hidden_sizes=(8,),
            feature_dim=8,
            feature_noise=1.0,
        )
        assert result.leaf_names == ("B",)
        assert len(result.conditional_by_seed) == 2
        assert len(result.flat_by_seed) == 2
        for values in (result.conditional_by_seed, result.flat_by_seed):
            assert all(0.0 <= v <= 1.0 for v in values)
        assert result.delta == pytest.approx(
            result.mean_conditional - result.mean_flat
        )

    def test_uncertainty_injection_feeds_through(self):
        # sanity on the helper the ablation relies on
        data = generate_synthetic(PAIR_SPEC, 400, 9)
        noisy = inject_uncertainty(data, 0.5, 9)
        assert (noisy.labels == -1).sum() > 0


def count_stacked_passes(monkeypatch):
    """Count the engine's stacked forward passes (scoring uses Mlp.forward)
    and its Adam steps."""
    calls = Counter()
    for name in ("forward_trace", "adam_step"):
        fn = getattr(pipeline_mod, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, name, counted)
    return calls


class TestMixedStacks:
    # 300 rows in batches of 32: epochs of 10 steps, the last one 12 rows.
    # A 43-step stage 1 puts stage 2's short batches 3 steps off the flat
    # members', so some steps need one stacked pass per batch length.
    def mixed(self, **budget):
        data0, _ = pair_datasets(n_train=300, n_eval=1, seed=0)
        data1, _ = pair_datasets(n_train=300, n_eval=1, seed=1)
        data1 = inject_uncertainty(data1, 0.3, 1)
        cond = fast_plan(
            policy=make_policy("ones-lsr"),
            **(dict(stage1_iterations=43, stage2_iterations=27) | budget),
        )
        flat = replace(cond, policy=make_policy("ones"), conditional=False)
        datasets = [data0, data1, data0, data1]
        plans = [cond, flat, flat, cond]
        seeds = [5, 5, 6, 7]
        return datasets, plans, seeds

    @pytest.mark.parametrize(
        "budget",
        [{}, {"stage1_iterations": 0}, {"stage2_iterations": 0}],
        ids=["ragged", "no-stage1", "no-stage2"],
    )
    def test_member_equals_itself_trained_alone(self, monkeypatch, budget):
        datasets, plans, seeds = self.mixed(**budget)
        calls = count_stacked_passes(monkeypatch)
        stacked = train_members(datasets, PAIR, plans, (16,), seeds)
        steps = 43 + 27 - sum(budget.values())
        if not budget:
            assert steps < calls["forward_trace"] < 2 * steps  # ragged passes ran
        for result, data, plan, seed in zip(stacked, datasets, plans, seeds):
            alone = train_member(data, PAIR, plan, (16,), seed)
            assert_same_member(result, alone)
            if plan.conditional:
                assert result.final.frozen == [True, False]
                assert result.stage1.frozen == [False, False]
            else:
                assert result.final.frozen == [False, False]

    def test_zero_length_stages_keep_the_snapshot(self):
        datasets, plans, seeds = self.mixed(stage1_iterations=0)
        first = train_members(datasets, PAIR, plans, (16,), seeds)[0]
        init = Mlp.init([8, 16, PAIR.K], seeds[0])
        np.testing.assert_array_equal(first.stage1.params, init.params)
        assert {row[0] for row in first.loss_log} == {"stage2"}
        datasets, plans, seeds = self.mixed(stage2_iterations=0)
        first = train_members(datasets, PAIR, plans, (16,), seeds)[0]
        np.testing.assert_array_equal(first.stage1.params, first.final.params)
        assert {row[0] for row in first.loss_log} == {"stage1"}

    @pytest.mark.parametrize("budget", [{"stage1_iterations": 0}, {"stage2_iterations": 0}])
    def test_empty_signal_still_rejected(self, budget):
        datasets, plans, seeds = self.mixed(**budget)
        empty = replace(datasets[3], labels=datasets[3].labels.copy())
        empty.labels[:] = -2  # everything missing
        with pytest.raises(DataFormatError, match="stage1: empty effective training signal"):
            train_members(datasets[:3] + [empty], PAIR, plans, (16,), seeds)
        with pytest.raises(DataFormatError, match="flat: empty effective training signal"):
            train_members([datasets[0], empty], PAIR, plans[:2], (16,), seeds[:2])

    def test_stack_must_share_rows_optimizer_and_budget(self):
        datasets, plans, seeds = self.mixed()
        short = Dataset(datasets[0].features[:200], datasets[0].labels[:200], None)
        cases = [
            ([short] + datasets[1:], plans, "feature matrix shape"),
            (datasets, plans[:3] + [replace(plans[3], optimizer=replace(FAST_OPT, lr0=0.02))], "optimizer"),
            (datasets, plans[:3] + [replace(plans[3], stage2_iterations=5)], "step budget"),
            (datasets, plans[:3], "one dataset and one plan per seed"),
        ]
        for data, plan, message in cases:
            with pytest.raises(ValueError, match=message):
                train_members(data, PAIR, plan, (16,), seeds)


def nan_filled(alloc):
    """``alloc`` whose float arrays start as NaN, the worst that
    uninitialized memory can hold."""

    def allocate(*args, **kwargs):
        out = alloc(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    return allocate


class TestRaggedFrozenStacks:
    # All conditional, one 60-step budget split 43+17 and 30+30, on 300
    # rows in batches of 32: epochs of 10 steps, the last one 12 rows.
    # From step 43 every member is in stage 2, so the stack's hidden layer
    # is frozen and backward writes only the last layer's gradients; the
    # short batches fall on steps 49 and 59 for the 30-step stage 1 and on
    # 52 for the 43-step one, so each of those steps runs one pass per
    # batch length, on a group's own gradient buffer.
    def stack(self):
        data, _ = pair_datasets(n_train=300, n_eval=1)
        early = fast_plan(policy=make_policy("ones-lsr"), stage1_iterations=30, stage2_iterations=30)
        late = replace(early, stage1_iterations=43, stage2_iterations=17)
        return data, [late, early, late], [5, 6, 7]

    def frozen_passes(self, monkeypatch, edit=None):
        """Members in each backward pass of a frozen stack; ``edit`` sees
        each such pass's model and gradient arrays after backward."""
        sizes = []
        backward = pipeline_mod.backward

        def spy(model, trace, delta, out):
            grads = backward(model, trace, delta, out)
            if model.frozen == [True, False]:
                sizes.append(len(model.params))
                if edit is not None:
                    edit(model, out)
            return grads

        monkeypatch.setattr(pipeline_mod, "backward", spy)
        return sizes

    def test_member_equals_itself_trained_alone(self, monkeypatch):
        data, plans, seeds = self.stack()
        sizes = self.frozen_passes(monkeypatch)
        # the engine must read no slot of a buffer that nothing wrote
        monkeypatch.setattr(np, "empty", nan_filled(np.empty))
        monkeypatch.setattr(np, "empty_like", nan_filled(np.empty_like))
        stacked = train_members(data, PAIR, plans, (16,), seeds)
        monkeypatch.undo()
        # one pass a step, and at each ragged step one of member 1 and one
        # of members 0 and 2 in place of the whole stack's
        assert sorted(Counter(sizes).items()) == [(1, 3), (2, 3), (3, 14)]
        for result, plan, seed in zip(stacked, plans, seeds):
            assert_same_member(result, train_member(data, PAIR, plan, (16,), seed))

    def test_non_finite_gradient_in_a_ragged_group_stops_stage2(self, monkeypatch):
        def poison(model, out):
            if len(model.params) == 2:  # step 49: members 0 and 2, in full batches
                out[-1][0][1, 0, 0] = np.nan  # member 2's trainable dW

        data, plans, seeds = self.stack()
        sizes = self.frozen_passes(monkeypatch, poison)
        # member 2's stage 2 began at step 43
        with pytest.raises(NumericError, match="^stage2: non-finite gradient at step 6$"):
            train_members(data, PAIR, plans, (16,), seeds)
        assert sizes == [3] * 6 + [1, 2]


ABLATION_ARGS = dict(
    n_train=300,
    n_eval=300,
    uncertainty_rate=0.2,
    smoothed_policy=make_policy("ones-lsr"),
    hard_policy=make_policy("ones"),
    optimizer=FAST_OPT,
    stage1_iterations=65,
    stage2_iterations=30,
    hidden_sizes=(8,),
    feature_dim=8,
    feature_noise=1.0,
)


class TestAblationStack:
    def test_equals_per_arm_training(self):
        result = hierarchical_ablation(PAIR, PAIR_SPEC.theta, (0, 1), **ABLATION_ARGS)
        args = ABLATION_ARGS
        spec = replace(PAIR_SPEC, feature_noise=1.0)
        cond_plan = TrainPlan(
            policy=args["smoothed_policy"],
            optimizer=args["optimizer"],
            stage1_iterations=65,
            stage2_iterations=30,
        )
        flat_plan = replace(cond_plan, policy=args["hard_policy"], conditional=False)
        cond_scores, flat_scores = [], []
        for seed in (0, 1):
            full = generate_synthetic(spec, 600, seed)
            x, y = full.features, full.labels
            train = inject_uncertainty(Dataset(x[:300], y[:300], None), 0.2, seed)
            held_out = Dataset(x[300:], y[300:], None)
            truth = (held_out.labels[:, 1] == POS).astype(int)
            cond = train_member(train, PAIR, cond_plan, (8,), seed).final
            flat = train_member(train, PAIR, flat_plan, (8,), seed).final
            cond_out = propagate(PAIR, cond.forward(held_out.features))
            cond_scores.append(float(np.mean([auc(cond_out[:, 1], truth)])))
            flat_out = flat.forward(held_out.features)
            flat_scores.append(float(np.mean([auc(flat_out[:, 1], truth)])))
        assert result.conditional_by_seed == cond_scores
        assert result.flat_by_seed == flat_scores

    def test_one_stacked_pass_per_step(self, monkeypatch):
        # every seed and both arms train as one stack: one pass per step,
        # plus one more at each step where the arms' batch lengths differ
        calls = count_stacked_passes(monkeypatch)
        hierarchical_ablation(PAIR, PAIR_SPEC.theta, (0, 1), **ABLATION_ARGS)
        steps, epoch_len = 65 + 30, 10
        ragged = sum(
            1
            for step in range(65, steps)
            if (step % epoch_len == epoch_len - 1) != ((step - 65) % epoch_len == epoch_len - 1)
        )
        assert ragged > 0
        assert calls["forward_trace"] == steps + ragged
        assert calls["adam_step"] == 4 * steps

    def test_trains_on_datasets_without_row_ids(self, monkeypatch):
        # the ablation writes no rows, so it holds no id strings through training
        seen = []
        train_members = pipeline_mod.train_members

        def spy(datasets, *args):
            seen.extend(datasets)
            return train_members(datasets, *args)

        monkeypatch.setattr(pipeline_mod, "train_members", spy)
        hierarchical_ablation(PAIR, PAIR_SPEC.theta, (0, 1), **ABLATION_ARGS)
        assert len(seen) == 4 and all(d.ids is None for d in seen)

