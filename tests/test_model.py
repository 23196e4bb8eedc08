import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermlc.errors import DataFormatError
from hiermlc.model import (
    PROB_CLAMP,
    _sigmoid,
    AdamState,
    Mlp,
    OptimizerConfig,
    adam_step,
    backward,
    forward_trace,
    freeze_all_but_last,
    layer_views,
    load_checkpoint,
    lr_schedule,
    masked_bce,
    save_checkpoint,
)
from oracles import (
    allocating_adam_step,
    finite_difference_grads,
    max_relative_gradient_error,
    plain_forward_trace,
    scalar_adam,
    split_sigmoid,
    where_backward,
    where_masked_bce,
    where_output_delta,
)


def small_model(seed=0, sizes=(4, 5, 3)):
    return Mlp.init(list(sizes), seed)


def random_batch(rng, model, n=6):
    x = rng.standard_normal((n, model.input_dim))
    targets = rng.random((n, model.output_dim))
    mask = rng.random((n, model.output_dim)) < 0.7
    return x, targets, mask


def loss_of(probs, targets, mask):
    """masked_bce's loss, its output delta written to scratch."""
    return masked_bce(probs, targets, mask, np.empty(np.shape(probs)))


def gradients(model, x, targets, mask, buffer=None):
    """Gradients of masked_bce(forward(x)) through the engine's kernel
    chain, as per-layer views of ``buffer`` (a fresh one by default)."""
    trace = forward_trace(model, x)
    delta = np.empty_like(trace[0])
    masked_bce(trace[0], targets, mask, delta)
    if buffer is None:
        buffer = np.empty_like(model.params)
    return backward(model, trace, delta, layer_views(buffer, model.layer_sizes))


def fresh_adam(model):
    """Zero Adam moments in the layout of ``model.params``, unbound."""
    return AdamState(m=np.zeros_like(model.params), v=np.zeros_like(model.params))


def bound_adam(model):
    """A fresh Adam state bound to a zeroed gradient row of ``model``."""
    state, grads = fresh_adam(model), np.zeros_like(model.params)
    state.bind(model, grads)
    return state, grads


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999
        assert cfg.lr0 == 1e-4 and cfg.decay_factor == 0.1
        assert cfg.batch_size == 32 and cfg.iterations == 50_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"lr0": 0.0},
            {"batch_size": 0},
            {"iterations": -1},
            {"decay_factor": 0.0},
            {"decay_factor": -0.1},
            {"epsilon": 0.0},
            {"epsilon": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    def test_lr_schedule_decade_steps(self):
        cfg = OptimizerConfig()
        assert lr_schedule(cfg, 0) == 1e-4
        assert lr_schedule(cfg, 1) == pytest.approx(1e-5)
        assert lr_schedule(cfg, 3) == pytest.approx(1e-7)
        with pytest.raises(ValueError):
            lr_schedule(cfg, -1)


class TestMlp:
    def test_init_shapes_and_bounds(self):
        model = small_model(sizes=(5, 7, 2))
        assert [w.shape for w in model.weights] == [(5, 7), (7, 2)]
        assert [b.shape for b in model.biases] == [(7,), (2,)]
        assert all((np.abs(w) <= 1 / np.sqrt(w.shape[0])).all() for w in model.weights)
        assert all((b == 0).all() for b in model.biases)
        assert model.frozen == [False, False]

    def test_init_needs_two_sizes(self):
        with pytest.raises(ValueError, match="at least"):
            Mlp.init([4], seed=0)

    @pytest.mark.parametrize("sizes, layer", [([3, 0, 2], 1), ([3, -2, 2], 1), ([0, 2], 0)])
    def test_init_rejects_empty_layers(self, sizes, layer):
        message = rf"layer_sizes\[{layer}\] must be >= 1, got {sizes[layer]}$"
        with pytest.raises(ValueError, match=message):
            Mlp.init(sizes, seed=0)

    def test_init_deterministic(self):
        a, b = small_model(seed=3), small_model(seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        c = small_model(seed=4)
        assert (a.weights[0] != c.weights[0]).any()

    def test_forward_range_and_shapes(self):
        model = small_model()
        rng = np.random.default_rng(0)
        out = model.forward(rng.standard_normal((9, 4)))
        assert out.shape == (9, 3)
        assert ((out > 0) & (out < 1)).all()
        with pytest.raises(ValueError, match=r"shape \(4,\), model expects"):
            model.forward(rng.standard_normal(4))

    def test_single_matches_batch_row(self):
        model = small_model()
        x = np.random.default_rng(1).standard_normal((5, 4))
        batch = model.forward(x)
        np.testing.assert_array_equal(model.forward(x[2:3]), batch[2:3])

    def test_bad_inputs(self):
        model = small_model()
        with pytest.raises(ValueError, match="expects"):
            model.forward(np.zeros((2, 7)))
        # finiteness is the reader's check: a NaN gives NaN outputs, in its row alone
        probs = model.forward(np.array([[np.nan, 0, 0, 0], [0, 0, 0, 0]]))
        assert np.isnan(probs[0]).all() and np.isfinite(probs[1]).all()

    def test_copy_independent(self):
        model = small_model()
        clone = model.copy()
        clone.weights[0][0, 0] += 1.0
        assert model.weights[0][0, 0] != clone.weights[0][0, 0]


class TestMaskedBce:
    def test_half_probability_single_label(self):
        loss = loss_of(np.array([[0.5]]), np.array([[0.5]]), np.array([[True]]))
        assert loss == pytest.approx(math.log(2), abs=1e-15)

    def test_empty_mask_zero(self):
        loss = loss_of(
            np.array([[0.3, 0.9]]), np.array([[1.0, 0.0]]), np.zeros((1, 2), bool)
        )
        assert loss == 0.0

    def test_clamp_keeps_loss_finite(self):
        loss = loss_of(
            np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]), np.array([[True, True]])
        )
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(PROB_CLAMP), rel=1e-6)

    def test_mask_invariance(self):
        rng = np.random.default_rng(4)
        probs = rng.random((3, 4))
        targets = rng.random((3, 4))
        mask = rng.random((3, 4)) < 0.5
        garbage = targets.copy()
        garbage[~mask] = rng.random((~mask).sum())
        assert loss_of(probs, targets, mask) == loss_of(probs, garbage, mask)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_of(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 3), bool))
        # a single example is a (1, K) batch
        with pytest.raises(ValueError, match=r"need \(N, K\) or \(M, N, K\)"):
            loss_of(np.zeros(3), np.zeros(3), np.zeros(3, bool))

    def test_matches_high_precision_sum(self):
        # recompute every term with 50-digit arithmetic
        rng = np.random.default_rng(9)
        probs = rng.random((5, 4))
        targets = rng.random((5, 4))
        mask = rng.random((5, 4)) < 0.8
        with mpmath.workdps(50):
            per_example = []
            for i in range(5):
                cols = np.flatnonzero(mask[i])
                if cols.size == 0:
                    per_example.append(mpmath.mpf(0))
                    continue
                total = mpmath.mpf(0)
                for j in cols:
                    p = mpmath.mpf(float(np.clip(probs[i, j], PROB_CLAMP, 1 - PROB_CLAMP)))
                    y = mpmath.mpf(float(targets[i, j]))
                    total += y * mpmath.log(p) + (1 - y) * mpmath.log(1 - p)
                per_example.append(-total / int(cols.size))
            expected = float(sum(per_example) / 5)
        assert loss_of(probs, targets, mask) == pytest.approx(expected, rel=1e-12)


class TestBackward:
    def test_empty_mask_zero_grads(self):
        model = small_model()
        x = np.zeros((2, 4))
        grads = gradients(model, x, np.zeros((2, 3)), np.zeros((2, 3), bool))
        for dw, db in grads:
            assert (dw == 0).all() and (db == 0).all()

    def test_stationary_at_target(self):
        # single sigmoid unit with p == target: output-layer gradient vanishes
        model = Mlp(np.zeros(2), [1, 1])  # W = b = 0
        x = np.array([[1.0]])
        grads = gradients(model, x, np.array([[0.5]]), np.array([[True]]))
        np.testing.assert_allclose(grads[0][0], 0.0, atol=1e-16)
        np.testing.assert_allclose(grads[0][1], 0.0, atol=1e-16)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for sizes in ((4, 5, 3), (3, 4, 4, 2), (2, 2)):
            model = small_model(seed=int(rng.integers(1 << 30)), sizes=sizes)
            x, targets, mask = random_batch(rng, model, n=4)
            analytic = gradients(model, x, targets, mask)
            numeric = finite_difference_grads(model, x, targets, mask, h=1e-5)
            assert max_relative_gradient_error(analytic, numeric) < 1e-4

    def test_mask_invariance(self):
        rng = np.random.default_rng(3)
        model = small_model()
        x, targets, mask = random_batch(rng, model)
        garbage = targets.copy()
        garbage[~mask] = rng.random((~mask).sum())
        for (dw1, db1), (dw2, db2) in zip(
            gradients(model, x, targets, mask), gradients(model, x, garbage, mask)
        ):
            np.testing.assert_array_equal(dw1, dw2)
            np.testing.assert_array_equal(db1, db2)


class TestAdam:
    def config(self, **kwargs):
        return OptimizerConfig(**kwargs)

    def test_zero_gradient_noop(self):
        model = small_model()
        before = model.params.copy()
        state, _ = bound_adam(model)
        adam_step(state, self.config(), lr=0.1)
        assert state.t == 1
        np.testing.assert_array_equal(model.params, before)

    def test_first_step_is_signed_lr(self):
        model = Mlp(np.array([1.0, 0.0]), [1, 1])  # W = 1, b = 0
        state, grads = bound_adam(model)
        grads[0] = 0.25  # dW; db stays 0
        adam_step(state, self.config(epsilon=1e-12), lr=0.01)
        # bias-corrected first step approaches -lr * sign(g)
        assert model.weights[0][0, 0] == pytest.approx(1.0 - 0.01, rel=1e-6)

    def test_quadratic_convergence_matches_scalar_recurrence(self):
        model = Mlp(np.zeros(2), [1, 1])  # W = b = 0
        state, grads = bound_adam(model)
        cfg = self.config()
        trajectory = []
        for _ in range(200):
            grads[0] = 2.0 * (model.weights[0][0, 0] - 3.0)
            adam_step(state, cfg, lr=0.1)
            trajectory.append(model.weights[0][0, 0])
        w_final, oracle_history = scalar_adam(
            lambda w: 2.0 * (w - 3.0), 0.0, lr=0.1, steps=200
        )
        assert abs(model.weights[0][0, 0] - 3.0) < 0.1
        np.testing.assert_allclose(trajectory, oracle_history, rtol=1e-12)
        assert abs(w_final - 3.0) < 0.1

    def test_bound_state_matches_per_call_views(self):
        # a state bound to a gradient row updates from views built once,
        # with the bits of the plain update that slices every layer per
        # call; a rebind after freezing leaves the frozen layer alone
        rng = np.random.default_rng(9)
        model = small_model(seed=3)
        plain = model.copy()
        bound, row = bound_adam(model)
        state = fresh_adam(plain)
        for step in range(6):
            if step == 3:
                freeze_all_but_last(model)
                freeze_all_but_last(plain)
                frozen = model.weights[0].copy(), model.biases[0].copy()
                bound.bind(model, row)
            row[:] = rng.standard_normal(row.shape)
            adam_step(bound, self.config(), lr=0.05)
            allocating_adam_step(plain, state, row, self.config(), lr=0.05)
        assert bound.t == state.t == 6
        assert_bits_equal(model.params, plain.params)
        assert_bits_equal(bound.v, state.v)
        np.testing.assert_array_equal(model.weights[0], frozen[0])
        np.testing.assert_array_equal(model.biases[0], frozen[1])

    def test_lr_and_binding_validation(self):
        model = small_model()
        state, _ = bound_adam(model)
        with pytest.raises(ValueError, match="positive"):
            adam_step(state, self.config(), lr=0.0)
        # an unbound state has no views to update: it must not count a step
        unbound = fresh_adam(model)
        with pytest.raises(ValueError, match="not bound"):
            adam_step(unbound, self.config(), lr=0.1)
        assert unbound.t == 0


class TestFreezing:
    def test_flags(self):
        assert freeze_all_but_last(small_model(sizes=(3, 4, 5, 2))).frozen == [
            True,
            True,
            False,
        ]
        assert freeze_all_but_last(Mlp(np.zeros(3), [2, 1])).frozen == [False]

    def test_idempotent(self):
        model = small_model()
        once = freeze_all_but_last(model).frozen
        assert freeze_all_but_last(model).frozen == once

    def test_frozen_layers_bit_identical_under_updates(self):
        rng = np.random.default_rng(5)
        model = freeze_all_but_last(small_model())
        state, grads = bound_adam(model)
        frozen_w = model.weights[0].copy()
        frozen_b = model.biases[0].copy()
        cfg = OptimizerConfig()
        for _ in range(25):
            x, targets, mask = random_batch(rng, model)
            gradients(model, x, targets, mask, grads)
            adam_step(state, cfg, lr=0.05)
        np.testing.assert_array_equal(model.weights[0], frozen_w)
        np.testing.assert_array_equal(model.biases[0], frozen_b)
        assert (model.weights[1] != 0).any()  # last layer did move


class TestMemberStack:
    def test_stacked_matmul_slices_equal_2d(self):
        # the engine's products: forward, weight gradient written into a
        # strided gradient-buffer view, and the backward delta, for full
        # and short batches; a numpy or BLAS build that breaks this breaks
        # member independence from the ensemble size
        rng = np.random.default_rng(0)
        for m in (1, 2, 3, 6):
            for b in (32, 16, 12, 1):
                for f, h in ((16, 32), (32, 6)):
                    x = rng.standard_normal((m, b, f))
                    w = rng.standard_normal((m, f, h))
                    d = rng.standard_normal((m, b, h))
                    buf = np.zeros((m, 3 + f * h + 5))
                    dw = buf[:, 3 : 3 + f * h].reshape(m, f, h)
                    np.matmul(x.swapaxes(-1, -2), d, out=dw)
                    fwd = x @ w
                    dx = d @ w.swapaxes(-1, -2)
                    for k in range(m):
                        np.testing.assert_array_equal(fwd[k], x[k] @ w[k])
                        np.testing.assert_array_equal(dw[k], x[k].T @ d[k])
                        np.testing.assert_array_equal(dx[k], d[k] @ w[k].T)

    def test_members_are_views_of_stack_rows(self):
        models = [small_model(seed=s) for s in range(3)]
        stack = Mlp.stack(models)
        assert stack.params.shape == (3, models[0].params.size)
        assert [w.shape for w in stack.weights] == [(3, 4, 5), (3, 5, 3)]
        for k, model in enumerate(models):
            np.testing.assert_array_equal(stack.member(k).params, model.params)
        stack.member(1).weights[1][0, 0] += 1.0
        assert stack.weights[1][1, 0, 0] == models[1].weights[1][0, 0] + 1.0
        assert stack.weights[1][0, 0, 0] == models[0].weights[1][0, 0]

    def test_stacked_pass_matches_each_member(self):
        rng = np.random.default_rng(8)
        models = [small_model(seed=s) for s in range(3)]
        stack = Mlp.stack(models)
        batches = [random_batch(rng, model, n=7) for model in models]
        x, targets, mask = (np.stack(parts) for parts in zip(*batches))
        trace = forward_trace(stack, x)
        losses = loss_of(trace[0], targets, mask)
        grads = gradients(stack, x, targets, mask)
        for k, (model, (xk, tk, mk)) in enumerate(zip(models, batches)):
            np.testing.assert_array_equal(trace[0][k], model.forward(xk))
            assert losses[k] == loss_of(model.forward(xk), tk, mk)
            for (dw, db), (dwk, dbk) in zip(grads, gradients(model, xk, tk, mk)):
                np.testing.assert_array_equal(dw[k], dwk)
                np.testing.assert_array_equal(db[k], dbk)


def assert_bits_equal(actual, expected):
    """Equal float64 bit patterns: signed zeros and NaN payloads count."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def clamp_edge_probs(rng, shape):
    """Probabilities with cells exactly at and just inside the clamp band."""
    probs = rng.random(shape)
    edges = [0.0, PROB_CLAMP, 1.0 - PROB_CLAMP, 1.0,
             np.nextafter(PROB_CLAMP, 1.0), np.nextafter(1.0 - PROB_CLAMP, 0.0)]
    flat = probs.reshape(-1)
    flat[: len(edges)] = edges
    flat[-len(edges):] = edges
    return probs


class TestKernelsBitEqual:
    """The in-place step kernels against their plain forms in ``oracles``."""

    def test_sigmoid(self):
        special = np.array([0.0, -0.0, 700.0, -700.0, 1e308, -1e308, np.nan,
                            -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 37.0, -37.0])
        rng = np.random.default_rng(0)
        for z in (special, rng.standard_normal((3, 8, 5)) * 30.0):
            assert_bits_equal(_sigmoid(z), split_sigmoid(z))
        assert list(_sigmoid(np.array([-0.0, 0.0]))) == [0.5, 0.5]

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_forward_trace(self, lead):
        rng = np.random.default_rng(1)
        models = [small_model(seed=s, sizes=(4, 6, 5, 3)) for s in range(3)]
        model = Mlp.stack(models) if lead else models[0]
        x = rng.standard_normal((*lead, 9, 4)) * 4.0
        probs, activations = forward_trace(model, x)
        plain_probs, plain_activations = plain_forward_trace(model, x)
        assert_bits_equal(probs, plain_probs)
        assert len(activations) == len(plain_activations) == 4
        for a, b in zip(activations, plain_activations):
            assert_bits_equal(a, b)

    @pytest.mark.parametrize("shape", [(1, 7), (5, 7), (4, 5, 7)])
    def test_masked_bce(self, shape):
        rng = np.random.default_rng(2)
        probs = clamp_edge_probs(rng, shape)
        targets = rng.random(shape)
        targets.reshape(-1)[::5] = 0.0
        targets.reshape(-1)[1::5] = 1.0
        mask = rng.random(shape) < 0.6
        if shape[-2] > 1:
            mask[..., 1, :] = False  # rows with an empty mask
        assert_bits_equal(loss_of(probs, targets, mask),
                          where_masked_bce(probs, targets, mask))
        empty = np.zeros(shape, dtype=bool)
        assert_bits_equal(loss_of(probs, targets, empty),
                          where_masked_bce(probs, targets, empty))
        # non-finite probabilities in masked-out cells leave the loss alone
        out_cells = np.flatnonzero(~mask)[:3]
        probs.reshape(-1)[out_cells] = [np.nan, np.inf, -np.inf][: len(out_cells)]
        loss = loss_of(probs, targets, mask)
        assert np.isfinite(loss).all()
        assert_bits_equal(loss, where_masked_bce(probs, targets, mask))

    @pytest.mark.parametrize("shape", [(1, 7), (5, 7), (4, 5, 7)])
    def test_masked_bce_delta(self, shape):
        rng = np.random.default_rng(5)
        probs = clamp_edge_probs(rng, shape)
        targets = rng.random(shape)
        targets.reshape(-1)[::5] = 0.0
        targets.reshape(-1)[1::5] = 1.0
        mask = rng.random(shape) < 0.6
        if shape[-2] > 1:
            mask[..., 1, :] = False  # rows with an empty mask
            mask[..., 0, :] = np.arange(shape[-1]) == 6  # and with one label
        # non-finite probabilities in masked-out and in masked-in cells
        for cells in (np.flatnonzero(~mask)[:3], np.flatnonzero(mask)[2:5]):
            probs.reshape(-1)[cells] = [np.nan, np.inf, -np.inf][: len(cells)]
        for m in (mask, np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)):
            delta = np.full(shape, 7.0)  # every cell is written
            loss = masked_bce(probs, targets, m, delta)
            assert_bits_equal(loss, where_masked_bce(probs, targets, m))
            assert_bits_equal(delta, where_output_delta(probs, targets, m))
        with pytest.raises(ValueError, match="delta"):
            masked_bce(probs, targets, mask, np.empty((*shape, 1)))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_backward(self, lead):
        rng = np.random.default_rng(3)
        models = [small_model(seed=s, sizes=(4, 6, 5, 3)) for s in range(3)]
        model = Mlp.stack(models) if lead else models[0]
        x = rng.standard_normal((*lead, 11, 4)) * 2.0
        mask = rng.random((*lead, 11, 3)) < 0.6
        mask[..., 2, :] = False  # an empty row

        def check(targets, mask, probs_edit=None):
            probs, activations = forward_trace(model, x)
            if probs_edit is not None:
                probs = probs.copy()
                probs[..., :4, :] = probs_edit
                probs[..., 5, 0], probs[..., 6, 1] = np.nan, np.inf  # no gradient
            trace = (probs, activations)
            expected = where_backward(model, targets, mask, trace)
            delta = np.empty_like(probs)
            masked_bce(probs, targets, mask, delta)
            written = delta.copy()
            out = layer_views(np.zeros_like(model.params), model.layer_sizes)
            grads = backward(model, trace, delta, out)
            assert grads is out
            for (dw, db), (dw_ref, db_ref) in zip(grads, expected):
                assert_bits_equal(dw, dw_ref)
                assert_bits_equal(db, db_ref)
            assert_bits_equal(delta, written)  # backward leaves the delta as it is
            return expected

        check(rng.random((*lead, 11, 3)), mask, clamp_edge_probs(rng, (*lead, 4, 3)))
        # a hidden unit dead on every row, whose gated deltas are all -0.0
        # (zero targets make every output delta > 0, its outgoing weights
        # are < 0): its gradients are zeros, compared with their signs
        model.biases[1][..., 0] = -1e3
        model.weights[2][..., 0, :] = -np.abs(model.weights[2][..., 0, :])
        expected = check(np.zeros((*lead, 11, 3)), np.ones_like(mask))
        assert (expected[1][1][..., 0] == 0.0).all()
        assert (expected[1][0][..., 0] == 0.0).all()
        # an infinite weight out of the dead unit: its 0 * inf delta is NaN,
        # and the gate multiplies it by 0.0 instead of overwriting it
        model.weights[2][..., 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            expected = check(np.zeros((*lead, 11, 3)), np.ones_like(mask))
        assert np.isnan(expected[1][1][..., 0]).all()

    def test_adam_with_frozen_layers(self):
        rng = np.random.default_rng(4)
        cfg = OptimizerConfig()
        model = small_model(seed=5, sizes=(4, 6, 5, 3))
        plain = model.copy()
        (state, grads), plain_state = bound_adam(model), fresh_adam(plain)
        # every frozen prefix: freeze_all_but_last makes the last one
        patterns = [[False, False, False], [True, False, False], [True, True, False]]
        for step in range(50):
            pattern = patterns[step * len(patterns) // 50]
            if pattern != model.frozen:
                model.frozen = plain.frozen = pattern
                state.bind(model, grads)
            scale = 10.0 ** rng.integers(-9, 3)
            grads[:] = rng.standard_normal(model.params.shape) * scale
            grads[::7] = 0.0
            grads[1::7] = -0.0
            lr = 0.05 * 0.5 ** (step // 20)
            adam_step(state, cfg, lr)
            allocating_adam_step(plain, plain_state, grads, cfg, lr)
        assert state.t == plain_state.t == 50
        assert_bits_equal(model.params, plain.params)
        assert_bits_equal(state.m, plain_state.m)
        assert_bits_equal(state.v, plain_state.v)
        # frozen flags that are no prefix leave more than one trainable slice
        model.frozen = [False, True, False]
        with pytest.raises(ValueError, match="not a prefix"):
            state.bind(model, grads)


def checkpoint_payload(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(path, freeze_all_but_last(small_model(sizes=(4, 5, 3))))
    return path, json.loads(path.read_text())


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        model = freeze_all_but_last(small_model(seed=7))
        state, grads = bound_adam(model)
        for _ in range(3):
            x, targets, mask = random_batch(rng, model)
            gradients(model, x, targets, mask, grads)
            adam_step(state, OptimizerConfig(), lr=0.01)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, extra={"stage": "final"})
        back = load_checkpoint(path)
        assert json.loads(path.read_text())["extra"] == {"stage": "final"}
        assert back.frozen == model.frozen
        assert back.layer_sizes == model.layer_sizes
        np.testing.assert_array_equal(back.params, model.params)

    def test_byte_stable(self, tmp_path):
        model = small_model(seed=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, model)
        save_checkpoint(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_version_checked(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(path, small_model())
        text = path.read_text().replace('"format_version":1', '"format_version":99')
        path.write_text(text)
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["weights", "biases", "frozen", "layer_sizes"])
    def test_missing_key_named(self, tmp_path, key):
        path = tmp_path / "m.json"
        save_checkpoint(path, small_model())
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=rf"m\.json: checkpoint lacks key\(s\) \['{key}'\]"):
            load_checkpoint(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataFormatError, match="not a valid checkpoint"):
            load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json")
        with pytest.raises(DataFormatError, match="checkpoint"):
            load_checkpoint(path)

    def test_layer_chaining_validated(self, tmp_path):
        path, payload = checkpoint_payload(tmp_path)
        payload["weights"][1] = np.zeros((6, 3)).tolist()  # layer 0 has 5 outputs
        path.write_text(json.dumps(payload))
        with pytest.raises(
            DataFormatError, match=r"m\.json: weights\[1\] must be a \(5, 3\) array of finite"
        ):
            load_checkpoint(path)

    def test_recorded_layout_gives_the_expected_shapes(self, tmp_path):
        path, payload = checkpoint_payload(tmp_path)
        payload["layer_sizes"] = [4, 6, 3]  # over [4, 5, 3] weights
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=r"m\.json: weights\[0\] must be a \(4, 6\) array"):
            load_checkpoint(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"format_version":\xff1}')
        with pytest.raises(DataFormatError, match=r"m\.json: not a valid checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", [("weights", 1, 4, 2), ("biases", 0, 3)])
    def test_non_finite_cell_named(self, tmp_path, value, cell):
        path, payload = checkpoint_payload(tmp_path)
        *where, last = cell
        parent = payload
        for key in where:
            parent = parent[key]
        parent[last] = value
        path.write_text(json.dumps(payload))  # NaN, Infinity or -Infinity
        with pytest.raises(DataFormatError, match=rf"m\.json: {cell[0]}\[{cell[1]}\] must be"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(weights=5), r"weights must hold one entry per layer of \[4, 5, 3\]"),
            (lambda p: p.update(frozen=3), "frozen must hold one entry per layer"),
            (lambda p: p.update(weights=[], biases=[], frozen=[]), "frozen must hold one entry"),
            (lambda p: p["weights"][0][1].pop(), r"weights\[0\] must be a \(4, 5\) array of finite"),
            (lambda p: p["weights"][1][0].__setitem__(0, "0.5"), r"weights\[1\] must be a \(5, 3\)"),
            (lambda p: p["biases"].__setitem__(1, None), r"biases\[1\] must be a \(3,\) array"),
            (lambda p: p["biases"][0].pop(), r"biases\[0\] must be a \(5,\) array"),
            (lambda p: p["frozen"].pop(), r"frozen must hold one entry per layer of \[4, 5, 3\]"),
            (lambda p: p["frozen"].__setitem__(0, 1), "frozen flags must be true or false"),
            (lambda p: p.update(layer_sizes=[99]), "layer_sizes must be two or more integers >= 1"),
            (lambda p: p.update(layer_sizes=[True, 5, 3]), "layer_sizes must be two or more"),
            (lambda p: p["weights"][0][1].__setitem__(2, True), r"weights\[0\] must be a \(4, 5\)"),
            (lambda p: p["biases"][1].__setitem__(0, False), r"biases\[1\] must be a \(3,\)"),
        ],
        ids=["weights", "frozen", "no-layers", "ragged", "string", "null-bias",
             "short-bias", "flags", "flag-type", "layer-sizes", "layer-size-bool",
             "true-cell", "false-bias"],
    )
    def test_malformed_layout_named(self, tmp_path, edit, message):
        path, payload = checkpoint_payload(tmp_path)
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=rf"m\.json: .*{message}"):
            load_checkpoint(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)


class TestCheckpointProperties:
    @given(
        where=st.sampled_from(
            [("format_version",), ("layer_sizes",), ("extra",), ("frozen",), ("frozen", 1),
             ("weights",), ("weights", 1), ("weights", 0, 2), ("weights", 1, 0, 1),
             ("biases",), ("biases", 0), ("biases", 1, 0)]
        ),
        value=json_values,
    )
    @settings(max_examples=200, deadline=None)
    def test_any_field_loads_or_is_a_data_error(self, tmp_path_factory, where, value):
        path, payload = checkpoint_payload(tmp_path_factory.mktemp("c"))
        payload["extra"] = {"stage": "final"}  # every key a checkpoint holds
        parent = payload
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path.write_text(json.dumps(payload))
        try:
            model = load_checkpoint(path)
        except DataFormatError as exc:
            assert str(path) in str(exc)
        else:
            assert len(model.frozen) == model.n_layers
            assert model.params.dtype == np.float64


class TestModelProperties:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_loss_non_negative_and_finite(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model(seed=seed % 997)
        x, targets, mask = random_batch(rng, model)
        loss = loss_of(model.forward(x), targets, mask)
        assert loss >= 0.0 and math.isfinite(loss)
