"""Small feed-forward multi-label classifier with exact gradients.

Rectifier hidden layers, K independent sigmoid output units, masked
soft-target cross-entropy, hand-derived backprop, bias-corrected Adam,
and per-layer freezing.  Everything runs in float64 so gradient checks
and cross-run comparisons stay tight.

A model's parameters are one flat vector with per-layer views.  The
same ``Mlp`` over an (M, P) buffer is a member stack, which the forward
pass, the loss and backprop accept with a leading member axis; Adam
updates one member's trainable tail at a time, the slice of its flat
row after the frozen prefix of its layers.  Each kernel has the one
calling form the training engine uses: ``masked_bce`` writes the output
delta, ``backward`` propagates it from the forward trace into a gradient
buffer, and ``adam_step`` updates on the views ``AdamState.bind`` built
over the member's gradient row when the member entered its phase.  The
engine checks the whole (M, P) gradient buffer for finite values once a
pass, so the kernels check none.

Training runs thousands of steps on arrays of a few thousand cells, so
numpy's cost per call, not arithmetic, sets the step time.  The step
kernels therefore work in place and avoid boolean gathers, but perform
each formula's floating-point operations in the same order as its plain
form: sigmoid, loss, gradients and Adam updates are bit-equal to the
reference formulations in ``tests/oracles.py``, signed zeros included.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import seeding
from .csvio import replace_text
from .errors import DataFormatError

# Probabilities are clamped away from {0, 1} inside the loss so targets
# of 0/1 can never produce infinite cross-entropy.
PROB_CLAMP = 1e-7

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class OptimizerConfig:
    """Adam settings plus the learning-rate schedule and batch geometry.

    Defaults follow the usual Adam choices: beta1 0.9, beta2 0.999, base
    rate 1e-4 cut by 10x after each epoch, batch size 32.  ``iterations``
    and ``seed`` are parsed, validated and snapshotted into ``config.json``
    but steer nothing: a flat plan runs ``stage1_iterations +
    stage2_iterations`` steps, and every member seeds itself from the run
    seed.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    lr0: float = 1e-4
    epsilon: float = 1e-8
    decay_factor: float = 0.1
    batch_size: int = 32
    iterations: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.lr0 <= 0.0:
            raise ValueError("lr0 must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.decay_factor <= 0.0:
            raise ValueError("decay_factor must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


def lr_schedule(config: OptimizerConfig, epoch: int) -> float:
    """Learning rate for an epoch: lr0 * decay_factor ** epoch."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return config.lr0 * config.decay_factor**epoch


class Mlp:
    """Rectifier MLP with sigmoid outputs and per-layer freeze flags.

    All parameters live in one float64 vector ``params``, laid out layer
    by layer as W0, b0, W1, b1, ...; ``weights`` and ``biases`` are views
    into it.  ``params`` may also carry a leading member axis, (M, P):
    the model is then a stack of M same-shaped members trained together,
    whose layer views are (M, in, out) and (M, out) and whose rows are
    the members (see ``stack`` and ``member``).
    """

    def __init__(
        self,
        params: np.ndarray,
        layer_sizes: Sequence[int],
        frozen: Sequence[bool] | None = None,
    ):
        """Model over an existing (P,) vector or (M, P) stack, without copying."""
        self.params = params
        self.layer_sizes = tuple(layer_sizes)
        views = layer_views(params, self.layer_sizes)
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]
        self.frozen = list(frozen) if frozen is not None else [False] * len(views)

    @classmethod
    def stack(cls, models: Sequence["Mlp"]) -> "Mlp":
        """Member stack holding a copy of each model's parameters as one row."""
        sizes = models[0].layer_sizes
        if any(m.layer_sizes != sizes for m in models):
            raise ValueError("stacked members must share layer sizes")
        return cls(np.stack([m.params for m in models]), sizes, models[0].frozen)

    def member(self, k: int) -> "Mlp":
        """Row k of a member stack, as a model sharing the stack's memory."""
        return Mlp(self.params[k], self.layer_sizes, self.frozen)

    @classmethod
    def init(cls, layer_sizes: Sequence[int], seed: int) -> "Mlp":
        """Seed-deterministic uniform fan-in-scaled initialization.

        ``layer_sizes`` runs input dim, hidden dims..., output dim K.
        """
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        for i, size in enumerate(layer_sizes):
            if size < 1:
                raise ValueError(f"layer_sizes[{i}] must be >= 1, got {size}")
        rng = seeding.stream(seeding.PURPOSE_INIT, seed)
        sizes = zip(layer_sizes, layer_sizes[1:])
        model = cls(np.zeros(sum((a + 1) * b for a, b in sizes)), layer_sizes)
        for w in model.weights:  # biases stay zero
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        return model

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "Mlp":
        return Mlp(self.params.copy(), self.layer_sizes, self.frozen)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Probabilities in (0, 1) for an (N, F) batch."""
        return forward_trace(self, np.asarray(x, dtype=np.float64))[0]


def layer_views(
    params: np.ndarray, layer_sizes: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views into a (P,) vector or each row of an (M, P) stack."""
    lead = params.shape[:-1]
    views = []
    start = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        stop = start + fan_in * fan_out
        # splitting the unit-stride axis is always a view, never a copy
        w = params[..., start:stop].reshape(*lead, fan_in, fan_out)
        views.append((w, params[..., stop : stop + fan_out]))
        start = stop + fan_out
    return views


@functools.cache
def _trainable_tail(layer_sizes: tuple[int, ...], frozen: tuple[bool, ...]) -> slice:
    """The slice of ``params`` after the frozen layers, which must be a prefix."""
    n = sum(frozen)
    if frozen != (True,) * n + (False,) * (len(frozen) - n):
        raise ValueError(f"frozen layers {list(frozen)} are not a prefix of the model")
    return slice(sum((a + 1) * b for a, b in zip(layer_sizes, layer_sizes[1:n + 1])), None)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow or branches.

    With e = exp(-|z|) and d = 1 + e it is 1/d where z >= 0 and e/d
    elsewhere: the operations of 1/(1 + exp(-z)) for z >= 0 and
    exp(z)/(1 + exp(z)) below, so the result is bit-equal to that split
    by sign.  -|z| is taken as min(z, -z), which keeps a NaN's sign bit
    as the split's exp(z) does.
    """
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    return np.where(z >= 0.0, 1.0 / d, e / d)


def forward_trace(model: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sigmoid outputs plus per-layer post-activation values for backprop.

    ``x`` is (N, F) for a single model, or (M, N, F) for an (M, P) member
    stack, where member k's rows meet only member k's layers.  A stacked
    ``@`` computes each slice exactly as the 2-D product does, so every
    member's slice is bit-equal to its own single-model pass.  Inputs are
    not checked: features come from the checked reader or the generator.
    """
    if x.ndim != model.params.ndim + 1 or x.shape[-1] != model.input_dim:
        raise ValueError(
            f"input has shape {x.shape}, model expects (*, {model.input_dim})"
        )
    activations = [x]
    h = x
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w
        z += b[..., None, :]
        h = _sigmoid(z) if i == last else np.maximum(z, 0.0, out=z)
        activations.append(h)
    return h, activations


def masked_bce(
    probs: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    delta: np.ndarray,
) -> float | np.ndarray:
    """Masked soft-target cross-entropy, averaged per example.

    Per example: -(1/|mask|) * sum over masked-in labels of
    y*ln(p) + (1-y)*ln(1-p), with p clamped to [PROB_CLAMP, 1-PROB_CLAMP];
    0 when the example's mask is empty.  An (N, K) batch returns the mean
    over examples; an (M, N, K) member-stacked batch returns the (M,)
    per-member means.  ``delta``, an array of ``probs``' shape, receives
    the gradient of the returned loss with respect to the output logits,
    which ``backward`` propagates.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if probs.ndim < 2 or not probs.shape == targets.shape == mask.shape == delta.shape:
        raise ValueError(
            f"shape mismatch: probs {probs.shape}, targets {targets.shape}, "
            f"mask {mask.shape}, delta {delta.shape}; need (N, K) or (M, N, K)"
        )
    p = np.maximum(probs, PROB_CLAMP)
    np.minimum(p, 1.0 - PROB_CLAMP, out=p)
    terms = np.log(p)
    terms *= targets
    np.negative(p, out=p)
    np.log1p(p, out=p)
    p *= 1.0 - targets
    terms += p
    np.putmask(terms, ~mask, 0.0)
    counts = mask @ np.ones(mask.shape[-1])  # exact float64 integers
    safe_counts = np.maximum(counts, 1.0)
    per_example = np.add.reduce(terms, axis=-1)
    np.negative(per_example, out=per_example)
    per_example /= safe_counts
    per_example[counts == 0.0] = 0.0
    loss = np.add.reduce(per_example, axis=-1) / per_example.shape[-1]  # the mean
    # The delta is (p - y) / (max(counts, 1) * N) inside the clamp band, 0
    # where clamped (the clamped loss is flat there) or masked out.  The
    # band test is PROB_CLAMP < p < 1 - PROB_CLAMP, so a NaN p is zeroed too.
    np.subtract(probs, targets, out=delta)
    kept = probs > PROB_CLAMP
    kept &= probs < 1.0 - PROB_CLAMP
    kept &= mask
    np.putmask(delta, ~kept, 0.0)
    # an empty row's delta is all zeros, so its scale only has to be finite
    delta *= (1.0 / (safe_counts * probs.shape[-2]))[..., None]
    return loss


def backward(
    model: Mlp,
    trace: tuple[np.ndarray, list[np.ndarray]],
    delta: np.ndarray,
    out: list[tuple[np.ndarray, np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradients of masked_bce w.r.t. every parameter, into ``out``.

    ``trace`` is the ``forward_trace`` result whose probabilities
    ``masked_bce`` scored, and ``delta`` the output delta it wrote; backward
    propagates that delta and leaves it unchanged.  ``out`` holds one
    (dW, db) pair of arrays per layer, such as ``layer_views`` of a
    gradient buffer, and is returned filled.  A member stack takes (M, N, *)
    traces and (M, in, out) and (M, out) arrays.  Frozen layers still get
    gradients; freezing acts at the update.
    """
    activations = trace[1]
    for i in range(model.n_layers - 1, -1, -1):
        dw, db = out[i]
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=dw)
        np.add.reduce(delta, axis=-2, out=db)
        if i > 0:
            delta = delta @ model.weights[i].swapaxes(-1, -2)
            # the ReLU gate as 1.0/0.0: a float factor skips a cast per call
            delta *= np.greater(activations[i], 0.0, out=np.empty_like(delta))
    return out


@dataclass
class AdamState:
    """First/second moments in the layout of ``params``, plus the step count.

    ``views`` holds the update's views, which ``bind`` builds; it is None
    until then.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    views: tuple | None = field(default=None, repr=False, compare=False)

    def bind(self, model: Mlp, grads: np.ndarray) -> None:
        """Build the views ``adam_step`` updates on.

        Over the model's trainable tail, the layers after its frozen
        prefix: views of the params, both moments and ``grads``, and two
        scratch vectors of the tail's length.  ``grads`` is a flat gradient
        vector in the layout of ``model.params``, which the caller refills
        before each step and checks for finite values itself.  Bind again
        after the model's frozen flags change; frozen flags that are not a
        prefix raise ``ValueError``.
        """
        tail = _trainable_tail(model.layer_sizes, tuple(model.frozen))
        params = model.params[tail]
        self.views = (params, self.m[tail], self.v[tail], grads[tail], *np.empty((2, params.size)))


def adam_step(state: AdamState, config: OptimizerConfig, lr: float) -> None:
    """One bias-corrected Adam update in place; frozen layers untouched.

    The update runs on the views and scratch ``AdamState.bind`` built, so
    it reads the gradients the bound array holds now and checks nothing:
    the training engine binds each member's gradient row as the member
    enters a phase, and checks the pass's whole gradient buffer once
    before any member's step.  It is a few in-place vector operations
    over the trainable tail, however many layers the tail covers.  Its
    results are bit-equal to the textbook form
    m_hat = m / (1 - beta1**t), v_hat = v / (1 - beta2**t),
    params -= lr * m_hat / (sqrt(v_hat) + epsilon).
    """
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    if state.views is None:
        raise ValueError("Adam state is not bound to a gradient array")
    state.t += 1
    beta1, beta2 = config.beta1, config.beta2
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    params, m, v, g, step, denom = state.views
    np.multiply(1.0 - beta1, g, out=step)
    m *= beta1
    m += step
    np.multiply(g, g, out=step)
    step *= 1.0 - beta2
    v *= beta2
    v += step
    np.divide(m, bc1, out=step)  # m_hat
    step *= lr
    np.divide(v, bc2, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += config.epsilon
    step /= denom
    params -= step


def freeze_all_but_last(model: Mlp) -> Mlp:
    """Mark every layer frozen except the final one (in place)."""
    model.frozen = [True] * (model.n_layers - 1) + [False]
    return model


# ---------------------------------------------------------------------------
# Checkpoints: versioned JSON with nested float lists.  json emits the
# shortest round-tripping decimal form of each float64, so saved files
# are byte-stable and reload bit-exactly.


def save_checkpoint(path: str | Path, model: Mlp, extra: dict | None = None) -> None:
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "frozen": list(model.frozen),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    if extra:
        payload["extra"] = extra
    replace_text(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path: str | Path) -> Mlp:
    """The model a checkpoint holds, read by the layout it records; any
    departure from that layout is a ``DataFormatError`` naming the file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise DataFormatError(f"{path}: not a valid checkpoint: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: not a valid checkpoint: not a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported checkpoint format version {version!r}"
        )
    missing = [
        key for key in ("weights", "biases", "frozen", "layer_sizes") if key not in payload
    ]
    if missing:
        raise DataFormatError(f"{path}: checkpoint lacks key(s) {missing}")
    sizes = payload["layer_sizes"]
    # by type: a JSON true equals 1, and 4.0 equals 4
    if not isinstance(sizes, list) or len(sizes) < 2 or any(
        type(size) is not int or size < 1 for size in sizes
    ):
        raise DataFormatError(f"{path}: layer_sizes must be two or more integers >= 1")
    for key in ("frozen", "weights", "biases"):
        if not isinstance(payload[key], list) or len(payload[key]) != len(sizes) - 1:
            raise DataFormatError(f"{path}: {key} must hold one entry per layer of {sizes}")
    if not all(isinstance(f, bool) for f in payload["frozen"]):
        raise DataFormatError(f"{path}: frozen flags must be true or false")
    params = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        params.append(_numbers(path, f"weights[{i}]", payload["weights"][i], (fan_in, fan_out)))
        params.append(_numbers(path, f"biases[{i}]", payload["biases"][i], (fan_out,)))
    return Mlp(np.concatenate(params), sizes, payload["frozen"])


def _numbers(path: Path, what: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """A checkpoint field that must be a ``shape`` array of finite numbers, as flat float64.

    A JSON ``true`` or ``false`` is not a number, though ``np.array`` takes
    it for one beside numbers.
    """
    try:
        array = np.array(value)
    except ValueError:  # ragged nesting
        array = None
    if (
        array is None
        or array.shape != shape
        or array.dtype.kind not in "iuf"
        or any(bool in set(map(type, row)) for row in (value if len(shape) == 2 else [value]))
        or not np.isfinite(array).all()
    ):
        raise DataFormatError(f"{path}: {what} must be a {shape} array of finite numbers")
    return array.astype(np.float64, copy=False).ravel()
