"""Independent reference implementations used to check the package.

Everything here recomputes results by a different method than the code
under test: exhaustive enumeration over joint label assignments, O(n^2)
pair counting, per-threshold confusion matrices, high-precision
summation, central finite differences, a standalone scalar Adam
recurrence, a one-model-at-a-time training loop, the step kernels in
their plain allocating forms, one numpy stream per row for keyed draws,
and one ``csv.writer.writerow`` call per CSV row.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from hiermlc.hierarchy import LabelTree, build_tree
from hiermlc import seeding
from hiermlc.model import PROB_CLAMP, AdamState, Mlp, OptimizerConfig


def enumerate_marginals(tree: LabelTree, cond: np.ndarray) -> np.ndarray:
    """Per-label marginals by summing over all 2^K joint assignments.

    The joint factorizes node by node: given a positive parent a node is
    positive with probability cond[k], and a negative parent forces the
    node negative.
    """
    k_total = tree.K
    marginals = np.zeros(k_total)
    for bits in itertools.product((0, 1), repeat=k_total):
        p = 1.0
        for k in range(k_total):
            parent = int(tree.parent_index[k])
            if parent == -1 or bits[parent] == 1:
                p *= cond[k] if bits[k] else 1.0 - cond[k]
            elif bits[k] == 1:
                p = 0.0
                break
        if p > 0.0:
            for k in range(k_total):
                if bits[k]:
                    marginals[k] += p
    return marginals


def random_forest(rng: np.random.Generator, k: int) -> LabelTree:
    """Random forest over k nodes with shuffled dense indices.

    Parents are drawn from earlier-created nodes, so a parent's index can
    exceed its child's; construction order never leaks into indices.
    """
    perm = rng.permutation(k)
    records = []
    created: list[str] = []
    for j in range(k):
        name = f"n{perm[j]}"
        parent = None
        if j > 0 and rng.random() < 0.7:
            parent = created[int(rng.integers(j))]
        records.append((name, parent, int(perm[j])))
        created.append(name)
    return build_tree(records)


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank statistic by explicit pair counting: wins plus half-ties."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    doubled = 0
    for a in pos:
        for b in neg:
            if a > b:
                doubled += 2
            elif a == b:
                doubled += 1
    return doubled / (2 * len(pos) * len(neg))


def roc_by_confusion(scores: np.ndarray, labels: np.ndarray):
    """(fpr, tpr) per distinct descending threshold, from scratch."""
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    points = [(0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        points.append((fp / n_neg, tp / n_pos))
    return points


def finite_difference_grads(
    model: Mlp, x: np.ndarray, targets: np.ndarray, mask: np.ndarray, h: float
):
    """Central-difference loss gradients for every weight and bias."""

    def loss_at(m: Mlp) -> float:
        return where_masked_bce(plain_forward_trace(m, x)[0], targets, mask)

    grads = []
    for i in range(model.n_layers):
        dw = np.zeros_like(model.weights[i])
        for r in range(dw.shape[0]):
            for c in range(dw.shape[1]):
                up = model.copy()
                up.weights[i][r, c] += h
                down = model.copy()
                down.weights[i][r, c] -= h
                dw[r, c] = (loss_at(up) - loss_at(down)) / (2 * h)
        db = np.zeros_like(model.biases[i])
        for c in range(db.shape[0]):
            up = model.copy()
            up.biases[i][c] += h
            down = model.copy()
            down.biases[i][c] -= h
            db[c] = (loss_at(up) - loss_at(down)) / (2 * h)
        grads.append((dw, db))
    return grads


def max_relative_gradient_error(analytic, numeric) -> float:
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def scalar_adam(
    grad_of,
    w0: float,
    lr: float,
    steps: int,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Textbook bias-corrected Adam on a single parameter, in pure Python."""
    w, m, v = w0, 0.0, 0.0
    history = []
    for t in range(1, steps + 1):
        g = grad_of(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w -= lr * m_hat / (v_hat**0.5 + eps)
        history.append(w)
    return w, history


# ---------------------------------------------------------------------------
# Step kernels in their plain forms: a sigmoid split by sign with boolean
# gathers, np.where masking, a fresh array for every intermediate.


def split_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def plain_forward_trace(model: Mlp, x: np.ndarray):
    activations = [x]
    h = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b[..., None, :]
        h = split_sigmoid(z) if i == model.n_layers - 1 else np.maximum(z, 0.0)
        activations.append(h)
    return h, activations


def where_masked_bce(probs: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    terms = targets * np.log(p) + (1.0 - targets) * np.log1p(-p)
    counts = mask.sum(axis=-1)
    safe = np.maximum(counts, 1)
    per_example = -np.where(mask, terms, 0.0).sum(axis=-1) / safe
    per_example[counts == 0] = 0.0
    return per_example.mean(axis=-1)


def where_output_delta(probs: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """The loss's gradient w.r.t. the (N, K) or (M, N, K) output logits,
    masked with np.where."""
    n = probs.shape[-2]
    counts = mask.sum(axis=-1)
    scale = np.zeros(counts.shape)
    nonzero = counts > 0
    scale[nonzero] = 1.0 / (counts[nonzero] * n)
    unclamped = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    return np.where(mask & unclamped, probs - targets, 0.0) * scale[..., None]


def where_backward(model: Mlp, targets: np.ndarray, mask: np.ndarray, trace):
    """Gradients from a forward trace, masking the delta with np.where."""
    probs, activations = trace
    delta = where_output_delta(probs, targets, mask)
    grads = [None] * model.n_layers
    for i in range(model.n_layers - 1, -1, -1):
        grads[i] = (activations[i].swapaxes(-1, -2) @ delta, np.sum(delta, axis=-2))
        if i > 0:
            w_t = model.weights[i].swapaxes(-1, -2)
            delta = (delta @ w_t) * (activations[i] > 0.0)
    return grads


def allocating_adam_step(
    model: Mlp, state: AdamState, grads: np.ndarray, config: OptimizerConfig, lr: float
) -> None:
    """The textbook update on each unfrozen layer, one fresh array per term."""
    state.t += 1
    bc1 = 1.0 - config.beta1**state.t
    bc2 = 1.0 - config.beta2**state.t
    start = 0
    sizes = model.layer_sizes
    for fan_in, fan_out, frozen in zip(sizes, sizes[1:], model.frozen):
        stop = start + (fan_in + 1) * fan_out
        if not frozen:
            g, m, v = grads[start:stop], state.m[start:stop], state.v[start:stop]
            m[:] = config.beta1 * m + (1.0 - config.beta1) * g
            v[:] = config.beta2 * v + (1.0 - config.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            model.params[start:stop] -= lr * m_hat / (np.sqrt(v_hat) + config.epsilon)
        start = stop


def sequential_training(
    model: Mlp,
    features: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    optimizer: OptimizerConfig,
    iterations: int,
    seed: int,
) -> list[tuple[int, float]]:
    """One model, one batch at a time, through the plain kernels above.

    Calls no training kernel of ``hiermlc.model``: each step runs
    ``plain_forward_trace``, ``where_masked_bce``, ``where_backward`` and
    ``allocating_adam_step`` on freshly allocated arrays.  Returns
    (epoch, mean step loss) rows; the model is updated in place.
    """
    n = features.shape[0]
    epoch_len = math.ceil(n / optimizer.batch_size)
    state = AdamState(m=np.zeros_like(model.params), v=np.zeros_like(model.params))
    rows_out: list[tuple[int, float]] = []
    losses: list[float] = []
    for step in range(iterations):
        epoch, pos = divmod(step, epoch_len)
        if pos == 0:
            if losses:
                rows_out.append((epoch - 1, float(np.mean(losses))))
            losses = []
            order = seeding.stream(seeding.PURPOSE_SHUFFLE, seed, epoch).permutation(n)
        rows = order[pos * optimizer.batch_size : (pos + 1) * optimizer.batch_size]
        x, t, m = features[rows], targets[rows], mask[rows]
        trace = plain_forward_trace(model, x)
        losses.append(where_masked_bce(trace[0], t, m))
        grads = where_backward(model, t, m, trace)
        flat = np.concatenate([a.ravel() for pair in grads for a in pair])
        lr = optimizer.lr0 * optimizer.decay_factor**epoch
        allocating_adam_step(model, state, flat, optimizer, lr)
    if losses:
        rows_out.append((epoch, float(np.mean(losses))))
    return rows_out


# ---------------------------------------------------------------------------
# Keyed per-row draws, one SeedSequence/PCG64 stream per row


def per_row_uniforms(purpose: int, seed: int, rows, n_cols: int) -> np.ndarray:
    out = np.empty((len(rows), n_cols))
    for i, row in enumerate(rows):
        out[i] = seeding.stream(purpose, seed, int(row)).random(n_cols)
    return out


def per_row_lsr_targets(labels: np.ndarray, lower: float, upper: float, seed: int):
    """Smoothed-policy targets for UNC cells, drawing row by row."""
    targets = (labels == 1).astype(np.float64)
    unc = labels == -1
    for row in np.flatnonzero(unc.any(axis=1)):
        u = seeding.stream(seeding.PURPOSE_LSR, seed, int(row)).random(labels.shape[1])
        targets[row, unc[row]] = lower + (upper - lower) * u[unc[row]]
    return targets


def per_row_injection(labels: np.ndarray, rate: float, seed: int) -> np.ndarray:
    labels = labels.copy()
    u = per_row_uniforms(
        seeding.PURPOSE_UNC_INJECT, seed, range(labels.shape[0]), labels.shape[1]
    )
    for row in range(labels.shape[0]):
        labels[row, (u[row] < rate) & (labels[row] != -2)] = -1
    return labels


# ---------------------------------------------------------------------------
# CSV writers, one csv.writer.writerow call per row


class _writer:
    """``csv.writer`` rows ending in "\\n" whose fields holding a carriage
    return are quoted as well: each row is written with the excel
    dialect's "\\r\\n" line end, around which ``csv.writer`` quotes both
    characters, and that line end is then swapped for "\\n"."""

    def __init__(self, fh):
        self.fh = fh

    def writerow(self, row) -> None:
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        self.fh.write(buf.getvalue()[:-2] + "\n")


def writerow_features_csv(path, features, ids) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(features.shape[1])])
        for i, row_id in enumerate(ids):
            writer.writerow([row_id] + [repr(float(v)) for v in features[i]])


def writerow_label_rows(path, header, ids, labels) -> None:
    """A header, then per row its id, where there are ``ids``, and each
    label code's cell."""
    cell = {1: "1.0", 0: "0.0", -1: "-1.0", -2: ""}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _writer(fh)
        writer.writerow(header)
        for i in range(labels.shape[0]):
            row = [] if ids is None else [ids[i]]
            writer.writerow(row + [cell[int(v)] for v in labels[i]])


def writerow_labels_csv(path, labels, tree, ids) -> None:
    writerow_label_rows(path, ["id", *tree.names], ids, labels)


def writerow_predictions_csv(path, ids, probs, label_names) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _writer(fh)
        writer.writerow(["id"] + list(label_names))
        for i, row_id in enumerate(ids):
            writer.writerow([row_id] + [repr(float(p)) for p in probs[i]])


def writerow_roc_points_csv(path, curve) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _writer(fh)
        writer.writerow(["fpr", "tpr", "threshold"])
        for f, t, c in zip(curve.fpr, curve.tpr, curve.thresholds):
            cut = "" if np.isnan(c) else repr(float(c))
            writer.writerow([repr(float(f)), repr(float(t)), cut])
