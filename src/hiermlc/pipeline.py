"""Training orchestration: the synthetic split, conditional two-stage
runs, flat baseline, ensembling, and the hierarchical ablation harness.

Stage 1 trains every label only on rows where all its ancestor labels
are positive (per-label loss masking), so sigmoid heads estimate
conditional probabilities.  Stage 2 freezes everything but the last
layer and retrains on the full dataset to recover unconditional parent
behaviour.  An ensemble is a plain list of members: inference multiplies
each one's conditionals down the hierarchy and averages the outputs.

One engine, ``_train_stack``, runs every training step over a member
stack: an ``Mlp`` whose parameters are one (M, P) float64 buffer, with
(M, P) gradients and Adam moments beside it.  Members may differ in
dataset, plan and seed, and share the row count, the optimizer and the
step budget ``stage1_iterations + stage2_iterations``, which they walk in
lockstep.  A conditional member enters stage 2 at ``stage1_iterations``
alone: snapshot, policy mask, frozen hidden layers, fresh Adam moments
bound to its gradient row, epochs counted from 0 again.  Epochs,
learning rates, shuffle orders and loss rows are per member.  Each step
gathers every member's own batch as (M, B, F) with one ``take`` from the
(S, N, F) stack of the distinct feature matrices, runs one stacked
forward pass, one ``masked_bce`` that also writes the output delta, one
``backward`` that propagates it, one finiteness check of the pass's
whole gradient buffer, and one ``adam_step`` per member row on the views
bound at the member's phase entry.  A non-finite loss or gradient stops
the run before any member of the pass moves.  Once every member is in
stage 2, the stack's hidden layers count as frozen, and ``backward``
computes only the last layer's gradients, which are all that Adam
reads: a gradient overflow that would be confined to a frozen layer no
longer stops stage 2, because that gradient is not computed.
An epoch's last batch is short when the batch size does not divide N, so
at a ragged step, where members' batch lengths differ, one pass runs per
length: padding would change the loss divisor and the reduction lengths.
A stacked ``@`` gives each member the bits of its own 2-D products and
every reduction keeps its per-member order, so member k's weights and
loss rows do not depend on which members train beside it.
``train_members`` is the only entry to the engine and the only code that
knows the recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from . import seeding
from .data import (
    POS,
    Dataset,
    SyntheticSpec,
    conditional_mask,
    generate_synthetic,
    inject_uncertainty,
)
from .errors import DataFormatError, NumericError
from .hierarchy import LabelTree, propagate
from .model import (
    AdamState,
    Mlp,
    OptimizerConfig,
    adam_step,
    backward,
    forward_trace,
    freeze_all_but_last,
    layer_views,
    lr_schedule,
    masked_bce,
)
from .policy import UncertaintyPolicy, apply_policy

LossLog = list[tuple[str, int, float]]


def synthetic_split(
    spec: SyntheticSpec, n_train: int, n_eval: int, uncertainty_rate: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Train and held-out rows of one generator pass, without row ids.

    The first ``n_train`` rows train, with uncertainty injected into a
    copy of their labels; the next ``n_eval`` are held out untouched.
    Each split's features, and the held-out labels, are row-slice views
    of the pass's matrices.  ``gen`` and the ablation harness draw their
    synthetic data here.
    """
    full = generate_synthetic(spec, n_train + n_eval, seed)
    x, y = full.features, full.labels
    train = inject_uncertainty(Dataset(x[:n_train], y[:n_train], None), uncertainty_rate, seed)
    return train, Dataset(x[n_train:], y[n_train:], None)


@dataclass
class TrainPlan:
    """What one training run does: policy, optimizer, stage budgets.

    A conditional plan runs ``stage1_iterations`` masked steps, then
    ``stage2_iterations`` steps of the last layer alone; a flat plan runs
    one stage of ``stage1_iterations + stage2_iterations`` steps, so both
    modes get the same update budget.
    """

    policy: UncertaintyPolicy
    optimizer: OptimizerConfig
    stage1_iterations: int = 1000
    stage2_iterations: int = 500
    conditional: bool = True


class _Phase(NamedTuple):
    """Part of one member's run: stage name, first global step, (N, K)
    loss mask, and whether entering it snapshots and freezes the member."""

    stage: str
    start: int
    mask: np.ndarray
    freeze: bool = False


def _train_stack(
    stack: Mlp,
    features: np.ndarray,
    source_of: np.ndarray,
    targets: np.ndarray,
    phases: Sequence[Sequence[_Phase]],
    seeds: Sequence[int],
    optimizer: OptimizerConfig,
    budget: int,
) -> tuple[list[Mlp], list[Mlp | None], list[LossLog]]:
    """Seed-deterministic mini-batch loop over a member stack, in place.

    Member k trains on ``features[source_of[k]]``, one matrix of the
    (S, N, F) stack ``features``, against ``targets[k]`` for ``budget``
    steps through ``phases[k]``; its learning rate and shuffle order
    change at its own epoch boundaries (epoch = ceil(N / batch_size)
    steps).  Returns the members, their snapshots
    and their (stage, epoch, mean step loss) rows.
    """
    n_members, n = targets.shape[:2]
    batch = optimizer.batch_size
    epoch_len = math.ceil(n / batch)
    members = [stack.member(k) for k in range(n_members)]
    snapshots: list[Mlp | None] = [None] * n_members
    logs: list[LossLog] = [[] for _ in range(n_members)]
    mask = np.empty(targets.shape, dtype=bool)
    grads = np.zeros_like(stack.params)
    grad_views = layer_views(grads, stack.layer_sizes)
    moments = np.zeros((2, *stack.params.shape))
    states = [AdamState(m=moments[0, k], v=moments[1, k]) for k in range(n_members)]
    # Batches are gathered by ``take`` from 2-D views.  Member k's row r
    # is row k*n + r of the flat targets and mask, which its shuffle order
    # holds, and row source_of[k]*n + r of the flat features, which
    # ``feature_rows[k]`` holds; both are set at each of its epochs.
    orders = np.empty((n_members, n), dtype=np.int64)
    feature_rows = np.empty_like(orders)
    flat_features = features.reshape(-1, features.shape[-1])
    flat_targets = targets.reshape(-1, targets.shape[-1])
    flat_mask = mask.reshape(-1, mask.shape[-1])
    losses = np.empty((n_members, epoch_len))
    pending = [list(p) for p in phases]
    stage = [""] * n_members
    start = [0] * n_members  # global step the current phase began at
    epoch = [-1] * n_members
    lr = [0.0] * n_members
    pos = np.zeros(n_members, dtype=np.intp)  # steps taken in the current epoch

    def flush(k: int) -> None:
        if epoch[k] >= 0 and pos[k]:
            logs[k].append((stage[k], epoch[k], float(losses[k, : pos[k]].mean())))

    def enter(k: int, step: int) -> None:
        phase = pending[k].pop(0)
        flush(k)
        if phase.freeze:
            snapshots[k] = members[k].copy()
            freeze_all_but_last(members[k])
            # the stack's layer counts as frozen only once every member's is
            stack.frozen = [all(f) for f in zip(*(m.frozen for m in members))]
        if not phase.mask.any():
            raise DataFormatError(
                f"{phase.stage}: empty effective training signal (all cells masked out)"
            )
        mask[k] = phase.mask
        moments[:, k] = 0.0
        states[k].t = 0
        states[k].bind(members[k], grads[k])
        stage[k], start[k], epoch[k] = phase.stage, step, -1

    def reject(what: str, group: list[int], finite: np.ndarray, step: int) -> NoReturn:
        k = group[int(np.argmin(finite))]  # the first member with a non-finite row
        raise NumericError(f"{stage[k]}: non-finite {what} at step {step - start[k]}")

    def run_pass(
        group: list[int], idx: np.ndarray, cols: np.ndarray, delta: np.ndarray, step: int
    ) -> None:
        """One stacked step of the members ``group`` (``idx`` as an (M, 1)
        array), whose batches are columns ``cols`` of their shuffle orders;
        ``delta`` takes the output delta."""
        rows = orders[idx, cols]
        model, g, views = stack, grads, grad_views
        if len(group) < n_members:
            model = Mlp(stack.params[group], stack.layer_sizes, stack.frozen)
            # zeroed: backward leaves frozen layers' slots unwritten, and
            # the finiteness check below reads the whole buffer (``grads``
            # keeps there values that an earlier check passed, or zeros)
            g = np.zeros_like(model.params)
            views = layer_views(g, model.layer_sizes)
        x = flat_features.take(feature_rows[idx, cols], axis=0)
        t = flat_targets.take(rows, axis=0)
        m = flat_mask.take(rows, axis=0)
        trace = forward_trace(model, x)
        loss = masked_bce(trace[0], t, m, delta)
        if not np.isfinite(loss).all():
            reject("loss", group, np.isfinite(loss), step)
        backward(model, trace, delta, views)
        if not np.isfinite(g).all():
            reject("gradient", group, np.isfinite(g).all(axis=-1), step)
        if g is not grads:
            grads[group] = g
        for k in group:
            adam_step(states[k], optimizer, lr[k])
        losses[idx, pos[idx]] = loss[:, None]
        cols += batch

    # Members enter a phase or an epoch, or take a short last batch, only
    # at events; in between, every group steps on through its orders.
    groups: list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]] = []
    next_event = 0
    for step in range(budget + 1):
        if step == next_event:
            for k in range(n_members):
                while pending[k] and pending[k][0].start == step:
                    enter(k, step)
            if step == budget:
                break
            next_event = budget
            lengths = [0] * n_members
            for k in range(n_members):
                e, p = divmod(step - start[k], epoch_len)
                if e != epoch[k]:
                    flush(k)
                    epoch[k], lr[k] = e, lr_schedule(optimizer, e)
                    if lr[k] == 0.0:
                        msg = f"{stage[k]}: learning rate underflowed to 0 at epoch {e}"
                        raise NumericError(msg)
                    # keyed by epoch only: a flat run and a staged run over
                    # the same data walk identical batch sequences
                    perm = seeding.stream(seeding.PURPOSE_SHUFFLE, seeds[k], e).permutation(n)
                    orders[k] = perm + k * n
                    feature_rows[k] = perm + source_of[k] * n
                pos[k], lengths[k] = p, min(batch, n - p * batch)
                # the member's next event: its next phase or epoch, or the
                # short last batch of this epoch when batch does not divide N
                left = epoch_len - p - (n % batch > 0 and p < epoch_len - 1)
                next_event = min(next_event, step + left, *(f.start for f in pending[k]))
            groups = []
            for length in sorted(set(lengths)):
                group = [k for k in range(n_members) if lengths[k] == length]
                idx = np.array(group)[:, None]
                cols = pos[idx] * batch + np.arange(length)
                delta = np.empty((len(group), length, targets.shape[-1]))
                groups.append((group, idx, cols, delta))
        for group, idx, cols, delta in groups:
            run_pass(group, idx, cols, delta, step)
        pos += 1
    for k in range(n_members):
        flush(k)
    return members, snapshots, logs


@dataclass
class MemberResult:
    """One trained ensemble member plus its stage-1 snapshot and loss rows."""

    final: Mlp
    stage1: Mlp | None
    loss_log: LossLog
    seed: int


def member_seed(base_seed: int, index: int) -> int:
    """Decorrelated per-member seed derived from the run seed."""
    return int(
        seeding.stream(seeding.PURPOSE_MEMBER, base_seed, index).integers(1 << 62)
    )


def train_members(
    dataset: Dataset | Sequence[Dataset],
    tree: LabelTree,
    plan: TrainPlan | Sequence[TrainPlan],
    hidden_sizes: Sequence[int],
    seeds: Sequence[int],
) -> list[MemberResult]:
    """Train one member per seed from scratch, all in one member stack.

    ``dataset`` and ``plan`` are shared by every member or list one per
    seed; the members must share the feature matrix shape, the optimizer
    and the step budget.  Member k initializes, draws its targets and
    shuffles under ``seeds[k]`` alone, so its result is the same whichever
    members train beside it.  Each member's targets are prepared once and
    shared by both stages.
    """
    n_members = len(seeds)
    datasets = [dataset] * n_members if isinstance(dataset, Dataset) else list(dataset)
    plans = [plan] * n_members if isinstance(plan, TrainPlan) else list(plan)
    if len(datasets) != n_members or len(plans) != n_members:
        raise ValueError("need one dataset and one plan per seed")
    if not seeds:
        return []
    budget = plans[0].stage1_iterations + plans[0].stage2_iterations
    shape = datasets[0].features.shape
    if any(d.features.shape != shape for d in datasets):
        raise ValueError("stacked members must share the feature matrix shape")
    if any(p.optimizer != plans[0].optimizer for p in plans):
        raise ValueError("stacked members must share the optimizer settings")
    if any(p.stage1_iterations + p.stage2_iterations != budget for p in plans):
        raise ValueError("stacked members must share the step budget")
    sources = list({id(d): d for d in datasets}.values())  # distinct, by identity
    source_of = np.array([[id(s) for s in sources].index(id(d)) for d in datasets])

    stack = Mlp.stack([Mlp.init([shape[1], *hidden_sizes, tree.K], s) for s in seeds])
    targets = np.empty((n_members, shape[0], tree.K))
    phases: list[list[_Phase]] = []
    for k, (d, p, s) in enumerate(zip(datasets, plans, seeds)):
        targets[k], policy_mask = apply_policy(d.labels, p.policy, s)
        if p.conditional:
            stage1_mask = policy_mask & conditional_mask(d.labels, tree)
            phases.append([
                _Phase("stage1", 0, stage1_mask),
                _Phase("stage2", p.stage1_iterations, policy_mask, freeze=True),
            ])
        else:
            phases.append([_Phase("flat", 0, policy_mask)])
    # one source is a view, so the stack costs no copy of a large matrix
    if len(sources) == 1:
        features = sources[0].features[None]
    else:
        features = np.stack([s.features for s in sources])
    members, snapshots, logs = _train_stack(
        stack, features, source_of, targets, phases, seeds, plans[0].optimizer, budget
    )
    return [
        MemberResult(members[k], snapshots[k], logs[k], s) for k, s in enumerate(seeds)
    ]


def train_member(
    dataset: Dataset,
    tree: LabelTree,
    plan: TrainPlan,
    hidden_sizes: Sequence[int],
    seed: int,
) -> MemberResult:
    """Train one member from scratch under its own seed."""
    return train_members(dataset, tree, plan, hidden_sizes, [seed])[0]


def train_ensemble(
    dataset: Dataset,
    tree: LabelTree,
    plan: TrainPlan,
    hidden_sizes: Sequence[int],
    base_seed: int,
    size: int,
) -> list[MemberResult]:
    """Train ``size`` members with seeds derived from ``base_seed``."""
    seeds = [member_seed(base_seed, i) for i in range(size)]
    return train_members(dataset, tree, plan, hidden_sizes, seeds)


def predict_unconditional(members: Sequence[Mlp], tree: LabelTree, x: np.ndarray) -> np.ndarray:
    """Mean over one or more members of the propagated probabilities."""
    return _member_mean(propagate(tree, member.forward(x)) for member in members)


def predict_flat(members: Sequence[Mlp], x: np.ndarray) -> np.ndarray:
    """Mean over one or more members of the raw outputs, as flat training means them."""
    return _member_mean(member.forward(x) for member in members)


def _member_mean(outputs: Iterator[np.ndarray]) -> np.ndarray:
    """The mean of fresh per-member arrays, summed in place in member
    order: the bits of ``np.mean`` over their stack, without the stack."""
    total, count = next(outputs), 1
    for out in outputs:
        total += out
        count += 1
    total /= count
    return total


# ---------------------------------------------------------------------------
# Hierarchical ablation: conditional two-stage + smoothing + propagation
# against the flat hard-ones baseline, averaged over seeds.


@dataclass
class AblationResult:
    """Per-seed and mean leaf AUCs for both arms, plus the signed delta."""

    leaf_names: tuple[str, ...]
    conditional_by_seed: list[float]
    flat_by_seed: list[float]

    @property
    def mean_conditional(self) -> float:
        return float(np.mean(self.conditional_by_seed))

    @property
    def mean_flat(self) -> float:
        return float(np.mean(self.flat_by_seed))

    @property
    def delta(self) -> float:
        """Signed improvement of the conditional arm over the flat arm."""
        return self.mean_conditional - self.mean_flat


def _mean_leaf_auc(
    scores: np.ndarray, labels01: np.ndarray, leaf_indices: Sequence[int]
) -> float:
    from .evaluation import auc

    return float(
        np.mean([auc(scores[:, k], labels01[:, k]) for k in leaf_indices])
    )


def hierarchical_ablation(
    tree: LabelTree,
    theta: np.ndarray,
    seeds: Sequence[int],
    *,
    n_train: int,
    n_eval: int,
    uncertainty_rate: float,
    smoothed_policy: UncertaintyPolicy,
    hard_policy: UncertaintyPolicy,
    optimizer: OptimizerConfig,
    stage1_iterations: int,
    stage2_iterations: int,
    hidden_sizes: Sequence[int] = (32,),
    feature_dim: int = 16,
    feature_noise: float = 0.5,
) -> AblationResult:
    """Leaf-label AUC of both training recipes on fresh data per seed.

    Each seed draws its split from ``synthetic_split``, as ``gen`` does,
    and scores held-out leaves as a one-member ensemble: the conditional
    arm by ``predict_unconditional``, the flat arm by ``predict_flat``.
    Both arms of every seed train together as one member stack, once
    every seed's held-out rows give each leaf both classes.
    """
    spec = SyntheticSpec(tree, theta, feature_noise, feature_dim)
    leaf_indices = [tree.index_of(name) for name in tree.leaves]
    cond_plan = TrainPlan(
        policy=smoothed_policy,
        optimizer=optimizer,
        stage1_iterations=stage1_iterations,
        stage2_iterations=stage2_iterations,
        conditional=True,
    )
    flat_plan = replace(cond_plan, policy=hard_policy, conditional=False)
    splits = [
        synthetic_split(spec, n_train, n_eval, uncertainty_rate, seed) for seed in seeds
    ]
    truths = [held_out.labels == POS for _, held_out in splits]
    for seed, truth in zip(seeds, truths):
        for name, positives in zip(tree.leaves, truth[:, leaf_indices].sum(axis=0).tolist()):
            if positives in (0, n_eval):
                raise DataFormatError(
                    f"seed {seed}: held-out leaf {name!r} has {positives} positives "
                    f"and {n_eval - positives} negatives; a ROC curve needs both"
                )
    results = train_members(
        [train for train, _ in splits for _ in range(2)],
        tree,
        [cond_plan, flat_plan] * len(seeds),
        hidden_sizes,
        [seed for seed in seeds for _ in range(2)],
    )
    cond_scores: list[float] = []
    flat_scores: list[float] = []
    for (_, held_out), truth, cond, flat in zip(splits, truths, results[::2], results[1::2]):
        x = held_out.features
        cond_out = predict_unconditional([cond.final], tree, x)
        cond_scores.append(_mean_leaf_auc(cond_out, truth, leaf_indices))
        flat_out = predict_flat([flat.final], x)
        flat_scores.append(_mean_leaf_auc(flat_out, truth, leaf_indices))
    return AblationResult(
        leaf_names=tree.leaves,
        conditional_by_seed=cond_scores,
        flat_by_seed=flat_scores,
    )
