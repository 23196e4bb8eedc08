"""Training orchestration: conditional two-stage runs, flat baseline,
ensembling, and the hierarchical ablation harness.

Stage 1 trains every label only on rows where all its ancestor labels
are positive (per-label loss masking), so sigmoid heads estimate
conditional probabilities.  Stage 2 freezes everything but the last
layer and retrains on the full dataset to recover unconditional parent
behaviour.  Inference multiplies conditionals down the hierarchy and
ensembles average the propagated outputs.

One engine, ``_train_stage``, runs every training step.  It trains all
M ensemble members at once as a member stack: an ``Mlp`` whose
parameters are one (M, P) float64 buffer, with (M, P) gradients and
Adam moments beside it.  Each step gathers every member's own shuffled
batch as (M, B, F), runs one stacked forward pass, and feeds that same
pass to ``masked_bce`` and ``backward``; ``adam_step`` then updates each
member's contiguous row, skipping the frozen span.  A stacked ``@``
gives each member exactly the bits of its own 2-D products and every
reduction keeps its per-member order, so member k's weights and loss
rows do not depend on the ensemble size or on member order.
``train_members`` is the only entry to it and the only code that knows
the recipe: stage-1 mask, freeze, stage 2, or one flat stage of
``stage1_iterations + stage2_iterations`` steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import seeding
from .data import Dataset, conditional_mask, generate_synthetic, inject_uncertainty
from .errors import NumericError
from .hierarchy import LabelTree, propagate
from .model import (
    AdamState,
    Mlp,
    OptimizerConfig,
    adam_step,
    backward,
    check_finite,
    forward_trace,
    freeze_all_but_last,
    layer_views,
    lr_schedule,
    masked_bce,
)
from .policy import UncertaintyPolicy, apply_policy

LossLog = list[tuple[str, int, float]]


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

    def __post_init__(self):
        if self.stage1_iterations < 0 or self.stage2_iterations < 0:
            raise ValueError("iteration counts must be >= 0")


@dataclass
class EnsembleModel:
    """Trained members sharing one output dimension."""

    members: list[Mlp]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        k = self.members[0].output_dim
        if any(m.output_dim != k for m in self.members):
            raise ValueError("ensemble members disagree on output dimension")


def _train_stage(
    stack: Mlp,
    features: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    seeds: Sequence[int],
    optimizer: OptimizerConfig,
    iterations: int,
    stage: str,
    loss_logs: Sequence[LossLog],
) -> None:
    """Seed-deterministic mini-batch loop over a member stack, in place.

    ``stack`` holds (M, P) parameters; ``targets`` and ``mask`` are
    (M, N, K), one slice per member, and member k shuffles under
    ``seeds[k]``.  The learning rate and shuffle order change at epoch
    boundaries (epoch = ceil(N / batch_size) steps).  Appends (stage,
    epoch, mean step loss) rows to each member's loss log.
    """
    n_members, n = mask.shape[:2]
    if not mask.reshape(n_members, -1).any(axis=1).all():
        raise ValueError(
            f"{stage}: empty effective training signal (all cells masked out)"
        )
    check_finite(features)
    batch = optimizer.batch_size
    epoch_len = math.ceil(n / batch)
    members = [stack.member(k) for k in range(n_members)]
    grads = np.zeros_like(stack.params)
    grad_views = layer_views(grads, stack.layer_sizes)
    moments = np.zeros((2, *stack.params.shape))
    states = [AdamState(m=moments[0, k], v=moments[1, k]) for k in range(n_members)]
    member_axis = np.arange(n_members)[:, None]
    orders = np.empty((n_members, n), dtype=np.int64)
    losses = np.empty((n_members, epoch_len))
    lr = optimizer.lr0
    epoch = -1
    done = 0  # steps taken in the current epoch

    def flush():
        if done:
            for log, row in zip(loss_logs, losses):
                log.append((stage, epoch, float(row[:done].mean())))

    for step in range(iterations):
        e, pos = divmod(step, epoch_len)
        if e != epoch:
            flush()
            epoch = e
            lr = lr_schedule(optimizer, e)
            if lr == 0.0:
                msg = f"{stage}: learning rate underflowed to 0 at epoch {e}"
                raise NumericError(msg)
            # keyed by epoch only: a flat run and a staged run over the
            # same data walk identical batch sequences
            for k, seed in enumerate(seeds):
                orders[k] = seeding.stream(
                    seeding.PURPOSE_SHUFFLE, seed, e
                ).permutation(n)
        rows = orders[:, pos * batch : (pos + 1) * batch]
        x = features[rows]
        t = targets[member_axis, rows]
        m = mask[member_axis, rows]
        trace = forward_trace(stack, x)
        loss = masked_bce(trace[0], t, m)
        if not np.isfinite(loss).all():
            raise NumericError(f"{stage}: non-finite loss at step {step}")
        backward(stack, x, t, m, trace, grad_views)
        for member, state, g in zip(members, states, grads):
            adam_step(member, state, g, optimizer, lr)
        losses[:, pos] = loss
        done = pos + 1
    flush()


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
    dataset: Dataset,
    tree: LabelTree,
    plan: TrainPlan,
    hidden_sizes: Sequence[int],
    seeds: Sequence[int],
) -> list[MemberResult]:
    """Train one member per seed from scratch, all in one member stack.

    Member k initializes, draws its targets and shuffles under
    ``seeds[k]`` alone, so its result is the same whichever seeds train
    beside it.  Each member's targets are prepared once and shared by
    both stages.
    """
    layer_sizes = [dataset.features.shape[1], *hidden_sizes, tree.K]
    stack = Mlp.stack([Mlp.init(layer_sizes, s) for s in seeds])
    prepared = [apply_policy(dataset.labels, plan.policy, s) for s in seeds]
    targets = np.stack([t for t, _ in prepared])
    policy_mask = np.stack([m for _, m in prepared])
    logs: list[LossLog] = [[] for _ in seeds]

    def run(mask: np.ndarray, iterations: int, stage: str) -> None:
        _train_stage(
            stack, dataset.features, targets, mask, seeds, plan.optimizer,
            iterations, stage, logs,
        )

    snapshots: list[Mlp | None] = [None] * len(seeds)
    if plan.conditional:
        stage1_mask = policy_mask & conditional_mask(dataset.labels, tree)
        run(stage1_mask, plan.stage1_iterations, "stage1")
        snapshots = [stack.member(k).copy() for k in range(len(seeds))]
        freeze_all_but_last(stack)
        run(policy_mask, plan.stage2_iterations, "stage2")
    else:
        run(policy_mask, plan.stage1_iterations + plan.stage2_iterations, "flat")
    return [
        MemberResult(stack.member(k), snapshots[k], logs[k], s)
        for k, s in enumerate(seeds)
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


def predict_unconditional(
    ensemble: EnsembleModel, tree: LabelTree, x: np.ndarray
) -> np.ndarray:
    """Mean over members of the propagated (unconditional) probabilities."""
    outputs = [propagate(tree, member.forward(x)) for member in ensemble.members]
    return np.mean(outputs, axis=0)


def predict_flat(ensemble: EnsembleModel, x: np.ndarray) -> np.ndarray:
    """Mean over members of the raw outputs, as flat training means them."""
    return np.mean([member.forward(x) for member in ensemble.members], axis=0)


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

    Each seed draws a train/eval split from the same generator, injects
    uncertainty into the training labels only, trains one model per arm,
    and scores held-out leaves: the conditional arm by propagated
    outputs, the flat arm by raw sigmoid outputs.
    """
    from .data import POS, SyntheticSpec

    spec = SyntheticSpec(
        tree=tree, theta=theta, feature_noise=feature_noise, feature_dim=feature_dim
    )
    leaf_indices = [tree.index_of(name) for name in tree.leaves]
    cond_plan = TrainPlan(
        policy=smoothed_policy,
        optimizer=optimizer,
        stage1_iterations=stage1_iterations,
        stage2_iterations=stage2_iterations,
        conditional=True,
    )
    flat_plan = replace(cond_plan, policy=hard_policy, conditional=False)
    cond_scores: list[float] = []
    flat_scores: list[float] = []
    for seed in seeds:
        full, _ = generate_synthetic(spec, n_train + n_eval, seed)
        train = full.take(np.arange(n_train))
        held_out = full.take(np.arange(n_train, n_train + n_eval))
        train = inject_uncertainty(train, uncertainty_rate, seed)
        eval_binary = (held_out.labels == POS).astype(np.int64)

        cond = train_member(train, tree, cond_plan, hidden_sizes, seed)
        cond_out = propagate(tree, cond.final.forward(held_out.features))
        cond_scores.append(_mean_leaf_auc(cond_out, eval_binary, leaf_indices))

        flat = train_member(train, tree, flat_plan, hidden_sizes, seed)
        flat_out = flat.final.forward(held_out.features)
        flat_scores.append(_mean_leaf_auc(flat_out, eval_binary, leaf_indices))
    return AblationResult(
        leaf_names=tree.leaves,
        conditional_by_seed=cond_scores,
        flat_by_seed=flat_scores,
    )
