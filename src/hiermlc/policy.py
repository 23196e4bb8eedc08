"""Uncertainty-label policies: raw labels to soft targets plus a loss mask.

Positive and negative labels always become hard 1.0 / 0.0 targets.  The
five policies differ only in what happens to uncertain (-1) cells:

* ``ignore``    - masked out of the loss
* ``ones``      - hard 1.0
* ``zeros``     - hard 0.0
* ``ones-lsr``  - fresh uniform draw in [a, b] near 1 (smoothed positive)
* ``zeros-lsr`` - fresh uniform draw in [a, b] near 0 (smoothed negative)

Missing cells are always masked out (see data module for the alternative
missing-as-negative load switch).  LSR draws are made once, at target
preparation time, keyed per cell so results never depend on iteration
order; see seeding module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import seeding
from .data import MISSING, NEG, POS, UNC


class PolicyKind(str, Enum):
    IGNORE = "ignore"
    ONES = "ones"
    ZEROS = "zeros"
    ONES_LSR = "ones-lsr"
    ZEROS_LSR = "zeros-lsr"


_LSR_KINDS = frozenset({PolicyKind.ONES_LSR, PolicyKind.ZEROS_LSR})

# Artifact defaults for the smoothing bounds: draws near 1 for smoothed
# positives, near 0 for smoothed negatives, with clear separation from
# the opposite class.  Override via config.
DEFAULT_LSR_ONES = (0.55, 0.85)
DEFAULT_LSR_ZEROS = (0.0, 0.3)


@dataclass(frozen=True)
class LsrParams:
    """Uniform-draw bounds for smoothed uncertain targets."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(
                f"LSR bounds must satisfy 0 <= lower <= upper <= 1, "
                f"got ({self.lower}, {self.upper})"
            )


@dataclass(frozen=True)
class UncertaintyPolicy:
    kind: PolicyKind
    lsr: LsrParams | None = None

    def __post_init__(self):
        if self.kind in _LSR_KINDS and self.lsr is None:
            raise ValueError(f"policy {self.kind.value} requires LSR bounds")
        if self.kind not in _LSR_KINDS and self.lsr is not None:
            raise ValueError(f"policy {self.kind.value} takes no LSR bounds")


def make_policy(
    name: str,
    lsr_ones: tuple[float, float] = DEFAULT_LSR_ONES,
    lsr_zeros: tuple[float, float] = DEFAULT_LSR_ZEROS,
) -> UncertaintyPolicy:
    """Policy from its CLI/config name, attaching bounds where needed."""
    kind = PolicyKind(name)
    if kind is PolicyKind.ONES_LSR:
        return UncertaintyPolicy(kind, LsrParams(*lsr_ones))
    if kind is PolicyKind.ZEROS_LSR:
        return UncertaintyPolicy(kind, LsrParams(*lsr_zeros))
    return UncertaintyPolicy(kind)


def apply_policy(
    labels: np.ndarray, policy: UncertaintyPolicy, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transform an (N, K) label matrix into (targets, mask).

    Targets are float64 in [0, 1]; the boolean mask marks cells that
    contribute to the loss.  Masked-out cells carry target 0.0 by
    convention.  Identical (labels, policy, seed) give identical output;
    uncertain-cell draws depend only on (seed, row, column).
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"label matrix must be 2-D, got shape {labels.shape}")
    known = np.isin(labels, (POS, NEG, UNC, MISSING))
    if not known.all():
        bad = labels[~known].ravel()[0]
        raise ValueError(f"label matrix contains invalid code {bad}")

    targets = np.zeros(labels.shape, dtype=np.float64)
    targets[labels == POS] = 1.0
    mask = labels != MISSING

    unc = labels == UNC
    if policy.kind is PolicyKind.IGNORE:
        mask &= ~unc
    elif policy.kind is PolicyKind.ONES:
        targets[unc] = 1.0
    elif policy.kind is PolicyKind.ZEROS:
        pass  # already 0.0
    else:
        lsr = policy.lsr
        assert lsr is not None
        rows = np.flatnonzero(unc.any(axis=1))
        u = seeding.rows_uniforms(seeding.PURPOSE_LSR, seed, rows, labels.shape[1])
        row_idx, col_idx = np.nonzero(unc[rows])
        targets[rows[row_idx], col_idx] = (
            lsr.lower + (lsr.upper - lsr.lower) * u[row_idx, col_idx]
        )
    return targets, mask
