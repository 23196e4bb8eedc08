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

import numpy as np

from . import seeding
from .data import MISSING, NEG, POS, UNC

POLICIES = ("ignore", "ones", "zeros", "ones-lsr", "zeros-lsr")

# Artifact defaults for the smoothing bounds: draws near 1 for smoothed
# positives, near 0 for smoothed negatives, with clear separation from
# the opposite class.  Override via config.
DEFAULT_LSR_ONES = (0.55, 0.85)
DEFAULT_LSR_ZEROS = (0.0, 0.3)


def check_lsr(lsr: tuple[float, float]) -> None:
    """Reject uniform-draw bounds outside 0 <= lower <= upper <= 1."""
    if not 0.0 <= lsr[0] <= lsr[1] <= 1.0:
        raise ValueError(
            f"LSR bounds must satisfy 0 <= lower <= upper <= 1, got {list(lsr)}"
        )


@dataclass(frozen=True)
class UncertaintyPolicy:
    """A policy name, with the (lower, upper) bounds of the uniform draw
    that the two ``-lsr`` policies take and the others do not."""

    name: str
    lsr: tuple[float, float] | None = None

    def __post_init__(self):
        if self.name not in POLICIES:
            raise ValueError(f"unknown policy {self.name!r}, not one of {list(POLICIES)}")
        if self.name.endswith("-lsr") != (self.lsr is not None):
            needs = "requires" if self.lsr is None else "takes no"
            raise ValueError(f"policy {self.name} {needs} LSR bounds")
        if self.lsr is not None:
            check_lsr(self.lsr)


def make_policy(
    name: str,
    lsr_ones: tuple[float, float] = DEFAULT_LSR_ONES,
    lsr_zeros: tuple[float, float] = DEFAULT_LSR_ZEROS,
) -> UncertaintyPolicy:
    """Policy from its CLI/config name, attaching bounds where needed."""
    lsr = {"ones-lsr": lsr_ones, "zeros-lsr": lsr_zeros}.get(name)
    return UncertaintyPolicy(name, None if lsr is None else tuple(lsr))


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
    if policy.name == "ignore":
        mask &= ~unc
    elif policy.name == "ones":
        targets[unc] = 1.0
    elif policy.lsr is not None:  # ones-lsr or zeros-lsr; zeros leaves 0.0
        lower, upper = policy.lsr
        rows = np.flatnonzero(unc.any(axis=1))
        u = seeding.rows_uniforms(seeding.PURPOSE_LSR, seed, rows, labels.shape[1])
        row_idx, col_idx = np.nonzero(unc[rows])
        targets[rows[row_idx], col_idx] = lower + (upper - lower) * u[row_idx, col_idx]
    return targets, mask
