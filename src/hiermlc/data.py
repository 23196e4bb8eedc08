"""Datasets: label and feature CSV ingestion, synthetic generation,
conditional masks.

Label matrices hold one of four codes per cell.  CSV cells map as
"1.0" -> POS, "0.0" -> NEG, "-1.0" -> UNC, empty -> MISSING; label
columns are named exactly as the hierarchy's node names.  Of any other
column, ``Path`` or ``id`` gives the row ids, and the rest are ignored.
Feature vectors replace images: a split's features come from its
features file, or from the generator for synthetic datasets.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import seeding
from .csvio import (
    column_indices,
    read_id_matrix,
    read_sidecar,
    reader,
    write_id_matrix,
)
from .errors import DataFormatError
from .hierarchy import LabelTree

# Label codes (int8 storage)
POS = np.int8(1)
NEG = np.int8(0)
UNC = np.int8(-1)
MISSING = np.int8(-2)
CODES = (POS, NEG, UNC, MISSING)

_CELL_TO_CODE = {1.0: POS, 0.0: NEG, -1.0: UNC}
# The cells this package writes, parsed without float(); any other cell
# goes through _parse_cell.  Python ints, which ``array("b")`` takes fastest.
_CANONICAL_CELLS = {"1.0": int(POS), "0.0": int(NEG), "-1.0": int(UNC), "": int(MISSING)}
# Those cells as ``write_rows`` cell zones, indexed by the code itself
# (NEG, POS, then MISSING and UNC as indices counted from the end).
_CODE_ZONES = np.array([b"0.0", b"1.0", b"", b"-1.0"], dtype="S5").view(np.uint8).reshape(4, 5)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, label matrix and row ids.

    ``ids`` is None for rows that are never written or matched by id, such
    as fresh synthetic rows.  The matrices may be views of a larger
    dataset's, as ``synthetic_split``'s are; nothing writes into them.
    Only ``load_dataset``, which matches the two files' row ids, the
    generator and ``synthetic_split``'s row slices of one generator pass
    make one, so the three share a row count unchecked.
    """

    features: np.ndarray  # (N, F) float64
    labels: np.ndarray  # (N, K) int8
    ids: tuple[str, ...] | None


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator spec: per-node positive rates given a positive parent.

    ``theta[k]`` is the probability node k is positive when its parent is
    positive (for roots, the marginal rate).  A negative parent forces
    the child negative, so exact marginals are the theta products along
    ancestor paths.
    """

    tree: LabelTree
    theta: np.ndarray  # (K,) float64 in [0, 1], from config.synthetic_spec_theta
    feature_noise: float = 0.5
    feature_dim: int = 16


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_cell(raw: str, where: str) -> np.int8:
    raw = raw.strip()
    if raw == "":
        return MISSING
    try:
        value = float(raw)
    except ValueError:
        raise DataFormatError(f"{where}: unparsable label cell {raw!r}") from None
    try:
        return _CELL_TO_CODE[value]
    except KeyError:
        raise DataFormatError(
            f"{where}: label value {raw!r} is not one of 1.0 / 0.0 / -1.0 / empty"
        ) from None


def row_ids(n: int) -> tuple[str, ...]:
    """Positional row ids ``row00000``, ``row00001``, ..."""
    return tuple(f"row{i:05d}" for i in range(n))


def load_labels_csv(path: str | Path, tree: LabelTree) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a label CSV into (labels, ids).

    Every tree label must appear as a column.  Row ids come from a
    ``Path`` column, else an ``id`` column, else are positional; any other
    column is ignored.

    A file ``write_labels_csv`` wrote is read from its int8 sidecar while
    the file's sha256 still matches it, its header is ``id`` and then the
    tree's labels in order, and every code is one of the four.  Any other
    file is read by the checked row loop, which alone writes the error
    messages.
    """
    sidecar = read_sidecar(path, np.int8)
    if sidecar and sidecar[0] == tree.names and np.isin(sidecar[2], CODES).all():
        _, ids, labels = sidecar
        return labels, ids
    return _read_label_rows(path, tree)


def _read_label_rows(path: str | Path, tree: LabelTree) -> tuple[np.ndarray, tuple[str, ...]]:
    """The int8 label codes of a file's rows in tree order, and the rows'
    ids (a repeated id column keeps its first), through the checked row
    loop of ``reader``."""
    with reader(path) as (header, rows):
        label_idx = column_indices(path, header, tree.names, "label")
        id_cols = [c for c in ("Path", "id") if c in header and c not in tree.names]
        id_idx = header.index(id_cols[0]) if id_cols else None

        canonical = _CANONICAL_CELLS
        codes = array("b")  # one byte per cell, row after row
        n_rows = 0
        ids = []
        for line, row in rows:
            cells = [row[i] for i in label_idx]
            try:
                codes.extend([canonical[cell] for cell in cells])
            except KeyError:
                codes.extend([_parse_cell(cell, f"{path}:{line}") for cell in cells])
            n_rows += 1
            if id_idx is not None:
                ids.append(row[id_idx])
    if not n_rows:
        raise DataFormatError(f"{path}: no data rows")
    labels = np.array(codes, dtype=np.int8).reshape(n_rows, tree.K)
    return labels, row_ids(n_rows) if id_idx is None else tuple(ids)


def write_labels_csv(
    path: str | Path, labels: np.ndarray, tree: LabelTree, ids: Sequence[str]
) -> None:
    """Write a label CSV of an ``id`` column and the labels in index order,
    with the sidecar of int8 codes that ``write_id_matrix`` writes."""
    labels = np.asarray(labels)
    if not np.isin(labels, CODES).all():
        raise ValueError("label matrix contains an invalid code")
    labels = np.ascontiguousarray(labels, dtype=np.int8)
    write_id_matrix(path, ["id", *tree.names], ids, labels, _CODE_ZONES.__getitem__)


def write_features_csv(path: str | Path, features: np.ndarray, ids: Sequence[str]) -> None:
    features = np.asarray(features, dtype=np.float64)
    header = ["id"] + [f"f{j}" for j in range(features.shape[1])]
    write_id_matrix(path, header, ids, features)


def load_dataset(features_path: str | Path, labels_path: str | Path, tree: LabelTree) -> Dataset:
    """Load a features/labels CSV pair whose rows must carry the same ids
    in the same order."""
    # labels first: the larger features read last keeps the peak memory lower
    labels, ids = load_labels_csv(labels_path, tree)
    _, feat_ids, features = read_id_matrix(features_path, "feature")
    if feat_ids != ids:
        raise DataFormatError(f"row ids disagree between {features_path} and {labels_path}")
    return Dataset(features=features, labels=labels, ids=ids)


# ---------------------------------------------------------------------------
# Conditional masking


def conditional_mask(labels: np.ndarray, tree: LabelTree) -> np.ndarray:
    """Cells whose every ancestor label is POS in that row (roots: all).

    Uncertain or missing parents do not count as positive: conditioning
    on unconfirmed evidence would contaminate the conditional estimate.
    ``labels`` is a dataset's (N, K) matrix over ``tree``, one column per
    label, as the label reader and the generator make it.
    """
    pos = labels == POS
    mask = np.ones(labels.shape, dtype=bool)
    for k in tree.topo_order:
        p = tree.parent_index[k]
        if p != -1:
            mask[:, k] = mask[:, p] & pos[:, p]
    return mask


# ---------------------------------------------------------------------------
# Synthetic generation


def generate_synthetic(spec: SyntheticSpec, n: int, seed: int) -> Dataset:
    """Sample n rows top-down from the hierarchy plus noisy linear features.

    Roots fire with rate theta[k]; a child fires with rate theta[k] only
    under a positive parent.  Features are W @ y + sigma * gaussian with
    W a fixed (F, K) matrix derived from the same seed, so datasets drawn
    with one seed share feature semantics and row i's content depends
    only on (seed, i).  The rows carry no ids.
    """
    tree = spec.tree
    pos = np.zeros((n, tree.K), dtype=bool)
    for k in tree.topo_order:
        u = seeding.stream(seeding.PURPOSE_SYNTH_LABELS, seed, k).random(n)
        fire = u < spec.theta[k]
        p = tree.parent_index[k]
        pos[:, k] = fire if p == -1 else fire & pos[:, p]
    labels = np.where(pos, POS, NEG).astype(np.int8)

    mixing = seeding.stream(seeding.PURPOSE_SYNTH_MIXING, seed).standard_normal(
        (spec.feature_dim, tree.K)
    )
    features = pos.astype(np.float64) @ mixing.T
    for f in range(spec.feature_dim):  # each noise column added where it lands
        noise = seeding.stream(seeding.PURPOSE_SYNTH_FEATURES, seed, f).standard_normal(n)
        features[:, f] += spec.feature_noise * noise
    return Dataset(features=features, labels=labels, ids=None)


def inject_uncertainty(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Independently turn non-MISSING cells into UNC with the given rate.

    Each cell's coin depends only on (seed, row, column), so the outcome
    is stable under row subsetting and iteration order.
    """
    labels = dataset.labels.copy()
    if rate > 0.0:
        n, k = labels.shape
        u = seeding.rows_uniforms(seeding.PURPOSE_UNC_INJECT, seed, np.arange(n), k)
        labels[(u < rate) & (labels != MISSING)] = UNC
    return replace(dataset, labels=labels)
