"""Label forests and chain-rule propagation of conditional probabilities.

A classifier head trained under conditional masking emits, for each label,
the probability of that label being positive given that all its ancestors
are positive.  Unconditional probabilities follow by multiplying the
conditionals along the path from the root down to the label, applied here
per node of an arbitrary forest.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

import numpy as np

from .csvio import column_indices, reader
from .errors import DataFormatError


class LabelTree:
    """Immutable forest of K labels with dense indices 0..K-1, as
    ``build_tree`` builds it.

    ``names[k]`` is label k's name and ``parent_index[k]`` the index of
    its parent, -1 for a root.  ``topo_order`` lists every index after its
    parent's, and ``leaves`` names the labels that are nobody's parent.
    """

    def __init__(self, index: dict[str, int], parent_index: np.ndarray):
        self.names: tuple[str, ...] = tuple(index)
        self.K: int = len(index)
        self.parent_index = parent_index
        self._index = index
        # Walking to the root from every node both detects cycles and
        # yields its depth, which orders parents before children.
        depth = []
        for k, name in enumerate(self.names):
            seen, cur = {k}, int(parent_index[k])
            while cur != -1:
                if cur in seen:
                    raise ValueError(f"cycle in hierarchy through node {name!r}")
                seen.add(cur)
                cur = int(parent_index[cur])
            depth.append(len(seen))
        self.topo_order = tuple(sorted(range(self.K), key=depth.__getitem__))
        parents = set(parent_index.tolist())
        self.leaves = tuple(n for k, n in enumerate(self.names) if k not in parents)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown label name: {name!r}") from None


def build_tree(records: Iterable[tuple[str, str | None, int]]) -> LabelTree:
    """Build a LabelTree from (name, parent-or-None, index) records.

    Rejects an empty forest, duplicate names, indices other than exactly
    0..K-1, unknown parents, a node that is its own parent, and cycles.
    """
    records = sorted(((name, parent, int(i)) for name, parent, i in records), key=lambda r: r[2])
    if not records:
        raise ValueError("hierarchy has no nodes")
    index: dict[str, int] = {}
    for name, _, _ in records:
        if name in index:
            raise ValueError(f"duplicate label name: {name!r}")
        index[name] = len(index)
    indices = [i for _, _, i in records]
    if indices != list(range(len(records))):
        raise ValueError(
            f"label indices must be exactly 0..{len(records) - 1} with no "
            f"gaps or duplicates, got {sorted(indices)}"
        )
    for name, parent, _ in records:
        if parent is not None and parent not in index:
            raise ValueError(f"node {name!r} names unknown parent {parent!r}")
        if parent == name:
            raise ValueError(f"node {name!r} is its own parent")
    parents = [-1 if parent is None else index[parent] for _, parent, _ in records]
    return LabelTree(index, np.array(parents, dtype=np.int64))


def propagate(tree: LabelTree, cond: np.ndarray) -> np.ndarray:
    """Unconditional probabilities from per-node conditionals.

    ``cond[..., k]`` is the probability of label k given all its ancestors
    positive (for roots, the marginal).  The output at k is the product of
    cond over the root path ending at k; processing nodes parents-first
    makes that a single multiply per node.  Accepts a (K,) vector or an
    (N, K) batch in [0, 1]: the config schema's checked ``theta``, or the
    sigmoid outputs of a model with one output per label of ``tree``,
    which ``cli`` checks as it loads the checkpoints.  A NaN passes down
    its path, for the caller to check.
    """
    out = np.array(cond, dtype=np.float64)
    for k in tree.topo_order:
        p = tree.parent_index[k]
        if p != -1:
            out[..., k] = out[..., k] * out[..., p]
    return out


# Hierarchy spec file: CSV with header `name,parent,index`; parent empty
# for roots.  The shipped 14-label default lives in resources/.

def load_tree(path: str | Path) -> LabelTree:
    """Read a hierarchy spec file (CSV: name, parent, index)."""
    records: list[tuple[str, str | None, int]] = []
    with reader(path) as (header, rows):
        i_name, i_parent, i_index = column_indices(
            path, header, ("name", "parent", "index"), "hierarchy"
        )
        for line, row in rows:
            name = row[i_name].strip()
            parent = row[i_parent].strip() or None
            try:
                index = int(row[i_index])
            except ValueError:
                msg = f"{path}:{line}: index {row[i_index]!r} is not an integer"
                raise DataFormatError(msg) from None
            if not name:
                raise DataFormatError(f"{path}:{line}: empty label name")
            records.append((name, parent, index))
    if not records:
        raise DataFormatError(f"{path}: hierarchy file has no node records")
    try:
        tree = build_tree(records)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if "id" in tree.names:
        raise DataFormatError(f"{path}: label 'id' is the name of the label files' id column")
    by_file_name: dict[str, str] = {}
    for name in tree.names:
        file_name = safe_name(name)
        if file_name in by_file_name:
            raise DataFormatError(
                f"{path}: labels {by_file_name[file_name]!r} and {name!r} share "
                f"the file name {file_name!r}"
            )
        by_file_name[file_name] = name
    return tree


def safe_name(label: str) -> str:
    """A label as it appears in file names, such as ``roc_<label>.csv``."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def default_hierarchy_path() -> Path:
    """Path of the shipped 14-label chest-observation hierarchy."""
    return Path(__file__).parent / "resources" / "default_hierarchy.csv"
