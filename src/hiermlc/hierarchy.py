"""Label forests and chain-rule propagation of conditional probabilities.

A classifier head trained under conditional masking emits, for each label,
the probability of that label being positive given that all its ancestors
are positive.  Unconditional probabilities follow by multiplying the
conditionals along the path from the root down to the label, applied here
per node of an arbitrary forest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .csvio import column_indices, reader
from .errors import DataFormatError


@dataclass(frozen=True)
class LabelNode:
    """One label: its name, position in the K-dim label vector, parent name."""

    name: str
    index: int
    parent: str | None = None


class LabelTree:
    """Immutable forest of labels with dense indices 0..K-1.

    Construction validates the forest invariants (unique names, dense
    unique indices, existing parents, no cycles) and precomputes the
    root-first ancestor index list per node.
    """

    def __init__(self, nodes: Iterable[LabelNode]):
        nodes = sorted(nodes, key=lambda n: n.index)
        if not nodes:
            raise ValueError("hierarchy has no nodes")
        by_name: dict[str, LabelNode] = {}
        for node in nodes:
            if node.name in by_name:
                raise ValueError(f"duplicate label name: {node.name!r}")
            by_name[node.name] = node
        indices = [n.index for n in nodes]
        if indices != list(range(len(nodes))):
            raise ValueError(
                f"label indices must be exactly 0..{len(nodes) - 1} with no "
                f"gaps or duplicates, got {sorted(indices)}"
            )
        for node in nodes:
            if node.parent is not None and node.parent not in by_name:
                raise ValueError(
                    f"node {node.name!r} names unknown parent {node.parent!r}"
                )
            if node.parent == node.name:
                raise ValueError(f"node {node.name!r} is its own parent")

        self.nodes: tuple[LabelNode, ...] = tuple(nodes)
        self.K: int = len(nodes)
        self._by_name = by_name
        # parent index per node, -1 for roots
        self.parent_index = np.full(self.K, -1, dtype=np.int64)
        for node in nodes:
            if node.parent is not None:
                self.parent_index[node.index] = by_name[node.parent].index

        # Walking to the root from every node both detects cycles and
        # yields the root-first ancestor lists.
        self._ancestor_indices: list[tuple[int, ...]] = []
        for node in nodes:
            path = []
            seen = {node.index}
            cur = int(self.parent_index[node.index])
            while cur != -1:
                if cur in seen:
                    raise ValueError(
                        f"cycle in hierarchy through node {node.name!r}"
                    )
                seen.add(cur)
                path.append(cur)
                cur = int(self.parent_index[cur])
            self._ancestor_indices.append(tuple(reversed(path)))
        # parents before children
        self.topo_order = tuple(
            sorted(range(self.K), key=lambda i: len(self._ancestor_indices[i]))
        )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    @property
    def roots(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.parent is None)

    @property
    def leaves(self) -> tuple[str, ...]:
        """Names of nodes that are nobody's parent."""
        parents = {n.parent for n in self.nodes if n.parent is not None}
        return tuple(n.name for n in self.nodes if n.name not in parents)

    def node(self, name: str) -> LabelNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown label name: {name!r}") from None

    def index_of(self, name: str) -> int:
        return self.node(name).index

    def ancestors(self, name: str) -> list[str]:
        """Ancestor names of a node, root first, immediate parent last."""
        idx = self.index_of(name)
        return [self.nodes[i].name for i in self._ancestor_indices[idx]]

    def ancestor_indices(self, index: int) -> tuple[int, ...]:
        return self._ancestor_indices[index]

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.parent == name)


def build_tree(records: Iterable[tuple[str, str | None, int]]) -> LabelTree:
    """Build a LabelTree from (name, parent-or-None, index) records."""
    return LabelTree(
        LabelNode(name=name, parent=parent, index=int(index))
        for name, parent, index in records
    )


def propagate(tree: LabelTree, cond: np.ndarray) -> np.ndarray:
    """Unconditional probabilities from per-node conditionals.

    ``cond[..., k]`` is the probability of label k given all its ancestors
    positive (for roots, the marginal).  The output at k is the product of
    cond over the root path ending at k; processing nodes parents-first
    makes that a single multiply per node.  Accepts a (K,) vector or an
    (N, K) batch.
    """
    cond = np.asarray(cond, dtype=np.float64)
    if cond.shape[-1] != tree.K:
        raise ValueError(
            f"conditional vector has {cond.shape[-1]} entries, tree has {tree.K}"
        )
    if np.any((cond < 0.0) | (cond > 1.0)) or not np.all(np.isfinite(cond)):
        raise ValueError("conditional probabilities must lie in [0, 1]")
    out = cond.copy()
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
