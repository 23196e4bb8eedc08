"""ROC curves, AUC, and reader operating-point comparison.

AUC is computed from integer true/false-positive counts accumulated over
tie-grouped thresholds, then divided once, so the trapezoidal area equals
the tie-corrected pairwise ranking statistic to the last bit.  Reader
comparison counts operating points lying strictly below the linearly
interpolated curve; ties sit on the curve and do not count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .csvio import (
    column_indices, float_cells, reader, replace_text, write_id_matrix, write_rows, write_table
)
from .errors import DataFormatError

# Default label subset for the summary mean: the five standard
# chest-observation pathologies reported by the benchmark.
DEFAULT_AUC_SUBSET = (
    "Atelectasis",
    "Cardiomegaly",
    "Consolidation",
    "Edema",
    "Pleural Effusion",
)


@dataclass(frozen=True)
class RocCurve:
    """Threshold-sweep curve, anchored at (0,0) and (1,1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray  # score cut for each interior point, NaN at anchors
    # Integer (tp, fp) counts behind each point.
    tp: np.ndarray
    fp: np.ndarray

    def __post_init__(self):
        if not len(self.fpr) == len(self.tpr) == len(self.thresholds):
            raise ValueError("ROC fpr, tpr and thresholds must be of one length")
        if np.any(np.diff(self.fpr) < 0) or np.any(np.diff(self.tpr) < 0):
            raise ValueError("ROC points must be non-decreasing in both axes")


@dataclass(frozen=True)
class OperatingPoint:
    """A single reader's (fpr, tpr) decision point."""

    fpr: float
    tpr: float
    reader: str = ""

    def __post_init__(self):
        if not (0.0 <= self.fpr <= 1.0 and 0.0 <= self.tpr <= 1.0):
            raise ValueError(
                f"operating point ({self.fpr}, {self.tpr}) outside the unit square"
            )


@dataclass
class EvalReport:
    """Per-label AUCs and ROC curves, the subset mean and reader counts."""

    per_label_auc: dict[str, float]
    mean_auc_selected: float
    subset: tuple[str, ...]
    readers_below: dict[str, int]
    mean_readers_below: float
    curves: dict[str, RocCurve] = field(default_factory=dict)


def _binary_counts(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) from (0, 0) over descending tie groups, and their scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching 1-D arrays")
    if not np.isin(labels, (0, 1)).all():
        raise DataFormatError("labels must be binary 0/1")
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataFormatError(
            f"need both classes to sweep a curve, got {n_pos} positives and "
            f"{n_neg} negatives"
        )
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order] == 1
    # last position of each tie group
    group_end = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = np.concatenate(([0], np.cumsum(y)[group_end]))
    fp = np.concatenate(([0], np.cumsum(~y)[group_end]))
    return tp, fp, s[group_end]


def _count_auc(tp: np.ndarray, fp: np.ndarray) -> float:
    """Trapezoidal area under counts running from (0, 0) to (n_neg, n_pos).

    Accumulated as twice the area in integer count space, then divided by
    2 * n_pos * n_neg, which makes the result equal to the pairwise
    statistic P(pos ranked above neg) + P(tie)/2 exactly.
    """
    # Python ints: exact
    twice_area = int(np.sum(np.diff(fp) * (tp[1:] + tp[:-1]), dtype=np.int64))
    return twice_area / (2 * int(tp[-1]) * int(fp[-1]))


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """Sweep all distinct score thresholds, grouping ties."""
    tp, fp, cuts = _binary_counts(scores, labels)
    thresholds = np.concatenate(([np.nan], cuts))
    return RocCurve(fp / fp[-1], tp / tp[-1], thresholds, tp, fp)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Trapezoidal area under the ROC curve, exact (see ``_count_auc``)."""
    tp, fp, _ = _binary_counts(scores, labels)
    return _count_auc(tp, fp)


def mean_auc(
    per_label_auc: Mapping[str, float], subset: Sequence[str] = DEFAULT_AUC_SUBSET
) -> float:
    """Unweighted mean AUC over a label subset."""
    if not subset:
        raise ValueError("label subset must be non-empty")
    missing = [name for name in subset if name not in per_label_auc]
    if missing:
        raise ValueError(f"no AUC for label(s) {missing}")
    return float(np.mean([per_label_auc[name] for name in subset]))


def curve_tpr_at(curve: RocCurve, fpr: float) -> float:
    """Upper envelope of the curve at an fpr, linearly interpolated.

    Vertical segments (repeated fpr values) contribute their topmost tpr.
    """
    keep_last = np.append(curve.fpr[1:] != curve.fpr[:-1], True)
    return float(np.interp(fpr, curve.fpr[keep_last], curve.tpr[keep_last]))


def readers_below(curve: RocCurve, points: Sequence[OperatingPoint]) -> int:
    """Operating points strictly below the curve; ties are not below."""
    return sum(1 for p in points if p.tpr < curve_tpr_at(curve, p.fpr))


def reader_study(
    scores_by_label: Mapping[str, np.ndarray],
    labels_by_label: Mapping[str, np.ndarray],
    points_by_label: Mapping[str, Sequence[OperatingPoint]] | None = None,
    subset: Sequence[str] | None = None,
) -> EvalReport:
    """Per-label ROC analysis with reader comparison.

    ``mean_readers_below`` averages the below-curve counts over all
    evaluated labels (labels without supplied points count 0).  The
    summary ``mean_auc_selected`` uses ``subset`` when given, the default
    pathology subset when fully present, and all labels otherwise.
    """
    points_by_label = points_by_label or {}
    names = list(scores_by_label)
    if set(names) != set(labels_by_label):
        raise ValueError("scores and ground-truth label sets disagree")
    per_label_auc: dict[str, float] = {}
    below: dict[str, int] = {}
    curves: dict[str, RocCurve] = {}
    for name in names:
        curve = curves[name] = roc_curve(scores_by_label[name], labels_by_label[name])
        per_label_auc[name] = _count_auc(curve.tp, curve.fp)  # from the same sweep
        below[name] = readers_below(curve, points_by_label.get(name, ()))
    if subset is None:
        subset = (
            DEFAULT_AUC_SUBSET
            if all(name in per_label_auc for name in DEFAULT_AUC_SUBSET)
            else tuple(names)
        )
    return EvalReport(
        per_label_auc=per_label_auc,
        mean_auc_selected=mean_auc(per_label_auc, subset),
        subset=tuple(subset),
        readers_below=below,
        mean_readers_below=float(np.mean([below[name] for name in names])),
        curves=curves,
    )


# ---------------------------------------------------------------------------
# File formats.  Predictions: CSV id + one probability column per label.
# Ground truth: CSV id + one 0/1 column per label.  Reader points: CSV
# label,reader,fpr,tpr.


def write_predictions_csv(
    path: str | Path,
    ids: Sequence[str],
    probs: np.ndarray,
    label_names: Sequence[str],
) -> None:
    """Write the file and its sidecar, as ``write_id_matrix`` writes them."""
    probs = np.asarray(probs, dtype=np.float64)
    write_id_matrix(path, ["id"] + list(label_names), ids, probs)


def load_operating_points(path: str | Path) -> dict[str, list[OperatingPoint]]:
    """Reader-points CSV: columns label, reader, fpr, tpr."""
    points: dict[str, list[OperatingPoint]] = {}
    with reader(path) as (header, rows):
        i_label, i_reader, i_fpr, i_tpr = column_indices(
            path, header, ("label", "reader", "fpr", "tpr"), "reader-points"
        )
        for line, row in rows:
            try:
                point = OperatingPoint(
                    fpr=float(row[i_fpr]), tpr=float(row[i_tpr]), reader=row[i_reader]
                )
            except ValueError as exc:
                raise DataFormatError(f"{path}:{line}: {exc}") from exc
            points.setdefault(row[i_label], []).append(point)
    return points


def _roc_cells(points: np.ndarray) -> np.ndarray:
    """``float_cells`` of ``(fpr, tpr, threshold)`` rows, a NaN threshold blank."""
    zones = float_cells(points)
    zones[np.isnan(points[:, 2]), 2] = 0
    return zones


def write_roc_points_csv(path: str | Path, curve: RocCurve) -> None:
    """One ``fpr,tpr,threshold`` row per point; a NaN threshold is blank."""
    points = np.column_stack(
        [np.asarray(v, dtype=np.float64) for v in (curve.fpr, curve.tpr, curve.thresholds)]
    )
    write_rows(path, ["fpr", "tpr", "threshold"], None, points, _roc_cells)


def write_report(report: EvalReport, txt_path: str | Path, csv_path: str | Path) -> None:
    """Emit the report as aligned text and as machine-readable CSV."""
    lines = ["label                        auc  readers_below"]
    for name in report.per_label_auc:
        lines.append(
            f"{name:<26} {report.per_label_auc[name]:.6f}  {report.readers_below[name]}"
        )
    lines.append("")
    lines.append(f"mean_auc_selected ({', '.join(report.subset)}): "
                 f"{report.mean_auc_selected:.6f}")
    lines.append(f"mean_readers_below: {report.mean_readers_below:.6f}")
    replace_text(txt_path, "\n".join(lines) + "\n")

    rows = [
        [name, repr(report.per_label_auc[name]), report.readers_below[name]]
        for name in report.per_label_auc
    ]
    rows.append(["mean_auc_selected", repr(report.mean_auc_selected), ""])
    rows.append(["mean_readers_below", repr(report.mean_readers_below), ""])
    write_table(csv_path, ["label", "auc", "readers_below"], rows)
