import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermlc import evaluation as eval_mod
from hiermlc.csvio import read_id_matrix
from hiermlc.errors import DataFormatError
from hiermlc.evaluation import (
    DEFAULT_AUC_SUBSET,
    OperatingPoint,
    RocCurve,
    auc,
    curve_tpr_at,
    load_operating_points,
    mean_auc,
    reader_study,
    readers_below,
    roc_curve,
    write_predictions_csv,
    write_report,
    write_roc_points_csv,
)
from oracles import pairwise_auc, roc_by_confusion

# separable staircase used throughout: one ranking error
STAIR_SCORES = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
STAIR_LABELS = np.array([1, 1, 0, 1, 0, 0])


def random_case(rng, n, tie_prone=False):
    if tie_prone:
        scores = rng.integers(0, 4, size=n).astype(float) / 3.0
    else:
        scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return scores, labels


def points(curve: RocCurve) -> list[tuple[float, float]]:
    """The curve's (fpr, tpr) points in order."""
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist()))


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert points(curve) == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]

    def test_keeps_integer_counts(self):
        curve = roc_curve(STAIR_SCORES, STAIR_LABELS)
        assert curve.tp.tolist() == [0, 1, 2, 2, 3, 3, 3]
        assert curve.fp.tolist() == [0, 0, 0, 1, 1, 2, 3]
        np.testing.assert_array_equal(curve.tpr, curve.tp / 3)

    def test_reversed_scores(self):
        curve = roc_curve(np.array([0.1, 0.9]), np.array([1, 0]))
        assert points(curve) == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]

    def test_staircase(self):
        curve = roc_curve(STAIR_SCORES, STAIR_LABELS)
        assert points(curve) == [
            (0.0, 0.0),
            (0.0, 1 / 3),
            (0.0, 2 / 3),
            (1 / 3, 2 / 3),
            (1 / 3, 1.0),
            (2 / 3, 1.0),
            (1.0, 1.0),
        ]

    def test_thresholds_follow_scores(self):
        curve = roc_curve(STAIR_SCORES, STAIR_LABELS)
        assert np.isnan(curve.thresholds[0])
        np.testing.assert_array_equal(curve.thresholds[1:], STAIR_SCORES)

    def test_matches_confusion_matrix_sweep(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            scores, labels = random_case(rng, int(rng.integers(4, 40)), tie_prone=trial % 2 == 0)
            assert points(roc_curve(scores, labels)) == roc_by_confusion(scores, labels)

    @pytest.mark.parametrize(
        "scores, labels",
        [
            (np.array([0.1, 0.2]), np.array([1, 1])),
            (np.array([0.1, 0.2]), np.array([0, 0])),
            (np.array([0.1, 0.2]), np.array([1, 2])),
            (np.array([0.1, 0.2]), np.array([1, -1])),
            (np.array([[0.1, 0.2]]), np.array([[1, 0]])),
        ],
    )
    def test_rejects_bad_inputs(self, scores, labels):
        # one class or a non-binary label is the data's fault; a shape mismatch the caller's
        with pytest.raises(ValueError if scores.ndim > 1 else DataFormatError):
            roc_curve(scores, labels)

    def test_curve_type_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            RocCurve(
                fpr=np.array([0.0, 0.5, 0.2]),
                tpr=np.array([0.0, 0.5, 1.0]),
                thresholds=np.array([np.nan, 0.5, 0.2]),
                tp=np.array([0, 1, 2]),
                fp=np.array([0, 5, 2]),
            )

    def test_curve_type_rejects_ragged_points(self):
        # the ROC writer formats each column apart, so this is its guard
        with pytest.raises(ValueError, match="of one length"):
            RocCurve(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 60))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_anchored(self, seed, n):
        rng = np.random.default_rng(seed)
        scores, labels = random_case(rng, n, tie_prone=seed % 2 == 0)
        curve = roc_curve(scores, labels)
        assert (np.diff(curve.fpr) >= 0).all() and (np.diff(curve.tpr) >= 0).all()
        assert points(curve)[0] == (0.0, 0.0) and points(curve)[-1] == (1.0, 1.0)


class TestAuc:
    def test_perfect_and_reversed(self):
        labels = np.array([1, 1, 0, 0])
        assert auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 1.0
        assert auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 0.0

    def test_all_tied_is_half(self):
        assert auc(np.full(10, 0.3), np.array([1] * 4 + [0] * 6)) == 0.5

    def test_staircase_value(self):
        # 9 pairs: 8 wins, 1 loss
        assert auc(STAIR_SCORES, STAIR_LABELS) == 8 / 9

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            scores, labels = random_case(
                rng, int(rng.integers(4, 500)), tie_prone=trial % 2 == 0
            )
            assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        scores, labels = random_case(rng, 50)
        assert auc(scores, labels) == auc(np.exp(3 * scores) + 1, labels)

    def test_score_reversal_flips_auc(self):
        rng = np.random.default_rng(3)
        scores = rng.permutation(50) / 50.0  # tie-free
        labels = (rng.random(50) < 0.4).astype(int)
        assert auc(-scores, labels) == pytest.approx(1.0 - auc(scores, labels), abs=1e-15)


class TestMeanAuc:
    def test_arithmetic(self):
        aucs = {"a": 0.8, "b": 0.6, "c": 1.0}
        assert mean_auc(aucs, ("a", "b")) == pytest.approx(0.7)
        assert mean_auc(aucs, ("c",)) == 1.0

    def test_missing_label(self):
        with pytest.raises(ValueError, match="no AUC"):
            mean_auc({"a": 0.8}, ("a", "zzz"))
        with pytest.raises(ValueError, match="non-empty"):
            mean_auc({"a": 0.8}, ())


class TestReadersBelow:
    def test_interpolated_envelope(self):
        curve = roc_curve(STAIR_SCORES, STAIR_LABELS)
        # vertical run at fpr 0 resolves to its top
        assert curve_tpr_at(curve, 0.0) == 2 / 3
        assert curve_tpr_at(curve, 1 / 6) == pytest.approx(2 / 3 + 1 / 6)
        assert curve_tpr_at(curve, 0.5) == 1.0

    def test_strictly_below_counting(self):
        curve = roc_curve(STAIR_SCORES, STAIR_LABELS)
        points = [
            OperatingPoint(0.2, 0.5),     # below the interpolated segment
            OperatingPoint(1 / 6, 0.9),   # above it
            OperatingPoint(0.5, 0.99),    # below the tpr=1 plateau
            OperatingPoint(0.5, 1.0),     # exactly on the curve: not below
        ]
        assert readers_below(curve, points) == 2

    def test_perfect_curve_dominates(self):
        curve = roc_curve(np.array([0.9, 0.1]), np.array([1, 0]))
        assert readers_below(curve, [OperatingPoint(0.5, 0.9)]) == 1
        assert readers_below(curve, [OperatingPoint(0.0, 1.0)]) == 0

    def test_diagonal_tie_not_below(self):
        curve = roc_curve(np.full(4, 0.5), np.array([1, 1, 0, 0]))
        assert readers_below(curve, [OperatingPoint(0.3, 0.3)]) == 0
        assert readers_below(curve, [OperatingPoint(0.3, 0.2)]) == 1

    def test_no_points(self):
        curve = roc_curve(STAIR_SCORES, STAIR_LABELS)
        assert readers_below(curve, []) == 0

    @given(seed=st.integers(0, 2**31 - 1), fpr=st.floats(0, 1), tpr=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_on_curve_points_never_below(self, seed, fpr, tpr):
        rng = np.random.default_rng(seed)
        scores, labels = random_case(rng, 30)
        curve = roc_curve(scores, labels)
        on_curve = OperatingPoint(fpr, curve_tpr_at(curve, fpr))
        assert readers_below(curve, [on_curve]) == 0
        if tpr > on_curve.tpr:
            assert readers_below(curve, [OperatingPoint(fpr, tpr)]) == 0


def perfect_case(n_pos=3, n_neg=3):
    scores = np.concatenate([np.linspace(0.8, 0.9, n_pos), np.linspace(0.1, 0.2, n_neg)])
    labels = np.array([1] * n_pos + [0] * n_neg)
    return scores, labels


class TestReaderStudy:
    def fixture(self):
        """Five perfectly separated labels, reader counts 3,3,3,2,2."""
        scores, labels = {}, {}
        points = {}
        for i, name in enumerate(DEFAULT_AUC_SUBSET):
            s, y = perfect_case()
            scores[name], labels[name] = s, y
            if i < 3:
                points[name] = [
                    OperatingPoint(0.5, 0.5),
                    OperatingPoint(0.4, 0.8),
                    OperatingPoint(0.6, 0.99),
                ]
            else:
                points[name] = [
                    OperatingPoint(0.5, 0.5),
                    OperatingPoint(0.4, 0.8),
                    OperatingPoint(0.6, 1.0),  # ties the plateau: not below
                ]
        return scores, labels, points

    def test_counts_and_mean(self):
        scores, labels, points = self.fixture()
        report = reader_study(scores, labels, points)
        assert [report.readers_below[n] for n in DEFAULT_AUC_SUBSET] == [3, 3, 3, 2, 2]
        assert report.mean_readers_below == 13 / 5
        assert report.mean_auc_selected == 1.0
        assert report.subset == DEFAULT_AUC_SUBSET

    def test_all_points_below_saturates(self):
        scores, labels, _ = self.fixture()
        points = {
            name: [OperatingPoint(0.5, 0.2), OperatingPoint(0.3, 0.5), OperatingPoint(0.7, 0.9)]
            for name in scores
        }
        assert reader_study(scores, labels, points).mean_readers_below == 3.0

    def test_without_points(self):
        scores, labels, _ = self.fixture()
        report = reader_study(scores, labels)
        assert report.mean_readers_below == 0.0
        assert all(v == 0 for v in report.readers_below.values())

    def test_labels_without_points_count_zero(self):
        scores, labels, points = self.fixture()
        del points[DEFAULT_AUC_SUBSET[0]]
        report = reader_study(scores, labels, points)
        assert report.mean_readers_below == 10 / 5

    def test_subset_falls_back_to_all_names(self):
        s, y = perfect_case()
        report = reader_study({"x": s, "q": s}, {"x": y, "q": y})
        assert set(report.subset) == {"x", "q"}

    def test_explicit_subset_wins(self):
        scores, labels, _ = self.fixture()
        name = DEFAULT_AUC_SUBSET[0]
        report = reader_study(scores, labels, subset=[name])
        assert report.subset == (name,)

    def test_name_set_mismatch(self):
        s, y = perfect_case()
        with pytest.raises(ValueError, match="disagree"):
            reader_study({"x": s}, {"y": y})

    def test_keeps_each_label_curve(self):
        rng = np.random.default_rng(5)
        scores = {"x": rng.random(40).round(1), "q": STAIR_SCORES}
        labels = {"x": rng.integers(0, 2, 40), "q": STAIR_LABELS}
        report = reader_study(scores, labels)
        assert list(report.curves) == ["x", "q"]
        for name, curve in report.curves.items():
            expected = roc_curve(scores[name], labels[name])
            np.testing.assert_array_equal(curve.fpr, expected.fpr)
            np.testing.assert_array_equal(curve.tpr, expected.tpr)
            np.testing.assert_array_equal(curve.thresholds, expected.thresholds)


    def test_sweeps_each_label_once(self, monkeypatch):
        rng = np.random.default_rng(7)
        scores = {n: rng.random(60).round(1) for n in "xyz"}  # tie-prone
        labels = {n: rng.integers(0, 2, 60) for n in "xyz"}
        expected = {n: auc(scores[n], labels[n]) for n in "xyz"}
        sweeps = []
        sweep = eval_mod._binary_counts

        def counted(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(eval_mod, "_binary_counts", counted)
        report = reader_study(scores, labels)
        assert len(sweeps) == 3
        assert report.per_label_auc == expected  # bit for bit


class TestOperatingPoint:
    def test_unit_square_enforced(self):
        with pytest.raises(ValueError, match="unit square"):
            OperatingPoint(1.2, 0.5)
        with pytest.raises(ValueError, match="unit square"):
            OperatingPoint(0.5, -0.1)


class TestCsvFormats:
    def test_predictions_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "pred.csv"
        probs = np.random.default_rng(0).random((4, 3))
        write_predictions_csv(path, ["r1", "r2", "r3", "r4"], probs, ["A", "B", "C"])
        names, ids, back = read_id_matrix(path, "prediction")
        assert ids == ("r1", "r2", "r3", "r4")
        assert names == ("A", "B", "C")
        np.testing.assert_array_equal(back, probs)

    def test_predictions_validation(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("idx,A\nr1,0.5\n")
        with pytest.raises(DataFormatError, match="id column"):
            read_id_matrix(path, "prediction")
        path.write_text("id,A\nr1,0.5,0.9\n")
        with pytest.raises(DataFormatError, match="cells"):
            read_id_matrix(path, "prediction")
        path.write_text("id,A\nr1,zebra\n")
        with pytest.raises(DataFormatError, match="unparsable"):
            read_id_matrix(path, "prediction")
        path.write_text("id,A\n")
        with pytest.raises(DataFormatError, match="no data"):
            read_id_matrix(path, "prediction")

    def test_operating_points_file(self, tmp_path):
        path = tmp_path / "readers.csv"
        path.write_text(
            "label,reader,fpr,tpr\n"
            "Edema,r1,0.1,0.6\n"
            "Edema,r2,0.2,0.7\n"
            "Cardiomegaly,r1,0.3,0.5\n"
        )
        points = load_operating_points(path)
        assert [p.reader for p in points["Edema"]] == ["r1", "r2"]
        assert points["Cardiomegaly"][0].fpr == 0.3
        path.write_text("label,fpr,tpr\nEdema,0.1,0.6\n")
        with pytest.raises(DataFormatError, match="columns"):
            load_operating_points(path)
        path.write_text("label,reader,fpr,tpr\nEdema,r1,1.4,0.6\n")
        with pytest.raises(DataFormatError, match="unit square"):
            load_operating_points(path)

    def test_roc_points_file(self, tmp_path):
        path = tmp_path / "roc.csv"
        curve = roc_curve(STAIR_SCORES, STAIR_LABELS)
        write_roc_points_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert lines[1].endswith(",")  # anchor row has a blank threshold
        assert len(lines) == 1 + len(curve.fpr)
        fpr_back = [float(line.split(",")[0]) for line in lines[1:]]
        np.testing.assert_array_equal(fpr_back, curve.fpr)

    def test_report_files(self, tmp_path):
        scores, labels, points = TestReaderStudy().fixture()
        report = reader_study(scores, labels, points)
        txt, csv_path = tmp_path / "report.txt", tmp_path / "report.csv"
        write_report(report, txt, csv_path)
        text = txt.read_text()
        assert "mean_auc_selected" in text and "2.600000" in text
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        assert rows[0] == ["label", "auc", "readers_below"]
        by_name = {r[0]: r for r in rows[1:]}
        assert float(by_name["Edema"][1]) == 1.0
        assert by_name["mean_readers_below"][1] == repr(13 / 5)
