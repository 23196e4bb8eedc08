"""The CSV layer: the checked reader and every loader built on it, and
the writers against one-writerow-per-row references."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hiermlc import csvio
from hiermlc.data import (
    MISSING,
    NEG,
    POS,
    UNC,
    load_features_csv,
    load_labels_csv,
    write_features_csv,
    write_labels_csv,
)
from hiermlc.errors import DataFormatError
from hiermlc.evaluation import (
    RocCurve,
    load_operating_points,
    load_predictions_csv,
    roc_curve,
    write_predictions_csv,
    write_roc_points_csv,
)
from hiermlc.hierarchy import build_tree, load_tree
from oracles import (
    writerow_features_csv,
    writerow_labels_csv,
    writerow_predictions_csv,
    writerow_roc_points_csv,
)

CHAIN = build_tree([("A", None, 0), ("B", "A", 1), ("C", "B", 2)])
ODD_TEXT = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " pad ", "é,ü"]
ODD_FLOATS = [-0.0, 0.0, 1e-05, 1e16, 5e-324, 0.1, 1 / 3, 1e-4, 9.5e15, 1.5e300]
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def same_bytes(tmp_path, write, reference, *args, **kwargs):
    write(tmp_path / "new.csv", *args, **kwargs)
    reference(tmp_path / "ref.csv", *args, **kwargs)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    return new


class TestFeatures:
    def test_odd_ids_and_floats(self, tmp_path):
        features = np.array([ODD_FLOATS[:4], ODD_FLOATS[4:8], ODD_FLOATS[6:]] * 3)
        ids = ODD_TEXT + ["last"]
        data = same_bytes(
            tmp_path, write_features_csv, writerow_features_csv, features, ids
        )
        assert b"-0.0,0.0,1e-05,1e+16" in data and b"5e-324" in data

    def test_rows_span_chunks(self, tmp_path):
        n = 2 * csvio.CHUNK_ROWS + 3
        features = np.random.default_rng(0).standard_normal((n, 5)) * 1e3
        ids = [f"row{i:05d}" for i in range(n)]
        same_bytes(tmp_path, write_features_csv, writerow_features_csv, features, ids)

    def test_no_feature_columns(self, tmp_path):
        # a lone empty id is a one-field row, which csv.writer writes as ""
        data = same_bytes(
            tmp_path,
            write_features_csv,
            writerow_features_csv,
            np.zeros((3, 0)),
            ["a", "", "b,c"],
        )
        assert data == b'id\na\n""\n"b,c"\n'

    def test_no_rows(self, tmp_path):
        same_bytes(
            tmp_path, write_features_csv, writerow_features_csv, np.zeros((0, 2)), []
        )

    @settings(max_examples=40, deadline=None)
    @given(
        features=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        ),
        data=st.data(),
    )
    def test_property(self, tmp_path_factory, features, data):
        n = features.shape[0]
        ids = data.draw(st.lists(text, min_size=n, max_size=n))
        same_bytes(
            tmp_path_factory.mktemp("f"),
            write_features_csv,
            writerow_features_csv,
            features,
            ids,
        )


class TestLabels:
    def labels(self, n=7):
        codes = np.array([POS, NEG, UNC, MISSING], dtype=np.int8)
        return codes[np.random.default_rng(4).integers(0, 4, size=(n, 3))]

    def test_ids_and_missing_cells(self, tmp_path):
        labels = self.labels(len(ODD_TEXT))
        labels[0] = MISSING
        same_bytes(
            tmp_path, write_labels_csv, writerow_labels_csv, labels, CHAIN, ODD_TEXT
        )

    def test_metadata_with_odd_text(self, tmp_path):
        n = len(ODD_TEXT)
        metadata = {"Path": tuple(ODD_TEXT), "Note, free": tuple(reversed(ODD_TEXT))}
        same_bytes(
            tmp_path,
            write_labels_csv,
            writerow_labels_csv,
            self.labels(n),
            CHAIN,
            ids=[f"ignored{i}" for i in range(n)],
            metadata=metadata,
        )

    def test_no_ids_rows_span_chunks(self, tmp_path):
        same_bytes(
            tmp_path,
            write_labels_csv,
            writerow_labels_csv,
            self.labels(csvio.CHUNK_ROWS + 1),
            CHAIN,
        )

    def test_single_missing_field_row(self, tmp_path):
        tree = build_tree([("Only, label", None, 0)])
        labels = np.array([[MISSING], [POS], [MISSING]], dtype=np.int8)
        data = same_bytes(
            tmp_path, write_labels_csv, writerow_labels_csv, labels, tree
        )
        assert data == b'"Only, label"\n""\n1.0\n""\n'

    def test_invalid_code_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid code"):
            write_labels_csv(tmp_path / "l.csv", np.array([[3, 0, 0]]), CHAIN)


class TestPredictions:
    def test_odd_ids_and_floats(self, tmp_path):
        probs = np.resize(np.array(ODD_FLOATS), (len(ODD_TEXT), 3))
        same_bytes(
            tmp_path,
            write_predictions_csv,
            writerow_predictions_csv,
            ODD_TEXT,
            probs,
            ["A", "B,b", 'C"'],
        )

    def test_rows_span_chunks(self, tmp_path):
        n = 3 * csvio.CHUNK_ROWS
        probs = np.random.default_rng(1).random((n, 4))
        ids = [f"r{i}" for i in range(n)]
        same_bytes(
            tmp_path,
            write_predictions_csv,
            writerow_predictions_csv,
            ids,
            probs,
            ["A", "B", "C", "D"],
        )


class TestRocPoints:
    def test_curve_with_nan_anchor(self, tmp_path):
        rng = np.random.default_rng(2)
        curve = roc_curve(rng.random(600).round(2), rng.integers(0, 2, 600))
        data = same_bytes(
            tmp_path, write_roc_points_csv, writerow_roc_points_csv, curve
        )
        assert data.splitlines()[1] == b"0.0,0.0,"

    def test_odd_values(self, tmp_path):
        n = len(ODD_FLOATS)
        curve = RocCurve(
            fpr=np.sort(np.abs(ODD_FLOATS)),
            tpr=np.linspace(0.0, 1.0, n),
            thresholds=np.where(np.arange(n) % 3 == 0, np.nan, ODD_FLOATS),
        )
        same_bytes(tmp_path, write_roc_points_csv, writerow_roc_points_csv, curve)


def write_text(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReader:
    def test_header_and_numbered_rows(self, tmp_path):
        path = write_text(tmp_path, 'a,b\n1,2\n"x\ny",3\n4,5\n')
        with csvio.reader(path) as (header, rows):
            assert header == ["a", "b"]
            # a quoted line break: the row's number is its last line
            assert list(rows) == [(2, ["1", "2"]), (4, ["x\ny", "3"]), (5, ["4", "5"])]

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = write_text(tmp_path, "a,b\n\n1,2\n\n\n3,4\n\n")
        with csvio.reader(path) as (_, rows):
            assert list(rows) == [(3, ["1", "2"]), (6, ["3", "4"])]

    @pytest.mark.parametrize("row, got", [("1", 1), ("1,2,3", 3), (",,", 3)])
    def test_cell_count_checked(self, tmp_path, row, got):
        path = write_text(tmp_path, f"a,b\n1,2\n\n{row}\n")
        with pytest.raises(DataFormatError, match=rf"t\.csv:4: expected 2 cells, got {got}$"):
            with csvio.reader(path) as (_, rows):
                list(rows)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"t\.csv: empty file"):
            with csvio.reader(write_text(tmp_path, "")):
                pass

    def test_csv_errors_name_the_file(self, tmp_path):
        path = write_text(tmp_path, "a,b\n1,2\n3," + "x" * 200_000 + "\n")
        with pytest.raises(DataFormatError, match=r"t\.csv: unreadable near line 3: field larger"):
            with csvio.reader(path) as (_, rows):
                list(rows)

    def test_read_id_matrix(self, tmp_path):
        path = write_text(tmp_path, "id,p,q\nr1,0.5,1e-05\n\nr2,-0.0,3\n")
        names, ids, matrix = csvio.read_id_matrix(path, "thing")
        assert names == ("p", "q") and ids == ("r1", "r2")
        assert matrix.dtype == np.float64
        np.testing.assert_array_equal(matrix, [[0.5, 1e-05], [-0.0, 3.0]])
        with pytest.raises(DataFormatError, match=r"t\.csv:3: unparsable thing value"):
            csvio.read_id_matrix(write_text(tmp_path, "id,p\nr1,1\nr2,\n"), "thing")


class TestLoadersShareTheReader:
    """Blank lines, short rows and empty files behave alike in every loader."""

    LOADERS = {
        "labels": ("id,A,B,C\n", "r1,1.0,0.0,\n", lambda p: load_labels_csv(p, CHAIN)),
        "features": ("id,f0,f1\n", "r1,0.5,1.5\n", load_features_csv),
        "predictions": ("id,A,B\n", "r1,0.5,0.25\n", load_predictions_csv),
        "hierarchy": ("name,parent,index\n", "A,,0\n", lambda p: load_tree(p).nodes),
        "readers": ("label,reader,fpr,tpr\n", "A,r1,0.1,0.5\n", load_operating_points),
    }

    @pytest.mark.parametrize("kind", LOADERS)
    def test_blank_lines_skipped(self, tmp_path, kind):
        header, row, load = self.LOADERS[kind]
        plain = load(write_text(tmp_path, header + row, "plain.csv"))
        blank = load(write_text(tmp_path, header + "\n" + row + "\n\n", "blank.csv"))
        assert repr(blank) == repr(plain)

    @pytest.mark.parametrize("kind", LOADERS)
    def test_short_row_names_file_and_line(self, tmp_path, kind):
        header, row, load = self.LOADERS[kind]
        path = write_text(tmp_path, header + row + "\n" + row.split(",")[0] + "\n")
        with pytest.raises(DataFormatError, match=r"t\.csv:4: expected \d cells, got 1"):
            load(path)

    @pytest.mark.parametrize("kind", LOADERS)
    def test_invalid_utf8(self, tmp_path, kind):
        header, row, load = self.LOADERS[kind]
        path = tmp_path / "t.csv"
        path.write_bytes((header + row).encode() + b"\xff\n")
        with pytest.raises(DataFormatError, match=r"t\.csv: unreadable .*utf-8"):
            load(path)

    @pytest.mark.parametrize("kind", LOADERS)
    def test_empty_file(self, tmp_path, kind):
        with pytest.raises(DataFormatError, match="empty file"):
            self.LOADERS[kind][2](write_text(tmp_path, ""))


class TestWriteTable:
    def test_bytes_equal_csv_writer(self, tmp_path):
        header = ["name", "note, free"]
        rows = [[text, i] for i, text in enumerate(ODD_TEXT)] + [["", ""], [1.5, None]]
        csvio.write_table(tmp_path / "new.csv", header, rows)
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
