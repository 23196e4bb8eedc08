"""The CSV layer: the checked reader and every loader built on it, and
the writers against one-writerow-per-row references."""

import csv
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hiermlc import csvio
from hiermlc import data as data_mod
from hiermlc.data import (
    MISSING,
    NEG,
    POS,
    UNC,
    load_labels_csv,
    write_features_csv,
    write_labels_csv,
)
from hiermlc.errors import DataFormatError
from hiermlc.evaluation import (
    RocCurve,
    load_operating_points,
    roc_curve,
    write_predictions_csv,
    write_roc_points_csv,
)
from hiermlc.hierarchy import build_tree, load_tree
from oracles import (
    _writer,
    random_forest,
    writerow_features_csv,
    writerow_label_rows,
    writerow_labels_csv,
    writerow_predictions_csv,
    writerow_roc_points_csv,
)

CHAIN = build_tree([("A", None, 0), ("B", "A", 1), ("C", "B", 2)])
ODD_TEXT = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " pad ", "é,ü"]
ODD_FLOATS = [-0.0, 0.0, 1e-05, 1e16, 5e-324, 0.1, 1 / 3, 1e-4, 9.5e15, 1.5e300]
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def write_label_rows(path, header, ids, labels):
    """``write_rows`` of label codes, laid out as ``write_labels_csv`` lays
    them out, under any header and with or without (None) ids."""
    csvio.write_rows(path, header, ids, labels, data_mod._CODE_ZONES.__getitem__)


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
        n = 2 * csvio.CHUNK_CELLS // 5 + 3
        features = np.random.default_rng(0).standard_normal((n, 5)) * 1e3
        ids = [f"row{i:05d}" for i in range(n)]
        same_bytes(tmp_path, write_features_csv, writerow_features_csv, features, ids)

    def test_no_feature_columns(self, tmp_path):
        with pytest.raises(ValueError, match="without columns"):
            write_features_csv(tmp_path / "f.csv", np.zeros((3, 0)), ["a", "", "b,c"])
        assert not (tmp_path / "f.csv").exists()

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

    def test_no_ids_rows_span_chunks(self, tmp_path):
        labels = self.labels(csvio.CHUNK_CELLS // 3 + 1)
        same_bytes(tmp_path, write_label_rows, writerow_label_rows, CHAIN.names, None, labels)

    def test_invalid_code_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid code"):
            write_labels_csv(tmp_path / "l.csv", np.array([[3, 0, 0]]), CHAIN, ["r0"])


class TestTextRoundTrip:
    """Every id and header field reads back as it was written:
    ``csv.writer`` leaves a carriage return unquoted, which ``csv.reader``
    takes for the end of the row, so the writers quote it."""

    def test_features(self, tmp_path):
        path = tmp_path / "f.csv"
        features = np.arange(2.0 * len(ODD_TEXT)).reshape(-1, 2)
        write_features_csv(path, features, ODD_TEXT)
        _, ids, got = csvio.read_id_matrix(path, "feature")
        assert ids == tuple(ODD_TEXT)
        np.testing.assert_array_equal(got, features)
        assert b'"cr\rhere",' in path.read_bytes()

    def test_labels(self, tmp_path):
        path = tmp_path / "l.csv"
        tree = build_tree([("A", None, 0), ("B\rb", "A", 1)])
        labels = np.resize(np.array([POS, NEG, UNC, MISSING], dtype=np.int8), (len(ODD_TEXT), 2))
        write_labels_csv(path, labels, tree, ODD_TEXT)
        got, ids = load_labels_csv(path, tree)
        np.testing.assert_array_equal(got, labels)
        assert ids == tuple(ODD_TEXT)
        assert b'"B\rb"' in path.read_bytes()


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
        n = 3 * csvio.CHUNK_CELLS // 4
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
            tp=np.arange(n),
            fp=np.arange(n),
        )
        same_bytes(tmp_path, write_roc_points_csv, writerow_roc_points_csv, curve)

    def test_tied_scores(self, tmp_path):
        # tp and fp advance together at the tied cuts 0.9 and 0.5
        scores = np.array([0.9, 0.9, 0.9, 0.7, 0.5, 0.5, 0.3, 0.3, 0.1])
        labels = np.array([1, 0, 1, 1, 1, 0, 0, 0, 1])
        curve = roc_curve(scores, labels)
        assert (np.diff(curve.tp) > 0).any() and (np.diff(curve.fp) > 0).any()
        data = same_bytes(
            tmp_path, write_roc_points_csv, writerow_roc_points_csv, curve
        )
        assert data.splitlines()[2] == b"0.25,0.4,0.9"

    def test_signed_zeros_and_nan_runs(self, tmp_path):
        payload_nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
        nans = [np.nan, -np.nan, payload_nan, np.nan]
        curve = RocCurve(
            fpr=np.array([-0.0, -0.0, 0.0, 0.0, *nans, 1.0]),
            tpr=np.array([0.0, -0.0, -0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0]),
            thresholds=np.array([np.nan, -0.0, 0.0, 0.5, *nans, np.nan]),
            tp=np.arange(9),
            fp=np.arange(9),
        )
        data = same_bytes(
            tmp_path, write_roc_points_csv, writerow_roc_points_csv, curve
        )
        assert data.splitlines()[1:4] == [b"-0.0,0.0,", b"-0.0,-0.0,-0.0", b"0.0,-0.0,0.0"]

    @pytest.mark.parametrize("n", [0, 1])
    def test_one_point_and_empty_curves(self, tmp_path, n):
        curve = RocCurve(np.zeros(n), np.ones(n), np.full(n, np.nan), np.zeros(n), np.zeros(n))
        same_bytes(tmp_path, write_roc_points_csv, writerow_roc_points_csv, curve)


def quoted_fields(monkeypatch) -> list[str]:
    """The fields ``csvio._text_field`` is called on from now on."""
    calls, text_field = [], csvio._text_field
    monkeypatch.setattr(csvio, "_text_field", lambda text: calls.append(text) or text_field(text))
    return calls


class TestJoinedLeads:
    """``write_rows`` searches each text column once; where no field
    needs quoting it joins and encodes every row's lead at once, and
    otherwise quotes the whole file field by field.  The bytes are the
    writerow oracles' either way."""

    N = 2 * csvio.CHUNK_CELLS // 6 + 7  # rows of three chunks of 6 cells

    def test_row_ids(self, tmp_path, monkeypatch):
        ids = [f"row{i:05d}" for i in range(self.N)]
        probs = np.random.default_rng(3).random((self.N, 6))
        calls = quoted_fields(monkeypatch)
        same_bytes(tmp_path, write_features_csv, writerow_features_csv, probs, ids)
        same_bytes(
            tmp_path, write_predictions_csv, writerow_predictions_csv, ids, probs, "ABCDEF"
        )
        assert not set(calls) & set(ids)  # only the header fields, one by one

    def test_non_ascii_ids(self, tmp_path, monkeypatch):
        ids = [f"{name}{i}" for i, name in enumerate(["é", "名前", "ü\u2028", "𝔁", " "] * 9)]
        labels = TestLabels().labels(len(ids))
        calls = quoted_fields(monkeypatch)
        same_bytes(tmp_path, write_labels_csv, writerow_labels_csv, labels, CHAIN, ids)
        data = same_bytes(
            tmp_path, write_features_csv, writerow_features_csv, np.ones((len(ids), 2)), ids
        )
        assert "\n名前1,1.0,1.0\n".encode() in data and not set(calls) & set(ids)

    def test_one_search_per_text_column(self, tmp_path, monkeypatch):
        n = self.N
        ids = [f"row{i:05d}" for i in range(n)]
        labels = TestLabels().labels(n)
        searched, search = [], csvio._MAY_NEED_QUOTING
        monkeypatch.setattr(csvio, "_MAY_NEED_QUOTING", lambda t: searched.append(t) or search(t))
        writes = [
            (write_features_csv, writerow_features_csv, np.ones((n, 2)), ids),
            (write_predictions_csv, writerow_predictions_csv, ids, np.ones((n, 3)), "ABC"),
            (write_labels_csv, writerow_labels_csv, labels, CHAIN, ids),
        ]
        for write, reference, *args in writes:
            searched.clear()
            with mock.patch.object(csvio, "_MAY_NEED_QUOTING", search):
                reference(tmp_path / "ref.csv", *args)
            write(tmp_path / "new.csv", *args)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
            assert sum("".join(ids) in t for t in searched) == 1

    @pytest.mark.parametrize("quoted", ["a,b", 'say "hi"', "two\nlines", "cr\rhere"])
    def test_one_quoted_id_deep_in_the_file(self, tmp_path, monkeypatch, quoted):
        ids = [f"row{i:05d}" for i in range(self.N)]
        ids[-5] = quoted
        probs = np.random.default_rng(6).random((self.N, 6))
        calls = quoted_fields(monkeypatch)
        data = same_bytes(
            tmp_path, write_predictions_csv, writerow_predictions_csv, ids, probs, "ABCDEF"
        )
        assert set(ids) <= set(calls)  # every id of the file quoted by itself
        assert data.count(b'"') == 2 + 2 * quoted.count('"')

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_rows_span_chunks(self, tmp_path, chunk):
        n = 13
        ids = [f"row{i:05d}" for i in range(n)]
        values = np.resize(np.array([*ODD_FLOATS, np.nan, -np.inf]), (n, 3))
        labels = TestLabels().labels(n)
        with mock.patch.object(csvio, "CHUNK_CELLS", chunk):
            same_bytes(tmp_path, write_features_csv, writerow_features_csv, values, ids)
            same_bytes(
                tmp_path, write_predictions_csv, writerow_predictions_csv, ids, values, "ABC"
            )
            same_bytes(tmp_path, write_labels_csv, writerow_labels_csv, labels, CHAIN, ids)

    @pytest.mark.parametrize("quoted", ["plain", "a,b"])
    def test_leads_built_a_chunk_at_a_time(self, tmp_path, monkeypatch, quoted):
        # no call lays out the leads of more rows than one chunk of cells holds
        ids = [f"{quoted}{i}" for i in range(self.N)]
        probs = np.random.default_rng(8).random((self.N, 6))
        built, leads = [], csvio._leads

        def counted(*args):
            out = leads(*args)
            built.append(len(out))
            return out

        monkeypatch.setattr(csvio, "_leads", counted)
        same_bytes(tmp_path, write_features_csv, writerow_features_csv, probs, ids)
        assert sum(built) == self.N and max(built) <= csvio.CHUNK_CELLS // 6


def assert_reprs(values) -> None:
    """Assert that ``csvio.float_cells``, run ``CHUNK_CELLS`` at a time,
    lays out every cell of ``values`` as ``repr`` writes it."""
    flat = np.ravel(values)
    parts = []
    for start in range(0, flat.size, csvio.CHUNK_CELLS):
        zones = csvio.float_cells(flat[start : start + csvio.CHUNK_CELLS])
        zones[..., -1] = ord(",")
        parts.append(zones[zones != 0].tobytes())
    got = b"".join(parts).decode()
    expected = ",".join(map(repr, flat.tolist())) + "," if flat.size else ""
    if got != expected:
        pairs = enumerate(zip(got.split(","), expected.split(",")))
        i, (cell, text) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        pytest.fail(f"cell {i}: {cell!r} for {text!r}")


def near(value: float, ulps: int) -> np.ndarray:
    """The ``2 * ulps`` doubles around a positive ``value``."""
    return (np.float64(value).view(np.int64) + np.arange(-ulps, ulps)).view(np.float64)


def dense_sample() -> np.ndarray:
    """Just over 1M doubles of every kind ``repr`` formats."""
    rng = np.random.default_rng(7)
    binades = np.repeat(np.arange(2048, dtype=np.uint64), 265) << np.uint64(52)
    mantissas = rng.integers(0, 1 << 52, binades.size, dtype=np.uint64)
    signs = rng.integers(0, 2, binades.size, dtype=np.uint64) << np.uint64(63)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    parts = [
        (binades | mantissas | signs).view(np.float64),  # every binade, subnormals, NaNs
        rng.standard_normal(280_000) * 10.0 ** rng.integers(-3, 13, 280_000),
        powers,
        -powers,
        np.arange(1, 20_001) * 2.0**-25,  # dyadic: ties such as 2**-25
        np.arange(1, 20_001) * 2.0**-60,
        2.0**53 + np.arange(-10_000, 10_000),
        *(near(b, 5000) for b in (1e16, 1e15, 1e-4, 1e-5, 1e17, 1e22, 1e23, 1e308)),
        *(np.arange(n + 1) / n for n in (3, 7, 10, 100, 1000, 9999, 20_000)),
        np.arange(1, 10_001, dtype=np.uint64).view(np.float64),  # the least subnormals
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 2.2250738585072014e-308]),
    ]
    return np.concatenate(parts)


class TestFloatCells:
    """``float_cells`` gives the bytes of ``repr`` for every float64."""

    def test_dense_sample(self):
        values = dense_sample()
        assert values.size > 1_000_000
        assert_reprs(values)

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bits(self, bits):
        assert_reprs(np.array(bits, dtype=np.uint64).view(np.float64))

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0), (5, 1), (2, 3, 4)])
    def test_shapes(self, shape):
        values = np.linspace(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
        assert csvio.float_cells(values).shape == (*shape, csvio.CELL_BYTES)
        assert_reprs(values)

    @pytest.mark.parametrize("width", [0, 1, 3])
    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    def test_chunks(self, tmp_path, width, chunk):
        values = np.resize(np.array([*ODD_FLOATS, np.nan, -np.inf, -1e-300]), (11, width))
        ids = [f"r{i}" for i in range(11)]
        with mock.patch.object(csvio, "CHUNK_CELLS", chunk):
            if width:
                same_bytes(tmp_path, write_features_csv, writerow_features_csv, values, ids)
            else:  # refused before the file is opened
                with pytest.raises(ValueError, match="without columns"):
                    write_features_csv(tmp_path / "new.csv", values, ids)
                assert not (tmp_path / "new.csv").exists()
            labels = np.resize(np.array([POS, MISSING, UNC, NEG], dtype=np.int8), (11, 3))
            same_bytes(tmp_path, write_label_rows, writerow_label_rows, CHAIN.names, None, labels)


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


def drop_sidecars(directory):
    """Delete the sidecars in ``directory``, so its files are parsed."""
    for sidecar in directory.glob("*.npy"):
        sidecar.unlink()


def id_matrix_outcome(read, path):
    """What ``read`` makes of an id-matrix file: its result, matrix bits
    included, or the message of the ``DataFormatError`` it raises."""
    try:
        names, ids, matrix = read(path, "feature")
    except DataFormatError as exc:
        return str(exc)
    assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
    return names, ids, matrix.shape, matrix.view(np.int64).tobytes()


class TestIdMatrixReader:
    """``read_id_matrix`` reads a file without a sidecar by the checked
    loop ``read_id_rows``: every cell ``float()`` takes, and errors named
    by file and line."""

    def big_file(self, tmp_path):
        """A features file of 500 rows without a sidecar, and its rows."""
        rng = np.random.default_rng(4)
        values = rng.standard_normal((500, 10))
        path = tmp_path / "big.csv"
        write_features_csv(path, values, [f"r{i}" for i in range(len(values))])
        drop_sidecars(tmp_path)
        return path, values

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("0.5,1_0", None),
            ("0.5,x", "unparsable feature value"),
            ("0.5", "expected 11 cells, got 10"),
        ],
    )
    def test_bad_row_in_second_block(self, tmp_path, bad, message):
        path, values = self.big_file(tmp_path)
        lines = path.read_text().split("\n")
        row = len(lines) - 3
        lines[row] = ",".join(lines[row].split(",")[:9] + [bad])
        path.write_text("\n".join(lines))
        if message is None:  # float() takes 1_0
            _, _, features = csvio.read_id_matrix(path, "feature")
            np.testing.assert_array_equal(features[: row - 1], values[: row - 1])
            assert features[row - 1, 9] == 10.0
        else:
            with pytest.raises(DataFormatError, match=rf"big\.csv:{row + 1}: {message}$"):
                csvio.read_id_matrix(path, "feature")

    def test_field_over_the_csv_limit(self, tmp_path):
        cell = "0" * csv.field_size_limit() + "1"
        path = write_text(tmp_path, f"id,p\nr1,{cell}\n")
        with pytest.raises(DataFormatError, match=r"t\.csv: unreadable near line 2: field larger"):
            csvio.read_id_matrix(path, "feature")


FLOAT_BITS = st.integers(0, 2**64 - 1) | st.sampled_from(
    [
        0,  # +0.0
        1 << 63,  # -0.0
        0x7FF0000000000000,  # +inf
        0xFFF0000000000000,  # -inf
        1,  # the least subnormal
        (1 << 52) - 1,  # the greatest subnormal
        0x8000000000000001,
        0x7FF8000000000000,  # the parser's NaN
        0xFFF8000000000000,
        0x7FF0000000000001,  # signalling
        0xFFFFFFFFFFFFFFFF,
    ]
)
SIDECAR_IDS = st.text("abcXYZ019 ._-#'\\\u00e9\u2028", max_size=6) | text


class TestSidecar:
    """``write_id_matrix`` leaves a sidecar beside each file it can vouch
    for, and ``read_id_matrix`` returns it only while it matches the file:
    the same names, ids and bits as the parser, or the parser's error."""

    @settings(max_examples=150, deadline=None)
    @given(
        bits=hnp.arrays(
            np.uint64,
            st.tuples(st.integers(0, 8), st.integers(1, 8)),
            elements=FLOAT_BITS,
        ),
        data=st.data(),
    )
    def test_same_as_the_parser(self, tmp_path_factory, bits, data):
        matrix = bits.view(np.float64)
        n, width = matrix.shape
        ids = data.draw(st.lists(SIDECAR_IDS, min_size=n, max_size=n))
        path = tmp_path_factory.mktemp("s") / "m.csv"
        names = [f"f{j}" for j in range(width)]
        with mock.patch.object(csvio, "CHUNK_CELLS", 3):  # files of several chunks
            if data.draw(st.booleans()):
                names = data.draw(st.lists(text, min_size=width, max_size=width))
                write_predictions_csv(path, ids, matrix, names)
            else:
                write_features_csv(path, matrix, ids)
        sidecar = csvio.sidecar_path(path)
        plain = not any(set(field) & set(',"\r\n\0') for field in [*ids, *names])
        assert sidecar.exists() == (n > 0 and plain)
        if sidecar.exists():
            with mock.patch.object(csvio, "read_id_rows", forbidden_parse):
                got = id_matrix_outcome(csvio.read_id_matrix, path)
        else:
            got = id_matrix_outcome(csvio.read_id_matrix, path)
        sidecar.unlink(missing_ok=True)
        assert got == id_matrix_outcome(csvio.read_id_matrix, path)

    def written(self, tmp_path, name="m.csv", values=((0.5, -1.25), (3.0, np.nan))):
        path = tmp_path / name
        write_features_csv(path, np.array(values), [f"r{i}" for i in range(len(values))])
        return path

    def save(self, sidecar, *arrays, **kwargs):
        with open(sidecar, "wb") as fh:
            for array in arrays:
                np.save(fh, array, **kwargs)

    @pytest.mark.parametrize(
        "damage",
        [
            "edited cell", "unparsable cell", "edited id", "short row", "empty sidecar",
            "truncated sidecar", "sidecar header only", "garbage", "pickle", "object array",
            "other file's sidecar", "trailing byte", "extra array", "two arrays",
            "narrow matrix", "float32 matrix", "fortran order", "2-D ids", "one id short",
            "bytes ids", "bytes digest", "npz", "directory",
        ],
    )
    def test_damage_takes_the_parse_path(self, tmp_path, damage):
        path = self.written(tmp_path)
        sidecar = csvio.sidecar_path(path)
        digest, ids = np.array(csvio.sha256_file(path)), np.array(["r0", "r1"])
        matrix = np.array([[0.5, -1.25], [3.0, np.nan]])
        edits = {
            "edited cell": (b"0.5", b"0.7"),
            "unparsable cell": (b"0.5", b"0.x"),
            "edited id": (b"r0", b"q0"),
            "short row": (b",-1.25", b""),
        }
        if damage in edits:
            path.write_bytes(path.read_bytes().replace(*edits[damage]))
        elif damage == "empty sidecar":
            sidecar.write_bytes(b"")
        elif damage == "truncated sidecar":
            sidecar.write_bytes(sidecar.read_bytes()[:-9])
        elif damage == "sidecar header only":
            sidecar.write_bytes(sidecar.read_bytes()[:128])
        elif damage == "garbage":
            sidecar.write_bytes(bytes(range(256)) * 3)
        elif damage == "pickle":
            sidecar.write_bytes(pickle.dumps((digest, ids, matrix)))
        elif damage == "object array":
            self.save(sidecar, digest, ids.astype(object), matrix, allow_pickle=True)
        elif damage == "other file's sidecar":
            other = self.written(tmp_path, "other.csv", ((0.5, -1.25), (3.0, 4.0)))
            sidecar.write_bytes(csvio.sidecar_path(other).read_bytes())
        elif damage == "trailing byte":
            sidecar.write_bytes(sidecar.read_bytes() + b"\0")
        elif damage == "extra array":
            self.save(sidecar, digest, ids, matrix, matrix)
        elif damage == "two arrays":
            self.save(sidecar, digest, ids)
        elif damage == "narrow matrix":
            self.save(sidecar, digest, ids, matrix[:, :1])
        elif damage == "float32 matrix":
            self.save(sidecar, digest, ids, matrix.astype(np.float32))
        elif damage == "fortran order":
            self.save(sidecar, digest, ids, np.asfortranarray(matrix))
        elif damage == "2-D ids":
            self.save(sidecar, digest, ids[:, None], matrix)
        elif damage == "one id short":
            self.save(sidecar, digest, ids[:1], matrix)
        elif damage == "bytes ids":
            self.save(sidecar, digest, ids.astype(bytes), matrix)
        elif damage == "bytes digest":
            self.save(sidecar, digest.astype(bytes), ids, matrix)
        elif damage == "npz":
            np.savez(sidecar, digest, ids, matrix)
            sidecar.with_name(sidecar.name + ".npz").replace(sidecar)
        elif damage == "directory":
            sidecar.unlink()
            sidecar.mkdir()
        got = id_matrix_outcome(csvio.read_id_matrix, path)
        assert got == id_matrix_outcome(csvio.read_id_rows, path)
        if damage not in edits:
            assert got[1] == ("r0", "r1")
            assert got[3] == matrix.view(np.int64).tobytes()

    def test_hashed_only_beside_a_sidecar(self, tmp_path, monkeypatch):
        path = self.written(tmp_path)
        hashed, sha256_file = [], csvio.sha256_file
        monkeypatch.setattr(csvio, "sha256_file", lambda p: hashed.append(p) or sha256_file(p))
        monkeypatch.setattr(csvio, "read_id_rows", forbidden_parse)
        names, ids, _ = csvio.read_id_matrix(path, "feature")
        assert hashed == [path] and names == ("f0", "f1") and ids == ("r0", "r1")
        csvio.sidecar_path(path).unlink()
        monkeypatch.undo()
        monkeypatch.setattr(csvio, "sha256_file", forbidden_parse)
        names, ids, _ = csvio.read_id_matrix(path, "feature")
        assert names == ("f0", "f1") and ids == ("r0", "r1")

    def test_rewrite_without_a_sidecar_removes_the_old_one(self, tmp_path):
        path = tmp_path / "m.csv"
        sidecar = csvio.sidecar_path(path)
        for ids, kept in [(["a"], True), (["a,b"], False), (["a"], True), (["\0"], False),
                          (["a"], True), ([], False)]:
            write_features_csv(path, np.ones((len(ids), 2)), ids)
            assert sidecar.exists() == kept
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    def test_no_sidecar_beside_a_quoted_header(self, tmp_path):
        # the carriage return is quoted, and the checked loop reads it back
        path = tmp_path / "p.csv"
        write_predictions_csv(path, ["a"], np.zeros((1, 1)), ["\r0"])
        assert not csvio.sidecar_path(path).exists()
        assert csvio.read_id_matrix(path, "prediction")[0] == ("\r0",)

    def test_same_bytes_on_every_write(self, tmp_path):
        first = csvio.sidecar_path(self.written(tmp_path, "a.csv")).read_bytes()
        again = csvio.sidecar_path(self.written(tmp_path, "b.csv")).read_bytes()
        assert first == again
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.csv", "a.csv.npy", "b.csv", "b.csv.npy"
        ]

    def test_failed_sidecar_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        replace = csvio.os.replace

        def full(partial, path):
            if str(path).endswith(".npy"):
                raise OSError("no space left")
            replace(partial, path)

        monkeypatch.setattr(csvio.os, "replace", full)
        with pytest.raises(OSError, match="no space left"):
            self.written(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    @pytest.mark.parametrize("nan", [False, True])
    def test_fortran_order_matrix(self, tmp_path, monkeypatch, nan):
        values = np.asfortranarray(np.arange(12.0).reshape(4, 3) / 7)
        values[2, 1] = np.nan if nan else values[2, 1]
        features, predictions = tmp_path / "f.csv", tmp_path / "p.csv"
        write_features_csv(features, values, list("abcd"))
        write_predictions_csv(predictions, list("abcd"), values, "XYZ")
        monkeypatch.setattr(csvio, "read_id_rows", forbidden_parse)
        for path in (features, predictions):
            _, ids, matrix = csvio.read_id_matrix(path, "feature")
            assert ids == tuple("abcd")
            assert matrix.flags.c_contiguous
            np.testing.assert_array_equal(matrix, values)

    def test_long_id_past_the_field_limit(self, tmp_path):
        path = tmp_path / "m.csv"
        write_features_csv(path, np.ones((1, 1)), ["x" * 40])
        limit = csv.field_size_limit(30)
        try:
            with pytest.raises(DataFormatError, match="field larger than field limit"):
                csvio.read_id_matrix(path, "feature")
        finally:
            csv.field_size_limit(limit)


def forbidden_parse(*args):
    raise AssertionError("the file was parsed or hashed")


def label_outcome(path, tree, sidecar=True):
    """What ``load_labels_csv`` makes of a label file, by its sidecar
    where it vouches for the file (``sidecar``) or by the checked loop
    alone: its result, code bytes included, or its error message."""
    read = csvio.read_sidecar if sidecar else no_sidecar
    with mock.patch.object(data_mod, "read_sidecar", read):
        try:
            labels, ids = data_mod.load_labels_csv(path, tree)
        except DataFormatError as exc:
            return str(exc)
    assert labels.flags.c_contiguous
    return labels.dtype, labels.shape, labels.tobytes(), ids


def no_sidecar(*args):
    return None


LABEL_CELLS = ("1.0", "0.0", "-1.0", "")
CELL_CODES = dict(zip(LABEL_CELLS, (POS, NEG, UNC, MISSING)))
META_TEXT = st.text("abcXYZ019 ._-#'\\\u00e9", max_size=6)


@st.composite
def canonical_label_files(draw):
    """A label file of canonical cells: the tree's labels in any column
    order among other columns (an id, a Path, others the reader ignores,
    a repeated name), blank lines and a missing last newline."""
    k = draw(st.integers(1, 4))
    tree = random_forest(np.random.default_rng(draw(st.integers(0, 99))), k)
    meta = draw(st.lists(st.sampled_from(["id", "Path", "Sex", "note", "id"]), max_size=3))
    header = draw(st.permutations([*tree.names, *meta]))
    cells = {c: st.sampled_from(LABEL_CELLS) if c in tree.names else META_TEXT for c in header}
    rows = [[draw(cells[c]) for c in header] for _ in range(draw(st.integers(1, 12)))]
    if len(header) == 1:  # a lone empty cell is a blank line, which csv skips
        rows = [row for row in rows if row != [""]] or [["1.0"]]
    lines = [",".join(row) + "\n" for row in [header, *rows]]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "\n")
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")
    return tree, "".join(lines), header, rows


class TestLabelBlockReader:
    """``load_labels_csv`` reads a file without a sidecar of its own
    through the checked loop: the result is the loop's, or its
    ``DataFormatError`` message."""

    @settings(max_examples=300, deadline=None)
    @given(file=canonical_label_files())
    def test_canonical_files_read_cell_by_cell(self, tmp_path_factory, file):
        tree, text, header, rows = file
        path = write_text(tmp_path_factory.mktemp("l"), text)
        _, shape, codes, ids = label_outcome(path, tree)
        columns = {c: tuple(row[header.index(c)] for row in rows) for c in header}
        expected = [[CELL_CODES[cell] for cell in columns[name]] for name in tree.names]
        assert shape == (len(rows), tree.K)
        assert codes == np.array(expected, dtype=np.int8).T.tobytes()
        assert ids == columns.get("Path", columns.get("id", data_mod.row_ids(len(rows))))

    @pytest.mark.parametrize(
        "text",
        [
            'id,A,B,C\n"r1",1.0,0.0,\nr2,"1.0",0.0,-1.0\n',  # quoted cells
            'id,A,B,C\nr1,1.0,0.0,\n"r2",0.0,0.0,\n',  # a quoted id
            "id,A,B,C\r\nr1,1.0,0.0,\r\nr2,0.0,,-1.0\r\n",  # CRLF line ends
            "A,B,C,id\n1.0,0.0,,r1\r\n0.0,0.0,0.0,r2\n",
            "id,A,B,C\n\nr1,1.0,0.0,\n\n\nr2,0.0,,-1.0\n\n",  # blank lines
            "id,A,B,C\nr1, 1.0,0.0,\n",
            "id,A,B,C\nr1,1,0.0,\n",
            "id,A,B,C\nr1,1.00,0.0,\n",
            "id,A,B,C\nr1,-1,0.0,\n",
            "id,A,B,C\nr1,1.0,2.0,\n",
            "id,A,B,C\nr1,1.0,x,\n",
            "id,A,B,C\nr1,1.0,0.0,\nr2,1.0,0.0\n",  # a short row
            "id,A,B,C\nr1,1.0,0.0,,\n",  # a long row
            "id,A,B,C\nr1,1.0,0.0,,\nr2,1.0,0.0\n",  # both, with the header's comma count
            "A,B,C\n1.0,0.0,,0.0\n1.0,0.0\n",  # as above, every cell a code
            b"id,A,B,C\nr1,1.0,0.0,\nr2,0.0\xff,0.0,\n",  # not UTF-8
            "C,id,A,B\n,r1,1.0,0.0\n-1.0,r2,0.0,0.0\n",  # labels out of tree order
            "B,A,Path,Sex,C\n0.0,1.0,p/1.png,Male,\n",
            "A,B,C\n1.0,0.0,\n0.0,0.0,0.0\n",  # no id column
            "id,Path,A,B,C,Age\nr1,p/1.png,1.0,0.0,,61\n",
            "Sex,id,A,Sex,B,C\nMale,r1,1.0,Female,0.0,\n",  # a repeated name
            "id,A,B\nr1,1.0,0.0\n",  # a missing label column
            "id,A,B,C\n",  # no data rows
            "id,A,B,C",
            "\nid,A,B,C\nr1,1.0,0.0,\n",
            "",
        ],
    )
    # Each text replaces a package file of one row or of many, whose sidecar
    # stays beside it: the header or the file's hash must refuse that sidecar.
    @pytest.mark.parametrize("stale_rows", [1, 1 << 13])
    def test_same_as_checked_loop(self, tmp_path, text, stale_rows):
        path = tmp_path / "t.csv"
        labels = np.resize(np.array([POS, NEG, UNC, MISSING], dtype=np.int8), (stale_rows, 3))
        write_labels_csv(path, labels, CHAIN, [f"r{i + 1}" for i in range(stale_rows)])
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert csvio.sidecar_path(path).exists()
        assert label_outcome(path, CHAIN) == label_outcome(path, CHAIN, sidecar=False)

    def test_package_files_read_from_the_sidecar(self, tmp_path, monkeypatch):
        """Read from the sidecar while it is there, else by the checked loop."""
        codes = np.array([POS, NEG, UNC, MISSING], dtype=np.int8)
        labels = codes[np.random.default_rng(5).integers(0, 4, size=(4000, 3))]
        ids = [f"row{i:05d}" for i in range(4000)]
        path = tmp_path / "l.csv"
        write_labels_csv(path, labels, CHAIN, ids)
        expected = label_outcome(path, CHAIN, sidecar=False)

        def forbidden(*args):
            raise AssertionError(f"{args[0]} was parsed")

        with mock.patch.object(data_mod, "_read_label_rows", forbidden):
            got = label_outcome(path, CHAIN)
        assert got == expected and got[2] == labels.tobytes() and got[3] == tuple(ids)
        csvio.sidecar_path(path).unlink()
        assert label_outcome(path, CHAIN) == expected


class TestLabelSidecar:
    """``write_labels_csv`` leaves an int8 sidecar beside a file whose ids
    need no quoting, and ``load_labels_csv`` returns it only while it matches
    the file and the tree: the parser's labels, or the parser's error."""

    def written(self, tmp_path, n=3):
        path = tmp_path / "l.csv"
        labels = np.resize(np.array([POS, NEG, UNC, MISSING], dtype=np.int8), (n, 3))
        write_labels_csv(path, labels, CHAIN, [f"r{i}" for i in range(n)])
        return path, labels

    def test_one_byte_edits(self, tmp_path):
        path, _ = self.written(tmp_path)
        original = path.read_bytes()
        assert csvio.sidecar_path(path).exists()
        for i in range(len(original)):
            for byte in b'01-.,\n"x':
                edited = original[:i] + bytes([byte]) + original[i + 1 :]
                if edited == original:
                    continue
                path.write_bytes(edited)
                got = label_outcome(path, CHAIN)
                assert got == label_outcome(path, CHAIN, sidecar=False), (i, chr(byte))

    @pytest.mark.parametrize("code", [2, -3, 127, -128])
    def test_code_outside_the_four_refused(self, tmp_path, code):
        path, labels = self.written(tmp_path)
        bad = labels.copy()
        bad[1, 2] = code
        with open(csvio.sidecar_path(path), "wb") as fh:
            for array in (np.array(csvio.sha256_file(path)), np.array(["r0", "r1", "r2"]), bad):
                np.save(fh, array)
        assert csvio.read_sidecar(path, np.int8)[2].tobytes() == bad.tobytes()
        got = label_outcome(path, CHAIN)
        assert got == label_outcome(path, CHAIN, sidecar=False)
        assert got[2] == labels.tobytes()

    def test_other_tree_order_reads_the_columns_by_name(self, tmp_path):
        path, labels = self.written(tmp_path)
        reordered = build_tree([("B", "A", 0), ("A", None, 1), ("C", "B", 2)])
        got = label_outcome(path, reordered)
        assert got == label_outcome(path, reordered, sidecar=False)
        assert got[2] == labels[:, [1, 0, 2]].tobytes()

    def test_float_and_label_sidecars_are_not_mixed_up(self, tmp_path):
        path, labels = self.written(tmp_path)
        assert csvio.read_sidecar(path, np.float64) is None
        features = tmp_path / "f.csv"
        write_features_csv(features, np.zeros((2, 3)), ["r0", "r1"])
        csvio.sidecar_path(features).replace(csvio.sidecar_path(path))
        assert label_outcome(path, CHAIN)[2] == labels.tobytes()

    def test_quoted_id_files_get_none(self, tmp_path):
        path, labels = self.written(tmp_path)
        sidecar = csvio.sidecar_path(path)
        for ids, kept in [
            (("r0", "r,1", "r2"), False),
            (("r0", "r1", "r2"), True),
            (("r0", 'r"1', "r2"), False),
            (("r0", "r1", "r2"), True),
            (("r0", "r1", "r\r2"), False),
        ]:
            write_labels_csv(path, labels, CHAIN, ids)
            assert sidecar.exists() == kept
            assert label_outcome(path, CHAIN) == label_outcome(path, CHAIN, sidecar=False)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv"]

    def test_labels_of_another_dtype_get_an_int8_sidecar(self, tmp_path, monkeypatch):
        path = tmp_path / "l.csv"
        labels = np.asfortranarray(np.resize(np.array([1, 0, -1, -2]), (4, 3)))
        write_labels_csv(path, labels, CHAIN, ["a", "b", "c", "d"])
        monkeypatch.setattr(data_mod, "_read_label_rows", forbidden_parse)
        got, ids = load_labels_csv(path, CHAIN)
        assert got.dtype == np.int8 and got.tobytes() == labels.astype(np.int8).tobytes()
        assert ids == ("a", "b", "c", "d")


class TestHeldFile:
    """``write_id_matrix`` leaves alone a file whose sidecar holds the
    header, ids and matrix it is asked to write, and rewrites any other
    file as a fresh write would."""

    IDS = ("r0", "r1", "r2")

    def write(self, path, kind, ids, matrix, names):
        if kind == "labels":
            tree = build_tree([(names[0], None, 0), (names[1], names[0], 1)])
            write_labels_csv(path, matrix, tree, ids)
        else:
            write_predictions_csv(path, ids, matrix, names)

    @pytest.mark.parametrize("kind", ["predictions", "labels"])
    @pytest.mark.parametrize("change", [None, "value", "id", "name"])
    def test_rewritten_unless_held(self, tmp_path, monkeypatch, kind, change):
        if kind == "labels":
            matrix = np.array([[POS, NEG], [UNC, MISSING], [NEG, NEG]], dtype=np.int8)
        else:
            matrix = np.array([[0.5, 0.0], [-1.25, 2.0], [0.0, 3.0]])
        path, ids, names = tmp_path / "m.csv", list(self.IDS), ["A", "B"]
        self.write(path, kind, ids, matrix, names)
        files = (path, csvio.sidecar_path(path))
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in files]
        matrix = matrix.copy()
        if change == "value":  # one zero's sign, or one code
            matrix[0, 1] = -0.0 if kind == "predictions" else UNC
        elif change == "id":
            ids[1] = "r9"
        elif change == "name":
            names[1] = "C"
        written, write_rows = [], csvio.write_rows

        def recorded(path, *args):
            written.append(path)
            return write_rows(path, *args)

        monkeypatch.setattr(csvio, "write_rows", recorded)
        self.write(path, kind, ids, matrix, names)
        assert written == ([] if change is None else [path])
        if change is None:
            assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in files] == before
        fresh = tmp_path / "fresh.csv"
        self.write(fresh, kind, ids, matrix, names)
        assert path.read_bytes() == fresh.read_bytes()
        assert files[1].read_bytes() == csvio.sidecar_path(fresh).read_bytes()


def forest(tree) -> tuple:
    """A label forest as its names and parent indices."""
    return tree.names, tree.parent_index.tolist()


class TestLoadersShareTheReader:
    """Blank lines, a byte-order mark, short rows and empty files behave
    alike in every loader."""

    LOADERS = {
        "labels": ("id,A,B,C\n", "r1,1.0,0.0,\n", lambda p: load_labels_csv(p, CHAIN)),
        "features": ("id,f0,f1\n", "r1,0.5,1.5\n", lambda p: csvio.read_id_matrix(p, "feature")),
        "predictions": (
            "id,A,B\n", "r1,0.5,0.25\n", lambda p: csvio.read_id_matrix(p, "prediction")
        ),
        "hierarchy": ("name,parent,index\n", "A,,0\n", lambda p: forest(load_tree(p))),
        "readers": ("label,reader,fpr,tpr\n", "A,r1,0.1,0.5\n", load_operating_points),
    }

    @pytest.mark.parametrize("kind", LOADERS)
    def test_blank_lines_skipped(self, tmp_path, kind):
        header, row, load = self.LOADERS[kind]
        plain = load(write_text(tmp_path, header + row, "plain.csv"))
        blank = load(write_text(tmp_path, header + "\n" + row + "\n\n", "blank.csv"))
        assert repr(blank) == repr(plain)

    @pytest.mark.parametrize("kind", LOADERS)
    def test_byte_order_mark_skipped(self, tmp_path, kind):
        header, row, load = self.LOADERS[kind]
        plain = load(write_text(tmp_path, header + row, "plain.csv"))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (header + row).encode())  # as Excel saves "CSV UTF-8"
        assert repr(load(path)) == repr(plain)

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
        """The bytes of ``csv.writer`` rows, a carriage return quoted."""
        header = ["name", "note, free"]
        rows = [[text, i] for i, text in enumerate(ODD_TEXT)]
        rows += [["", ""], [1.5, None], [True, 2**70, -0.0]]
        csvio.write_table(tmp_path / "new.csv", header, rows)
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = _writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(row)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_carriage_return_reads_back(self, tmp_path):
        path = tmp_path / "report.csv"
        csvio.write_table(path, ["label", "auc", "readers_below"], [["a\rb", 0.5, 1]])
        assert path.read_bytes() == b'label,auc,readers_below\n"a\rb",0.5,1\n'
        with csvio.reader(path) as (header, rows):
            assert header == ["label", "auc", "readers_below"]
            assert [cells for _, cells in rows] == [["a\rb", "0.5", "1"]]


class TestWriteRowsHeader:
    """``write_rows`` refuses a header that does not name every column,
    the id column included, before it opens any file."""

    @pytest.mark.parametrize(
        "header, ids",
        [
            (["id", "a", "b"], ["r0", "r1"]),
            (["id", "a", "b", "c", "d"], ["r0", "r1"]),
            (["a", "b"], None),
            (["id", "a", "b", "c"], None),
        ],
        ids=["short", "long", "short-without-ids", "long-without-ids"],
    )
    def test_refused_before_any_file_opens(self, tmp_path, header, ids):
        cells = np.zeros((2, 3))
        with pytest.raises(ValueError, match=f"{len(header)} header names for "):
            csvio.write_rows(tmp_path / "f.csv", header, ids, cells)
        assert list(tmp_path.iterdir()) == []


class TestReplacing:
    """``replacing`` puts a whole file in place of its target, or leaves
    the target's old bytes and no partial file."""

    def test_replaces_the_old_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"old\n")
        with csvio.replacing(path) as fh:
            fh.write(b"new\n")
            assert path.read_bytes() == b"old\n"
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize("failing", ["block", "replace"])
    def test_failure_keeps_the_old_bytes(self, tmp_path, monkeypatch, failing):
        def full(*args):
            raise OSError("no space left")

        if failing == "replace":
            monkeypatch.setattr(csvio.os, "replace", full)
        path = tmp_path / "f.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(OSError, match="no space left"):
            with csvio.replacing(path) as fh:
                fh.write(b"new\n")
                if failing == "block":
                    full()
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_left_partial_file_is_overwritten(self, tmp_path):
        path = tmp_path / "f.txt"
        (tmp_path / "f.txt.tmp").write_bytes(b"partial from a killed process" * 10)
        csvio.replace_text(path, "é\n")
        assert path.read_bytes() == "é\n".encode()
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]
