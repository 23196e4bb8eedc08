from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermlc.config import SyntheticDataConfig
from hiermlc.data import (
    MISSING,
    NEG,
    POS,
    UNC,
    Dataset,
    SyntheticSpec,
    conditional_mask,
    generate_synthetic,
    inject_uncertainty,
    load_dataset,
    load_labels_csv,
    write_features_csv,
    write_labels_csv,
)
from hiermlc.csvio import read_id_matrix
from hiermlc.errors import ConfigError, DataFormatError
from hiermlc.hierarchy import build_tree, propagate
from oracles import random_forest

CHAIN = build_tree([("A", None, 0), ("B", "A", 1), ("C", "B", 2)])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLabelCsv:
    def test_cell_codes(self, tmp_path):
        path = write(
            tmp_path,
            "l.csv",
            "A,B,C\n1.0,0.0,-1.0\n,1.0,0.0\n",
        )
        labels, ids = load_labels_csv(path, CHAIN)
        np.testing.assert_array_equal(
            labels, [[POS, NEG, UNC], [MISSING, POS, NEG]]
        )
        assert ids == ("row00000", "row00001")

    def test_missing_as_negative(self, tmp_path):
        # the reader keeps blank cells MISSING; the CLI applies
        # missing_as_negative to every split it loads
        path = write(tmp_path, "l.csv", "A,B,C\n,1.0,\n")
        labels, _ = load_labels_csv(path, CHAIN)
        np.testing.assert_array_equal(labels, [[MISSING, POS, MISSING]])

    def test_metadata_and_path_ids(self, tmp_path):
        # Path gives the ids over id; other columns, such as Sex, are ignored
        path = write(
            tmp_path,
            "l.csv",
            "id,Path,Sex,A,B,C\nr1,p1.jpg,Male,1.0,0.0,1.0\nr2,p2.jpg,Female,0.0,0.0,0.0\n",
        )
        labels, ids = load_labels_csv(path, CHAIN)
        assert ids == ("p1.jpg", "p2.jpg")
        np.testing.assert_array_equal(labels, [[POS, NEG, POS], [NEG, NEG, NEG]])

    def test_column_order_free(self, tmp_path):
        path = write(tmp_path, "l.csv", "C,A,B\n1.0,0.0,-1.0\n")
        labels, _ = load_labels_csv(path, CHAIN)
        # columns are matched by name and stored in index order
        np.testing.assert_array_equal(labels, [[NEG, UNC, POS]])

    @pytest.mark.parametrize(
        "text,match",
        [
            ("A,B\n1.0,0.0\n", r"missing label column\(s\) \['C'\]"),
            ("A,B,C\n1.0,0.0\n", "expected 3 cells"),
            ("A,B,C\nx,0.0,1.0\n", "unparsable"),
            ("A,B,C\n0.5,0.0,1.0\n", "not one of"),
            ("A,B,C\n", "no data rows"),
            ("", "empty file"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, text, match):
        path = write(tmp_path, "l.csv", text)
        with pytest.raises(DataFormatError, match=match):
            load_labels_csv(path, CHAIN)

    @pytest.mark.parametrize(
        "cell,code",
        [("1", POS), (" 1.0 ", POS), ("1.00", POS), ("0", NEG), ("-0.0", NEG),
         ("-1", UNC), (" ", MISSING)],
    )
    def test_non_canonical_cells_parse(self, tmp_path, cell, code):
        path = write(tmp_path, "l.csv", f"A,B,C\n1.0,0.0,-1.0\n1.0,{cell},\n")
        labels, _ = load_labels_csv(path, CHAIN)
        np.testing.assert_array_equal(
            labels, [[POS, NEG, UNC], [POS, code, MISSING]]
        )

    @pytest.mark.parametrize(
        "cell,match",
        [("x", "unparsable label cell 'x'"), ("2.0", "label value '2.0' is not one of")],
    )
    def test_bad_cell_reports_its_line(self, tmp_path, cell, match):
        path = write(tmp_path, "l.csv", f"A,B,C\n1.0,0.0,-1.0\n1.0,0.0,{cell}\n")
        with pytest.raises(DataFormatError, match=rf"l\.csv:3: {match}"):
            load_labels_csv(path, CHAIN)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        labels = rng.choice(
            [POS, NEG, UNC, MISSING], size=(20, 3)
        ).astype(np.int8)
        ids = tuple(f"r{i}" for i in range(20))
        path = tmp_path / "out.csv"
        write_labels_csv(path, labels, CHAIN, ids)
        back, back_ids = load_labels_csv(path, CHAIN)
        np.testing.assert_array_equal(back, labels)
        assert back_ids == ids


class TestFeatureCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((10, 4)) * 1e3
        ids = tuple(f"r{i}" for i in range(10))
        path = tmp_path / "f.csv"
        write_features_csv(path, features, ids)
        _, back_ids, back = read_id_matrix(path, "feature")
        # repr-formatted floats reload bit-exactly
        np.testing.assert_array_equal(back, features)
        assert back_ids == ids

    @pytest.mark.parametrize(
        "text,match",
        [
            ("id,f0\nr1,0.5\nr2,x\n", r"f\.csv:3: unparsable feature value"),
            ("id,f0,f1\nr1,1.0\n", "expected 3 cells"),
            ("id,f0\n", "no data rows"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, text, match):
        with pytest.raises(DataFormatError, match=match):
            read_id_matrix(write(tmp_path, "f.csv", text), "feature")

    def test_no_feature_columns(self, tmp_path):
        with pytest.raises(ValueError, match="without columns"):
            write_features_csv(tmp_path / "f.csv", np.zeros((2, 0)), ("a", "b"))

    def test_id_column_required(self, tmp_path):
        path = write(tmp_path, "f.csv", "f0,f1\n1.0,2.0\n")
        with pytest.raises(DataFormatError, match="id column"):
            read_id_matrix(path, "feature")

    def test_dataset_pair_id_mismatch(self, tmp_path):
        write_features_csv(tmp_path / "f.csv", np.zeros((1, 2)), ("a",))
        write(tmp_path, "l.csv", "id,A,B,C\nb,1.0,0.0,0.0\n")
        with pytest.raises(DataFormatError, match="ids disagree"):
            load_dataset(tmp_path / "f.csv", tmp_path / "l.csv", CHAIN)


class TestConditionalMask:
    def test_chain_cases(self):
        labels = np.array(
            [
                [POS, POS, NEG],   # all ancestors positive everywhere
                [NEG, POS, POS],   # A negative blocks B and C
                [POS, UNC, POS],   # uncertain B blocks C but not B
                [POS, MISSING, POS],
                [UNC, NEG, NEG],
            ],
            dtype=np.int8,
        )
        mask = conditional_mask(labels, CHAIN)
        np.testing.assert_array_equal(
            mask,
            [
                [True, True, True],
                [True, False, False],
                [True, True, False],
                [True, True, False],
                [True, False, False],
            ],
        )

    def test_roots_always_in(self):
        forest = build_tree([("A", None, 0), ("B", None, 1)])
        labels = np.array([[NEG, UNC]], dtype=np.int8)
        np.testing.assert_array_equal(
            conditional_mask(labels, forest), [[True, True]]
        )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_ancestor_walk(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        tree = random_forest(rng, k)
        labels = rng.choice([POS, NEG, UNC, MISSING], size=(8, k)).astype(np.int8)
        mask = conditional_mask(labels, tree)
        for i in range(8):
            for node in range(k):
                expected, a = True, int(tree.parent_index[node])
                while a != -1:  # every ancestor, by a walk to the root
                    expected &= bool(labels[i, a] == POS)
                    a = int(tree.parent_index[a])
                assert mask[i, node] == expected


class TestGenerateSynthetic:
    def spec(self, theta=(0.6, 0.7, 0.5)):
        return SyntheticSpec(tree=CHAIN, theta=np.array(theta))

    def test_shapes_and_ids(self):
        # generated rows carry no ids until a caller writes or matches them
        ds = generate_synthetic(self.spec(), 50, seed=0)
        assert ds.features.shape == (50, 16)
        assert ds.labels.shape == (50, 3)
        assert ds.ids is None

    def test_labels_binary_and_hierarchical(self):
        ds = generate_synthetic(self.spec(), 300, seed=1)
        assert np.isin(ds.labels, (POS, NEG)).all()
        pos = ds.labels == POS
        # a positive child implies a positive parent by construction
        assert not (pos[:, 1] & ~pos[:, 0]).any()
        assert not (pos[:, 2] & ~pos[:, 1]).any()

    def test_deterministic_and_prefix_stable(self):
        a = generate_synthetic(self.spec(), 40, seed=3)
        b = generate_synthetic(self.spec(), 40, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        # row i depends only on (seed, i): longer draws extend, not reshuffle
        big = generate_synthetic(self.spec(), 60, seed=3)
        np.testing.assert_array_equal(big.features[:40], a.features)
        np.testing.assert_array_equal(big.labels[:40], a.labels)

    def test_marginal_frequencies(self):
        n = 50_000
        ds = generate_synthetic(self.spec(), n, seed=11)
        marginals = propagate(CHAIN, self.spec().theta)
        np.testing.assert_allclose(marginals, [0.6, 0.42, 0.21])
        freq = (ds.labels == POS).mean(axis=0)
        sigma = np.sqrt(marginals * (1 - marginals) / n)
        assert (np.abs(freq - marginals) < 4 * sigma + 1e-9).all()


class TestInjectUncertainty:
    def base(self, n=400):
        ds = generate_synthetic(
            SyntheticSpec(tree=CHAIN, theta=np.array([0.6, 0.7, 0.5])), n, seed=0
        )
        return ds

    def test_rate_zero_noop(self):
        ds = self.base()
        out = inject_uncertainty(ds, 0.0, seed=1)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_rate_validation(self):
        # the config checks the rate, also under a replace() override
        syn = SyntheticDataConfig(theta={"A": 0.5})
        with pytest.raises(ConfigError, match="uncertainty_rate"):
            replace(syn, uncertainty_rate=1.5)

    def test_hit_rate_binomial(self):
        ds = self.base(7000)
        out = inject_uncertainty(ds, 0.3, seed=5)
        frac = (out.labels == UNC).mean()
        sigma = np.sqrt(0.3 * 0.7 / out.labels.size)
        assert abs(frac - 0.3) < 4 * sigma

    def test_missing_untouched(self):
        ds = self.base(100)
        labels = ds.labels.copy()
        labels[::3, 0] = MISSING
        ds = Dataset(ds.features, labels, ds.ids)
        out = inject_uncertainty(ds, 0.9, seed=2)
        assert (out.labels[::3, 0] == MISSING).all()

    def test_unhit_cells_unchanged(self):
        ds = self.base(200)
        out = inject_uncertainty(ds, 0.3, seed=7)
        keep = out.labels != UNC
        np.testing.assert_array_equal(out.labels[keep], ds.labels[keep])

    def test_deterministic(self):
        ds = self.base(100)
        a = inject_uncertainty(ds, 0.3, seed=9)
        b = inject_uncertainty(ds, 0.3, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)
