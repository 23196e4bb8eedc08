import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermlc.errors import DataFormatError
from hiermlc.hierarchy import (
    LabelTree,
    build_tree,
    default_hierarchy_path,
    load_tree,
    propagate,
)
from oracles import enumerate_marginals, random_forest

CHAIN = [("A", None, 0), ("B", "A", 1), ("C", "B", 2)]


def chain_tree() -> LabelTree:
    return build_tree(CHAIN)


class TestConstruction:
    """Forest invariants are enforced at build time."""

    def test_valid_chain(self):
        tree = chain_tree()
        assert tree.K == 3
        assert tree.names == ("A", "B", "C")
        assert tree.parent_index.tolist() == [-1, 0, 1]
        assert tree.leaves == ("C",)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_tree([("A", None, 0), ("A", None, 1)])

    @pytest.mark.parametrize(
        "indices", [(0, 2), (1, 2), (0, 0)], ids=["gap", "offset", "dup"]
    )
    def test_non_dense_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="indices"):
            build_tree([("A", None, indices[0]), ("B", None, indices[1])])

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="unknown parent"):
            build_tree([("A", "Z", 0)])

    def test_self_parent_rejected(self):
        with pytest.raises(ValueError, match="own parent"):
            build_tree([("A", "A", 0)])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            build_tree([("A", "B", 0), ("B", "A", 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            build_tree([])


def ancestors(tree: LabelTree, name: str) -> list[str]:
    """Ancestor names of a label, root first, by a walk over ``parent_index``."""
    path, cur = [], int(tree.parent_index[tree.index_of(name)])
    while cur != -1:
        path.insert(0, tree.names[cur])
        cur = int(tree.parent_index[cur])
    return path


class TestNavigation:
    def test_ancestors_root_first(self):
        tree = chain_tree()
        assert ancestors(tree, "C") == ["A", "B"]
        assert ancestors(tree, "A") == []

    def test_records_in_any_order(self):
        tree = build_tree(
            [("D", None, 3), ("C", "A", 2), ("A", None, 0), ("B", "A", 1)]
        )
        assert tree.names == ("A", "B", "C", "D")
        assert tree.parent_index.tolist() == [-1, 0, 0, -1]
        assert [tree.index_of(name) for name in "ABCD"] == [0, 1, 2, 3]
        assert tree.leaves == ("B", "C", "D")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown label name: 'Z'"):
            chain_tree().index_of("Z")

    def test_topo_order_parents_first(self, tmp_path):
        # indices need not put parents first: child B at 0 under root A at 1
        path = tmp_path / "h.csv"
        path.write_text("name,parent,index\nB,A,0\nA,,1\n")
        child_first = load_tree(path)
        assert child_first.parent_index.tolist() == [1, -1]
        assert child_first.topo_order == (1, 0)
        rng = np.random.default_rng(7)
        forests = (random_forest(rng, int(rng.integers(1, 9))) for _ in range(50))
        for tree in (child_first, *forests):
            seen = set()
            for k in tree.topo_order:
                p = int(tree.parent_index[k])
                assert p == -1 or p in seen
                seen.add(k)


class TestPropagate:
    def test_chain_products(self):
        out = propagate(chain_tree(), np.array([0.6, 0.7, 0.5]))
        np.testing.assert_allclose(out, [0.6, 0.42, 0.21], atol=1e-15)

    def test_root_passthrough(self):
        tree = build_tree([("A", None, 0), ("B", None, 1)])
        np.testing.assert_array_equal(
            propagate(tree, np.array([0.3, 0.9])), [0.3, 0.9]
        )

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(0)
        tree = random_forest(rng, 6)
        cond = rng.random((10, 6))
        batch = propagate(tree, cond)
        rows = np.stack([propagate(tree, cond[i]) for i in range(10)])
        np.testing.assert_array_equal(batch, rows)

    def test_out_of_range_rejected(self):
        # a NaN, from a model its input overflows, passes down its path
        out = propagate(chain_tree(), np.array([0.5, np.nan, 0.5]))
        np.testing.assert_array_equal(out, [0.5, np.nan, np.nan])

    def test_matches_exhaustive_enumeration(self):
        # joint-distribution oracle over all 2^K assignments
        rng = np.random.default_rng(123)
        for _ in range(30):
            k = int(rng.integers(1, 7))
            tree = random_forest(rng, k)
            cond = rng.random(k)
            np.testing.assert_allclose(
                propagate(tree, cond),
                enumerate_marginals(tree, cond),
                atol=1e-12,
                rtol=0,
            )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_child_never_exceeds_parent(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        tree = random_forest(rng, k)
        out = propagate(tree, rng.random(k))
        for idx in range(k):
            p = int(tree.parent_index[idx])
            if p != -1:
                assert out[idx] <= out[p] + 1e-15


class TestTreeFiles:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("nope\n", "columns"),
            ("name,parent,index\n", "no node records"),
            ("name,parent,index\nA,,x\n", "not an integer"),
            ("name,parent,index\n,,0\n", "empty label name"),
            ("name,parent,index\nA,B,0\n", "unknown parent"),
            (
                "name,parent,index\na b,,0\na_b,,1\n",
                "labels 'a b' and 'a_b' share the file name 'a_b'",
            ),
            ("name,parent,index\nA,,0\nid,A,1\n", r"bad\.csv: label 'id' is the name of"),
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=match):
            load_tree(path)


class TestDefaultHierarchy:
    """The shipped label set: 14 observations, two branches of depth > 1."""

    def test_loads_and_validates(self):
        tree = load_tree(default_hierarchy_path())
        assert tree.K == 14
        assert ancestors(tree, "Pneumonia") == ["Lung Opacity", "Consolidation"]
        assert ancestors(tree, "Cardiomegaly") == ["Enlarged Cardiomediastinum"]
        assert ancestors(tree, "Lung Opacity") == []
        for name in (
            "Atelectasis",
            "Cardiomegaly",
            "Consolidation",
            "Edema",
            "Pleural Effusion",
        ):
            assert name in tree.names

    def test_indices_dense(self):
        tree = load_tree(default_hierarchy_path())
        assert [tree.index_of(name) for name in tree.names] == list(range(14))
        assert sorted(tree.topo_order) == list(range(14))
