import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermlc import seeding
from hiermlc.data import MISSING, Dataset, inject_uncertainty
from hiermlc.policy import apply_policy, make_policy
from oracles import per_row_injection, per_row_lsr_targets, per_row_uniforms


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestRowsUniforms:
    # the member_seed range is [0, 2**62); 2**32 is the first two-word seed
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**62 - 1])
    @pytest.mark.parametrize("n_cols", range(1, 9))
    def test_matches_per_row_streams(self, seed, n_cols):
        rows = [0, 1, 2, 17, 1999, 2**31, 2**32 - 1]
        for purpose in (seeding.PURPOSE_LSR, seeding.PURPOSE_UNC_INJECT):
            assert_bits_equal(
                seeding.rows_uniforms(purpose, seed, rows, n_cols),
                per_row_uniforms(purpose, seed, rows, n_cols),
            )

    def test_wide_keys_extend_the_entropy(self):
        # keys past 2**32 add SeedSequence words; five or more words take
        # the extra mixing rounds beyond the four-word pool
        rows = [2**32, 2**40 + 3, 3, 2**62, 0]
        for purpose, seed in ((1, 2**64 + 5), (2**33, 2**100 + 7), (2, 2**62 - 1)):
            assert_bits_equal(
                seeding.rows_uniforms(purpose, seed, rows, 5),
                per_row_uniforms(purpose, seed, rows, 5),
            )

    def test_rows_span_blocks(self):
        rows = np.arange(2 * seeding._BLOCK_ROWS + 5)
        rows[seeding._BLOCK_ROWS + 1] = 2**33
        assert_bits_equal(
            seeding.rows_uniforms(2, 11, rows, 2), per_row_uniforms(2, 11, rows, 2)
        )

    def test_row_order_and_repeats(self):
        rows = [5, 0, 5, 3]
        out = seeding.rows_uniforms(1, 9, rows, 4)
        assert_bits_equal(out, per_row_uniforms(1, 9, rows, 4))
        assert_bits_equal(out[0], out[2])

    def test_empty_row_set(self):
        out = seeding.rows_uniforms(1, 3, np.array([], dtype=np.int64), 6)
        assert out.shape == (0, 6) and out.dtype == np.float64

    @pytest.mark.parametrize(
        "purpose,seed,rows", [(-1, 0, [0]), (1, -1, [0]), (1, 0, [0, -3])]
    )
    def test_negative_keys_rejected_like_seed_sequence(self, purpose, seed, rows):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.SeedSequence((purpose, seed, min(rows)))
        with pytest.raises(ValueError, match="non-negative"):
            seeding.rows_uniforms(purpose, seed, rows, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        purpose=st.integers(0, 2**40),
        seed=st.integers(0, 2**70),
        rows=st.lists(st.integers(0, 2**63 - 1), max_size=6),
        n_cols=st.integers(1, 8),
    )
    def test_property_random_keys(self, purpose, seed, rows, n_cols):
        assert_bits_equal(
            seeding.rows_uniforms(purpose, seed, rows, n_cols),
            per_row_uniforms(purpose, seed, rows, n_cols),
        )


class TestBatchedConsumers:
    def labels(self, seed, n=300, k=6):
        rng = np.random.default_rng(seed)
        return rng.choice([1, 0, -1, -2], size=(n, k), p=[0.3, 0.3, 0.3, 0.1]).astype(
            np.int8
        )

    @pytest.mark.parametrize("seed", [0, 2**32, 2**62 - 1])
    def test_lsr_targets_match_per_row_draws(self, seed):
        labels = self.labels(1)
        for name, (lo, hi) in (("ones-lsr", (0.55, 0.85)), ("zeros-lsr", (0.0, 0.3))):
            targets, _ = apply_policy(labels, make_policy(name), seed)
            assert_bits_equal(targets, per_row_lsr_targets(labels, lo, hi, seed))

    @pytest.mark.parametrize("seed", [0, 7, 2**62 - 1])
    def test_injection_matches_per_row_draws(self, seed):
        labels = self.labels(2)
        labels[labels == -1] = 0
        ds = Dataset(np.zeros((labels.shape[0], 1)), labels, tuple(map(str, range(300))))
        out = inject_uncertainty(ds, 0.3, seed).labels
        np.testing.assert_array_equal(out, per_row_injection(labels, 0.3, seed))
        assert ((out == MISSING) == (labels == MISSING)).all()
