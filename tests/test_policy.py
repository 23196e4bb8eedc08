from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hiermlc.config import config_from_dict
from hiermlc.data import MISSING, NEG, POS, UNC
from hiermlc.errors import ConfigError
from hiermlc.policy import (
    DEFAULT_LSR_ONES,
    DEFAULT_LSR_ZEROS,
    POLICIES,
    apply_policy,
    check_lsr,
    make_policy,
)

LABELS = np.array(
    [
        [POS, NEG, UNC],
        [UNC, MISSING, POS],
        [NEG, UNC, MISSING],
    ],
    dtype=np.int8,
)

label_matrices = hnp.arrays(
    np.int8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
    elements=st.sampled_from([int(POS), int(NEG), int(UNC), int(MISSING)]),
)


class TestPolicyConstruction:
    @pytest.mark.parametrize("name", POLICIES)
    def test_make_policy_names(self, name):
        assert make_policy(name).name == name

    def test_unknown_name(self):
        # the config refuses the name, also under the --policy override
        config = config_from_dict({"seed": 0, "data": {"synthetic": {"theta": {}}}})
        with pytest.raises(ConfigError, match="policy.name must be one of .*'maybe'"):
            replace(config, policy_name="maybe")

    def test_lsr_bounds_attached(self):
        assert make_policy("ones-lsr").lsr == DEFAULT_LSR_ONES
        assert make_policy("zeros-lsr").lsr == DEFAULT_LSR_ZEROS
        assert make_policy("zeros-lsr", lsr_zeros=[0.1, 0.2]).lsr == (0.1, 0.2)
        assert make_policy("ones").lsr is None

    @pytest.mark.parametrize("bounds", [(-0.1, 0.5), (0.6, 0.4), (0.5, 1.2)])
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            check_lsr(bounds)

    def test_lsr_kind_requires_bounds(self):
        # a config's policy carries its bands exactly on the -lsr names
        raw = {"seed": 0, "data": {"synthetic": {"theta": {}}},
               "policy": {"lsr_ones": [0.6, 0.7], "lsr_zeros": [0.1, 0.2]}}
        config = config_from_dict(raw)
        policies = [replace(config, policy_name=name).policy() for name in POLICIES]
        assert [p.lsr for p in policies] == [None, None, None, (0.6, 0.7), (0.1, 0.2)]


class TestHardPolicies:
    """Positive/negative handling is shared; uncertain cells differ."""

    def test_pos_neg_targets(self):
        targets, mask = apply_policy(LABELS, make_policy("ignore"), seed=0)
        assert targets[0, 0] == 1.0 and targets[0, 1] == 0.0
        assert mask[0, 0] and mask[0, 1]

    def test_missing_always_masked(self):
        for name in POLICIES:
            _, mask = apply_policy(LABELS, make_policy(name), seed=0)
            assert not mask[1, 1] and not mask[2, 2]

    def test_ignore_masks_uncertain(self):
        targets, mask = apply_policy(LABELS, make_policy("ignore"), seed=0)
        assert not mask[0, 2] and not mask[1, 0] and not mask[2, 1]
        assert targets[0, 2] == 0.0  # masked-out convention

    def test_ones_sets_hard_positive(self):
        targets, mask = apply_policy(LABELS, make_policy("ones"), seed=0)
        assert targets[0, 2] == 1.0 and mask[0, 2]

    def test_zeros_sets_hard_negative(self):
        targets, mask = apply_policy(LABELS, make_policy("zeros"), seed=0)
        assert targets[0, 2] == 0.0 and mask[0, 2]


class TestLsrPolicies:
    def test_draws_inside_bounds(self):
        rng = np.random.default_rng(3)
        labels = rng.choice(
            [POS, NEG, UNC], size=(200, 5), p=[0.3, 0.3, 0.4]
        ).astype(np.int8)
        for name, (lo, hi) in (
            ("ones-lsr", DEFAULT_LSR_ONES),
            ("zeros-lsr", DEFAULT_LSR_ZEROS),
        ):
            targets, mask = apply_policy(labels, make_policy(name), seed=9)
            unc = labels == UNC
            assert mask[unc].all()
            assert (targets[unc] >= lo).all() and (targets[unc] <= hi).all()

    def test_deterministic(self):
        labels = LABELS.copy()
        a = apply_policy(labels, make_policy("ones-lsr"), seed=4)
        b = apply_policy(labels, make_policy("ones-lsr"), seed=4)
        np.testing.assert_array_equal(a[0], b[0])
        c = apply_policy(labels, make_policy("ones-lsr"), seed=5)
        assert (a[0] != c[0]).any()

    def test_draws_keyed_per_cell(self):
        # a row's draws survive dropping the rows below it
        labels = np.full((6, 4), UNC, dtype=np.int8)
        full, _ = apply_policy(labels, make_policy("ones-lsr"), seed=1)
        prefix, _ = apply_policy(labels[:3], make_policy("ones-lsr"), seed=1)
        np.testing.assert_array_equal(full[:3], prefix)

    def test_draws_independent_of_other_cells(self):
        # changing one cell's code never perturbs another cell's draw
        labels = np.full((4, 4), UNC, dtype=np.int8)
        base, _ = apply_policy(labels, make_policy("ones-lsr"), seed=1)
        labels2 = labels.copy()
        labels2[2, 1] = POS
        changed, _ = apply_policy(labels2, make_policy("ones-lsr"), seed=1)
        keep = np.ones_like(labels, dtype=bool)
        keep[2, 1] = False
        np.testing.assert_array_equal(base[keep], changed[keep])

    def test_mean_near_band_center(self):
        labels = np.full((2500, 4), UNC, dtype=np.int8)
        targets, _ = apply_policy(labels, make_policy("ones-lsr"), seed=0)
        n = targets.size
        width = DEFAULT_LSR_ONES[1] - DEFAULT_LSR_ONES[0]
        center = (DEFAULT_LSR_ONES[0] + DEFAULT_LSR_ONES[1]) / 2
        tol = 3 * width / np.sqrt(12 * n)  # 3 sigma of the sample mean
        assert abs(targets.mean() - center) < tol


class TestPolicyProperties:
    @given(labels=label_matrices, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_mask_structure(self, labels, seed):
        for name in POLICIES:
            targets, mask = apply_policy(labels, make_policy(name), seed)
            expected = labels != MISSING
            if name == "ignore":
                expected &= labels != UNC
            np.testing.assert_array_equal(mask, expected)
            assert ((targets >= 0.0) & (targets <= 1.0)).all()

    @given(labels=label_matrices, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_determined_cells_unchanged_by_policy(self, labels, seed):
        reference, _ = apply_policy(labels, make_policy("ignore"), seed)
        determined = (labels == POS) | (labels == NEG)
        for name in ("ones", "zeros", "ones-lsr", "zeros-lsr"):
            targets, _ = apply_policy(labels, make_policy(name), seed)
            np.testing.assert_array_equal(
                targets[determined], reference[determined]
            )
