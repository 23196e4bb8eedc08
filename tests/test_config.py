import json

import numpy as np
import pytest

from hiermlc.config import (
    RunConfig,
    SyntheticDataConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    synthetic_spec_theta,
)
from hiermlc.csvio import write_json
from hiermlc.errors import ConfigError
from hiermlc.hierarchy import build_tree, default_hierarchy_path

FULL = {
    "seed": 3,
    "out": "runs/demo",
    "hierarchy": "default",
    "mode": "flat",
    "policy": {"name": "ones-lsr", "lsr_ones": [0.6, 0.8], "lsr_zeros": [0.0, 0.2]},
    "optimizer": {"lr0": 0.01, "decay_factor": 0.5, "batch_size": 16, "seed": 1},
    "stage1_iterations": 10,
    "stage2_iterations": 5,
    "hidden_sizes": [8, 4],
    "ensemble_size": 2,
    "workers": 2,
    "eval_subset": ["Edema"],
    "reader_points": "readers.csv",
    "missing_as_negative": True,
    "data": {
        "synthetic": {
            "theta": {"A": 0.5},
            "feature_dim": 4,
            "n_train": 10,
            "n_eval": 10,
        }
    },
}


def minimal(**extra):
    raw = {"seed": 0, "data": {"synthetic": {"theta": {"A": 0.5}}}}
    raw.update(extra)
    return raw


class TestParsing:
    def test_full_dict(self):
        config = config_from_dict(FULL)
        assert config.seed == 3 and config.out == "runs/demo"
        assert config.mode == "flat"
        assert config.policy_name == "ones-lsr"
        assert config.lsr_ones == (0.6, 0.8)
        assert config.optimizer.lr0 == 0.01 and config.optimizer.batch_size == 16
        assert config.hidden_sizes == (8, 4)
        assert config.eval_subset == ("Edema",)
        assert config.synthetic.theta == {"A": 0.5}
        assert config.synthetic.feature_noise == 0.5  # untouched default

    def test_minimal_dict_defaults(self):
        config = config_from_dict(minimal())
        assert config.out == "run"
        assert config.mode == "conditional"
        assert config.policy_name == "ones"
        assert config.ensemble_size == 6
        assert config.csv_data is None

    def test_policy_as_string(self):
        config = config_from_dict(minimal(policy="zeros"))
        assert config.policy_name == "zeros"
        assert config.policy().name == "zeros"

    def test_unknown_policy_name_rejected_on_load(self):
        with pytest.raises(ConfigError, match="policy.name must be one of .*'zebra'"):
            config_from_dict(minimal(policy="zebra"))

    @pytest.mark.parametrize("key", ["lsr_ones", "lsr_zeros"])
    @pytest.mark.parametrize("bounds", [[0.9, 0.1], [-0.1, 0.5], [0.5, 1.5]])
    def test_either_lsr_band_checked_on_load(self, key, bounds):
        # --policy may switch to either band, so both are checked whatever
        # the policy; the error names the JSON key
        with pytest.raises(ConfigError, match=f"policy.{key}: LSR bounds"):
            config_from_dict(minimal(policy={"name": "ones", key: bounds}))

    def test_csv_data_section(self):
        config = config_from_dict(
            minimal(data={"train_labels": "tr.csv", "eval_labels": "ev.csv",
                          "train_features": "tf.csv", "eval_features": "ef.csv"})
        )
        assert config.synthetic is None
        assert config.csv_data.train_labels == "tr.csv"
        assert config.csv_data.train_features == "tf.csv"

    @pytest.mark.parametrize("missing", ["train_features", "eval_features"])
    def test_csv_data_needs_both_features_files(self, missing):
        data = {"train_labels": "tr.csv", "eval_labels": "ev.csv",
                "train_features": "tf.csv", "eval_features": "ef.csv"}
        del data[missing]
        with pytest.raises(ConfigError, match=f"data: .*missing 1 required .*'{missing}'"):
            config_from_dict(minimal(data=data))

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"data": {"synthetic": {"theta": {"A": 0.5}}}})

    def test_missing_data_section(self):
        with pytest.raises(ConfigError, match="data section"):
            config_from_dict({"seed": 0})

    @pytest.mark.parametrize(
        "mutate, where",
        [
            (lambda raw: raw.update(zebra=1), "config"),
            (lambda raw: raw["optimizer"].update(momentum=0.9), "optimizer"),
            (lambda raw: raw["policy"].update(alpha=1), "policy"),
            (lambda raw: raw["data"]["synthetic"].update(shape="x"), "synthetic"),
        ],
    )
    def test_unknown_keys_rejected(self, mutate, where):
        raw = json.loads(json.dumps(FULL))
        mutate(raw)
        with pytest.raises(ConfigError, match=where):
            config_from_dict(raw)

    def test_synthetic_needs_theta(self):
        with pytest.raises(ConfigError, match="theta"):
            config_from_dict(minimal(data={"synthetic": {"feature_dim": 3}}))

    @pytest.mark.parametrize(
        "extra",
        [
            {"mode": "sideways"},
            {"ensemble_size": 0},
            {"workers": 0},
            {"optimizer": {"lr0": 0.0}},
        ],
    )
    def test_invalid_values(self, extra):
        with pytest.raises(ConfigError):
            config_from_dict(minimal(**extra))


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        config = config_from_dict(FULL)
        back = config_from_dict(config_to_dict(config))
        back.out = config.out  # the output dir is deliberately not persisted
        assert back == config

    def test_csv_config_round_trips(self):
        config = config_from_dict(
            minimal(data={"train_labels": "a.csv", "eval_labels": "b.csv",
                          "train_features": "f.csv", "eval_features": "g.csv"})
        )
        back = config_from_dict(config_to_dict(config))
        assert back.csv_data == config.csv_data

    def test_out_never_serialized(self):
        assert "out" not in config_to_dict(config_from_dict(FULL))


class TestLoadConfig:
    def test_file_not_found(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_relative_hierarchy_resolves_against_config(self, tmp_path):
        (tmp_path / "h.csv").write_text("name,parent,index\nA,,0\n")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal(hierarchy="h.csv")))
        config = load_config(path)
        assert config.hierarchy == str(tmp_path / "h.csv")
        assert config.load_tree().names == ("A",)

    def test_absolute_and_default_hierarchy_untouched(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal(hierarchy="/abs/h.csv")))
        assert load_config(path).hierarchy == "/abs/h.csv"
        path.write_text(json.dumps(minimal()))
        config = load_config(path)
        assert config.hierarchy == "default"
        assert config.hierarchy_path() == default_hierarchy_path()

    def test_negative_seed_is_a_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal(seed=-1)))
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            load_config(path)

    def test_missing_hierarchy_file_reported(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal(hierarchy="gone.csv")))
        with pytest.raises(ConfigError, match="hierarchy file not found"):
            load_config(path).load_tree()


class TestSnapshot:
    def test_snapshot_written_canonically(self, tmp_path):
        config = config_from_dict(FULL)
        write_json(tmp_path / "config.json", config_to_dict(config))
        text = (tmp_path / "config.json").read_text()
        assert json.loads(text) == config_to_dict(config)
        assert '"out"' not in text
        write_json(tmp_path / "config.json", config_to_dict(config))
        assert (tmp_path / "config.json").read_text() == text


class TestSyntheticTheta:
    TREE = build_tree([("A", None, 0), ("B", "A", 1)])

    def spec(self, theta):
        return SyntheticDataConfig(theta=theta)

    def test_aligned_vector(self):
        theta = synthetic_spec_theta(self.spec({"B": 0.25, "A": 0.5}), self.TREE)
        np.testing.assert_array_equal(theta, [0.5, 0.25])

    def test_missing_node(self):
        with pytest.raises(ConfigError, match="missing node.*'B'"):
            synthetic_spec_theta(self.spec({"A": 0.5}), self.TREE)

    def test_unknown_node(self):
        with pytest.raises(ConfigError, match="unknown node.*'C'"):
            synthetic_spec_theta(self.spec({"A": 0.5, "B": 0.5, "C": 0.5}), self.TREE)

    def test_out_of_range_names_node(self):
        with pytest.raises(ConfigError, match="'B'.*outside"):
            synthetic_spec_theta(self.spec({"A": 0.5, "B": 1.5}), self.TREE)


class TestTypedSchema:
    """Every value is checked against its field's annotation."""

    @pytest.mark.parametrize(
        "raw_update, path",
        [
            ({"seed": 1.0}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": "x"}, "seed"),
            ({"ensemble_size": "3"}, "ensemble_size"),
            ({"stage1_iterations": 2.5}, "stage1_iterations"),
            ({"hidden_sizes": "32"}, "hidden_sizes"),
            ({"hidden_sizes": [8, 1.5]}, r"hidden_sizes\[1\]"),
            ({"eval_subset": "Edema"}, "eval_subset"),
            ({"missing_as_negative": 1}, "missing_as_negative"),
            ({"mode": 3}, "mode"),
            ({"reader_points": ["r.csv"]}, "reader_points"),
            ({"optimizer": {"lr0": "0.1"}}, "optimizer.lr0"),
            ({"optimizer": {"batch_size": 16.0}}, "optimizer.batch_size"),
            ({"optimizer": [0.1]}, "optimizer"),
            ({"policy": {"lsr_ones": [0.6]}}, "policy.lsr_ones"),
            ({"policy": {"lsr_zeros": [0.0, "0.2"]}}, r"policy.lsr_zeros\[1\]"),
            ({"policy": {"name": 1}}, "policy.name"),
            ({"policy": 1}, "policy.name"),
            ({"data": {"synthetic": {"theta": {"A": "0.5"}}}}, "data.synthetic.theta.A"),
            ({"data": {"synthetic": {"theta": [0.5]}}}, "data.synthetic.theta"),
            ({"data": {"synthetic": "x"}}, "data.synthetic"),
            ({"data": {"synthetic": {"theta": {}, "n_train": 1.5}}}, "data.synthetic.n_train"),
            ({"data": {"train_labels": 1, "eval_labels": "e.csv"}}, "data.train_labels"),
        ],
    )
    def test_wrong_type_names_the_path(self, raw_update, path):
        with pytest.raises(ConfigError, match=rf"^{path} must"):
            config_from_dict(minimal(**raw_update))

    @pytest.mark.parametrize(
        "key", ["policy_name", "lsr_ones", "lsr_zeros", "synthetic", "csv_data"]
    )
    def test_field_names_that_are_not_json_keys_rejected(self, key):
        with pytest.raises(ConfigError, match=rf"unknown config key\(s\): \['{key}'\]"):
            config_from_dict(minimal(**{key: None}))

    def test_csv_data_key_unknown(self):
        raw = minimal(data={"train_labels": "a", "eval_labels": "b", "extra": 1})
        with pytest.raises(ConfigError, match=r"unknown data key\(s\): \['extra'\]"):
            config_from_dict(raw)

    def test_null_allowed_only_for_optional_fields(self):
        assert config_from_dict(minimal(eval_subset=None)).eval_subset is None
        with pytest.raises(ConfigError, match="^hierarchy must be a string"):
            config_from_dict(minimal(hierarchy=None))

    def test_integer_in_a_float_field_becomes_a_float(self):
        config = config_from_dict(
            minimal(optimizer={"decay_factor": 1}, policy={"lsr_ones": [0, 1]})
        )
        assert type(config.optimizer.decay_factor) is float
        assert config.lsr_ones == (0.0, 1.0) and type(config.lsr_ones[0]) is float

    @pytest.mark.parametrize(
        "raw_update, match",
        [
            ({"stage1_iterations": -3}, "stage1_iterations"),
            ({"stage2_iterations": -1}, "stage2_iterations"),
            ({"eval_subset": []}, "eval_subset"),
            ({"optimizer": {"decay_factor": 0.0}}, "decay_factor"),
            ({"optimizer": {"decay_factor": -0.5}}, "decay_factor"),
            ({"data": {"synthetic": {"theta": {}, "n_train": 0}}}, "data.synthetic.n_train"),
            ({"data": {"synthetic": {"theta": {}, "n_eval": 0}}}, "data.synthetic.n_eval"),
            ({"data": {"synthetic": {"theta": {}, "feature_dim": 0}}}, "data.synthetic.feature_dim"),
            ({"data": {"synthetic": {"theta": {}, "feature_noise": -0.1}}}, "data.synthetic.feature_noise"),
            ({"data": {"synthetic": {"theta": {}, "uncertainty_rate": 1.5}}}, "data.synthetic.uncertainty_rate"),
            ({"data": {"synthetic": {"theta": {}, "uncertainty_rate": -0.1}}}, "data.synthetic.uncertainty_rate"),
            ({"eval_subset": ["A", "B", "A"]}, r"more than once: \['A'\]"),
            ({"hidden_sizes": [0]}, r"hidden_sizes\[0\] must be >= 1, got 0"),
            ({"hidden_sizes": [8, -3]}, r"hidden_sizes\[1\] must be >= 1, got -3"),
            ({"optimizer": {"epsilon": 0.0}}, "epsilon must be positive"),
            ({"optimizer": {"epsilon": -1.0}}, "epsilon must be positive"),
            ({"optimizer": {"lr0": 0.0}}, "lr0 must be positive"),
        ],
    )
    def test_out_of_range_values_rejected(self, raw_update, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(minimal(**raw_update))

    def test_range_edges_accepted(self):
        raw = minimal(
            stage1_iterations=0,
            stage2_iterations=0,
            data={"synthetic": {"theta": {}, "n_train": 1, "n_eval": 1, "feature_dim": 1,
                                "feature_noise": 0.0, "uncertainty_rate": 1.0}},
        )
        assert config_from_dict(raw).synthetic.uncertainty_rate == 1.0


class TestFieldRoundTrip:
    """One round trip per float-typed and tuple-typed field."""

    @pytest.mark.parametrize(
        "raw_update, read",
        [
            ({"optimizer": {"beta1": 0.5}}, lambda c: c.optimizer.beta1),
            ({"optimizer": {"beta2": 0.25}}, lambda c: c.optimizer.beta2),
            ({"optimizer": {"lr0": 0.125}}, lambda c: c.optimizer.lr0),
            ({"optimizer": {"epsilon": 1e-6}}, lambda c: c.optimizer.epsilon),
            ({"optimizer": {"decay_factor": 0.3}}, lambda c: c.optimizer.decay_factor),
            ({"data": {"synthetic": {"theta": {"A": 0.1}}}}, lambda c: c.synthetic.theta),
            ({"data": {"synthetic": {"theta": {}, "feature_noise": 2.5}}},
             lambda c: c.synthetic.feature_noise),
            ({"data": {"synthetic": {"theta": {}, "uncertainty_rate": 0.4}}},
             lambda c: c.synthetic.uncertainty_rate),
            ({"policy": {"lsr_ones": [0.6, 0.9]}}, lambda c: c.lsr_ones),
            ({"policy": {"lsr_zeros": [0.05, 0.2]}}, lambda c: c.lsr_zeros),
            ({"hidden_sizes": [8, 4, 2]}, lambda c: c.hidden_sizes),
            ({"hidden_sizes": []}, lambda c: c.hidden_sizes),
            ({"eval_subset": ["A", "B"]}, lambda c: c.eval_subset),
        ],
    )
    def test_round_trip(self, tmp_path, raw_update, read):
        config = config_from_dict(minimal(**raw_update))
        write_json(tmp_path / "config.json", config_to_dict(config))
        back = config_from_dict(json.loads((tmp_path / "config.json").read_text()))
        back.out = config.out
        assert back == config
        assert read(back) == read(config)
        assert type(read(back)) is type(read(config))
