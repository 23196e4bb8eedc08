import importlib.util
import json
import sys

import pytest

from hiermlc.config import load_config, synthetic_spec_theta
from hiermlc.pipeline import hierarchical_ablation
from hiermlc.policy import make_policy


def load_script(repo_root):
    path = repo_root / "scripts" / "run_ablation.py"
    spec = importlib.util.spec_from_file_location("run_ablation", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_matches_direct_ablation(tmp_path, monkeypatch, configs_dir):
    config_path = configs_dir / "benchmark.json"
    out = tmp_path / "abl.json"
    monkeypatch.setattr(
        sys, "argv",
        ["run_ablation.py", "--config", str(config_path), "--seeds", "1", "--out", str(out)],
    )
    assert load_script(configs_dir.parent).main() == 0
    payload = json.loads(out.read_text())

    config = load_config(config_path)
    tree = config.load_tree()
    syn = config.synthetic
    direct = hierarchical_ablation(
        tree,
        synthetic_spec_theta(syn, tree),
        [0],
        n_train=syn.n_train,
        n_eval=syn.n_eval,
        uncertainty_rate=syn.uncertainty_rate,
        smoothed_policy=make_policy("ones-lsr", config.lsr_ones, config.lsr_zeros),
        hard_policy=make_policy("ones"),
        optimizer=config.optimizer,
        stage1_iterations=config.stage1_iterations,
        stage2_iterations=config.stage2_iterations,
        hidden_sizes=config.hidden_sizes,
        feature_dim=syn.feature_dim,
        feature_noise=syn.feature_noise,
    )
    assert payload["seeds"] == [0]
    assert payload["leaf_names"] == list(direct.leaf_names)
    assert payload["conditional_by_seed"] == direct.conditional_by_seed
    assert payload["flat_by_seed"] == direct.flat_by_seed
    assert payload["delta"] == direct.delta


def test_no_seeds_rejected(tmp_path, monkeypatch, capsys, configs_dir):
    out = tmp_path / "abl.json"
    for seeds in ("0", "-2"):
        monkeypatch.setattr(
            sys, "argv", ["run_ablation.py", "--seeds", seeds, "--out", str(out)]
        )
        with pytest.raises(SystemExit) as exc:
            load_script(configs_dir.parent).main()
        assert exc.value.code == 2
        assert "--seeds: must be >= 1" in capsys.readouterr().err
    assert not out.exists()

    monkeypatch.setattr(
        sys, "argv", ["run_ablation.py", "--seeds", "1", "--first-seed", "-1", "--out", str(out)]
    )
    with pytest.raises(SystemExit) as exc:
        load_script(configs_dir.parent).main()
    assert exc.value.code == 2
    assert "--first-seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()

    config = load_config(configs_dir / "benchmark.json")
    tree = config.load_tree()
    syn = config.synthetic
    with pytest.raises(ValueError, match="at least one seed"):
        hierarchical_ablation(
            tree,
            synthetic_spec_theta(syn, tree),
            [],
            n_train=syn.n_train,
            n_eval=syn.n_eval,
            uncertainty_rate=syn.uncertainty_rate,
            smoothed_policy=make_policy("ones-lsr"),
            hard_policy=make_policy("ones"),
            optimizer=config.optimizer,
            stage1_iterations=1,
            stage2_iterations=1,
        )



def error_line(capsys):
    """The one line the script printed, to stderr alone."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize(
    "text, message", [(None, "config file not found"), ("{", "bad.json")]
)
def test_config_error_is_one_error_line(tmp_path, monkeypatch, capsys, configs_dir, text, message):
    config = tmp_path / "bad.json"
    if text is not None:
        config.write_text(text)
    monkeypatch.setattr(sys, "argv", ["run_ablation.py", "--config", str(config)])
    assert load_script(configs_dir.parent).main() == 1
    assert message in error_line(capsys)


def test_hierarchy_error_is_one_error_line(tmp_path, monkeypatch, capsys, configs_dir):
    (tmp_path / "h.csv").write_text("name,parent,index\nid,,0\n")
    raw = json.loads((configs_dir / "benchmark.json").read_text())
    raw["hierarchy"] = str(tmp_path / "h.csv")
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    monkeypatch.setattr(sys, "argv", ["run_ablation.py", "--config", str(config)])
    assert load_script(configs_dir.parent).main() == 2
    assert "h.csv: label 'id' is the name of" in error_line(capsys)
