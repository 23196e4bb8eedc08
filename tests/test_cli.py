import contextlib
import csv
import fnmatch
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiermlc import cli, csvio
from hiermlc import data as data_mod
from hiermlc import evaluation as eval_mod
from hiermlc.config import config_to_dict, load_config, synthetic_spec_theta
from hiermlc.csvio import read_id_matrix
from hiermlc.errors import DataFormatError
from hiermlc.model import load_checkpoint
from hiermlc.pipeline import hierarchical_ablation, predict_unconditional
from hiermlc.policy import make_policy

CHAIN_CSV = "name,parent,index\nA,,0\nB,A,1\n"
ROOTS_CSV = "name,parent,index\nA,,0\nB,,1\n"


def main(argv):
    """``cli.main(argv)``, held to the exit-code contract: a failed command
    prints exactly one ``error:`` line to stderr (exit 1-3), or a traceback
    (exit 4).  stderr is passed on, so ``capsys`` still sees it."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stderr.write(err.getvalue())
    lines = err.getvalue().splitlines()
    if code in (1, 2, 3):
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    elif code == 4:
        assert lines[:1] == ["Traceback (most recent call last):"], lines
    return code


def base_config(out):
    return {
        "seed": 0,
        "out": out,
        "hierarchy": "h.csv",
        "mode": "conditional",
        "policy": {"name": "ones-lsr"},
        "optimizer": {"lr0": 0.01, "decay_factor": 0.5, "batch_size": 16},
        "stage1_iterations": 60,
        "stage2_iterations": 30,
        "hidden_sizes": [8],
        "ensemble_size": 2,
        "data": {
            "synthetic": {
                "theta": {"A": 0.6, "B": 0.7},
                "feature_dim": 8,
                "n_train": 200,
                "n_eval": 80,
                "uncertainty_rate": 0.2,
            }
        },
    }


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "h.csv").write_text(CHAIN_CSV)
    return tmp_path


def write_config(workspace, name="c.json", hierarchy=CHAIN_CSV, **overrides):
    raw = base_config(str(workspace / "run"))
    raw.update(overrides)
    (workspace / "h.csv").write_text(hierarchy)
    path = workspace / name
    path.write_text(json.dumps(raw))
    return path


def checksums(root):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def chain_config(tmp_path, configs_dir, name="chain.json", **overrides):
    """``configs/chain.json`` at a small size, with its hierarchy file
    beside it under the relative name it ships with."""
    shutil.copy(configs_dir / "chain_hierarchy.csv", tmp_path)
    raw = json.loads((configs_dir / "chain.json").read_text())
    raw.update(stage1_iterations=20, stage2_iterations=10, **overrides)
    raw["data"]["synthetic"].update(n_train=100, n_eval=50)
    (tmp_path / name).write_text(json.dumps(raw))
    return tmp_path / name


def gen_files(data_dir):
    """A config's ``data`` section naming the four CSVs gen wrote to ``data_dir``."""
    return {
        f"{split}_{kind}": str(data_dir / f"{split}_{kind}.csv")
        for split in ("train", "eval")
        for kind in ("features", "labels")
    }


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert main(["train"]) == 1

    def test_unknown_flag(self):
        assert main(["gen", "--config", "c.json", "--zebra"]) == 1

    def test_config_file_absent(self, workspace, capsys):
        assert main(["gen", "--config", str(workspace / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err


    def test_negative_seed_override_exits_one(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config), "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (workspace / "run").exists()

    @pytest.mark.parametrize("command", ["gen", "train", "ablate", "predict", "eval"])
    def test_out_that_is_or_lies_under_a_file_exits_one(
        self, workspace, capsys, monkeypatch, command
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("trained despite an unusable output directory")

        monkeypatch.setattr(cli, "train_ensemble", forbidden)
        monkeypatch.setattr(cli, "hierarchical_ablation", forbidden)
        config = write_config(workspace)
        blocker = workspace / "afile"
        blocker.write_text("kept\n")
        for out in (blocker, blocker / "x"):
            assert main([command, "--config", str(config), "--out", str(out)]) == 1
            line = error_line(capsys)
            assert line == f"error: output directory {out}: {blocker} is not a directory"
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in workspace.iterdir()) == ["afile", "c.json", "h.csv"]


class TestGen:
    def test_writes_dataset_and_provenance(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        data_dir = workspace / "run" / "data"
        for name in (
            "train_features.csv",
            "train_labels.csv",
            "eval_features.csv",
            "eval_labels.csv",
            "provenance.json",
        ):
            assert (data_dir / name).exists()
        provenance = json.loads((data_dir / "provenance.json").read_text())
        assert provenance["n_train"] == 200
        assert provenance["true_marginals"]["B"] == pytest.approx(0.42)
        assert (workspace / "run" / "config.json").exists()
        assert "200 train / 80 eval" in capsys.readouterr().out

    def test_uncertainty_only_in_train_split(self, workspace):
        config = write_config(workspace)
        main(["gen", "--config", str(config)])
        data_dir = workspace / "run" / "data"
        train = (data_dir / "train_labels.csv").read_text()
        held = (data_dir / "eval_labels.csv").read_text()
        assert "-1.0" in train and "-1.0" not in held

    def test_deterministic_across_directories(self, workspace):
        a = write_config(workspace, name="a.json", out=str(workspace / "out_a"))
        b = write_config(workspace, name="b.json", out=str(workspace / "out_b"))
        assert main(["gen", "--config", str(a)]) == 0
        assert main(["gen", "--config", str(b)]) == 0
        sums_a = checksums(workspace / "out_a")
        sums_b = checksums(workspace / "out_b")
        assert sums_a and sums_a == sums_b

    def test_theta_out_of_range(self, workspace, capsys):
        raw = base_config(str(workspace / "run"))
        raw["data"]["synthetic"]["theta"]["B"] = 1.5
        config = workspace / "c.json"
        config.write_text(json.dumps(raw))
        assert main(["gen", "--config", str(config)]) == 1
        assert "'B'" in capsys.readouterr().err
        assert not (workspace / "run").exists()  # failed before any writes

    def test_rows_named_in_generator_order(self, workspace):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        data_dir = workspace / "run" / "data"
        _, train_ids, _ = read_id_matrix(data_dir / "train_features.csv", "feature")
        _, eval_ids, _ = read_id_matrix(data_dir / "eval_features.csv", "feature")
        assert train_ids + eval_ids == tuple(f"row{i:05d}" for i in range(280))

    def test_seed_override_lands_in_snapshot(self, workspace):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config), "--seed", "5"]) == 0
        snapshot = json.loads((workspace / "run" / "config.json").read_text())
        assert snapshot["seed"] == 5


class TestTrain:
    def test_missing_hierarchy_fails_before_writes(self, workspace, capsys):
        config = write_config(workspace)
        (workspace / "h.csv").unlink()
        assert main(["train", "--config", str(config)]) == 1
        assert "hierarchy file not found" in capsys.readouterr().err
        assert not (workspace / "run").exists()

    def test_checkpoints_and_loss_log(self, workspace):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        ckpts = workspace / "run" / "checkpoints"
        for i in (0, 1):
            assert (ckpts / f"member{i:02d}_stage1.json").exists()
            assert (ckpts / f"member{i:02d}_final.json").exists()
        extra = json.loads((ckpts / "member01_final.json").read_text())["extra"]
        assert extra["member"] == 1 and extra["stage"] == "final"
        with (workspace / "run" / "loss_log.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["stage"] for r in rows} == {"stage1", "stage2"}
        assert {r["member"] for r in rows} == {"0", "1"}
        assert all(float(r["mean_loss"]) >= 0 for r in rows)

    def test_flat_mode_skips_stage1_checkpoints(self, workspace):
        config = write_config(workspace, mode="flat")
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        ckpts = workspace / "run" / "checkpoints"
        assert not list(ckpts.glob("*stage1*"))
        assert len(list(ckpts.glob("*final*"))) == 2

    def test_trains_from_generated_csv_data(self, workspace):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        data_dir = workspace / "run" / "data"
        raw = base_config(str(workspace / "run2"))
        raw["ensemble_size"] = 1
        raw["data"] = {
            "train_labels": str(data_dir / "train_labels.csv"),
            "train_features": str(data_dir / "train_features.csv"),
            "eval_labels": str(data_dir / "eval_labels.csv"),
            "eval_features": str(data_dir / "eval_features.csv"),
        }
        config2 = workspace / "c2.json"
        config2.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config2)]) == 0
        assert main(["eval", "--config", str(config2)]) == 0
        assert (workspace / "run2" / "report.txt").exists()

    def test_numeric_blowup_exits_three(self, workspace, capsys):
        config = write_config(workspace)
        raw = json.loads(config.read_text())
        raw["optimizer"]["lr0"] = 1e308
        raw["ensemble_size"] = 1
        config.write_text(json.dumps(raw))
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 3
        assert "non-finite" in capsys.readouterr().err


class TestEvalAndPredict:
    def run_pipeline(self, workspace, config):
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config)]) == 0

    def test_full_pipeline_outputs(self, workspace, capsys):
        config = write_config(workspace)
        self.run_pipeline(workspace, config)
        run = workspace / "run"
        assert (run / "predictions.csv").exists()
        assert (run / "roc_A.csv").exists() and (run / "roc_B.csv").exists()
        report = (run / "report.txt").read_text()
        assert "mean_auc_selected" in report and "mean_readers_below" in report
        with (run / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "auc", "readers_below"]
        assert {r[0] for r in rows[1:]} >= {"A", "B"}
        assert "mean_auc_selected=" in capsys.readouterr().out

    def test_eval_sweeps_each_label_once_for_its_curve(self, workspace, monkeypatch):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        curves = []
        roc_curve = eval_mod.roc_curve

        def recorded(scores, labels):
            curves.append(roc_curve(scores, labels))
            return curves[-1]

        monkeypatch.setattr(eval_mod, "roc_curve", recorded)
        assert main(["eval", "--config", str(config)]) == 0
        assert len(curves) == 2  # labels A and B
        for name, curve in zip("AB", curves):
            written = workspace / "run" / f"roc_{name}.csv"
            with written.open() as fh:
                fpr = [float(row["fpr"]) for row in csv.DictReader(fh)]
            np.testing.assert_array_equal(fpr, curve.fpr)

    def test_predict_writes_predictions_only(self, workspace):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main(["predict", "--config", str(config)]) == 0
        with (workspace / "run" / "predictions.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "A", "B"]
        assert len(rows) == 1 + 80
        # unconditional probabilities respect the hierarchy
        assert all(float(r[2]) <= float(r[1]) for r in rows[1:])

    def test_predict_without_checkpoints(self, workspace, capsys):
        """predict and eval check the checkpoints' record before they read
        any eval file."""
        config = write_config(workspace)
        manifest = workspace / "run" / "manifest.json"
        for garbled in ("eval_features.csv", "eval_labels.csv"):
            assert main(["gen", "--config", str(config)]) == 0
            (workspace / "run" / "data" / garbled).write_text("id,f0\nr1,x\n")
            capsys.readouterr()
            for command in ("predict", "eval"):
                assert main([command, "--config", str(config)]) == 1
                assert error_line(capsys) == (
                    f"error: {manifest}: train section is missing or unreadable; "
                    "run train again"
                )

    def perfect_predictions(self, workspace, columns=("A", "B")):
        """Copy the true eval labels into a predictions file."""
        with (workspace / "run" / "data" / "eval_labels.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        path = workspace / "perfect.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", *columns])
            for row in rows:
                writer.writerow([row["id"]] + [row[c] for c in columns])
        return path

    def test_supplied_predictions_score_perfectly(self, workspace):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        # column order in the file deliberately differs from tree order
        preds = self.perfect_predictions(workspace, columns=("B", "A"))
        assert main(["eval", "--config", str(config), "--predictions", str(preds)]) == 0
        with (workspace / "run" / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        by_name = {r[0]: float(r[1]) for r in rows[1:]}
        assert by_name["A"] == 1.0 and by_name["B"] == 1.0

    def test_predictions_missing_label_column(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        preds = self.perfect_predictions(workspace, columns=("A",))
        assert main(["eval", "--config", str(config), "--predictions", str(preds)]) == 2
        assert "'B'" in capsys.readouterr().err

    def test_missing_predictions_file_named(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        # named before the eval labels are read
        (workspace / "run" / "data" / "eval_labels.csv").write_text("not,a,labels,file\n")
        missing = workspace / "nope.csv"
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--predictions", str(missing)]) == 2
        assert error_line(capsys) == f"error: predictions file not found: {missing}"

    def test_predictions_id_mismatch(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        preds = self.perfect_predictions(workspace)
        lines = preds.read_text().splitlines()
        lines[1] = "zebra" + lines[1][lines[1].index(",") :]
        preds.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", str(config), "--predictions", str(preds)]) == 2
        assert "ids do not match" in capsys.readouterr().err

    def test_non_binary_ground_truth_rejected(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        labels = workspace / "run" / "data" / "eval_labels.csv"
        lines = labels.read_text().splitlines()
        first = lines[1].split(",")
        first[1] = "-1.0"
        lines[1] = ",".join(first)
        labels.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "binary" in err and first[0] in err

    def test_reader_points_flow_into_report(self, workspace):
        config = write_config(workspace)
        readers = workspace / "readers.csv"
        readers.write_text(
            "label,reader,fpr,tpr\nA,r1,0.5,0.1\nA,r2,0.5,0.2\nB,r1,0.5,0.1\n"
        )
        raw = json.loads(config.read_text())
        raw["reader_points"] = str(readers)
        config.write_text(json.dumps(raw))
        self.run_pipeline(workspace, config)
        with (workspace / "run" / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        below = {r[0]: r[2] for r in rows[1:] if r[0] in ("A", "B")}
        # far-below-curve points should be counted for both labels
        assert below["A"] == "2" and below["B"] == "1"


class TestDeterminismAndModes:
    def test_rerun_byte_identical(self, workspace):
        a = write_config(workspace, name="a.json", out=str(workspace / "out_a"))
        b = write_config(workspace, name="b.json", out=str(workspace / "out_b"))
        for config in (a, b):
            assert main(["gen", "--config", str(config)]) == 0
            assert main(["train", "--config", str(config)]) == 0
            assert main(["eval", "--config", str(config)]) == 0
        sums_a = checksums(workspace / "out_a")
        sums_b = checksums(workspace / "out_b")
        assert "checkpoints/member00_final.json" in sums_a
        assert "report.csv" in sums_a
        assert sums_a == sums_b

    def test_conditional_without_stage2_matches_flat_on_root_forest(self, workspace):
        # no hierarchy and no stage-2 budget: the two modes must coincide
        shared = dict(
            hierarchy=ROOTS_CSV,
            stage1_iterations=60,
            stage2_iterations=0,
            ensemble_size=1,
        )
        cond = write_config(
            workspace, name="cond.json", out=str(workspace / "out_c"),
            mode="conditional", **shared,
        )
        flat = write_config(
            workspace, name="flat.json", out=str(workspace / "out_f"),
            mode="flat", **shared,
        )
        for config in (cond, flat):
            assert main(["gen", "--config", str(config)]) == 0
            assert main(["train", "--config", str(config)]) == 0
            assert main(["eval", "--config", str(config)]) == 0
        preds_c = (workspace / "out_c" / "predictions.csv").read_bytes()
        preds_f = (workspace / "out_f" / "predictions.csv").read_bytes()
        assert preds_c == preds_f
        report_c = (workspace / "out_c" / "report.csv").read_bytes()
        report_f = (workspace / "out_f" / "report.csv").read_bytes()
        assert report_c == report_f


class TestGenFirst:
    """On a synthetic config, gen's CSVs are each split's one source:
    train, predict and eval without them exit 1 and write nothing."""

    @pytest.mark.parametrize(
        "command, split", [("train", "train"), ("predict", "eval"), ("eval", "eval")]
    )
    def test_without_gen_data(self, workspace, capsys, command, split):
        config = write_config(workspace)
        assert main([command, "--config", str(config)]) == 1
        data_dir = workspace / "run" / "data"
        assert error_line(capsys) == f"error: no {split} data under {data_dir}; run gen first"
        assert not (workspace / "run").exists()

    @pytest.mark.parametrize(
        "command, split, kind",
        [("train", "train", "labels"), ("predict", "eval", "features"), ("eval", "eval", "features")],
    )
    def test_with_one_gen_csv_absent(self, workspace, capsys, command, split, kind):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        absent = workspace / "run" / "data" / f"{split}_{kind}.csv"
        absent.unlink()
        before = checksums(workspace)
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 1
        what = "training" if split == "train" else "eval"
        assert error_line(capsys) == f"error: {what} {kind} file not found: {absent}"
        assert checksums(workspace) == before

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_checkpoints_without_gen_data(self, workspace, capsys, command):
        config = write_config(workspace, ensemble_size=1)
        for step in ("gen", "train"):
            assert main([step, "--config", str(config)]) == 0
        shutil.rmtree(workspace / "run" / "data")
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 1
        data_dir = workspace / "run" / "data"
        assert error_line(capsys) == f"error: no eval data under {data_dir}; run gen first"
        run = sorted(p.name for p in (workspace / "run").iterdir())
        assert run == ["checkpoints", "config.json", "loss_log.csv", "manifest.json"]


class TestStaleData:
    """train, predict and eval use gen's CSVs only under the config that
    wrote them, as the ``data`` section of ``manifest.json`` records it."""

    def test_train_refuses_data_of_another_seed(self, tmp_path, configs_dir, capsys):
        config, out = str(configs_dir / "chain.json"), str(tmp_path / "run")
        assert main(["gen", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        assert main(["train", "--config", config, "--out", out, "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert (
            f"{tmp_path / 'run' / 'data'} was generated under another config: seed 0, not 7; "
            "pass --seed 0 or run gen again"
        ) in err
        assert not (tmp_path / "run" / "checkpoints").exists()

    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    def test_differing_keys_are_named(self, workspace, capsys, command):
        config = write_config(workspace, ensemble_size=1)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        raw = json.loads(config.read_text())
        raw["data"]["synthetic"].update(feature_noise=0.9, n_eval=81)
        config.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 1
        assert (
            "generated under another config: feature_noise 0.5, not 0.9; n_eval 80, not 81; "
            "run gen again"
        ) in capsys.readouterr().err
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main([command, "--config", str(config)]) == 0

    @pytest.mark.parametrize("text", [None, "", "[1, 2]\n", '{"train": {}}\n', '{"data": 1}\n'])
    def test_csvs_without_readable_provenance_are_refused(self, workspace, capsys, text):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        manifest = workspace / "run" / "manifest.json"
        if text is None:
            manifest.unlink()
        else:
            manifest.write_text(text)
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 1
        assert error_line(capsys) == (
            f"error: {manifest}: data section is missing or unreadable; run gen again"
        )

    def test_gen_drops_outputs_of_earlier_data(self, tmp_path, configs_dir, capsys):
        config, out = str(configs_dir / "chain.json"), tmp_path / "run"
        for command in ("gen", "train", "eval"):
            assert main([command, "--config", config, "--out", str(out)]) == 0
        derived = [
            "loss_log.csv", "predictions.csv", "predictions.csv.npy", "report.txt", "report.csv"
        ]
        assert all((out / name).exists() for name in derived)
        assert list(out.glob("roc_*.csv")) and list(out.glob("checkpoints/member*"))
        (out / "notes.txt").write_text("kept\n")
        args = ["--config", config, "--out", str(out), "--seed", "7"]
        assert main(["gen", *args]) == 0
        assert not any((out / name).exists() for name in derived)
        assert not list(out.glob("roc_*.csv")) + list(out.glob("checkpoints/*"))
        assert (out / "notes.txt").read_text() == "kept\n"
        capsys.readouterr()
        for command in ("predict", "eval"):
            assert main([command, *args]) == 1
            assert error_line(capsys) == (
                f"error: {out / 'manifest.json'}: train section is missing or unreadable; "
                "run train again"
            )

    def test_train_drops_predictions_and_their_sidecar(self, workspace):
        config = str(write_config(workspace, ensemble_size=1))
        for command in ("gen", "train", "predict"):
            assert main([command, "--config", config]) == 0
        derived = ["predictions.csv", "predictions.csv.npy"]
        assert all((workspace / "run" / name).exists() for name in derived)
        assert main(["train", "--config", config]) == 0
        assert not any((workspace / "run" / name).exists() for name in derived)

    def test_one_hierarchy_reached_by_two_paths(self, tmp_path, configs_dir, monkeypatch):
        config = chain_config(tmp_path, configs_dir)
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--config", str(config.resolve())]) == 0
        for command in ("train", "predict", "eval"):
            assert main([command, "--config", "chain.json"]) == 0
        assert json.loads(Path("runs/chain/config.json").read_text())["hierarchy"] == (
            "chain_hierarchy.csv"
        )

    def test_relative_hierarchy_from_another_working_directory_is_one_hierarchy(
        self, tmp_path, configs_dir, monkeypatch
    ):
        """A config reached by a relative path holds its hierarchy path
        relative to the directory the command ran from; the run records the
        forest, so a later command run from elsewhere reads the same one."""
        config = chain_config(tmp_path, configs_dir)
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--config", "chain.json", "--out", str(tmp_path / "run")]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        for command in ("train", "predict", "eval"):
            assert main([command, "--config", str(config), "--out", str(tmp_path / "run")]) == 0

    def test_another_hierarchy_file_is_another_hierarchy(
        self, tmp_path, configs_dir, monkeypatch, capsys
    ):
        config = chain_config(tmp_path, configs_dir)
        text = (tmp_path / "chain_hierarchy.csv").read_text()
        (tmp_path / "copy.csv").write_text(text.replace("leaf,mid,2", "leaf,root,2"))
        other = chain_config(tmp_path, configs_dir, "other.json", hierarchy="copy.csv")
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--config", str(config)]) == 0
        capsys.readouterr()
        differs = "hierarchy.leaf [2, 'mid'], not [2, 'root']"
        for command in ("train", "eval"):
            assert main([command, "--config", str(other)]) == 1
            line = error_line(capsys)
            assert f"generated under another config: {differs}; run gen again" in line
        # CSV data has no data record, so eval reaches the train record check
        data = gen_files(tmp_path / "runs" / "chain" / "data")
        for name, source in (("csv.json", config), ("csv_other.json", other)):
            raw = json.loads(source.read_text())
            (tmp_path / name).write_text(json.dumps({**raw, "data": data}))
        assert main(["train", "--config", "csv.json", "--out", "csv"]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", "csv_other.json", "--out", "csv"]) == 1
        assert f"trained under another config: {differs}; run train again" in error_line(capsys)

    def test_predict_reads_no_eval_labels(self, workspace):
        config = write_config(workspace, ensemble_size=1)
        for command in ("gen", "train", "predict"):
            assert main([command, "--config", str(config)]) == 0
        predictions = workspace / "run" / "predictions.csv"
        before = predictions.read_bytes()
        predictions.unlink()
        (workspace / "run" / "data" / "eval_labels.csv").write_text("not,a,labels,file\n")
        assert main(["predict", "--config", str(config)]) == 0
        assert predictions.read_bytes() == before
        assert main(["eval", "--config", str(config)]) == 2


class TestReadmeLayout:
    def quick_start_files(self, readme):
        """The files README's Quick start says a chain run leaves, as
        globs relative to the run directory."""
        text = readme.read_text(encoding="utf-8")
        block = text.split("leaves under `runs/chain/`:\n\n```\n", 1)[1].split("```", 1)[0]
        globs, directory = [], ""
        for line in block.splitlines():
            name = line.split()[0]
            if name.endswith("/"):
                directory = name
            else:
                inner = directory if line.startswith(" ") else ""
                globs.append(inner + name.replace("<label>", "*"))
        return globs

    def test_gen_train_eval_leave_the_files_it_lists(self, tmp_path, configs_dir, monkeypatch):
        globs = self.quick_start_files(configs_dir.parent / "README.md")
        assert "data/train_features.csv.npy" in globs and "roc_*.csv" in globs
        chain_config(tmp_path, configs_dir)
        monkeypatch.chdir(tmp_path)
        for command in ("gen", "train", "eval"):
            assert main([command, "--config", "chain.json"]) == 0
        run = tmp_path / "runs" / "chain"
        written = sorted(p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file())
        matched = {glob: fnmatch.filter(written, glob) for glob in globs}
        assert [glob for glob, files in matched.items() if not files] == []
        assert sorted(sum(matched.values(), [])) == written
        assert matched["roc_*.csv"] == ["roc_leaf.csv", "roc_mid.csv", "roc_root.csv"]


class TestSidecars:
    """gen and predict leave a parsed copy beside each features, labels and
    predictions file; the commands read it in place of the file, and
    deleting it changes no output."""

    def test_commands_read_the_sidecars(self, workspace, monkeypatch):
        config = str(write_config(workspace, ensemble_size=1))
        assert main(["gen", "--config", config]) == 0
        data_dir = workspace / "run" / "data"
        assert sorted(p.name for p in data_dir.glob("*.npy")) == [
            "eval_features.csv.npy", "eval_labels.csv.npy",
            "train_features.csv.npy", "train_labels.csv.npy",
        ]

        def parsed(path, *args):
            raise AssertionError(f"{path} was parsed")

        read, read_sidecar = [], csvio.read_sidecar

        def recorded(path, dtype):
            result = read_sidecar(path, dtype)
            read.append((Path(path).name, result is not None))
            return result

        monkeypatch.setattr(csvio, "read_id_rows", parsed)
        monkeypatch.setattr(data_mod, "_read_label_rows", parsed)
        monkeypatch.setattr(data_mod, "read_sidecar", recorded)
        for command in ("train", "predict", "eval"):
            assert main([command, "--config", config]) == 0
        assert read == [("train_labels.csv", True), ("eval_labels.csv", True)]
        args = ["--config", config, "--predictions", str(workspace / "run" / "predictions.csv")]
        assert main(["eval", *args]) == 0

    def test_outputs_do_not_depend_on_them(self, workspace):
        runs = {}
        for kept in (True, False):
            out = workspace / f"out_{kept}"
            config = str(write_config(workspace, name=f"{kept}.json", out=str(out)))
            for command in ("gen", "train", "predict", "eval"):
                if not kept:
                    for sidecar in out.rglob("*.npy"):
                        sidecar.unlink()
                assert main([command, "--config", config]) == 0
            runs[kept] = {
                k: v for k, v in checksums(out).items()
                if k != "config.json" and not k.endswith(".npy")
            }
        assert runs[True] == runs[False]


class TestEnsembleCheckpoints:
    def test_flat_predictions_are_the_raw_ensemble_mean(self, tmp_path, configs_dir):
        args = ["--config", str(configs_dir / "benchmark.json"), "--out", str(tmp_path)]
        for command in ("gen", "train", "predict"):
            assert main([command, *args, "--mode", "flat"]) == 0
        _, _, features = read_id_matrix(tmp_path / "data" / "eval_features.csv", "feature")
        members = [
            load_checkpoint(tmp_path / "checkpoints" / f"member{i:02d}_final.json")
            for i in range(6)
        ]
        expected = np.mean([m.forward(features) for m in members], axis=0)
        _, _, probs = read_id_matrix(tmp_path / "predictions.csv", "prediction")
        np.testing.assert_array_equal(probs, expected)
        tree = load_config(configs_dir / "benchmark.json").load_tree()
        propagated = predict_unconditional(members, tree, features)
        assert np.abs(probs - propagated).max() > 0.05

    def test_retrain_smaller_ensemble_drops_stale_members(self, workspace):
        big = write_config(workspace, name="big.json", ensemble_size=6)
        small = write_config(workspace, name="small.json", ensemble_size=2)
        clean = write_config(
            workspace, name="clean.json", ensemble_size=2, out=str(workspace / "clean")
        )
        assert main(["gen", "--config", str(big)]) == 0
        assert main(["train", "--config", str(big)]) == 0
        for config in (small, clean):
            if config is clean:
                assert main(["gen", "--config", str(config)]) == 0
            assert main(["train", "--config", str(config)]) == 0
            assert main(["eval", "--config", str(config)]) == 0
        names = sorted(p.name for p in (workspace / "run" / "checkpoints").iterdir())
        assert names == sorted(
            f"member{i:02d}_{stage}.json" for i in range(2) for stage in ("stage1", "final")
        )
        report = (workspace / "run" / "report.csv").read_bytes()
        assert report == (workspace / "clean" / "report.csv").read_bytes()

    def test_mode_mismatch_exits_one(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--mode", "flat"]) == 0
        snapshot = (workspace / "run" / "config.json").read_bytes()
        assert json.loads(snapshot)["mode"] == "flat"
        for command in ("eval", "predict"):
            assert main([command, "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert "flat" in err and "conditional" in err and "--mode flat" in err
        assert (workspace / "run" / "config.json").read_bytes() == snapshot
        assert not (workspace / "run" / "predictions.csv").exists()
        assert main(["eval", "--config", str(config), "--mode", "flat"]) == 0

    def test_missing_member_checkpoint_exits_one(self, workspace, capsys):
        """A larger ensemble_size fails the train record check; a member
        file deleted by hand is named."""
        small = write_config(workspace, name="small.json", ensemble_size=2)
        big = write_config(workspace, name="big.json", ensemble_size=3)
        assert main(["gen", "--config", str(small)]) == 0
        assert main(["train", "--config", str(small)]) == 0
        capsys.readouterr()
        ckpt_dir = workspace / "run" / "checkpoints"
        assert main(["eval", "--config", str(big)]) == 1
        assert error_line(capsys) == (
            f"error: {ckpt_dir} was trained under another config: "
            "ensemble_size 2, not 3; run train again"
        )
        (ckpt_dir / "member01_final.json").unlink()
        assert main(["eval", "--config", str(small)]) == 1
        assert error_line(capsys) == (
            f"error: {ckpt_dir} lacks member01_final.json; run train again"
        )

    def test_train_drops_outputs_of_earlier_members(self, workspace):
        config = write_config(workspace, ensemble_size=1)
        for command in ("gen", "train", "eval"):
            assert main([command, "--config", str(config)]) == 0
        run = workspace / "run"
        derived = ["predictions.csv", "report.txt", "report.csv", "roc_A.csv", "roc_B.csv"]
        assert all((run / name).exists() for name in derived)
        (run / "notes.txt").write_text("kept\n")
        assert main(["train", "--config", str(config), "--mode", "flat"]) == 0
        assert not any((run / name).exists() for name in derived)
        assert [p.name for p in (run / "checkpoints").iterdir()] == ["member00_final.json"]
        assert json.loads((run / "config.json").read_text())["mode"] == "flat"
        assert (run / "notes.txt").read_text() == "kept\n"


class TestTrainedConfig:
    """predict and eval run checkpoints only under the config that trained
    them, as train records it in the ``train`` section of ``manifest.json``;
    keys that steer only eval, or nothing, may differ."""

    def test_eval_refuses_checkpoints_of_another_seed(self, workspace, capsys):
        assert main(["gen", "--config", str(write_config(workspace))]) == 0
        # CSV data: gen's provenance check would refuse another seed first
        data = gen_files(workspace / "run" / "data")
        config = write_config(workspace, name="csv.json", ensemble_size=1, data=data)
        assert main(["train", "--config", str(config), "--seed", "3"]) == 0
        snapshot = (workspace / "run" / "config.json").read_bytes()
        capsys.readouterr()
        for command in ("predict", "eval"):
            assert main([command, "--config", str(config), "--seed", "7"]) == 1
            err = capsys.readouterr().err
            assert "trained under another config: seed 3, not 7; pass --seed 3 or" in err
        assert (workspace / "run" / "config.json").read_bytes() == snapshot
        assert not (workspace / "run" / "predictions.csv").exists()
        assert not (workspace / "run" / "report.txt").exists()
        assert main(["eval", "--config", str(config), "--seed", "3"]) == 0

    def test_differing_keys_are_named(self, workspace, capsys):
        config = write_config(workspace, ensemble_size=1)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        raw = json.loads(config.read_text())
        raw["optimizer"]["lr0"] = 0.02
        raw["hidden_sizes"] = [4]
        config.write_text(json.dumps(raw))
        capsys.readouterr()
        for command in ("predict", "eval"):
            assert main([command, "--config", str(config), "--policy", "zeros"]) == 1
            err = capsys.readouterr().err
            assert (
                "trained under another config: hidden_sizes [8], not [4]; "
                "optimizer.lr0 0.01, not 0.02; policy.name 'ones-lsr', not 'zeros'; "
                "pass --policy ones-lsr or run train again"
            ) in err
        assert not (workspace / "run" / "predictions.csv").exists()

    def test_eval_only_keys_may_differ(self, workspace):
        config = write_config(workspace, ensemble_size=1)
        for command in ("gen", "train", "eval"):
            assert main([command, "--config", str(config)]) == 0
        readers = workspace / "readers.csv"
        readers.write_text("label,reader,fpr,tpr\nA,r1,0.5,0.1\n")
        raw = json.loads(config.read_text())
        raw.update(eval_subset=["B"], reader_points=str(readers))
        config.write_text(json.dumps(raw))
        for command in ("predict", "eval"):
            assert main([command, "--config", str(config)]) == 0
        snapshot = json.loads((workspace / "run" / "config.json").read_text())
        assert snapshot["eval_subset"] == ["B"]

    def test_scoring_a_predictions_file_runs_no_checkpoints(self, workspace):
        config = write_config(workspace, ensemble_size=1)
        for command in ("gen", "train", "predict"):
            assert main([command, "--config", str(config)]) == 0
        run = workspace / "run"
        scored = workspace / "scored.csv"
        shutil.copy(run / "predictions.csv", scored)
        snapshot = (run / "config.json").read_bytes()
        args = ["--predictions", str(scored), "--policy", "zeros"]
        assert main(["eval", "--config", str(config), *args]) == 0
        assert (run / "config.json").read_bytes() == snapshot

    def test_checkpoints_without_a_readable_config_are_refused(self, workspace, capsys):
        config = write_config(workspace, ensemble_size=1)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        manifest = workspace / "run" / "manifest.json"
        recorded = json.loads(manifest.read_text())
        capsys.readouterr()
        for train in (None, [1]):
            manifest.write_text(json.dumps({"data": recorded["data"], "train": train}))
            assert main(["eval", "--config", str(config)]) == 1
            assert error_line(capsys) == (
                f"error: {manifest}: train section is missing or unreadable; run train again"
            )


class TestTrainRecord:
    """The ``train`` section holds what made the checkpoints: a CSV
    config's training files by their sha256, and no key that steers only
    eval or nothing.  predict and eval check it whole, before they look
    for a member file.  Each run is the chain config at a small size."""

    @pytest.fixture
    def csv_raw(self, tmp_path, configs_dir, monkeypatch):
        """The chain config with a data section naming gen's CSVs under
        ``gen/data`` by relative path, run from their directory."""
        monkeypatch.chdir(tmp_path)
        chain = chain_config(tmp_path, configs_dir)
        assert main(["gen", "--config", str(chain), "--out", "gen"]) == 0
        raw = json.loads(chain.read_text())
        return {**raw, "out": "run", "data": gen_files(Path("gen") / "data")}

    @staticmethod
    def write(tmp_path, raw, name="csv.json"):
        (tmp_path / name).write_text(json.dumps(raw))
        return str(tmp_path / name)

    def test_training_files_named_by_another_path(self, tmp_path, csv_raw):
        assert main(["train", "--config", self.write(tmp_path, csv_raw)]) == 0
        absolute = {key: str(tmp_path / path) for key, path in csv_raw["data"].items()}
        other = self.write(tmp_path, {**csv_raw, "data": absolute}, "absolute.json")
        assert main(["eval", "--config", other]) == 0

    def test_training_labels_edited_in_place(self, tmp_path, csv_raw, capsys):
        config = self.write(tmp_path, csv_raw)
        assert main(["train", "--config", config]) == 0
        labels = tmp_path / "gen" / "data" / "train_labels.csv"
        was = hashlib.sha256(labels.read_bytes()).hexdigest()
        lines = labels.read_text().split("\n")
        cells = lines[1].split(",")
        cells[1] = "0.0" if cells[1] == "1.0" else "1.0"
        lines[1] = ",".join(cells)
        labels.write_text("\n".join(lines))
        now = hashlib.sha256(labels.read_bytes()).hexdigest()
        before = file_bytes(tmp_path / "run")
        capsys.readouterr()
        assert main(["eval", "--config", config]) == 1
        assert error_line(capsys) == (
            f"error: {Path('run') / 'checkpoints'} was trained under another config: "
            f"data.train_labels {was!r}, not {now!r}; run train again"
        )
        assert file_bytes(tmp_path / "run") == before

    @pytest.mark.parametrize(
        "key, value", [("workers", 2), ("iterations", 7), ("seed", 5)]
    )
    def test_inert_keys_may_differ(self, tmp_path, configs_dir, key, value):
        config = chain_config(tmp_path, configs_dir)
        run = ["--config", str(config), "--out", str(tmp_path / "run")]
        for command in ("gen", "train", "eval"):
            assert main([command, *run]) == 0
        outputs = ("predictions.csv", "report.txt", "report.csv", "roc_*.csv")
        scored = {}
        for _ in range(2):
            files = [p for glob in outputs for p in sorted((tmp_path / "run").glob(glob))]
            scored[len(scored)] = {p.name: p.read_bytes() for p in files}
            for path in files:
                path.unlink()
            raw = json.loads(config.read_text())
            if key == "workers":
                raw[key] = value
            else:
                raw.setdefault("optimizer", {})[key] = value
            config.write_text(json.dumps(raw))
            assert main(["eval", *run]) == 0
        assert len(scored[0]) == 6 and scored[1] == scored[0]

    def test_training_labels_deleted(self, tmp_path, csv_raw, capsys):
        config = self.write(tmp_path, csv_raw)
        assert main(["train", "--config", config]) == 0
        (tmp_path / csv_raw["data"]["train_labels"]).unlink()
        capsys.readouterr()
        assert main(["predict", "--config", config]) == 1
        assert error_line(capsys) == (
            f"error: training labels file not found: {csv_raw['data']['train_labels']}"
        )

    def test_predict_before_train(self, tmp_path, configs_dir, capsys):
        run = ["--config", str(chain_config(tmp_path, configs_dir))]
        run += ["--out", str(tmp_path / "run")]
        assert main(["gen", *run]) == 0
        capsys.readouterr()
        assert main(["predict", *run]) == 1
        assert error_line(capsys) == (
            f"error: {tmp_path / 'run' / 'manifest.json'}: train section is missing "
            "or unreadable; run train again"
        )

    def test_larger_ensemble_than_trained(self, tmp_path, configs_dir, capsys):
        run = ["--config", str(chain_config(tmp_path, configs_dir, ensemble_size=1))]
        run += ["--out", str(tmp_path / "run")]
        for command in ("gen", "train"):
            assert main([command, *run]) == 0
        larger = chain_config(tmp_path, configs_dir, "larger.json", ensemble_size=3)
        capsys.readouterr()
        assert main(["eval", "--config", str(larger), *run[2:]]) == 1
        assert error_line(capsys) == (
            f"error: {tmp_path / 'run' / 'checkpoints'} was trained under another "
            "config: ensemble_size 1, not 3; run train again"
        )

    def test_member_deleted_by_hand(self, tmp_path, configs_dir, capsys):
        run = ["--config", str(chain_config(tmp_path, configs_dir))]
        run += ["--out", str(tmp_path / "run")]
        for command in ("gen", "train"):
            assert main([command, *run]) == 0
        ckpt_dir = tmp_path / "run" / "checkpoints"
        (ckpt_dir / "member00_final.json").unlink()
        capsys.readouterr()
        assert main(["eval", *run]) == 1
        assert error_line(capsys) == (
            f"error: {ckpt_dir} lacks member00_final.json; run train again"
        )

    def test_no_recorded_value_is_a_path_of_the_config(self, tmp_path, csv_raw):
        config = self.write(tmp_path, csv_raw)
        assert main(["train", "--config", config]) == 0
        paths = {*csv_raw["data"].values(), csv_raw["hierarchy"], csv_raw["out"]}
        paths.add(load_config(config).hierarchy)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        recorded = [v for section in manifest.values() for v in cli._flat(section).values()]
        assert "train" in manifest and recorded
        assert [value for value in recorded if isinstance(value, str) and value in paths] == []


class TestPredictionsReuse:
    """predict and eval reach the ensemble's probabilities by one path, and
    eval after predict leaves the ``predictions.csv`` that predict wrote
    where it holds the same bytes; either way eval writes what a run that
    never ran predict writes."""

    SCORED = ("predictions.csv", "report.txt", "report.csv", "roc_A.csv", "roc_B.csv")

    def two_runs(self, workspace, **overrides):
        """Configs of two run directories, trained alike; only "run" has
        run predict."""
        configs = {
            out: write_config(
                workspace, name=f"{out}.json", out=str(workspace / out),
                ensemble_size=2, **overrides,
            )
            for out in ("run", "canon")
        }
        for out, config in configs.items():
            if "synthetic" in json.loads(config.read_text())["data"]:
                assert main(["gen", "--config", str(config)]) == 0
            assert main(["train", "--config", str(config)]) == 0
        assert main(["predict", "--config", str(configs["run"])]) == 0
        return configs

    def scored(self, run):
        return {name: (run / name).read_bytes() for name in self.SCORED}

    def checkpoint_loads(self, monkeypatch):
        loads = []
        load = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path) or load(path))
        return loads

    def test_eval_scores_what_predict_wrote(self, workspace, monkeypatch):
        configs = self.two_runs(workspace)
        assert main(["eval", "--config", str(configs["canon"])]) == 0
        predictions = workspace / "run" / "predictions.csv"
        sidecar = csvio.sidecar_path(predictions)
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in (predictions, sidecar)]
        written, write_rows = [], csvio.write_rows

        def recorded(path, *args):
            written.append(Path(path).name)
            return write_rows(path, *args)

        monkeypatch.setattr(csvio, "write_rows", recorded)
        loads = self.checkpoint_loads(monkeypatch)
        assert main(["eval", "--config", str(configs["run"])]) == 0
        assert len(loads) == 2 and "predictions.csv" not in written
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in (predictions, sidecar)] == before
        assert self.scored(workspace / "run") == self.scored(workspace / "canon")

    def edit_checkpoint(self, workspace, configs):
        path = workspace / "run" / "checkpoints" / "member01_final.json"
        path.write_text(path.read_text() + " \n")

    def edit_probability(self, workspace, configs):
        path = workspace / "run" / "predictions.csv"
        lines = path.read_text().split("\n")
        cells = lines[5].split(",")
        lines[5] = ",".join([cells[0], "0.5", *cells[2:]])
        path.write_text("\n".join(lines))

    def swap_hierarchy(self, workspace, configs):
        (workspace / "h.csv").write_text("name,parent,index\nB,A,1\nA,,0\n")  # same forest

    @pytest.mark.parametrize("edit", ["edit_checkpoint", "edit_probability", "swap_hierarchy"])
    def test_a_changed_input_runs_the_ensemble(self, workspace, monkeypatch, edit):
        configs = self.two_runs(workspace)
        getattr(self, edit)(workspace, configs)
        assert main(["eval", "--config", str(configs["canon"])]) == 0
        loads = self.checkpoint_loads(monkeypatch)
        assert main(["eval", "--config", str(configs["run"])]) == 0
        assert len(loads) == 2
        assert self.scored(workspace / "run") == self.scored(workspace / "canon")

    def test_each_file_hashed_once(self, workspace, monkeypatch):
        config = str(write_config(workspace))
        for command in ("gen", "train"):
            assert main([command, "--config", config]) == 0
        hashed, sha256_file = [], csvio.sha256_file

        def counted(path):
            hashed.append(Path(path).name)
            return sha256_file(path)

        monkeypatch.setattr(csvio, "sha256_file", counted)
        assert main(["train", "--config", config]) == 0
        assert hashed.count("train_features.csv") == hashed.count("train_labels.csv") == 1
        hashed.clear()
        assert main(["predict", "--config", config]) == 0
        assert hashed == ["eval_features.csv"]
        hashed.clear()
        assert main(["eval", "--config", config]) == 0
        assert sorted(hashed) == ["eval_features.csv", "eval_labels.csv", "predictions.csv"]

    def test_other_eval_features_run_the_ensemble(self, workspace, monkeypatch):
        data = write_label_files(workspace, "0.0")
        configs = self.two_runs(workspace, data=data, policy={"name": "ones"})
        other = workspace / "other_features.csv"
        lines = (workspace / "eval_features.csv").read_text().splitlines()
        other.write_text("\n".join(lines[:1] + [row + "1" for row in lines[1:]]) + "\n")
        for config in configs.values():
            raw = json.loads(config.read_text())
            raw["data"]["eval_features"] = str(other)
            config.write_text(json.dumps(raw))
        assert main(["eval", "--config", str(configs["canon"])]) == 0
        loads = self.checkpoint_loads(monkeypatch)
        assert main(["eval", "--config", str(configs["run"])]) == 0
        assert len(loads) == 2
        assert self.scored(workspace / "run") == self.scored(workspace / "canon")


class TestEvalReadsFeatures:
    """Every eval that runs the ensemble reads the eval features file and
    checks its row ids against the labels'; one that scores a supplied
    predictions file reads the labels alone."""

    def renamed_row(self, workspace):
        path = workspace / "run" / "data" / "eval_features.csv"
        lines = path.read_text().split("\n")
        lines[3] = "zebra" + lines[3][lines[3].index(",") :]
        path.write_text("\n".join(lines))

    def test_without_predict(self, workspace, capsys):
        config = write_config(workspace, ensemble_size=1)
        for command in ("gen", "train"):
            assert main([command, "--config", str(config)]) == 0
        self.renamed_row(workspace)
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 2
        assert "row ids disagree between" in capsys.readouterr().err
        assert not (workspace / "run" / "predictions.csv").exists()

    def test_after_predict_on_the_same_file(self, workspace, capsys):
        config = write_config(workspace, ensemble_size=1)
        for command in ("gen", "train"):
            assert main([command, "--config", str(config)]) == 0
        self.renamed_row(workspace)
        assert main(["predict", "--config", str(config)]) == 0  # reads no labels
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 2
        assert "row ids disagree between" in capsys.readouterr().err

    def test_with_supplied_predictions(self, workspace):
        config = write_config(workspace, ensemble_size=1)
        for command in ("gen", "train", "predict"):
            assert main([command, "--config", str(config)]) == 0
        scored = workspace / "scored.csv"
        shutil.copy(workspace / "run" / "predictions.csv", scored)
        command = ["eval", "--config", str(config), "--predictions", str(scored)]
        assert main(command) == 0
        reports = [(workspace / "run" / name).read_bytes() for name in cli._REPORTS]
        (workspace / "run" / "data" / "eval_features.csv").write_text("id,f0\nr1,x\n")
        assert main(command) == 0
        assert [(workspace / "run" / name).read_bytes() for name in cli._REPORTS] == reports


class TestEvalSplitResolvedOnce:
    """Each command reads each section of a run's record once: ``data``
    for gen's data, and ``train`` for the checkpoints unless ``eval``
    scores a supplied predictions file."""

    def test_recorded_files_read_per_command(self, workspace, monkeypatch):
        config = write_config(workspace, ensemble_size=1)
        for command in ("gen", "train"):
            assert main([command, "--config", str(config)]) == 0
        scored = workspace / "scored.csv"
        read, recorded = [], cli._recorded

        def reading(out, section, remedy):
            read.append(section)
            return recorded(out, section, remedy)

        monkeypatch.setattr(cli, "_recorded", reading)
        for command, expected in [
            (["predict"], ["data", "train"]),
            (["eval"], ["data", "train"]),
            (["eval", "--predictions", str(scored)], ["data"]),
        ]:
            if str(scored) in command:
                shutil.copy(workspace / "run" / "predictions.csv", scored)
            read.clear()
            assert main([*command, "--config", str(config)]) == 0
            assert read == expected


def write_label_files(workspace, blank):
    """Train and eval label CSVs of 40 rows with 20 blank cells each (or
    ``0.0`` in their place), plus feature CSVs with the same ids."""
    rng = np.random.default_rng(4)
    paths = {}
    for split in ("train", "eval"):
        a = np.arange(40) % 2
        b = a * (np.arange(40) % 4 == 1)  # a child positive only under A
        cells = np.array([[str(float(x)) for x in row] for row in zip(a, b)], dtype=object)
        cells.ravel()[rng.choice(80, size=20, replace=False)] = blank
        ids = [f"{split}{i}" for i in range(40)]
        labels = workspace / f"{split}_labels_{blank or 'blank'}.csv"
        labels.write_text("id,Sex,Age,A,B\n" + "".join(
            f"{i},{'Male' if n % 3 else 'Female'},{20 + n},{row[0]},{row[1]}\n"
            for n, (i, row) in enumerate(zip(ids, cells))
        ))
        features = workspace / f"{split}_features.csv"
        features.write_text("id,f0,f1\n" + "".join(
            f"{i},{x},{y}\n" for i, (x, y) in zip(ids, rng.standard_normal((40, 2)).tolist())
        ))
        paths.update({f"{split}_labels": str(labels), f"{split}_features": str(features)})
    return paths


class TestMissingAsNegative:
    """``missing_as_negative`` reads blank label cells as negatives in every
    split, and in the labels that ``eval --predictions`` scores against."""

    @pytest.mark.parametrize("scored", ["features", "predictions"])
    def test_blank_cells_train_and_score_as_zeros(self, workspace, scored):
        runs = {}
        for blank, flag in (("", True), ("0.0", False)):
            data = write_label_files(workspace, blank)
            out = workspace / f"run_{flag}"
            config = write_config(
                workspace, name=f"{flag}.json", out=str(out), ensemble_size=1,
                policy={"name": "ones"}, missing_as_negative=flag, data=data,
            )
            commands = [["train"], ["eval"]]
            if scored == "predictions":
                scored_file = str(out / "predictions.csv")
                commands[1:] = [["predict"], ["eval", "--predictions", scored_file]]
            for command in commands:
                assert main([*command, "--config", str(config)]) == 0
            records = ("config.json", "manifest.json")  # these name the flag
            runs[flag] = {k: v for k, v in checksums(out).items() if k not in records}
        assert "report.csv" in runs[True] and runs[True] == runs[False]


class TestCsvDataFiles:
    """A CSV ``data`` section names a features file and a labels file for
    each split: a config without one of the four keys, or naming a file
    that the command reads and that does not exist, exits 1 before
    anything is written."""

    def test_labels_only_config_exits_one(self, workspace, capsys):
        data = write_label_files(workspace, "0.0")
        config = write_config(workspace, data={k: v for k, v in data.items() if "labels" in k})
        before = sorted(workspace.rglob("*"))
        for command in ("train", "predict", "eval"):
            assert main([command, "--config", str(config)]) == 1
            assert "'train_features' and 'eval_features'" in capsys.readouterr().err
        assert sorted(workspace.rglob("*")) == before

    @pytest.mark.parametrize(
        "command, key",
        [
            ("train", "train_features"),
            ("predict", "eval_features"),
            ("eval", "eval_features"),
            ("eval", "eval_labels"),
        ],
    )
    def test_absent_file_exits_one(self, workspace, capsys, command, key):
        nope = workspace / "nope.csv"
        data = {**write_label_files(workspace, "0.0"), key: str(nope)}
        config = write_config(workspace, data=data)
        before = sorted(workspace.rglob("*"))
        assert main([command, "--config", str(config)]) == 1
        split, kind = key.split("_")
        what = "training" if split == "train" else "eval"
        assert capsys.readouterr().err == f"error: {what} {kind} file not found: {nope}\n"
        assert sorted(workspace.rglob("*")) == before

    def test_scoring_reads_only_the_eval_file_it_needs(self, workspace):
        data = write_label_files(workspace, "0.0")
        config = write_config(workspace, ensemble_size=1, data=data)
        for command in ("train", "predict", "eval"):
            assert main([command, "--config", str(config)]) == 0
        run = workspace / "run"
        reports = [(run / name).read_bytes() for name in cli._REPORTS]
        shutil.copy(run / "predictions.csv", workspace / "scored.csv")
        eval_labels = Path(data["eval_labels"]).rename(workspace / "held.csv")
        assert main(["predict", "--config", str(config)]) == 0
        eval_labels.rename(data["eval_labels"])
        Path(data["eval_features"]).unlink()
        scored = ["--predictions", str(workspace / "scored.csv")]
        assert main(["eval", "--config", str(config), *scored]) == 0
        assert [(run / name).read_bytes() for name in cli._REPORTS] == reports


class TestConsoleScript:
    def test_installed_entry_point(self, workspace):
        script = shutil.which("hiermlc")
        assert script, "console script not installed"
        config = write_config(workspace)
        proc = subprocess.run(
            [script, "gen", "--config", str(config)],
            capture_output=True,
            text=True,
            cwd=workspace,
        )
        assert proc.returncode == 0, proc.stderr
        assert (workspace / "run" / "data" / "train_labels.csv").exists()


def set_synthetic(**values):
    return lambda raw: raw["data"]["synthetic"].update(values)


def set_optimizer(**values):
    return lambda raw: raw["optimizer"].update(values)


class TestMalformedInput:
    """Each malformed input reaches its exit code with a message naming
    the key or the file and line, never a traceback."""

    @pytest.mark.parametrize(
        "command, mutate, message",
        [
            ("train", lambda raw: raw.update(ensemble_size="3"), "ensemble_size must be an integer"),
            ("train", lambda raw: raw.update(stage1_iterations=2.5), "stage1_iterations must be an integer"),
            ("train", lambda raw: raw.update(hidden_sizes="32"), "hidden_sizes must be a JSON array"),
            ("train", lambda raw: raw.update(seed="x"), "seed must be an integer"),
            ("train", lambda raw: raw.update(seed=1.0), "seed must be an integer"),
            ("train", lambda raw: raw.update(missing_as_negative=1), "missing_as_negative must be"),
            ("train", lambda raw: raw.update(stage1_iterations=-3), "stage1_iterations"),
            ("train", lambda raw: raw.update(stage2_iterations=-1), "stage2_iterations"),
            ("train", lambda raw: raw.update(hidden_sizes=[0]), "hidden_sizes[0] must be >= 1, got 0"),
            ("train", lambda raw: raw.update(hidden_sizes=[-3]), "hidden_sizes[0] must be >= 1, got -3"),
            ("train", set_optimizer(epsilon=-1.0), "epsilon must be positive"),
            ("train", set_optimizer(epsilon=0.0), "optimizer: epsilon must be positive"),
            ("eval", lambda raw: raw.update(eval_subset=["A", "A"]), "eval_subset names label(s) more than once: ['A']"),
            ("gen", set_synthetic(theta={"A": "0.6", "B": 0.7}), "data.synthetic.theta.A must be a number"),
            ("gen", set_synthetic(n_train=0), "data.synthetic.n_train must be >= 1"),
            ("gen", set_synthetic(n_eval=0), "data.synthetic.n_eval must be >= 1"),
            ("gen", set_synthetic(feature_dim=0), "data.synthetic.feature_dim must be >= 1"),
            ("gen", set_synthetic(feature_noise=-1.0), "data.synthetic.feature_noise must be >= 0"),
            ("gen", set_synthetic(uncertainty_rate=1.5), "data.synthetic.uncertainty_rate"),
            ("train", set_optimizer(decay_factor=0.0), "decay_factor must be positive"),
            ("gen", set_synthetic(feature_noise=math.nan), "data.synthetic.feature_noise must be a finite number, got nan"),
            ("gen", set_synthetic(feature_noise=math.inf), "data.synthetic.feature_noise must be a finite number, got inf"),
            ("gen", set_synthetic(theta={"A": -math.inf, "B": 0.7}), "data.synthetic.theta.A must be a finite number, got -inf"),
            ("train", set_optimizer(lr0=math.nan), "optimizer.lr0 must be a finite number, got nan"),
            ("train", set_optimizer(decay_factor=math.inf), "optimizer.decay_factor must be a finite number, got inf"),
            ("train", set_optimizer(epsilon=math.inf), "optimizer.epsilon must be a finite number, got inf"),
            ("train", lambda raw: raw["policy"].update(lsr_ones=[0.5, math.nan]), "policy.lsr_ones[1] must be a finite number"),
            ("gen", lambda raw: raw.update(eval_subset=["lef"]), "eval_subset names unknown label(s): ['lef']"),
            ("eval", lambda raw: raw.update(eval_subset=["A", "lef"]), "eval_subset names unknown label(s): ['lef']"),
        ],
    )
    def test_bad_config_exits_one(self, workspace, capsys, command, mutate, message):
        config = write_config(workspace)
        raw = json.loads(config.read_text())
        mutate(raw)
        config.write_text(json.dumps(raw))
        assert main([command, "--config", str(config)]) == 1
        assert message in capsys.readouterr().err
        assert not (workspace / "run").exists()

    def test_config_not_utf8_exits_one(self, workspace, capsys):
        config = write_config(workspace)
        config.write_bytes(b"\xff" + config.read_bytes())
        assert main(["gen", "--config", str(config)]) == 1
        assert f"error: {config}: invalid JSON" in error_line(capsys)
        assert not (workspace / "run").exists()

    def test_learning_rate_underflow_exits_three(self, workspace, capsys):
        # 200 rows in batches of 100: epoch 2 starts at step 4 with lr 1e-602
        config = write_config(workspace, ensemble_size=1)
        raw = json.loads(config.read_text())
        raw["optimizer"].update(decay_factor=1e-300, batch_size=100)
        config.write_text(json.dumps(raw))
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 3
        assert "stage1: learning rate underflowed to 0 at epoch 2" in capsys.readouterr().err

    def test_hierarchy_row_with_one_cell_exits_two(self, workspace, capsys):
        config = write_config(workspace, hierarchy="name,parent,index\nA,,0\nb\n")
        assert main(["gen", "--config", str(config)]) == 2
        assert "h.csv:3: expected 3 cells, got 1" in capsys.readouterr().err

    def test_labels_sharing_a_file_name_exit_two_before_training(self, workspace, capsys):
        config = write_config(workspace, hierarchy="name,parent,index\na b,,0\na_b,,1\n")
        assert main(["train", "--config", str(config)]) == 2
        assert "labels 'a b' and 'a_b' share the file name 'a_b'" in capsys.readouterr().err
        assert not (workspace / "run").exists()

    def test_label_named_id_exits_two_before_gen_writes(self, workspace, capsys):
        config = write_config(workspace, hierarchy="name,parent,index\nA,,0\nid,A,1\n")
        raw = json.loads(config.read_text())
        raw["data"]["synthetic"]["theta"] = {"A": 0.6, "id": 0.7}
        config.write_text(json.dumps(raw))
        assert main(["gen", "--config", str(config)]) == 2
        assert "h.csv: label 'id' is the name of" in capsys.readouterr().err
        assert not (workspace / "run").exists()

    def test_reader_points_row_with_three_cells_exits_two(self, workspace, capsys):
        config = write_config(workspace)
        readers = workspace / "readers.csv"
        readers.write_text("label,reader,fpr,tpr\nA,r1,0.1\n")
        raw = json.loads(config.read_text())
        raw["reader_points"] = str(readers)
        config.write_text(json.dumps(raw))
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config)]) == 2
        assert "readers.csv:2: expected 4 cells, got 3" in capsys.readouterr().err

    def test_absent_reader_points_file_exits_one_before_any_read(self, workspace, capsys):
        config = write_config(workspace)
        raw = json.loads(config.read_text())
        raw["reader_points"] = str(workspace / "nope.csv")
        config.write_text(json.dumps(raw))
        # no gen data either: the reader points are checked first
        assert main(["eval", "--config", str(config)]) == 1
        assert error_line(capsys) == f"error: reader_points file not found: {workspace / 'nope.csv'}"
        assert not (workspace / "run").exists()

    def test_reader_points_for_unknown_label_exit_two(self, workspace, capsys):
        config = write_config(workspace)
        readers = workspace / "readers.csv"
        readers.write_text("label,reader,fpr,tpr\nB,r1,0.5,0.1\nleaff,r1,0.9,0.1\n")
        raw = json.loads(config.read_text())
        raw["reader_points"] = str(readers)
        config.write_text(json.dumps(raw))
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "readers.csv" in err and "unknown label(s) ['leaff']" in err
        assert not (workspace / "run" / "report.txt").exists()

    def test_eval_subset_checked_before_data_is_read(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["gen", "--config", str(config)]) == 0
        (workspace / "run" / "data" / "eval_labels.csv").write_text("not,a,labels,file\n")
        raw = json.loads(config.read_text())
        raw["eval_subset"] = ["lef"]
        config.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 1
        assert "eval_subset names unknown label(s): ['lef']" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["weights", "biases", "frozen", "layer_sizes"])
    def test_checkpoint_without_key_exits_two(self, workspace, capsys, key):
        config = write_config(workspace, ensemble_size=1)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        path = workspace / "run" / "checkpoints" / "member00_final.json"
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        for command in ("predict", "eval"):
            assert main([command, "--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert "member00_final.json" in err and f"['{key}']" in err


class TestHierarchyEditedAfterTrain:
    """predict and eval refuse checkpoints whose outputs do not match the
    hierarchy's labels, before any eval file is read, and leave the
    predictions an earlier run wrote.  An edited hierarchy fails the run
    record's check first (``TestRecordedForest``), so only a checkpoint
    replaced by hand reaches this one."""

    def lose_leaf(self, outputs):
        return outputs[:2]

    def gain_label(self, outputs):
        return outputs + outputs[-1:]

    @pytest.mark.parametrize(
        "command, mode",
        [("predict", "flat"), ("eval", "flat"), ("predict", "conditional")],
    )
    @pytest.mark.parametrize("edit, outputs", [("lose_leaf", 2), ("gain_label", 4)])
    def test_exits_one_naming_the_checkpoint(
        self, tmp_path, configs_dir, capsys, command, mode, edit, outputs
    ):
        config = str(chain_config(tmp_path, configs_dir, mode=mode, out=str(tmp_path / "run")))
        for step in ("gen", "train", "predict"):
            assert main([step, "--config", config]) == 0
        run = tmp_path / "run"
        # the final layer of a member with another output count
        path = run / "checkpoints" / "member00_final.json"
        payload, edit = json.loads(path.read_text()), getattr(self, edit)
        payload["layer_sizes"][-1] = outputs
        payload["weights"][-1] = [edit(row) for row in payload["weights"][-1]]
        payload["biases"][-1] = edit(payload["biases"][-1])
        path.write_text(json.dumps(payload))
        before = checksums(run)
        capsys.readouterr()
        assert main([command, "--config", config]) == 1
        assert error_line(capsys) == (
            f"error: {path} has {outputs} outputs but the hierarchy has 3 labels; "
            "run train again"
        )
        assert checksums(run) == before


class TestRecordedForest:
    """The run record names the hierarchy by its forest, each label's index
    and parent: a renamed, reparented, reordered, added or removed label is
    another hierarchy, and the same forest reached by any path is one."""

    EDITS = {
        "rename": (
            lambda text: text.replace("leaf", "twig"),
            "hierarchy.leaf [2, 'mid'], not None; hierarchy.twig None, not [2, 'mid']",
        ),
        "reparent": (
            lambda text: text.replace("mid,root,1", "mid,,1"),
            "hierarchy.mid [1, 'root'], not [1, None]",
        ),
        "reorder": (
            lambda text: text.replace("root,1", "root,2").replace("mid,2", "mid,1"),
            "hierarchy.leaf [2, 'mid'], not [1, 'mid']; "
            "hierarchy.mid [1, 'root'], not [2, 'root']",
        ),
        "add": (lambda text: text + "twig,leaf,3\n", "hierarchy.twig None, not [3, 'leaf']"),
        "remove": (
            lambda text: text.replace("leaf,mid,2\n", ""), "hierarchy.leaf [2, 'mid'], not None"
        ),
    }

    def edit_hierarchy(self, tmp_path, edit):
        """Apply ``edit`` to the chain hierarchy; return the keys it changes."""
        change, differs = self.EDITS[edit]
        path = tmp_path / "chain_hierarchy.csv"
        path.write_text(change(path.read_text()))
        return differs

    @pytest.mark.parametrize("edit", EDITS)
    def test_an_edit_after_gen_is_refused(self, tmp_path, configs_dir, capsys, edit):
        config = str(chain_config(tmp_path, configs_dir, out=str(tmp_path / "run")))
        assert main(["gen", "--config", config]) == 0
        differs = self.edit_hierarchy(tmp_path, edit)
        before = checksums(tmp_path)
        capsys.readouterr()
        for command in ("train", "predict", "eval"):
            assert main([command, "--config", config]) == 1
            assert error_line(capsys) == (
                f"error: {tmp_path / 'run' / 'data'} was generated under another config: "
                f"{differs}; run gen again"
            )
        assert checksums(tmp_path) == before

    @pytest.mark.parametrize("edit", EDITS)
    def test_an_edit_after_train_is_refused(self, tmp_path, configs_dir, capsys, edit):
        config = chain_config(tmp_path, configs_dir, out=str(tmp_path / "run"))
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "gen")]) == 0
        raw = json.loads(config.read_text())
        config.write_text(json.dumps({**raw, "data": gen_files(tmp_path / "gen" / "data")}))
        for command in ("train", "predict"):
            assert main([command, "--config", str(config)]) == 0
        differs = self.edit_hierarchy(tmp_path, edit)
        before = checksums(tmp_path)
        capsys.readouterr()
        for command in ("predict", "eval"):
            assert main([command, "--config", str(config)]) == 1
            assert error_line(capsys) == (
                f"error: {tmp_path / 'run' / 'checkpoints'} was trained under another config: "
                f"{differs}; run train again"
            )
        assert checksums(tmp_path) == before

    def test_one_forest_by_any_path_is_one_hierarchy(self, tmp_path, configs_dir, monkeypatch):
        """By an absolute path, from another working directory, and as a
        byte-identical copy at another path."""
        config = chain_config(tmp_path, configs_dir)
        shutil.copy(tmp_path / "chain_hierarchy.csv", tmp_path / "copy.csv")
        absolute = chain_config(
            tmp_path, configs_dir, "absolute.json", hierarchy=str(tmp_path / "chain_hierarchy.csv")
        )
        copy = chain_config(tmp_path, configs_dir, "copy.json", hierarchy="copy.csv")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(tmp_path)
        out = ["--out", str(tmp_path / "run")]
        assert main(["gen", "--config", "chain.json", *out]) == 0
        for cwd, config_path in ((tmp_path, absolute), (elsewhere, config), (tmp_path, copy)):
            monkeypatch.chdir(cwd)
            for command in ("train", "predict", "eval"):
                assert main([command, "--config", str(config_path), *out]) == 0
        # CSV data: the train record alone
        monkeypatch.chdir(tmp_path)
        data = gen_files(tmp_path / "run" / "data")
        for name, source in (("csv.json", config), ("csv_copy.json", copy)):
            raw = json.loads(source.read_text())
            (tmp_path / name).write_text(json.dumps({**raw, "data": data}))
        assert main(["train", "--config", "csv.json", "--out", "csv"]) == 0
        assert main(["eval", "--config", "csv_copy.json", "--out", "csv"]) == 0

    def test_no_command_reads_provenance_or_config_json(self, tmp_path, configs_dir, capsys):
        """Deleting both after train changes no later command's exit code,
        message or output bytes."""
        config = str(chain_config(tmp_path, configs_dir))
        runs = {}
        for name in ("kept", "deleted"):
            out = tmp_path / name
            run = ["--config", config, "--out", str(out)]
            for command in ("gen", "train"):
                assert main([command, *run]) == 0
            if name == "deleted":
                (out / "data" / "provenance.json").unlink()
                (out / "config.json").unlink()
            capsys.readouterr()
            outcomes = []
            for command in (
                ["predict"], ["eval"], ["eval", "--predictions", str(out / "predictions.csv")],
                ["predict", "--seed", "7"], ["eval", "--mode", "flat"], ["train"], ["eval"],
            ):
                code = main([*command, *run])
                outcomes.append((code, capsys.readouterr().err.replace(name, "<out>")))
            files = checksums(out)
            files.pop("data/provenance.json", None)
            runs[name] = outcomes, files
        assert [code for code, _ in runs["kept"][0]] == [0, 0, 0, 1, 1, 0, 0]
        assert runs["deleted"] == runs["kept"]


class TestMalformedCheckpoints:
    """A final checkpoint whose layer layout is malformed exits 2, and
    the message names the file."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: payload.update(weights=5),
            lambda payload: payload.update(frozen=3),
            lambda payload: payload["weights"][0][1].pop(),  # ragged
            lambda payload: payload["weights"][0][0].__setitem__(0, "0.25"),
            lambda payload: payload["biases"][1].pop(),
            lambda payload: payload["weights"][1].pop(),  # a row short of layer 0's outputs
            lambda payload: payload["frozen"].pop(),
            lambda payload: payload.update(layer_sizes=[99]),
            lambda payload: payload["weights"][0][0].__setitem__(0, True),
        ],
        ids=["weights-number", "frozen-number", "ragged", "string-cell", "short-bias",
             "unchained", "flag-short", "layer-sizes", "true-cell"],
    )
    def test_eval_exits_two_naming_the_file(self, workspace, capsys, edit):
        config = write_config(workspace, ensemble_size=1)
        assert main(["gen", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        path = workspace / "run" / "checkpoints" / "member00_final.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 2
        assert str(path) in error_line(capsys)

    @pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cell_leaves_predictions_alone(self, workspace, capsys, cell):
        config = str(write_config(workspace, ensemble_size=1, mode="flat"))
        for command in ("gen", "train", "predict"):
            assert main([command, "--config", config]) == 0
        predictions = workspace / "run" / "predictions.csv"
        before = predictions.read_bytes()
        path = workspace / "run" / "checkpoints" / "member00_final.json"
        payload = json.loads(path.read_text())
        payload["weights"][0][1][2] = float(cell)  # written as the bare literal
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        for command in ("predict", "eval"):
            assert main([command, "--config", config]) == 2
            assert str(path) in error_line(capsys)
        assert predictions.read_bytes() == before

    def test_checkpoint_not_utf8_exits_two_naming_it(self, workspace, capsys):
        config = str(write_config(workspace, ensemble_size=1))
        for command in ("gen", "train"):
            assert main([command, "--config", config]) == 0
        path = workspace / "run" / "checkpoints" / "member00_final.json"
        path.write_bytes(b"\xff" + path.read_bytes())
        capsys.readouterr()
        assert main(["eval", "--config", config]) == 2
        assert f"error: {path}: not a valid checkpoint" in error_line(capsys)


class TestPolicyCheckedOnLoad:
    """An unknown policy name, or an LSR band outside [0, 1], is a config
    error for every command: exit 1 before anything is written."""

    @pytest.mark.parametrize("command", ["gen", "train", "predict", "eval", "ablate"])
    @pytest.mark.parametrize(
        "policy, key",
        [
            ("bogus", "policy.name"),
            ({"name": "ones", "lsr_zeros": [0.9, 0.1]}, "policy.lsr_zeros"),
            ({"name": "ones-lsr", "lsr_ones": [0.9, 0.1]}, "policy.lsr_ones"),
        ],
        ids=["name", "lsr_zeros", "lsr_ones"],
    )
    def test_exits_one_naming_the_key(self, workspace, capsys, command, policy, key):
        config = write_config(workspace, policy=policy)
        assert main([command, "--config", str(config)]) == 1
        assert key in error_line(capsys)
        assert sorted(p.name for p in workspace.iterdir()) == ["c.json", "h.csv"]


def error_line(capsys):
    """The one line a failed command printed, to stderr alone."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestAblate:
    """``ablate`` runs ``hierarchical_ablation`` on the config's synthetic
    data and writes ``ablation.json``; failures exit as every command's do."""

    def ablate(self, workspace, *flags, **overrides):
        config = write_config(workspace, **overrides)
        return main(["ablate", "--config", str(config), *flags])

    def test_matches_direct_ablation(self, tmp_path, configs_dir):
        config_path = configs_dir / "benchmark.json"
        args = ["ablate", "--config", str(config_path), "--seeds", "1", "--out", str(tmp_path)]
        assert main(args) == 0
        payload = json.loads((tmp_path / "ablation.json").read_text())

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
        assert payload == {
            "config": config_to_dict(config),
            "seeds": [0],
            "leaf_names": list(direct.leaf_names),
            "conditional_by_seed": direct.conditional_by_seed,
            "flat_by_seed": direct.flat_by_seed,
            "mean_conditional": direct.mean_conditional,
            "mean_flat": direct.mean_flat,
            "delta": direct.delta,
        }

    def test_records_its_config_beside_another_run(self, tmp_path, configs_dir):
        """``ablate`` under config b into a run directory that ``gen`` and
        ``train`` filled under config a, which differs in ``optimizer.lr0``:
        ``ablation.json`` names b's config, and ``config.json`` still a's."""
        config_a = chain_config(tmp_path, configs_dir, "a.json")
        raw = json.loads(config_a.read_text())
        raw["optimizer"]["lr0"] = 0.02
        config_b = tmp_path / "b.json"
        config_b.write_text(json.dumps(raw))
        out = tmp_path / "run"
        for command, config in (("gen", config_a), ("train", config_a), ("ablate", config_b)):
            flags = ("--seeds", "1") if command == "ablate" else ()
            assert main([command, "--config", str(config), "--out", str(out), *flags]) == 0
        recorded = json.loads((out / "ablation.json").read_text())["config"]
        assert recorded == config_to_dict(load_config(config_b))
        assert recorded["optimizer"]["lr0"] == 0.02
        assert json.loads((out / "config.json").read_text())["optimizer"]["lr0"] == 0.01

    def test_no_seeds_rejected(self, workspace, capsys):
        for seeds in ("0", "-2"):
            assert self.ablate(workspace, "--seeds", seeds) == 1
            assert f"--seeds must be >= 1, got {int(seeds)}" in error_line(capsys)
        assert self.ablate(workspace, "--seeds", "1", "--seed", "-1") == 1
        assert "seed must be >= 0, got -1" in error_line(capsys)
        assert not (workspace / "run").exists()

    @pytest.mark.parametrize(
        "text, message", [(None, "config file not found"), ("{", "bad.json")]
    )
    def test_config_error_is_one_error_line(self, tmp_path, capsys, text, message):
        config = tmp_path / "bad.json"
        if text is not None:
            config.write_text(text)
        assert main(["ablate", "--config", str(config)]) == 1
        assert message in error_line(capsys)

    def test_hierarchy_error_is_one_error_line(self, workspace, capsys):
        synthetic = base_config("")["data"]["synthetic"]
        data = {"synthetic": {**synthetic, "theta": {"A": 0.6, "id": 0.7}}}
        hierarchy = "name,parent,index\nA,,0\nid,A,1\n"
        assert self.ablate(workspace, hierarchy=hierarchy, data=data) == 2
        assert "h.csv: label 'id' is the name of" in error_line(capsys)
        assert not (workspace / "run").exists()

    def test_single_class_eval_split_exits_two(self, workspace, capsys):
        synthetic = base_config("")["data"]["synthetic"]
        data = {"synthetic": {**synthetic, "theta": {"A": 0.6, "B": 0.0}}}
        assert self.ablate(workspace, "--seeds", "1", data=data) == 2
        assert "need both classes to sweep a curve, got 0 positives" in error_line(capsys)
        assert not (workspace / "run").exists()

    def test_learning_rate_underflow_exits_three(self, workspace, capsys):
        optimizer = {"lr0": 1e-300, "decay_factor": 1e-300, "batch_size": 16}
        flags = ("--seeds", "1")
        code = self.ablate(
            workspace, *flags, optimizer=optimizer, stage1_iterations=130, stage2_iterations=10
        )
        assert code == 3
        assert "learning rate underflowed to 0" in error_line(capsys)
        assert not (workspace / "run").exists()

    def test_seeds_do_not_depend_on_each_other(self, workspace, capsys):
        """A seed's AUCs are the same run alone or beside another seed, and
        a rerun into a fresh directory writes the same bytes."""
        # 66 steps are not whole 13-step epochs: the arms' epochs end apart
        ragged = dict(stage1_iterations=66, stage2_iterations=30)
        runs = {}
        for name, first, count in (("pair", 0, 2), ("alone", 1, 1), ("again", 1, 1)):
            out = str(workspace / name)
            flags = ("--seed", str(first), "--seeds", str(count), "--out", out)
            assert self.ablate(workspace, *flags, **ragged) == 0
            runs[name] = (workspace / name / "ablation.json").read_bytes()
        pair, alone = json.loads(runs["pair"]), json.loads(runs["alone"])
        assert pair["seeds"] == [0, 1] and alone["seeds"] == [1]
        for key in ("conditional_by_seed", "flat_by_seed"):
            assert pair[key][1:] == alone[key]
        assert runs["again"] == runs["alone"]
        assert "seed  conditional      flat" in capsys.readouterr().out


def rewrite_rows(path, edit):
    """Rewrite a CSV the package wrote, each line's cells by ``edit(index, cells)``
    (the header is line 0)."""
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(edit(i, line.split(","))) + "\n" for i, line in enumerate(lines)))


class TestExitCodeContract:
    """Each exit code comes from one exception type: 1 ``ConfigError``, 2
    ``DataFormatError``, 3 ``NumericError``, and 4 any other exception,
    printed with its traceback.  A features or predictions file is checked
    where it is read, and its faults name it."""

    def csv_config(self, tmp_path, configs_dir):
        """``(config, data dir, run dir)``: ``configs/chain.json`` at a small
        size as a CSV-data config over the files gen wrote."""
        config = chain_config(tmp_path, configs_dir)
        gen = tmp_path / "gen"
        assert main(["gen", "--config", str(config), "--out", str(gen)]) == 0
        raw = json.loads(config.read_text())
        raw["data"] = gen_files(gen / "data")
        config.write_text(json.dumps(raw))
        return str(config), gen / "data", tmp_path / "run"

    def run(self, command, config, out, *flags):
        return main([command, "--config", config, "--out", str(out), *flags])

    @pytest.mark.parametrize(
        "mutate, key, shown",
        [
            (lambda syn: syn.update(feature_noise=10**400), "feature_noise", "inf"),
            (lambda syn: syn["theta"].update(mid=-(10**400)), "theta.mid", "-inf"),
        ],
        ids=["feature_noise", "theta"],
    )
    def test_integer_beyond_float_range_exits_one(
        self, tmp_path, configs_dir, capsys, mutate, key, shown
    ):
        config = chain_config(tmp_path, configs_dir)
        raw = json.loads(config.read_text())
        mutate(raw["data"]["synthetic"])
        config.write_text(json.dumps(raw))
        assert self.run("gen", str(config), tmp_path / "run") == 1
        message = f"error: data.synthetic.{key} must be a finite number, got {shown}"
        assert error_line(capsys) == message
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
    def test_train_features_with_a_non_finite_cell_exit_two(
        self, tmp_path, configs_dir, capsys, cell
    ):
        config, data, out = self.csv_config(tmp_path, configs_dir)
        features = data / "train_features.csv"
        rewrite_rows(features, lambda i, cells: cells[:3] + [cell] + cells[4:] if i == 7 else cells)
        capsys.readouterr()
        assert self.run("train", config, out) == 2
        assert error_line(capsys) == f"error: {features}:8: non-finite feature value"
        assert not out.exists()

    def test_eval_features_of_the_wrong_width_exit_two(self, tmp_path, configs_dir, capsys):
        config, data, out = self.csv_config(tmp_path, configs_dir)
        assert self.run("train", config, out) == 0
        features = data / "eval_features.csv"
        rewrite_rows(features, lambda i, cells: cells[:6])
        capsys.readouterr()
        for command in ("predict", "eval"):
            assert self.run(command, config, out) == 2
            message = f"error: {features} has 5 feature columns; the checkpoints take 16"
            assert error_line(capsys) == message
        run = sorted(p.name for p in out.iterdir())
        assert run == ["checkpoints", "config.json", "loss_log.csv", "manifest.json"]

    @pytest.mark.parametrize("command, split", [("train", "train"), ("predict", "eval")])
    def test_features_file_of_ids_alone_exits_two(
        self, tmp_path, configs_dir, capsys, command, split
    ):
        config, data, out = self.csv_config(tmp_path, configs_dir)
        if command == "predict":
            assert self.run("train", config, out) == 0
        features = data / f"{split}_features.csv"
        rewrite_rows(features, lambda i, cells: cells[:1])
        capsys.readouterr()
        assert self.run(command, config, out) == 2
        message = f"error: {features}: feature file needs an id column, then value columns"
        assert error_line(capsys) == message

    def test_scored_predictions_with_a_nan_cell_exit_two(self, tmp_path, configs_dir, capsys):
        config, _, out = self.csv_config(tmp_path, configs_dir)
        for command in ("train", "predict"):
            assert self.run(command, config, out) == 0
        scored = tmp_path / "scored.csv"
        shutil.copy(out / "predictions.csv", scored)
        rewrite_rows(scored, lambda i, cells: cells[:2] + ["nan"] + cells[3:] if i == 4 else cells)
        capsys.readouterr()
        assert self.run("eval", config, out, "--predictions", str(scored)) == 2
        assert error_line(capsys) == f"error: {scored}:5: non-finite prediction value"
        assert not list(out.glob("report.*"))

    def test_train_labels_all_blank_are_a_data_error(self, tmp_path, configs_dir, capsys):
        config, data, out = self.csv_config(tmp_path, configs_dir)
        rewrite_rows(data / "train_labels.csv", lambda i, cells: cells[:1] + [""] * 3 if i else cells)
        message = "stage1: empty effective training signal (all cells masked out)"
        args = cli._build_parser().parse_args(["train", "--config", config, "--out", str(out)])
        with pytest.raises(DataFormatError, match=re.escape(message)):
            cli.cmd_train(args)
        capsys.readouterr()
        assert self.run("train", config, out) == 2
        assert error_line(capsys) == f"error: {message}"

    @pytest.mark.parametrize("mode", ["conditional", "flat"])
    def test_inputs_that_overflow_the_model_exit_three(
        self, tmp_path, configs_dir, capsys, mode
    ):
        config, data, out = self.csv_config(tmp_path, configs_dir)
        assert self.run("train", config, out, "--mode", mode) == 0
        # finite cells and weights whose sums overflow every hidden unit to
        # inf, so the output layer's mixed-sign weights sum inf - inf
        features = data / "eval_features.csv"
        rewrite_rows(features, lambda i, cells: cells[:1] + ["1e308"] * 16 if i else cells)
        path = out / "checkpoints" / "member00_final.json"
        payload = json.loads(path.read_text())
        payload["weights"][0] = [[1.0] * 32] * 16
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        for command in ("predict", "eval"):
            assert self.run(command, config, out, "--mode", mode) == 3
            message = f"error: the ensemble's outputs on {features} overflow to NaN"
            assert error_line(capsys) == message
        assert not (out / "predictions.csv").exists()

    def test_eval_label_of_one_class_names_it_and_the_file(
        self, tmp_path, configs_dir, capsys
    ):
        config = chain_config(tmp_path, configs_dir, out=str(tmp_path / "run"))
        raw = json.loads(config.read_text())
        raw["data"]["synthetic"]["theta"]["leaf"] = 0.0
        config.write_text(json.dumps(raw))
        for command in ("gen", "train", "predict"):
            assert main([command, "--config", str(config)]) == 0
        run = tmp_path / "run"
        scored = tmp_path / "scored.csv"
        shutil.copy(run / "predictions.csv", scored)
        message = (
            f"error: {run / 'data' / 'eval_labels.csv'}: label 'leaf' has 0 positives and "
            "50 negatives; a ROC curve needs both"
        )
        capsys.readouterr()
        for flags in ([], ["--predictions", str(scored)]):
            assert main(["eval", "--config", str(config), *flags]) == 2
            assert error_line(capsys) == message
        assert not list(run.glob("report.*")) + list(run.glob("roc_*.csv"))

    def test_eval_label_not_binary_names_it_and_the_file(self, tmp_path, configs_dir, capsys):
        config, data, out = self.csv_config(tmp_path, configs_dir)
        assert self.run("train", config, out) == 0
        labels = data / "eval_labels.csv"
        rewrite_rows(labels, lambda i, cells: cells[:2] + [""] + cells[3:] if i == 3 else cells)
        capsys.readouterr()
        assert self.run("eval", config, out) == 2
        assert error_line(capsys) == (
            f"error: {labels}: ground truth must be binary; row 'row00102' label 'mid' "
            "is not 1.0/0.0"
        )

    @pytest.mark.parametrize("where", ["config", "train_features", "predictions"])
    def test_directory_in_place_of_an_input_file(self, tmp_path, configs_dir, capsys, where):
        config, data, out = self.csv_config(tmp_path, configs_dir)
        folder = tmp_path / "folder"
        folder.mkdir()
        if where == "config":
            command, flags, code = "train", [], 1
            config, message = str(folder), f"error: config file not found: {folder}"
        elif where == "train_features":
            raw = json.loads(Path(config).read_text())
            raw["data"]["train_features"] = str(folder)
            Path(config).write_text(json.dumps(raw))
            command, flags, code = "train", [], 1
            message = f"error: training features file not found: {folder}"
        else:
            command, flags, code = "eval", ["--predictions", str(folder)], 2
            message = f"error: predictions file not found: {folder}"
        capsys.readouterr()
        assert self.run(command, config, out, *flags) == code
        assert error_line(capsys) == message

    def test_internal_value_error_exits_four_with_its_traceback(
        self, tmp_path, configs_dir, capsys, monkeypatch
    ):
        config, _, out = self.csv_config(tmp_path, configs_dir)

        def broken(*args, **kwargs):
            raise ValueError("an internal invariant failed")

        monkeypatch.setattr(cli, "train_ensemble", broken)
        capsys.readouterr()
        assert self.run("train", config, out) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("ValueError: an internal invariant failed\n")
        assert not out.exists()


class Interrupted(BaseException):
    """Stands in for a kill: raised from ``os.replace``."""


class Replaces:
    """``os.replace``, patched to record each target and to raise
    ``Interrupted`` once: in place of the first call for whose target and
    index ``stop`` is true, or with ``after`` once that call is done."""

    def __init__(self, monkeypatch, stop=lambda path, index: False, after=False):
        self.targets, self.stop, self.after, self.stopped = [], stop, after, None
        self.replace = os.replace
        monkeypatch.setattr(os, "replace", self)

    def __call__(self, partial, path):
        path = Path(path)
        stopping = self.stopped is None and self.stop(path, len(self.targets))
        if stopping:
            self.stopped = path
        if stopping and not self.after:
            raise Interrupted(path)
        self.replace(partial, path)
        self.targets.append(path)
        if stopping:
            raise Interrupted(path)


def file_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


# os.replace calls of a clean gen and train on chain_config: four CSVs,
# their sidecars, config.json, provenance.json and manifest.json; then
# manifest.json cut to its data section, a stage-1 and a final checkpoint,
# loss_log.csv, config.json and manifest.json.
GEN_WRITES, TRAIN_WRITES = 11, 6


@pytest.fixture(scope="module")
def chain_runs(tmp_path_factory, configs_dir):
    """``(config, earlier, clean)``: a small chain config; a run directory
    that gen and train filled under seed 0, for a command to interrupt;
    and by seed, the files of a clean gen, train, predict and eval, with
    the count of os.replace calls of its gen and of its train."""
    root = tmp_path_factory.mktemp("chain")
    config = str(chain_config(root, configs_dir))
    clean = {}
    for seed in (0, 1):
        out = root / f"clean{seed}"
        writes = []
        for command in ("gen", "train", "predict", "eval"):
            with pytest.MonkeyPatch.context() as monkeypatch:
                replaces = Replaces(monkeypatch)
                args = ["--config", config, "--out", str(out), "--seed", str(seed)]
                assert main([command, *args]) == 0
            writes.append(len(replaces.targets))
        clean[seed] = file_bytes(out), writes[:2]
    earlier = root / "earlier"
    for command in ("gen", "train"):
        assert main([command, "--config", config, "--out", str(earlier)]) == 0
    return config, earlier, clean


class TestInterrupted:
    """A command stopped at any file write leaves each file whole and
    whatever record it writes deleted, so the commands after it exit 1 or
    write a clean run's bytes."""

    def test_gen_stopped_at_the_eval_split(self, tmp_path, configs_dir, monkeypatch, capsys):
        config = chain_config(tmp_path, configs_dir)
        run = ["--config", str(config), "--out", str(tmp_path / "run")]
        assert main(["gen", *run]) == 0
        Replaces(monkeypatch, lambda path, index: path.name.startswith("eval_"))
        with pytest.raises(Interrupted):
            main(["gen", *run, "--seed", "1"])
        capsys.readouterr()
        assert main(["train", *run]) == 1
        assert "data section is missing or unreadable; run gen again" in error_line(capsys)

    def test_train_stopped_before_the_loss_log(self, tmp_path, configs_dir, monkeypatch, capsys):
        config = chain_config(tmp_path, configs_dir, ensemble_size=2)
        run = ["--config", str(config), "--out", str(tmp_path / "run")]
        assert main(["gen", *run]) == 0
        assert main(["train", *run, "--policy", "ones"]) == 0
        # both flat checkpoints written, then the kill
        Replaces(monkeypatch, lambda path, index: path.name == "member01_final.json", after=True)
        with pytest.raises(Interrupted):
            main(["train", *run, "--policy", "zeros", "--mode", "flat"])
        capsys.readouterr()
        assert main(["eval", *run, "--policy", "ones"]) == 1
        assert "train section is missing or unreadable; run train again" in error_line(capsys)

    def test_eval_stopped_at_a_roc_file_leaves_no_report(self, tmp_path, configs_dir, monkeypatch):
        config = chain_config(tmp_path, configs_dir)
        run = ["--config", str(config), "--out", str(tmp_path / "run")]
        for command in ("gen", "train", "eval"):
            assert main([command, *run]) == 0
        assert list((tmp_path / "run").glob("report.*"))
        raw = json.loads(config.read_text())
        config.write_text(json.dumps({**raw, "eval_subset": ["leaf"]}))
        Replaces(monkeypatch, lambda path, index: path.name.startswith("roc_"))
        with pytest.raises(Interrupted):
            main(["eval", *run])
        assert not list((tmp_path / "run").glob("report.*"))

    def test_clean_run_write_counts(self, chain_runs):
        _, _, clean = chain_runs
        assert [writes for _, writes in clean.values()] == [[GEN_WRITES, TRAIN_WRITES]] * 2

    @pytest.mark.parametrize("index", range(GEN_WRITES + TRAIN_WRITES))
    def test_stopped_at_any_write(self, tmp_path, monkeypatch, chain_runs, index):
        """gen then train under seed 1, over seed 0's run directory, stopped
        at the index-th file write: the file keeps its old bytes or is gone,
        no partial file is left, and each later command under either seed
        exits 1 having written nothing, or writes a clean run's bytes."""
        config, earlier, clean = chain_runs
        out = tmp_path / "run"
        shutil.copytree(earlier, out)
        run = ["--config", config, "--out", str(out)]
        replaces = Replaces(monkeypatch, lambda path, i: i == index)
        for command in ("gen", "train"):
            before = file_bytes(out)
            try:
                assert main([command, *run, "--seed", "1"]) == 0
            except Interrupted:
                break
        stopped = replaces.stopped.relative_to(out).as_posix()
        assert file_bytes(out).get(stopped) in (None, before.get(stopped))
        assert not list(out.rglob("*.tmp"))
        for seed in (0, 1):
            for command in ("predict", "eval", "train", "predict", "eval"):
                replaces.targets.clear()
                code = main([command, *run, "--seed", str(seed)])
                written = {p.relative_to(out).as_posix() for p in replaces.targets}
                if code:
                    assert (code, written) == (1, set())
                now, files = file_bytes(out), clean[seed][0]
                assert {name: now[name] for name in written} == {
                    name: files[name] for name in written
                }
