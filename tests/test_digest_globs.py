"""Guard: the benchmark's artifact digest never covers a sidecar.

``perfbench/run.py`` hashes the files its ``DIGEST_GLOBS`` match in a run
directory and compares the digest with recorded references, so a
``.npy`` sidecar in it would tie the references to ``np.save``'s bytes.
This test reads that tuple without importing the benchmark, runs every
command on ``configs/chain.json`` at a small size, and checks that no
matched file is a sidecar and that each sidecar left sits beside the CSV
it describes.
"""

import ast
import fnmatch
import json
import shutil
from pathlib import Path

import numpy as np

from hiermlc import csvio
from hiermlc.cli import main

RUNNER = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def digest_globs(source: str) -> tuple[str, ...]:
    """The module-level ``DIGEST_GLOBS`` tuple of the benchmark runner."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "DIGEST_GLOBS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no DIGEST_GLOBS tuple")


def test_sidecars_stay_out_of_the_digest(tmp_path, configs_dir, monkeypatch):
    globs = digest_globs(RUNNER.read_text(encoding="utf-8"))
    assert "data/*.csv" in globs and "predictions.csv" in globs
    shutil.copy(configs_dir / "chain_hierarchy.csv", tmp_path)
    raw = json.loads((configs_dir / "chain.json").read_text())
    raw.update(stage1_iterations=20, stage2_iterations=10)
    raw["data"]["synthetic"].update(n_train=100, n_eval=50)
    (tmp_path / "chain.json").write_text(json.dumps(raw))
    monkeypatch.chdir(tmp_path)
    for command in ("gen", "train", "predict", "eval"):
        assert main([command, "--config", "chain.json"]) == 0
    run = tmp_path / "runs" / "chain"
    written = sorted(p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file())
    digested = {name for glob in globs for name in fnmatch.filter(written, glob)}
    assert "data/train_labels.csv" in digested
    assert [name for name in digested if name.endswith(".npy")] == []
    sidecars = [name for name in written if name.endswith(".npy")]
    assert sidecars == [
        "data/eval_features.csv.npy", "data/eval_labels.csv.npy",
        "data/train_features.csv.npy", "data/train_labels.csv.npy",
        "predictions.csv.npy",
    ]
    for name in sidecars:
        csv_name = name.removesuffix(".npy")
        assert csv_name in digested
        dtype = np.int8 if csv_name.endswith("_labels.csv") else np.float64
        parsed, digest = csvio.read_sidecar(run / csv_name, dtype)
        assert parsed is not None and digest == csvio.sha256_file(run / csv_name)
