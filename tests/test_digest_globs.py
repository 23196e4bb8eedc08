"""Guards on the benchmark's artifact digest.

``perfbench/run.py`` hashes the files its ``DIGEST_GLOBS`` match in a run
directory and compares the digest with recorded references.  These tests
read that tuple without importing the benchmark and run every command on
``configs/chain.json`` at a small size.  One checks that no matched file
is a sidecar, since a ``.npy`` sidecar in the digest would tie the
references to ``np.save``'s bytes, and that each sidecar left sits beside
the CSV it describes.  The other hashes the matched files as the runner
does and compares the digest with a recorded constant, so a change that
alters any artifact byte fails here first.  A third keeps the run record,
``manifest.json``, out of the digest and byte-stable across reruns.
"""

import ast
import fnmatch
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from hiermlc import csvio
from hiermlc.cli import main

RUNNER = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# sha256 of the DIGEST_GLOBS files of ``golden_run``, as ``artifact_digest``
# computes it.  A change that alters artifacts on purpose re-records it
# and says so.
GOLDEN_FILES = 17
GOLDEN_DIGEST = "229a480e71ff1ab5e1a7f13b0e5728402b9ef2e64f130c7c04749862ccdcb3fd"


def digest_globs(source: str) -> tuple[str, ...]:
    """The module-level ``DIGEST_GLOBS`` tuple of the benchmark runner."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "DIGEST_GLOBS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no DIGEST_GLOBS tuple")


def run_chain(tmp_path, configs_dir, monkeypatch, **settings) -> Path:
    """Run gen, train, predict and eval on ``configs/chain.json`` at 20 + 10
    steps on 100 + 50 rows, with ``settings`` over its top-level keys and
    ``synthetic`` over its data keys; return the run directory."""
    shutil.copy(configs_dir / "chain_hierarchy.csv", tmp_path)
    raw = json.loads((configs_dir / "chain.json").read_text())
    raw.update(stage1_iterations=20, stage2_iterations=10)
    raw["data"]["synthetic"].update(n_train=100, n_eval=50, **settings.pop("synthetic", {}))
    raw.update(settings)
    (tmp_path / "chain.json").write_text(json.dumps(raw))
    monkeypatch.chdir(tmp_path)
    for command in ("gen", "train", "predict", "eval"):
        assert main([command, "--config", "chain.json"]) == 0
    return tmp_path / "runs" / "chain"


def digested(run: Path) -> list[str]:
    """The files of ``run`` that ``DIGEST_GLOBS`` match, sorted, as relative
    POSIX paths."""
    globs = digest_globs(RUNNER.read_text(encoding="utf-8"))
    written = [p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()]
    return sorted({name for glob in globs for name in fnmatch.filter(written, glob)})


def artifact_digest(run: Path, names) -> str:
    """``perfbench/run.py::artifact_digest``: per file its relative POSIX
    path, a NUL, then its bytes."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((run / name).read_bytes())
    return h.hexdigest()


def test_sidecars_stay_out_of_the_digest(tmp_path, configs_dir, monkeypatch):
    globs = digest_globs(RUNNER.read_text(encoding="utf-8"))
    assert "data/*.csv" in globs and "predictions.csv" in globs
    run = run_chain(tmp_path, configs_dir, monkeypatch)
    names = digested(run)
    assert "data/train_labels.csv" in names
    assert [name for name in names if name.endswith(".npy")] == []
    sidecars = sorted(p.relative_to(run).as_posix() for p in run.rglob("*.npy"))
    assert sidecars == [
        "data/eval_features.csv.npy", "data/eval_labels.csv.npy",
        "data/train_features.csv.npy", "data/train_labels.csv.npy",
        "predictions.csv.npy",
    ]
    for name in sidecars:
        csv_name = name.removesuffix(".npy")
        assert csv_name in names
        dtype = np.int8 if csv_name.endswith("_labels.csv") else np.float64
        assert csvio.read_sidecar(run / csv_name, dtype) is not None


def golden_run(tmp_path, configs_dir, monkeypatch) -> Path:
    """LSR draws, uncertainty injection and a two-member stack."""
    return run_chain(
        tmp_path, configs_dir, monkeypatch,
        ensemble_size=2, policy={"name": "ones-lsr"}, synthetic={"uncertainty_rate": 0.3},
    )


def test_artifacts_match_the_recorded_digest(tmp_path, configs_dir, monkeypatch):
    run = golden_run(tmp_path, configs_dir, monkeypatch)
    names = digested(run)
    assert len(names) == GOLDEN_FILES
    assert artifact_digest(run, names) == GOLDEN_DIGEST


def test_the_manifest_stays_out_of_the_digest(tmp_path, configs_dir, monkeypatch):
    globs = digest_globs(RUNNER.read_text(encoding="utf-8"))
    assert [glob for glob in globs if fnmatch.fnmatch("manifest.json", glob)] == []
    manifests = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        run = golden_run(tmp_path / name, configs_dir, monkeypatch)
        assert "manifest.json" not in digested(run)
        manifests.append((run / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert str(tmp_path).encode() not in manifests[0]
    assert sorted(json.loads(manifests[0])) == ["data", "train"]
