#!/usr/bin/env python3
"""hiermlc benchmark: end-to-end timings, output checks and a traced run.

    python3 perfbench/run.py --workload ensemble-train --seed 0 --seconds 40 --trace 0

Run from the repository root.  Every repetition of a workload runs in a
fresh worker process (``perfbench/worker.py``) with a fresh output
directory under ``.perfbench_work/``; this process only schedules the
repetitions, checks their outputs and reports.  See README.md beside this
file for the workloads, the metrics and how to read the output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
SETUP_WARM = 3  # set-up-only workers before the first repetition
CHILD_TIMEOUT_S = 170
AUC_TOLERANCE = 1e-9
# BLAS threads per worker; the workload processes run one at a time.
BLAS_THREADS = "1"
# Artifacts that must be byte-identical for one config and seed.
DIGEST_GLOBS = (
    "data/*.csv",
    "data/provenance.json",
    "config.json",
    "checkpoints/*.json",
    "loss_log.csv",
    "predictions.csv",
    "report.*",
    "roc_*.csv",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, config or file)."""


# ---------------------------------------------------------------------------
# Definitions


def load_definitions() -> tuple[dict, dict, dict]:
    """BENCHMARK.json, workloads.json and the recorded references."""
    try:
        bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read benchmark definitions: {exc}") from exc
    ref_path = BENCH_DIR / "references.json"
    refs = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.exists() else {}
    return bench, workloads, refs


def _set_dotted(raw: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    for key in parents:
        raw = raw.setdefault(key, {})
    raw[last] = value


def write_config(name: str, workload: dict, smoke: dict | None) -> tuple[str, dict]:
    """The workload's config file under WORK, and its parsed content.

    The base config supplies the forest, theta and optimizer; the declared
    inputs (and, in smoke mode, the tiny sizes) pin everything the
    workload's cost depends on.  The hierarchy path is rewritten relative
    to the new file, so the config snapshot in each run directory is the
    same in every checkout.
    """
    base = Path(workload["config"])
    if not base.exists():
        raise BenchError(f"config not found: {base}")
    raw = json.loads(base.read_text(encoding="utf-8"))
    hierarchy = raw.get("hierarchy", "default")
    if hierarchy != "default" and not Path(hierarchy).is_absolute():
        raw["hierarchy"] = os.path.relpath(base.parent / hierarchy, WORK)
    for dotted, value in {**workload["inputs"], **(smoke or {}).get("inputs", {})}.items():
        _set_dotted(raw, dotted, value)
    path = WORK / f"{name}.config.json"
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path), raw


def read_tree_parents(config_path: str, raw: dict) -> dict[str, str]:
    """Label name -> parent name for every non-root label of the forest."""
    path = Path(config_path).parent / raw["hierarchy"]
    with path.open(newline="", encoding="utf-8") as fh:
        return {r["name"]: r["parent"] for r in csv.DictReader(fh) if r["parent"]}


# ---------------------------------------------------------------------------
# Workers


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(spec: dict, tag: str) -> tuple[dict | None, str]:
    """Run one worker process to completion; (result, error text)."""
    spec_path = WORK / f"{tag}.spec.json"
    result_path = WORK / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), str(result_path)]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {CHILD_TIMEOUT_S} s"
    finally:
        spec_path.unlink(missing_ok=True)
    if proc.returncode != 0 or not result_path.exists():
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result, ""


def measure_setup(config_path: str, count: int) -> list[float]:
    times = []
    for i in range(count):
        result, err = run_worker({"kind": "setup", "config": config_path}, f"setup{i}")
        if result is None:
            raise BenchError(f"set-up failed: {err}")
        times.append(result["setup_s"])
    return times


# ---------------------------------------------------------------------------
# Output checks


class Checks:
    """Operations attempted and failed; an operation is a command, an
    ablation call, or one correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


def artifact_digest(out: Path) -> str:
    files = sorted({p for pattern in DIGEST_GLOBS for p in out.glob(pattern)})
    h = hashlib.sha256()
    for path in files:
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_matrix(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    ids = [r[0] for r in body]
    return header[1:], ids, np.array([r[1:] for r in body], dtype=np.float64)


def rank_auc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mann-Whitney AUC from mid-ranks; ties count one half."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    pos = truth[order] == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def check_cli_outputs(checks: Checks, out: Path, raw: dict, parents: dict) -> float | None:
    """Checks on one CLI run directory; returns its mean_auc_selected."""
    size = raw["ensemble_size"]
    conditional = raw.get("mode", "conditional") == "conditional"
    ckpt = out / "checkpoints"
    finals = len(list(ckpt.glob("member*_final.json")))
    stage1 = len(list(ckpt.glob("member*_stage1.json")))
    checks.check(
        finals == size and stage1 == (size if conditional else 0),
        f"checkpoints: {finals} final, {stage1} stage-1 for ensemble_size {size}",
    )
    try:
        with (out / "report.csv").open(newline="", encoding="utf-8") as fh:
            report = {r["label"]: float(r["auc"]) for r in csv.DictReader(fh)}
        mean_auc = report.pop("mean_auc_selected")
        report.pop("mean_readers_below")
        names, ids, probs = _read_matrix(out / "predictions.csv")
        label_names, label_ids, truth = _read_matrix(out / "data" / "eval_labels.csv")
        col = {name: j for j, name in enumerate(names)}
        truth_col = {name: j for j, name in enumerate(label_names)}
        children_below = all(
            np.all(probs[:, col[c]] <= probs[:, col[p]]) for c, p in parents.items()
        )
        recomputed = {
            name: rank_auc(probs[:, col[name]], truth[:, truth_col[name]]) for name in names
        }
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.check(False, f"outputs unreadable or incomplete: {exc!r}")
        return None
    checks.check(
        ids == label_ids
        and len(ids) == raw["data"]["synthetic"]["n_eval"]
        and bool(np.all((probs >= 0.0) & (probs <= 1.0)))
        and (children_below or not conditional),
        "predictions: wrong rows, a probability outside [0, 1], or a child above its parent",
    )
    checks.check(
        set(recomputed) == set(report)
        and all(abs(recomputed[n] - report[n]) <= AUC_TOLERANCE for n in names)
        and abs(float(np.mean(list(report.values()))) - mean_auc) <= AUC_TOLERANCE,
        "report.csv AUCs differ from a rank-statistic recomputation of predictions.csv",
    )
    return mean_auc


def check_against(checks: Checks, what: str, value, first, reference) -> None:
    """Same value on every repetition of a seed, and equal to the reference."""
    if first is not None:
        checks.check(value == first, f"{what} differs between repetitions of one seed")
    if reference is not None:
        checks.check(value == reference, f"{what} {value} differs from reference {reference}")


# ---------------------------------------------------------------------------
# Repetitions


def run_rep(name: str, workload: dict, ctx: dict, seed: int, rep: int, traced: bool,
            checks: Checks, seen: dict) -> dict | None:
    """One repetition plus its checks; returns the worker result or None."""
    run_id = f"{name}-s{seed}-r{rep}"
    out = WORK / "runs" / run_id
    shutil.rmtree(out, ignore_errors=True)  # always a fresh output directory
    spec = {
        "kind": workload["kind"],
        "config": ctx["config"],
        "seed": seed,
        "out": str(out),
        "trace": traced,
        "run_id": run_id,
        "spans": str(WORK / f"spans-{name}.csv"),
        "seeds_per_call": ctx["seeds_per_call"],
    }
    result, err = run_worker(spec, run_id)
    ref = ctx["references"].get(str(seed), {})
    try:
        if workload["kind"] == "cli":
            if not checks.check(result is not None, f"{run_id}: {err}"):
                return None
            for cmd, code in result["exits"].items():
                checks.check(code == 0, f"{run_id}: {cmd} exited {code}")
            for msg in result["errors"]:
                checks.messages.append(f"{run_id}: {msg}")
            mean_auc = check_cli_outputs(checks, out, ctx["raw"], ctx["parents"])
            digest = artifact_digest(out)
        else:
            if not checks.check(result is not None and not result["errors"],
                                f"{run_id}: {err or result['errors']}"):
                return None
            aucs = result["conditional_by_seed"] + result["flat_by_seed"]
            checks.check(all(0.5 < a <= 1.0 for a in aucs),
                         f"{run_id}: leaf AUC outside (0.5, 1]: {aucs}")
            mean_auc = float(np.mean(result["conditional_by_seed"]))
            digest = hashlib.sha256(json.dumps(
                [result["seeds"], result["conditional_by_seed"], result["flat_by_seed"]]
            ).encode()).hexdigest()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if traced:
        checks.check(not result["not_traced"],
                     f"{run_id}: traced functions not found: {result['not_traced']}")
        steps = result["layers"]["model.step.count"]
        checks.check(steps == ctx["optimizer_steps"],
                     f"{run_id}: {steps:g} optimizer steps traced, "
                     f"expected {ctx['optimizer_steps']}")
    check_against(checks, "mean_auc", mean_auc, seen.get("mean_auc"), ref.get("mean_auc"))
    check_against(checks, "artifact digest", digest, seen.get("digest"), ref.get("digest"))
    seen.setdefault("mean_auc", mean_auc)
    seen.setdefault("digest", digest)
    result["mean_auc"] = mean_auc
    return result


def prepare(name: str, workloads: dict, refs: dict, smoke: bool) -> dict:
    if name not in workloads["workloads"]:
        raise BenchError(f"unknown workload {name!r}")
    if not Path("src/hiermlc/__init__.py").exists():
        raise BenchError("package source src/hiermlc not found; run from the repository root")
    WORK.mkdir(exist_ok=True)
    workload = workloads["workloads"][name]
    smoke_def = workloads["smoke"] if smoke else None
    config_path, raw = write_config(name, workload, smoke_def)
    return {
        "config": config_path,
        "raw": raw,
        "parents": read_tree_parents(config_path, raw),
        "seeds_per_call": (smoke_def or workload).get("seeds_per_call", 1),
        "optimizer_steps": (smoke_def or workload)["optimizer_steps"],
        "references": {} if smoke else refs.get(name, {}),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload for about ``seconds``; the raw measurements.

    Untraced repetitions give the end-to-end metrics; with ``trace`` they
    alternate with traced ones, which give the per-layer metrics.  A run
    makes at least two repetitions so that every seed is checked for
    byte-identical artifacts.
    """
    bench, workloads, refs = load_definitions()
    ctx = prepare(name, workloads, refs, smoke)
    workload = workloads["workloads"][name]
    setup = measure_setup(ctx["config"], SETUP_WARM)
    checks = Checks()
    seen: dict = {}
    plain, traced, rep_s = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        want_trace = trace and len(traced) < len(plain)
        result = run_rep(name, workload, ctx, seed, len(rep_s), want_trace, checks, seen)
        if result is not None:
            (traced if want_trace else plain).append(result)
            setup.append(result["setup_s"])  # every worker times its own set-up
        rep_s.append(time.perf_counter() - t0)
        # stop before a repetition that would overrun the budget
        elapsed = time.perf_counter() - start
        if len(rep_s) >= 2 and elapsed + statistics.median(rep_s) > seconds:
            break
    return {
        "name": name,
        "seed": seed,
        "kind": workload["kind"],
        "bench": bench,
        "setup": setup,
        "plain": plain,
        "traced": traced,
        "checks": checks,
        "has_reference": str(seed) in ctx["references"],
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(run: dict) -> dict[str, float]:
    plain = run["plain"]
    return {
        "setup_s": _median(run["setup"]),
        "total_s": _median([r["total_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }


def per_layer_metrics(run: dict) -> dict[str, float]:
    traced = run["traced"]
    names = traced[0]["layers"] if traced else {}
    out = {k: _median([r["layers"][k] for r in traced]) for k in names}
    untraced_total = _median([r["total_s"] for r in run["plain"]])
    out["trace_overhead"] = (
        _median([r["total_s"] for r in traced]) / untraced_total if untraced_total else 0.0
    )
    return out


def worker_ref_s() -> float:
    sys.path.insert(0, str(BENCH_DIR))
    import worker

    return worker.SLICE_REF_S


def machine_block() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "vcpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, one workload process at a time, pinned to one vCPU",
    }


def report(run: dict, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines and the final result object."""
    bench, checks = run["bench"], run["checks"]
    if trace:
        declared = bench["per_layer"]
        values = per_layer_metrics(run)
    else:
        declared = bench["end_to_end"]
        values = end_to_end_metrics(run)
    unmeasured = [m["name"] for m in declared if m["name"] not in values]
    checks.check(not unmeasured, f"metrics not measured: {unmeasured}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    lines = [
        "machine " + json.dumps(machine_block(), sort_keys=True),
        f"workload {run['name']} seed {run['seed']}: {len(run['plain'])} untraced and "
        f"{len(run['traced'])} traced repetitions, {len(run['setup'])} set-ups; "
        f"reference for this seed: {'yes' if run['has_reference'] else 'none recorded'}",
    ]
    if run["kind"] == "cli" and run["plain"]:
        for cmd in ("gen", "train", "predict", "eval"):
            phase = [r["phases"][cmd] for r in run["plain"]]
            lines.append(f"  {cmd}_s {_median(phase):.6f} s scaled (median of {len(phase)})")
    if run["plain"]:
        totals = ", ".join(f"{r['total_s']:.3f}" for r in run["plain"])
        walls = ", ".join(f"{r['total_wall_s']:.3f}" for r in run["plain"])
        cals = [c for r in run["plain"] for c in r["calibrations"]]
        lines.append(f"  total_s per untraced repetition: {totals} (scaled)")
        lines.append(f"  total wall s per untraced repetition: {walls}")
        lines.append(f"  calibration slice: median {_median(cals):.5f} s, "
                     f"{min(cals):.5f}-{max(cals):.5f} s over {len(cals)} calibrations "
                     f"(reference {worker_ref_s()} s)")
        lines.append(f"  mean_auc {run['plain'][0]['mean_auc']!r} (checked on every repetition)")
    for name, m in metrics.items():
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}")
    error_rate = checks.failed / checks.attempted
    lines.append(f"  error_rate {error_rate:.6g} ({checks.failed} of {checks.attempted} operations failed)")
    lines.extend(f"  FAILED {msg}" for msg in checks.messages)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return lines, result


# ---------------------------------------------------------------------------
# Reference recording and smoke checks


def record(seeds: list[int], names: list[str]) -> int:
    """Record mean_auc and the artifact digest per workload and seed."""
    _, workloads, refs = load_definitions()
    for name in names or workloads["workloads"]:
        for seed in seeds:
            ctx = prepare(name, workloads, {}, smoke=False)
            checks, seen = Checks(), {}
            result = run_rep(name, workloads["workloads"][name], ctx, seed, 0, False,
                             checks, seen)
            if result is None or checks.failed:
                print(f"{name} seed {seed}: FAILED {checks.messages}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = seen
            print(f"{name} seed {seed}: mean_auc {seen['mean_auc']!r} "
                  f"total_s {result['total_s']:.3f}", flush=True)
    (BENCH_DIR / "references.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


EXACT_COUNTS = (
    "model.step.count",
    "model.traces_per_step",
    "policy.targets_per_member",
    "evaluation.sweeps_per_label",
    "seeding.stream.calls",
)


def smoke() -> list[str]:
    """Tiny-size self-test; returns the problems found (empty when fine)."""
    problems = []
    bench, workloads, _ = load_definitions()
    for name in workloads["workloads"]:
        counts = []
        for trace in (False, True, True):
            run = measure(name, 0, 0, trace, smoke=True)
            lines, result = report(run, trace)
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {run['checks'].messages}")
            declared = bench["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or not got.get("unit"):
                    problems.append(f"{name}: metric {m['name']} not emitted with a unit")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
        if counts[0] != counts[1]:
            problems.append(f"{name}: exact counts differ between runs: {counts}")
    problems.extend(restoration_problems(workloads))
    return problems


def restoration_problems(workloads: dict) -> list[str]:
    """Trace one tiny CLI repetition in this process; every traced name
    must be bound to its original object afterwards."""
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracer_mod
    import worker

    ctx = prepare("ensemble-train", workloads, {}, smoke=True)
    before = tracer_mod.current_targets()
    out = WORK / "runs" / "restore-check"
    tracer = tracer_mod.Tracer("restore-check")
    try:
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            meter = worker.SpeedMeter()
            meter.calibrate()
            worker.run_cli({"config": ctx["config"], "seed": 0, "out": str(out)}, tracer, meter)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    after = tracer_mod.current_targets()
    problems = [f"{owner}.{attr} not restored" for (owner, attr), fn in before.items()
                if after.get((owner, attr)) is not fn]
    if not tracer.spans:
        problems.append("traced repetition recorded no spans")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny-size self-test instead of a workload")
    parser.add_argument("--record", metavar="FIRST:STOP",
                        help="record reference mean_auc and digests for these seeds "
                             "(of --workload, or of every workload)")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            problems = smoke()
            print("\n".join(problems) if problems else "smoke: ok")
            return 1 if problems else 0
        if args.record:
            first, stop = (int(x) for x in args.record.split(":"))
            return record(list(range(first, stop)), [args.workload] if args.workload else [])
        if not args.workload:
            parser.error("--workload is required")
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    lines, result = report(run, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
