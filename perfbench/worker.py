"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py SPEC.json RESULT.json

Run from the repository root.  Every worker first times the set-up
(import the package, ``load_config`` and ``load_tree``); SPEC's kind then
names what else it runs:

* ``setup``    - nothing more
* ``cli``      - ``hiermlc.cli.main`` for gen, train, predict and eval
* ``ablation`` - one ``pipeline.hierarchical_ablation`` call

With ``"trace": true`` the repetition runs under the call-site tracer and
the result carries the per-layer metrics; the spans go to SPEC's
``spans`` file.  The worker only measures and reports; the parent process
checks the outputs.

Timings are reported twice: as wall time (``*_wall_s``) and scaled to a
reference machine speed (``setup_s``, ``total_s``, ``phases``).  On a
shared host the speed of a vCPU drifts by tens of percent over seconds to
minutes, and the drift slows the program and any other code alike.  So
the worker measures the speed while it times: a ``SpeedMeter`` runs a
fixed calibration kernel after the set-up and after every timed section,
and a timer signal runs one slice of the kernel every SAMPLE_EVERY_S
inside each section.  A section's wall time, less the time of the slices
run inside it, is scaled by the mean speed (slices per second) measured
around and during it, times the reference slice time; see README.md.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

COMMANDS = ("gen", "train", "predict", "eval")
# One calibration slice: SLICE_STEPS training steps of a tiny MLP like
# the package's (16-32-6, batch 32, masked cross-entropy, Adam) and
# SLICE_ROWS seed streams written and parsed as CSV.  Scaled timings are
# "seconds on a machine where one slice takes SLICE_REF_S".
SLICE_STEPS = 40
SLICE_ROWS = 50
SLICE_REF_S = 0.01
CAL_SLICES = 10  # slices in a calibration between sections
SAMPLE_EVERY_S = 0.2  # wall time between slices inside a section


class SpeedMeter:
    """Measures the machine's speed with a fixed kernel that mixes the
    work the workloads do: small-array numpy training steps and
    pure-Python seed streams and CSV formatting and parsing.  It uses
    nothing from the package, so a change to the program cannot move it.

    Create it after the package is imported, so the set-up timing still
    includes the package's own numpy import.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((2000, 16))
        self._y = (rng.random((2000, 6)) < 0.4).astype(np.float64)
        self._mask = rng.random((2000, 6)) < 0.8
        self._rows = rng.integers(0, 2000, size=(SLICE_STEPS, 32))
        self._params = [rng.standard_normal((16, 32)) * 0.25, np.zeros(32),
                        rng.standard_normal((32, 6)) * 0.18, np.zeros(6)]
        self.samples: list[float] = []  # slice times of the current section
        self.calibrations: list[float] = []  # mean slice time of each calibration
        self._in_slices = 0.0

    def _train_step(self, rows, moments) -> None:
        np = self._np
        w1, b1, w2, b2 = params = [p.copy() for p in self._params]
        x, y, mask = self._x[rows], self._y[rows], self._mask[rows]
        h = np.maximum(x @ w1 + b1, 0.0)
        z = h @ w2 + b2
        prob = np.clip(1.0 / (1.0 + np.exp(-z)), 1e-7, 1.0 - 1e-7)
        terms = y * np.log(prob) + (1.0 - y) * np.log1p(-prob)
        counts = np.maximum(mask.sum(axis=1), 1)
        float((-np.where(mask, terms, 0.0).sum(axis=1) / counts).mean())
        delta = np.where(mask, prob - y, 0.0) / (counts[:, None] * len(rows))
        dh = (delta @ w2.T) * (h > 0.0)
        grads = [x.T @ dh, dh.sum(axis=0), h.T @ delta, delta.sum(axis=0)]
        for p, g, (m, v) in zip(params, grads, moments):
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * (g * g)
            p -= 0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)

    def _slice(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in self._params]
        for rows in self._rows:
            self._train_step(rows, moments)
        buf = io.StringIO()
        writer = csv.writer(buf)
        for i in range(SLICE_ROWS):
            row = np.random.default_rng(np.random.SeedSequence([1, i])).random(8)
            writer.writerow([f"{v:.17g}" for v in row])
        sum(float(r[0]) for r in csv.reader(io.StringIO(buf.getvalue())))
        return time.perf_counter() - t0

    def calibrate(self) -> float:
        """Mean slice time over CAL_SLICES slices."""
        mean = sum(self._slice() for _ in range(CAL_SLICES)) / CAL_SLICES
        self.calibrations.append(mean)
        return mean

    def _on_alarm(self, signum, frame) -> None:
        dt = self._slice()
        self.samples.append(dt)
        self._in_slices += dt

    @contextmanager
    def section(self, timing: dict):
        """Time the body into ``timing``: ``wall_s`` is its wall time less
        the slices run inside it, ``s`` that time scaled to the reference
        speed.  The calibration before the body must already be taken."""
        self.samples = [self.calibrations[-1]]
        self._in_slices = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            # stop the timer first, so every slice counted is inside `wall`
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(self.calibrate())
            timing["wall_s"] = wall - self._in_slices
            # mean speed (slices per second) over the section
            speed = sum(1.0 / t for t in self.samples) / len(self.samples)
            timing["s"] = timing["wall_s"] * SLICE_REF_S * speed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(spec: dict) -> tuple[dict, SpeedMeter]:
    t0 = time.perf_counter()
    import hiermlc.cli  # noqa: F401  (what a CLI user imports)
    from hiermlc import config as config_mod

    config_mod.load_config(spec["config"]).load_tree()
    wall = time.perf_counter() - t0
    meter = SpeedMeter()
    speed = meter.calibrate()
    return {"setup_wall_s": wall, "setup_s": wall * SLICE_REF_S / speed}, meter


def run_cli(spec: dict, tracer, meter: SpeedMeter) -> dict:
    from hiermlc import cli

    phases, wall, exits, errors = {}, {}, {}, []
    for cmd in COMMANDS:
        argv = [cmd, "--config", spec["config"], "--seed", str(spec["seed"]),
                "--out", spec["out"]]
        span = tracer.span(f"cli.{cmd}") if tracer else nullcontext()
        timing: dict = {}
        try:
            with meter.section(timing), span:
                exits[cmd] = cli.main(argv)
        except Exception:  # report, so the parent counts a failed operation
            exits[cmd] = -1
            errors.append(f"{cmd}: {traceback.format_exc(limit=3)}")
        phases[cmd] = timing["s"]
        wall[cmd] = timing["wall_s"]
    return {
        "phases": phases,
        "exits": exits,
        "errors": errors,
        "total_s": sum(phases.values()),
        "total_wall_s": sum(wall.values()),
    }


def run_ablation(spec: dict, tracer, meter: SpeedMeter) -> dict:
    from dataclasses import replace

    from hiermlc import config as config_mod
    from hiermlc import pipeline
    from hiermlc.policy import make_policy

    config = config_mod.load_config(spec["config"])
    tree = config.load_tree()
    syn = config.synthetic
    seeds = [spec["seed"] + i for i in range(spec["seeds_per_call"])]
    kwargs = dict(
        n_train=syn.n_train,
        n_eval=syn.n_eval,
        uncertainty_rate=syn.uncertainty_rate,
        smoothed_policy=make_policy("ones-lsr", config.lsr_ones, config.lsr_zeros),
        hard_policy=make_policy("ones"),
        optimizer=replace(
            config.optimizer,
            iterations=config.stage1_iterations + config.stage2_iterations,
        ),
        stage1_iterations=config.stage1_iterations,
        stage2_iterations=config.stage2_iterations,
        hidden_sizes=config.hidden_sizes,
        feature_dim=syn.feature_dim,
        feature_noise=syn.feature_noise,
    )
    theta = config_mod.synthetic_spec_theta(syn, tree)
    span = tracer.span("pipeline.hierarchical_ablation") if tracer else nullcontext()
    timing: dict = {}
    try:
        with meter.section(timing), span:
            result = pipeline.hierarchical_ablation(tree, theta, seeds, **kwargs)
    except Exception:  # report, so the parent counts a failed operation
        return {"errors": [traceback.format_exc(limit=3)]}
    return {
        "total_s": timing["s"],
        "total_wall_s": timing["wall_s"],
        "errors": [],
        "seeds": seeds,
        "conditional_by_seed": result.conditional_by_seed,
        "flat_by_seed": result.flat_by_seed,
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path("src").resolve()))
    # one vCPU for the whole worker, so the calibrations run where the
    # timed code runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, meter = run_setup(spec)  # first, so the import is timed cold
    if spec["kind"] != "setup":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(spec["run_id"]) if spec.get("trace") else None
        run = run_cli if spec["kind"] == "cli" else run_ablation
        with tracer.installed() if tracer else nullcontext():
            result.update(run(spec, tracer, meter))
        if tracer:
            tracer.write_spans(Path(spec["spans"]))
            result["layers"] = tracer_mod.layer_metrics(tracer)
            result["not_traced"] = tracer.missing
    result["calibrations"] = meter.calibrations
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
