"""One benchmark worker: a fresh interpreter that runs one workload.

Usage (spawned by run.py): worker.py '<json config>'. The worker imports
treeshift, builds its argv lists, prints ``ready`` and then runs its mode:

- ``setup``: time a few speed probes and exit (a set-up time sample);
- ``run``: closed loop with one client, timed, every report checked, a
  speed probe before each invocation;
- ``trace``: traced and untraced invocations alternating, a tracemalloc
  pass and the scaling sweep;
- ``record``: run each default-seed invocation once and write the reference;
- ``selftest``: show that tampered reports are counted as failed.

The last stdout line is a JSON result for run.py.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Callable

import numpy as np
import scipy
import treeshift
from treeshift import cli

import tracing
import workloads
from workloads import CheckFailed

LOOP_CAP_S = 120.0  # hard stop for a loop still short of MIN_SAMPLES
MEMORY_REPEATS = 3
WARMUP = 4  # untimed invocations before the timed loop
SETUP_PROBES = 5  # probes a set-up-only worker times after it is ready
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


_PROBE_MATRIX = np.random.default_rng(0).random((120, 120))


def probe() -> float:
    """Wall time of a fixed piece of work: the machine's current speed.

    A shared host can swing between fast phases and phases up to 1.8x
    slower, lasting seconds to minutes, and every invocation slows with
    it. The probe mixes what the invocations do: small-dict arithmetic,
    a loop over a list of floats and a small matmul. It builds no large
    tables: the cost of fresh allocations drifts against the rest of the
    machine by up to 10%, which would show as a change of the program.
    run.py divides each invocation time by the probe times around it (see
    ``calibrated`` there).
    """
    start = time.perf_counter()
    total, small = 0, {}
    for i in range(12_000):
        small[i % 977] = small.get(i % 977, 0) + i
        total += i * i
    values = [i * 0.25 for i in range(20_000)]
    acc = 0.0
    for x in values:
        acc += x * x
    product = _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - start


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


class Runner:
    """Invokes the CLI in-process and checks each report it writes."""

    def __init__(self, w: workloads.Workload, out_dir: str, reference: dict | None):
        self.w = w
        self.out_dir = out_dir
        self.report_path = os.path.join(out_dir, "report.json")
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def invoke(self, argv: list[str]) -> float:
        """Wall time of one invocation; the check and the gc run after the clock stops."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report_path)
        full = argv + ["--out", self.out_dir]
        sink = io.StringIO()
        code = 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(full)
        except Exception as exc:  # an escaped exception is a failed invocation
            sink.write(f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        self.attempted += 1
        try:
            self.check(argv, code)
        except CheckFailed as exc:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{argv_key(argv)}: {exc} [{sink.getvalue().strip()[:200]}]")
        gc.collect()
        return elapsed

    def read_report(self) -> dict | None:
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def check(self, argv: list[str], code: int, report: dict | None = None) -> None:
        if report is None:
            report = self.read_report()
        # The reference covers the default seed's timed invocations, not the sweep.
        expected = self.reference.get(argv_key(argv)) if self.reference else None
        workloads.check(self.w, argv, code, report, expected)

    def loop(self, argvs: list[list[str]], seconds: float,
             min_samples: int = 0) -> tuple[list[float], list[float]]:
        """Closed loop over argvs until both the time and the sample floor
        are met; returns the invocation times and a probe time before each."""
        for argv in argvs[:WARMUP]:
            self.invoke(argv)
        times: list[float] = []
        probes: list[float] = []
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(times) >= min_samples:
                break
            if elapsed >= LOOP_CAP_S:
                break
            probes.append(probe())
            times.append(self.invoke(argvs[i % len(argvs)]))
            i += 1
        return times, probes


def environment(threads: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "treeshift": treeshift.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
    }


def fit_exponent(sizes: list[float], values: list[float]) -> float:
    """Least-squares slope of log(value) against log(size); 0 if any value is 0."""
    if len(sizes) < 2 or min(values) <= 0:
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def traced_samples(runner: Runner, tracer: tracing.Tracer, argvs: list[list[str]]) -> list[dict]:
    """Per-invocation layer totals of one traced invocation per argv."""
    samples = []
    for argv in argvs:
        runner.invoke(argv)
        samples.append(tracer.take())
    return samples


def layer_metrics(samples: list[dict]) -> dict[str, float]:
    """Median self time and mean counts per invocation, for every layer."""
    out = {}
    for layer in tracing.LAYERS:
        t, c = tracing.time_metric(layer), tracing.calls_metric(layer)
        out[t] = statistics.median(s.get(t, 0.0) for s in samples)
        out[c] = statistics.fmean(s.get(c, 0.0) for s in samples)
    for key, _ in tracing.COUNTERS.values():
        out[key] = statistics.fmean(s.get(key, 0.0) for s in samples)
    return out


def run_trace(runner: Runner, argvs: list[list[str]], cfg: dict) -> dict:
    """Traced and untraced invocations alternate on the same argv, so both
    sides of trace.overhead_frac see the same machine; then the tracemalloc
    pass and the scaling sweep."""
    tracer = tracing.Tracer()
    plain, traced, samples = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < min(cfg["seconds"], LOOP_CAP_S):
        argv = argvs[(i // 2) % len(argvs)]
        if i % 2 == 0:
            plain.append(runner.invoke(argv))
        else:
            tracer.install()
            try:
                traced.append(runner.invoke(argv))
            finally:
                tracer.uninstall()
            samples.append(tracer.take())
        i += 1
    metrics = layer_metrics(samples)
    tracer.install()
    try:
        tracer.memory = True
        peaks = traced_samples(runner, tracer, argvs[:MEMORY_REPEATS])
        tracer.memory = False
        ladder = [(vertices, layer_metrics(traced_samples(runner, tracer, sweep_argvs)))
                  for vertices, sweep_argvs in workloads.sweep(runner.w, cfg["seed"])]
    finally:
        tracer.uninstall()
    for layer in tracing.MEMORY_LAYERS:
        key = f"{layer}_peak_mb"
        metrics[key] = statistics.median(s.get(key, 0.0) for s in peaks)
    for layer in tracing.LAYERS:
        key = tracing.time_metric(layer)
        metrics[f"{key}.exponent"] = fit_exponent([v for v, _ in ladder], [m[key] for _, m in ladder])
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    idle = [layer for layer in runner.w.layers if metrics[tracing.calls_metric(layer)] == 0]
    return {
        "metrics": metrics,
        "idle_layers": idle,
        "ladder": [[v, m] for v, m in ladder],
        "samples": {"untraced": len(plain), "traced": len(traced)},
    }


def record(w: workloads.Workload, out_dir: str) -> dict:
    runner = Runner(w, out_dir, None)
    entries = {}
    for argv in workloads.invocations(w, workloads.DEFAULT_SEED):
        runner.invoke(argv)
        report = runner.read_report()
        if runner.failed or report is None:
            raise SystemExit(f"cannot record a failing invocation: {runner.failures}")
        entries[argv_key(argv)] = workloads.key_numbers(w, report)
    return entries


def tamperings() -> list[tuple[str, Callable[[dict], None]]]:
    """Named edits that a correct checker must reject."""

    def verdict(r):
        r["verdict"] = "fail"

    def schema(r):
        del r["tolerances"]

    def key_number(r):
        row = r["tables"][0]["rows"][-1]
        tols = [c["tol"] for c in r["tables"][0]["columns"]]
        col = next(i for i, t in enumerate(tols) if t is not None)
        row[col] += 1000 * tols[col] * max(1.0, abs(row[col]))

    def flag_or_integer(r):
        row = r["tables"][0]["rows"][-1]
        flags = [i for i, v in enumerate(row) if isinstance(v, bool)]
        if flags:
            row[flags[0]] = not row[flags[0]]
        else:
            col = max(i for i, v in enumerate(row) if isinstance(v, int))
            row[col] += 1

    def informational(r):
        row = r["tables"][0]["rows"][0]
        cols = r["tables"][0]["columns"]
        col = max(i for i, c in enumerate(cols) if c["tol"] is None)
        value = row[col]
        if isinstance(value, bool):
            row[col] = not value
        else:
            row[col] = value * (1 + 1e-6) if isinstance(value, float) else value + 1

    return [("verdict", verdict), ("schema key", schema), ("toleranced number", key_number),
            ("flag or integer", flag_or_integer), ("informational column", informational)]


def selftest(w: workloads.Workload, runner: Runner) -> dict:
    """Genuine report passes; each tampered copy raises failed_frac."""
    argv = workloads.invocations(w, workloads.DEFAULT_SEED)[0]
    runner.invoke(argv)
    genuine = runner.read_report()
    if runner.failed or genuine is None:
        return {"ok": False, "detail": f"genuine report rejected: {runner.failures}"}
    results = {}
    for name, edit in tamperings():
        tampered = copy.deepcopy(genuine)
        edit(tampered)
        before = runner.failed
        runner.attempted += 1
        try:
            runner.check(argv, 0, tampered)
        except CheckFailed:
            runner.failed += 1
        results[name] = runner.failed > before
    frac = runner.failed / runner.attempted
    return {"ok": all(results.values()) and frac > 0, "caught": results, "failed_frac": frac}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    w = workloads.WORKLOADS[cfg["workload"]]
    out_dir = os.path.join(cfg["work_dir"], w.name)
    os.makedirs(out_dir, exist_ok=True)
    argvs = workloads.invocations(w, cfg["seed"])
    reference = None
    if cfg["seed"] == workloads.DEFAULT_SEED and cfg["mode"] in ("run", "trace", "selftest"):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[w.name]
        missing = [argv_key(a) for a in argvs if argv_key(a) not in reference]
        if missing:
            raise SystemExit(f"reference.json lacks {missing[:3]}; rerun --record-reference")
    runner = Runner(w, out_dir, reference)
    # Set-up objects live for the whole run; freezing them keeps the
    # between-invocation gc.collect() to the invocation's own garbage.
    gc.freeze()
    print("ready", flush=True)
    mode = cfg["mode"]
    result: dict = {"env": environment(cfg["threads"])}
    if mode == "setup":
        print(json.dumps({"probes": [probe() for _ in range(SETUP_PROBES)]}), flush=True)
        return 0
    if mode == "run":
        result["times"], result["probes"] = runner.loop(argvs, cfg["seconds"], workloads.MIN_SAMPLES)
    elif mode == "trace":
        result.update(run_trace(runner, argvs, cfg))
    elif mode == "record":
        result["reference"] = record(w, out_dir)
    elif mode == "selftest":
        result["selftest"] = selftest(w, runner)
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
