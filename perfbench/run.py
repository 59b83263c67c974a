"""Benchmark of the treeshift CLI: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload deep_ray --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). Each run starts fresh worker interpreters (perfbench/worker.py)
with PYTHONPATH=src and the BLAS/OpenMP thread count pinned; the workers call
``treeshift.cli.main`` in-process on seeded inputs and check every report.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a separate traced run. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md
for the workloads and the metric map.

Extra modes: --selftest shows that the output check rejects tampered
reports; --record-reference rewrites perfbench/reference.json from the
current code at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(HERE, ".work")
PACKAGE = os.path.join(ROOT, "src", "treeshift")
BLAS_THREADS = 1  # pinned below nproc on every machine
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0
# Times are reported at a reference machine speed: each is multiplied by
# PROBE_REF_S over the median time of the worker's speed probe (worker.probe)
# around it. PROBE_REF_S is about the probe's time in the fast phases of a
# shared 2-vCPU x86-64 VM, so values read as seconds on such a machine.
PROBE_REF_S = 0.004
# Probes on each side of an invocation that set its speed. Slowdowns come in
# bursts shorter than a second as well as in long phases; a wider window
# misses the bursts: over four kernel_gram runs the p90 ranged over 7% at
# window 6 and over 3% at window 1.
PROBE_WINDOW = 1

# name -> unit; bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "exp_per_s": "1/s",
    "exp_p50_s": "s",
    "exp_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TREESHIFT_OUT", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(cfg: dict, timeout: float) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to ready, its JSON result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env(),
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {cfg['mode']} failed (exit {code}): {first.strip()!r}")
    if not lines:
        raise RuntimeError(f"worker {cfg['mode']} printed no result")
    return ready, json.loads(lines[-1])


def provenance() -> dict:
    """Git sha when the checkout is a repository, and a digest of the package source."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def calibrated(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to the reference speed by the median probe time around it."""
    out = []
    for j, t in enumerate(times):
        local = statistics.median(probes[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW + 1])
        out.append(t * PROBE_REF_S / local)
    return out


def end_to_end(name: str, setup: list[float], result: dict) -> tuple[dict, list[str]]:
    raw = result["times"]
    times = calibrated(raw, result["probes"])
    notes = [f"{name}: {len(times)} invocations, setup samples {len(setup)}",
             f"{name}: uncalibrated exp_p50_s {statistics.median(raw):.6g} s, "
             f"exp_per_s {len(raw) / sum(raw):.6g} 1/s; probe median "
             f"{statistics.median(result['probes']):.6g} s (reference {PROBE_REF_S} s)"]
    values = {
        "setup_s": statistics.median(setup),
        "exp_per_s": len(times) / sum(times),
        "exp_p50_s": statistics.median(times),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
    }
    if len(times) >= workloads.MIN_SAMPLES:
        values["exp_p90_s"] = statistics.quantiles(times, n=10)[-1]
    else:
        notes.append(f"{name}: exp_p90_s omitted, {len(times)} < 100 samples")
    notes.append(f"{name}: failed_frac {result['failed'] / result['attempted']:.6g} "
                 f"({result['failed']} of {result['attempted']})")
    return values, notes


def worker_cfg(workload: str, seed: int, seconds: float, mode: str) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "mode": mode,
            "work_dir": WORK_DIR, "threads": str(BLAS_THREADS)}


def setup_sample(workload: str, seed: int) -> float:
    """Spawn-to-ready time of a set-up-only worker, at the reference speed
    measured by the probes it runs once ready."""
    ready, result = spawn(worker_cfg(workload, seed, 0, "setup"), 60.0)
    return ready * PROBE_REF_S / statistics.median(result["probes"])


def run(args) -> int:
    w = workloads.WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup = [] if args.trace else [setup_sample(w.name, args.seed) for _ in range(SETUP_SAMPLES)]
    mode = "trace" if args.trace else "run"
    result = spawn(worker_cfg(w.name, args.seed, args.seconds, mode),
                   deadline - time.perf_counter())[1]
    print("env " + json.dumps({**result["env"], **provenance(), "workload": w.name,
                               "seed": args.seed, "trace": args.trace}))
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    correct = result["failed"] == 0
    if args.trace:
        units = tracing.metric_units()
        values = result["metrics"]
        notes = [f"{w.name}: samples {result['samples']}",
                 "multiplier.quad_points is computed from the documented default N"]
        for vertices, layer_values in result["ladder"]:
            busy = {k: round(v, 6) for k, v in layer_values.items() if k.endswith("_s") and v > 0}
            notes.append(f"{w.name}: sweep N={vertices} {json.dumps(busy)}")
        if result["idle_layers"]:
            correct = False
            notes.append(f"{w.name}: mapped layers recorded no calls: {result['idle_layers']}")
    else:
        units = END_TO_END
        values, notes = end_to_end(w.name, setup, result)
    for note in notes:
        print(note)
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{w.name} {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def selftest() -> int:
    ok = True
    for name in workloads.WORKLOADS:
        outcome = spawn(worker_cfg(name, workloads.DEFAULT_SEED, 0, "selftest"), 120.0)[1]["selftest"]
        ok = ok and outcome["ok"]
        print(f"{name}: {json.dumps(outcome)}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def record_reference() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        cfg = worker_cfg(name, workloads.DEFAULT_SEED, 0, "record")
        reference[name] = spawn(cfg, 170.0)[1]["reference"]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(v) for v in reference.values())} invocations, {provenance()}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no treeshift package under {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
