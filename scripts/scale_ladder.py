#!/usr/bin/env python3
"""Scale ladder: wall time and memory of treeshift CLI runs on large inputs.

Each rung is one ``python -m treeshift.cli ...`` invocation, run as a child
process with PYTHONPATH at a side's ``src``. The child alone gets a 3 GB
address-space limit (RLIMIT_AS) and one BLAS thread. Per run the ladder
records:

- ``wall_s``: perf_counter time around the child, interpreter start included;
- ``max_rss_mb`` and ``minflt``: the child's max RSS and minor page faults,
  from ``os.wait4``;
- ``exit_code`` (negative: killed by that signal) and ``timed_out``;
- ``report_sha256``: the sha256 of the report.json it wrote, null when none;
- ``stderr_last``: the last line it printed to stderr.

A run that times out or exits 2 is recorded as such, never dropped. With
``--against REV`` each rung also runs on ``git archive REV`` unpacked in a
temporary directory, the two sides taking turns to run first. Before the
first measured run, the invocation's first rung runs once on each side,
untimed and unrecorded, so that no recorded run is the cold first one.

Results go to ``BENCH_scale_<sha>.json`` (sha: the short HEAD of this
checkout) in the repository root or ``--out-dir``. Runs are added to that
file when it already exists, so one file can gather several invocations.
The script sets no allocator tunable and no CPU affinity.

    python scripts/scale_ladder.py --repeat 2
    python scripts/scale_ladder.py --rungs radius_random2_d17 radius_random2_d19 --against HEAD~1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ADDRESS_SPACE = 3 * 10**9  # bytes, the child's RLIMIT_AS
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RANDOM2 = "--family random --branching 2 --depth"

# name -> (CLI arguments, timeout in seconds). Random (2,) depth 19 has
# N = 1 048 575 vertices and random_balanced (3,) depth 11 N = 265 720,
# every parent a sibling set of three; mad depth 10^4 and 10^5 are rays
# of N = D + 1, where every generation holds one vertex.
LADDER = {
    "wold_random2_d19": (f"wold {RANDOM2} 19 --cases 1", 600),
    "wold_mad_1e4": ("wold --family mad --depth 10000 --cases 1", 600),
    "wold_balanced3_d11": ("wold --family random_balanced --branching 3 --depth 11 --cases 1", 600),
    "gram_random2_d11": (f"gram {RANDOM2} 11", 600),
    "gram_random2_d12": (f"gram {RANDOM2} 12", 600),
    "gram_random2_d14": (f"gram {RANDOM2} 14", 600),
    "radius_random2_d17": (f"radius {RANDOM2} 17", 600),
    "radius_random2_d19": (f"radius {RANDOM2} 19", 600),
    "radius_mad_1e5": ("radius --family mad --depth 100000", 600),
    "approx_random2_d17": (f"approx {RANDOM2} 17", 600),
    "approx_random2_d19": (f"approx {RANDOM2} 19", 900),
    "approx_mad_1e4": ("approx --family mad --depth 10000", 600),
    "integral_random2_d19": (f"integral {RANDOM2} 19 --cases 1", 900),
    "integral_mad_1e4": ("integral --family mad --depth 10000 --cases 1", 900),
    "norms_mad_1e5": ("norms --family mad --depth 100000", 900),
    "balanced_mad_1e5": ("balanced --family mad --depth 100000", 600),
}
METHOD = (
    "one child process per run: python -m treeshift.cli <command> with PYTHONPATH at the side's src, "
    "RLIMIT_AS 3e9 bytes and one BLAS thread set on that child only; wall_s is perf_counter around "
    "the child, interpreter start included; max_rss_mb (ru_maxrss / 1024) and minflt come from "
    "os.wait4; with --against the sides take turns to run first; before the first measured run the "
    "invocation's first rung runs once on each side, untimed and unrecorded; no allocator tunable, no CPU "
    "affinity"
)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _src_digest(src: str) -> str:
    """sha256 over the package's .py files, as perfbench's provenance takes it."""
    digest = hashlib.sha256()
    package = os.path.join(src, "treeshift")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_once(src: str, argv: list[str], timeout: float) -> dict:
    """One child run of the CLI on the package under src, measured."""
    with tempfile.TemporaryDirectory(prefix="scale_ladder_") as tmp:
        out = os.path.join(tmp, "out")
        env = {**os.environ, "PYTHONPATH": src, **ONE_THREAD}
        env.pop("TREESHIFT_OUT", None)
        with open(os.path.join(tmp, "stderr"), "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "treeshift.cli", *argv, "--out", out], env=env,
                                    stdout=subprocess.DEVNULL, stderr=err, preexec_fn=_limit_child)
            killed = threading.Event()
            timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            lines = err.read().splitlines()
        report = os.path.join(out, "report.json")
        sha = None
        if os.path.exists(report):
            with open(report, "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
    return {
        "wall_s": round(wall, 3),
        "max_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "minflt": usage.ru_minflt,
        "exit_code": proc.returncode,
        "timeout_s": timeout,
        "timed_out": killed.is_set(),
        "report_sha256": sha,
        "stderr_last": lines[-1] if lines else "",
    }


def _summary(runs: list[dict]) -> dict:
    """Per side: run count, median wall time, largest max RSS, exit codes, report and source digests."""
    out = {}
    for side in sorted({r["side"] for r in runs}):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {
            "runs": len(mine),
            "wall_s_median": round(statistics.median(r["wall_s"] for r in mine), 3),
            "max_rss_mb_max": max(r["max_rss_mb"] for r in mine),
            "exit_codes": sorted({r["exit_code"] for r in mine}),
            "report_sha256": sorted({r["report_sha256"] or "none" for r in mine}),
            "src_sha256": sorted({r["src_sha256"] for r in mine}),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rungs", nargs="+", choices=tuple(LADDER), help="ladder rungs to run (default: all)")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each rung on each side")
    parser.add_argument("--against", metavar="REV", help="also run each rung on `git archive REV`")
    parser.add_argument("--out-dir", default=ROOT, help="directory of the BENCH_scale_<sha>.json file")
    args = parser.parse_args(argv)

    rungs = {name: LADDER[name] for name in args.rungs or LADDER}
    try:
        head, dirty = _git("rev-parse", "--short", "HEAD"), bool(_git("status", "--porcelain", "--", "src"))
    except (OSError, subprocess.CalledProcessError):  # not a git checkout
        head, dirty = "unknown", False
    sides = {"change": {"src": os.path.join(ROOT, "src"), "git": head + ("+dirty" if dirty else "")}}
    with tempfile.TemporaryDirectory(prefix="scale_ladder_against_") as tmp:
        if args.against:
            tar = subprocess.run(["git", "archive", "--format=tar", args.against, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
            rev = _git("rev-parse", "--short", args.against)
            sides["against"] = {"src": os.path.join(tmp, "src"), "git": rev}
        for side in sides.values():
            side["src_sha256"] = _src_digest(side["src"])

        path = os.path.join(args.out_dir, f"BENCH_scale_{head}.json")
        doc = {"rungs": {}}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc.update(method=METHOD, host={
            "machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "rlimit_as_bytes": ADDRESS_SPACE, "blas_threads": 1,
        })
        command, timeout = next(iter(rungs.values()))
        for side in sides.values():  # the warm-up run, not recorded
            run_once(side["src"], shlex.split(command), timeout)
        turn = 0
        for name, (command, timeout) in rungs.items():
            entry = doc["rungs"].setdefault(name, {"command": "python -m treeshift.cli " + command,
                                                   "runs": []})
            for _ in range(args.repeat):
                order = list(sides) if turn % 2 == 0 else list(sides)[::-1]
                turn += 1
                for label in order:
                    side = sides[label]
                    run = run_once(side["src"], shlex.split(command), timeout)
                    entry["runs"].append({"side": label, "git": side["git"],
                                          "src_sha256": side["src_sha256"], **run})
                    print(f"{name} [{label}]: {run['wall_s']} s, {run['max_rss_mb']} MB, "
                          f"exit {run['exit_code']}", file=sys.stderr, flush=True)
            entry["summary"] = _summary(entry["runs"])
            with open(path, "w", encoding="utf-8") as fh:  # after every rung, so a cut run keeps its rows
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
