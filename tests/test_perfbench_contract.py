"""What the benchmark's traced mode needs of the package.

``perfbench/run.py --trace 1`` exits 1 when a report check fails or when a
layer its workload maps records no calls, and ``Tracer.install`` raises if
a function named in ``tracing.LAYERS`` is gone. This runs the smallest
invocation of each workload's scaling sweep through ``treeshift.cli.main``
with a tracer installed, as the traced worker does, and asks the same
questions. ``tracing.py`` and ``workloads.py`` are stdlib-only and are
loaded from their files; ``worker.py``, which imports scipy, is not.
"""

import contextlib
import importlib.util
import inspect
import io
import json
import os
import sys

import pytest

import treeshift.cli
from treeshift.multiplier import circle_pair_integral
from treeshift.wold import peel

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smallest_sweep_invocation(name, tmp_path, monkeypatch):
    monkeypatch.delenv("TREESHIFT_OUT", raising=False)
    w = workloads.WORKLOADS[name]
    argv = workloads.sweep(w, workloads.DEFAULT_SEED)[0][1][0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = treeshift.cli.main(argv + ["--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    totals = tracer.take()
    idle = [layer for layer in w.layers if not totals.get(tracing.calls_metric(layer))]
    assert not idle, f"{argv}: mapped layers recorded no calls: {idle}"
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    workloads.check(w, argv, code, report)


def test_counters_read_their_arguments_by_position():
    # COUNTERS read circle_pair_integral's n_points as argument 5 and peel's horizon as argument 2.
    params = {f: list(inspect.signature(f).parameters) for f in (circle_pair_integral, peel)}
    assert params[circle_pair_integral][5] == "n_points"
    assert params[peel][2] == "horizon"
