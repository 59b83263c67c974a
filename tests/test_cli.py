import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import treeshift.wold as wold
from treeshift import GallerySpec, kernel_basis, make, wold_gram
from treeshift.cli import main

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("TREESHIFT_OUT", raising=False)


def _run(argv):
    return main(argv)


def _read_report(out_dir):
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_norms_pass_and_report_shape(tmp_path):
    out = str(tmp_path / "r")
    assert _run(["norms", "--family", "mad", "--depth", "16", "--out", out]) == 0
    report = _read_report(out)
    assert report["schema"] == 1
    assert report["experiment"] == "norms"
    assert report["verdict"] == "pass"
    assert report["inputs"]["family"] == "mad"
    table = report["tables"][0]
    assert len(table["rows"]) == 16
    assert [c["name"] for c in table["columns"]][:3] == ["n", "norm_root", "op_norm"]
    for col in table["columns"]:
        assert set(col) == {"name", "op", "tol"}
    for row in table["rows"]:
        assert len(row) == len(table["columns"])
    csv_path = os.path.join(out, "power_norms.csv")
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "n,norm_root,op_norm,attained_at,may_grow_beyond_horizon,surrogate"


def test_forced_failure_exit_code(tmp_path):
    # Impossible tolerance: every closed-form row must be marked failing.
    out = str(tmp_path / "r")
    assert _run(["norms", "--family", "mad", "--depth", "8", "--tol", "-1", "--out", out]) == 1
    assert _read_report(out)["verdict"] == "fail"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert _run(["no_such_command"]) == 2
    assert _run(["norms", "--depth", "4", "--out", str(tmp_path / "a")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a", "b"], "edges": [[0, 1], [1, 0]]}', encoding="utf-8")
    assert _run(["norms", "--tree", str(bad), "--out", str(tmp_path / "b")]) == 2
    assert _run(["wold", "--family", "broom", "--arms", "3", "--out", str(tmp_path / "c")]) == 2
    assert _run(["peel", "--family", "mad", "--depth", "6", "--out", str(tmp_path / "d")]) == 2
    assert _run(["approx", "--family", "mad", "--depth", "4", "--phi", "mystery:1",
                 "--out", str(tmp_path / "e")]) == 2
    capsys.readouterr()


def test_fixed_depth_family_with_other_depth_exits_two(tmp_path, capsys):
    for family, depth in (("broom", "7"), ("broom_leaf", "9")):
        out = str(tmp_path / family)
        assert _run(["norms", "--family", family, "--depth", depth, "--out", out]) == 2
        assert "depth" in capsys.readouterr().err
        assert not os.path.exists(out)
    spec = tmp_path / "broom.json"
    spec.write_text('{"family": "broom", "depth": 7}', encoding="utf-8")
    assert _run(["norms", "--tree", str(spec), "--out", str(tmp_path / "f")]) == 2
    assert "depth" in capsys.readouterr().err


def test_family_echo_carries_only_given_params(tmp_path):
    out = str(tmp_path / "r")
    assert _run(["norms", "--family", "broom", "--arms", "3", "--out", out]) == 0
    assert _read_report(out)["inputs"] == {"family": "broom", "depth": None,
                                           "params": {"arms": 3}, "max_power": 1}
    assert _run(["radius", "--family", "random_balanced", "--depth", "3", "--out", out]) == 0
    assert _read_report(out)["inputs"]["params"] == {"seed": 0}


def test_non_finite_symbol_exits_two(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert _run(["approx", "--family", "mad", "--depth", "8", "--phi", "power_law:nan:4",
                 "--levels", "1,2", "--out", out]) == 2
    assert "finite" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc", [
    # A weight whose square overflows.
    {"vertices": 3, "parents": [None, 0, 0], "weights": [0, 1e200, 1.0]},
    # Finite squares, but the order-2 power norms overflow.
    {"vertices": 4, "parents": [None, 0, 1, 2], "weights": [0, 1e100, 1e100, 1e100]},
], ids=["square", "power_norms"])
def test_overflow_exits_two_without_report(tmp_path, capsys, doc):
    spec = tmp_path / "tree.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    out = str(tmp_path / "r")
    assert _run(["norms", "--tree", str(spec), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)


def test_norms_evidence_only_for_random(tmp_path):
    out = str(tmp_path / "r")
    assert _run(["norms", "--family", "random", "--depth", "5", "--seed", "3", "--out", out]) == 0
    assert _read_report(out)["verdict"] == "evidence-only"


def test_byte_stable_reruns(tmp_path):
    args = ["integral", "--family", "random", "--depth", "4", "--seed", "13", "--cases", "3"]
    out1, out2 = str(tmp_path / "one"), str(tmp_path / "two")
    assert _run(args + ["--out", out1]) == 0
    assert _run(args + ["--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_env_var_overrides_out_flag(tmp_path, monkeypatch):
    env_dir = str(tmp_path / "env")
    monkeypatch.setenv("TREESHIFT_OUT", env_dir)
    flag_dir = str(tmp_path / "flag")
    assert _run(["balanced", "--family", "unilateral", "--depth", "4", "--out", flag_dir]) == 0
    assert os.path.exists(os.path.join(env_dir, "report.json"))
    assert not os.path.exists(flag_dir)


def test_gram_regimes(tmp_path):
    out = str(tmp_path / "t2")
    assert _run(["gram", "--family", "t2", "--alpha", "0.5", "--depth", "12", "--out", out]) == 0
    report = _read_report(out)
    assert report["regime"] == "expected-nonorthogonal"
    assert report["verdict"] == "pass"
    max_abs = {tuple(r[:2]): r[2] for r in report["tables"][0]["rows"]}
    assert max_abs[(1, 2)] > 0.3

    out = str(tmp_path / "bal")
    assert _run(["gram", "--family", "random_balanced", "--depth", "6", "--seed", "2", "--out", out]) == 0
    report = _read_report(out)
    assert report["regime"] == "orthogonal-factors"
    assert report["verdict"] == "pass"

    out = str(tmp_path / "tz")
    assert _run(["gram", "--family", "t2_zero", "--depth", "4", "--out", out]) == 0
    report = _read_report(out)
    assert report["regime"] == "unclassified"
    assert report["verdict"] == "evidence-only"


def test_approx_report(tmp_path):
    out = str(tmp_path / "r")
    assert _run(["approx", "--family", "t2", "--alpha", "0.5", "--depth", "8",
                 "--phi", "ones:4", "--levels", "4,8,16", "--out", out]) == 0
    report = _read_report(out)
    assert report["verdict"] == "pass"
    assert report["monotone"] is True
    assert report["support_bound"] == 4
    rows = report["tables"][0]["rows"]
    assert len(rows) == 3 * 17
    assert all(row[5] for row in rows)


def test_peel_report_matches_closed_form(tmp_path):
    out = str(tmp_path / "r")
    assert _run(["peel", "--family", "t2", "--alpha", "0.5", "--depth", "12", "--out", out]) == 0
    report = _read_report(out)
    assert report["verdict"] == "pass"
    rows = report["tables"][0]["rows"]
    by_j = {r[0]: r for r in rows}
    assert abs(by_j[0][1] + 0.8) <= 1e-12
    assert abs(by_j[0][1] - by_j[0][2]) <= 1e-10
    assert report["roundtrip_error"] <= 1e-10


def test_wold_and_radius_and_gallery(tmp_path):
    out = str(tmp_path / "w")
    assert _run(["wold", "--family", "random", "--depth", "5", "--seed", "7",
                 "--cases", "3", "--out", out]) == 0
    report = _read_report(out)
    assert report["verdict"] == "pass"
    assert all(r[2] <= 1e-10 for r in report["tables"][0]["rows"])

    out = str(tmp_path / "rad")
    assert _run(["radius", "--family", "t2", "--alpha", "0.5", "--depth", "6", "--out", out]) == 0
    report = _read_report(out)
    assert report["verdict"] == "evidence-only"
    estimates = sorted(r[5] for r in report["tables"][0]["rows"])
    assert abs(estimates[0] - 0.5) <= 1e-12 and abs(estimates[1] - 1.0) <= 1e-12

    out = str(tmp_path / "g")
    assert _run(["gallery", "--out", out]) == 0
    report = _read_report(out)
    assert report["verdict"] == "pass"
    families = [r[0] for r in report["tables"][0]["rows"]]
    assert families == ["unilateral", "mad", "broom", "broom_leaf", "t2", "t2_zero",
                        "random", "random_balanced"]


def test_tree_file_input(tmp_path):
    spec = {"vertices": ["r", "a", "b"], "edges": [[0, 1], [0, 2]], "weights": [0.6, 0.8]}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = str(tmp_path / "r")
    assert _run(["balanced", "--tree", str(path), "--out", out]) == 0
    report = _read_report(out)
    assert report["inputs"]["tree_spec"]["weights"] == [0.6, 0.8]


def test_phi_file_input(tmp_path):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps({"rule": "ones", "K": 3}), encoding="utf-8")
    out = str(tmp_path / "r")
    assert _run(["approx", "--family", "unilateral", "--depth", "6",
                 "--phi", f"file:{phi_path}", "--levels", "4,8", "--out", out]) == 0
    assert _read_report(out)["support_bound"] == 3


def test_phi_file_coeffs_form(tmp_path):
    phi_path = tmp_path / "phi.json"
    phi_path.write_text(json.dumps({"coeffs": {"0": [1.0, 0.0], "2": [0.5, -0.25]}}),
                        encoding="utf-8")
    out = str(tmp_path / "r")
    assert _run(["approx", "--family", "mad", "--depth", "6",
                 "--phi", f"file:{phi_path}", "--levels", "2", "--out", out]) == 0
    assert _read_report(out)["support_bound"] == 2
    phi_path.write_text('{"coeffs": {"0": [1.0, NaN]}}', encoding="utf-8")
    assert _run(["approx", "--family", "mad", "--depth", "6",
                 "--phi", f"file:{phi_path}", "--levels", "2", "--out", out]) == 2


def test_tree_file_parents_form(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text('{"vertices": 4, "parents": [null, 0, 0, 1], '
                    '"weights": [0.0, 1.0, 0.5, 1.0]}', encoding="utf-8")
    out = str(tmp_path / "r")
    assert _run(["norms", "--tree", str(path), "--out", out]) == 0
    assert _read_report(out)["inputs"]["tree_spec"]["parents"] == [None, 0, 0, 1]


def test_list_prints_registry(capsys):
    assert _run(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split(":", 1)[0] for line in lines]
    assert names == ["norms", "radius", "approx", "integral", "wold",
                     "balanced", "gram", "gallery", "peel"]
    assert all(len(line.split(":", 1)[1].strip()) > 10 for line in lines)


def test_vacuous_verdicts_exit_two(tmp_path, capsys):
    # Each of these checked zero rows, or compared against NaN, and passed.
    one = tmp_path / "one.json"
    one.write_text('{"vertices": 1, "parents": [null]}', encoding="utf-8")
    for argv in (["gram", "--tree", str(one)],
                 ["wold", "--tree", str(one)],
                 ["wold", "--family", "mad", "--depth", "5", "--horizon", "0"],
                 ["balanced", "--tree", str(one)],
                 ["integral", "--family", "mad", "--depth", "4", "--cases", "0"],
                 ["wold", "--family", "mad", "--depth", "4", "--cases", "-2"],
                 ["approx", "--family", "mad", "--depth", "4", "--probes", "0"],
                 ["gram", "--family", "random", "--depth", "3", "--max-power", "0"],
                 ["gram", "--family", "random", "--depth", "3", "--max-power", "-3"],
                 ["balanced", "--family", "mad", "--depth", "4", "--max-power", "0"],
                 ["norms", "--family", "mad", "--depth", "4", "--max-power", "0"],
                 ["norms", "--family", "mad", "--depth", "4", "--tol", "nan"],
                 ["norms", "--family", "mad", "--depth", "4", "--tol", "inf"],
                 ["peel", "--family", "t2", "--alpha", "0.5", "--depth", "6", "--tol", "-inf"]):
        out = str(tmp_path / "r")
        assert _run(argv + ["--out", out]) == 2, argv
        assert not os.path.exists(out), argv
        assert "error" in capsys.readouterr().err, argv


def test_registry_and_flags_agree(tmp_path, capsys):
    from treeshift.cli import EXPERIMENTS

    assert _run(["list"]) == 0
    listed = [line.split(":", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(EXPERIMENTS)
    for name, exp in EXPERIMENTS.items():
        assert _run([name, "--help"]) == 0, name
        text = capsys.readouterr().out
        assert ("--tol" in text) == (exp.tol is not None), name
        assert ("--family" in text) == exp.builds_shift, name
        for flag, _ in exp.flags:
            assert flag in text, (name, flag)
    for argv in (["gallery", "--family", "mad"], ["gallery", "--depth", "3"],
                 ["gallery", "--tol", "1e-3"], ["radius", "--family", "mad", "--depth", "3",
                                                "--tol", "1e-3"],
                 ["balanced", "--family", "mad", "--depth", "3", "--tol", "1e-3"],
                 ["norms", "--family", "mad", "--depth", "3", "--cases", "2"]):
        out = str(tmp_path / "r")
        assert _run(argv + ["--out", out]) == 2, argv
        assert not os.path.exists(out), argv
    capsys.readouterr()


def test_gram_scatters_once_and_shifts_once_per_power(tmp_path, monkeypatch):
    calls = {"apply_shift": 0, "_basis_block": 0}

    def counted(name):
        fn = getattr(wold, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(wold, name, wrapper)

    counted("apply_shift")
    counted("_basis_block")
    out = str(tmp_path / "r")
    assert _run(["gram", "--family", "random", "--branching", "2", "--depth", "8", "--out", out]) == 0
    assert len(_read_report(out)["tables"][0]["rows"]) == 10
    assert calls == {"apply_shift": 4, "_basis_block": 1}


def test_gram_max_power_above_depth_clamps(tmp_path):
    argv = ["gram", "--family", "random", "--depth", "3", "--seed", "4"]
    wide, exact = tmp_path / "wide", tmp_path / "exact"
    assert _run(argv + ["--max-power", "7", "--out", str(wide)]) == 0
    assert _run(argv + ["--max-power", "3", "--out", str(exact)]) == 0
    for name in ("report.json", "gram_pairings.csv"):
        assert (wide / name).read_bytes() == (exact / name).read_bytes(), name
    report = _read_report(str(wide))
    assert report["inputs"]["max_power"] == 3
    # Each row is what one ladder-free wold_gram call gives for its pair.
    s = make(GallerySpec(family="random", depth=3, params={"seed": 4}))
    basis = kernel_basis(s)
    want = []
    for n in range(4):
        for m in range(n + 1, 4):
            g = wold_gram(s, n, m, basis)
            want.append([n, m, float(np.max(np.abs(g.matrix))), g.exceeds_horizon])
    assert report["tables"][0]["rows"] == want


def test_out_of_memory_exits_two_without_report(tmp_path):
    # The gram image block of this tree needs about 68 GB; the child runs
    # under a 1 GiB address-space cap, set in that child only.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "r"
    argv = ["gram", "--family", "random", "--branching", "2", "--depth", "16", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "treeshift.cli", *argv],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
