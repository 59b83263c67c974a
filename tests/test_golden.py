"""Byte-identity of the CLI output on a fixed set of small invocations.

Each file under tests/golden/ was written by the code as it stood before
the change that added it, starting with the dict-based operator core
that predates the array-backed one: ``<case>.json`` is the report,
``<case>.<table>.csv`` one CSV per table, and ``list.txt`` the stdout of
``treeshift list``. ``zero_weight_tree.json`` is the input of the
``--tree`` case: sibling sets with zero weights beside positive ones.
Each case runs inside tests/golden/, so the echoed ``tree_file`` is the
bare file name. Any change to the numerics, the verdict logic, the
report layout or the CSV writer shows up here as a byte difference.
"""

import glob
import os

import pytest

from treeshift.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "norms_mad": ["norms", "--family", "mad", "--depth", "40"],
    "norms_t2": ["norms", "--family", "t2", "--alpha", "0.5", "--depth", "10"],
    "norms_random": ["norms", "--family", "random", "--branching", "1,2,3", "--depth", "6",
                     "--seed", "5"],
    "integral_random": ["integral", "--family", "random", "--branching", "2", "--depth", "5",
                        "--seed", "3", "--cases", "2"],
    "integral_random_balanced_power_law": ["integral", "--family", "random_balanced",
                                           "--branching", "3", "--depth", "4", "--phi",
                                           "power_law:-1:6", "--cases", "2", "--seed", "7"],
    "integral_t2": ["integral", "--family", "t2", "--alpha", "0.5", "--depth", "3",
                    "--cases", "2", "--seed", "1"],
    "approx_random": ["approx", "--family", "random", "--depth", "5", "--seed", "2",
                      "--phi", "power_law:-1.5:6", "--levels", "2,4,8", "--probes", "12"],
    "gram_random_balanced": ["gram", "--family", "random_balanced", "--depth", "5",
                             "--seed", "2"],
    "gram_random": ["gram", "--family", "random", "--depth", "5", "--seed", "1"],
    "gram_random_mixed": ["gram", "--family", "random", "--branching", "1,2,3", "--depth", "6",
                          "--seed", "4", "--max-power", "6"],
    "gram_t2_zero": ["gram", "--family", "t2_zero", "--depth", "5"],
    "wold_random_balanced": ["wold", "--family", "random_balanced", "--branching", "3",
                             "--depth", "4", "--cases", "2"],
    "wold_zero_weight": ["wold", "--tree", "zero_weight_tree.json", "--cases", "2"],
    "balanced_random": ["balanced", "--family", "random", "--branching", "1,2,3",
                        "--depth", "5", "--seed", "4"],
    "peel_t2": ["peel", "--family", "t2", "--alpha", "0.5", "--depth", "12"],
    "gallery": ["gallery", "--seed", "3"],
    "radius_broom_leaf": ["radius", "--family", "broom_leaf", "--tail-start", "2"],
    "radius_random": ["radius", "--family", "random", "--branching", "1,2,3", "--depth", "6",
                      "--seed", "5"],
    # A tail start past int64: every row's tail_start cell is its length.
    "radius_random_tail_2e70": ["radius", "--family", "random", "--branching", "1,2,3",
                                "--depth", "6", "--seed", "5", "--tail-start", str(2**70)],
    # Vertex labels such as "(0,0)", which the CSV quotes.
    "approx_t2": ["approx", "--family", "t2", "--alpha", "0.5", "--depth", "5", "--probes", "6",
                  "--levels", "1,3"],
}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("TREESHIFT_OUT", raising=False)
    monkeypatch.chdir(GOLDEN_DIR)
    out = str(tmp_path / name)
    assert main(CASES[name] + ["--out", out]) == 0
    with open(os.path.join(out, "report.json"), "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "rb") as fh:
        want = fh.read()
    assert got == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_csvs_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("TREESHIFT_OUT", raising=False)
    monkeypatch.chdir(GOLDEN_DIR)
    out = str(tmp_path / name)
    assert main(CASES[name] + ["--out", out]) == 0
    want = sorted(glob.glob(os.path.join(GOLDEN_DIR, f"{name}.*.csv")))
    got = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    assert got == [os.path.basename(p)[len(name) + 1:] for p in want]
    for path in want:
        assert _read(os.path.join(out, os.path.basename(path)[len(name) + 1:])) == _read(path)


def test_list_matches_golden(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == _read(os.path.join(GOLDEN_DIR, "list.txt"))
