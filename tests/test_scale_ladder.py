import glob
import hashlib
import importlib.util
import json
import os

from treeshift.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location("scale_ladder", os.path.join(ROOT, "scripts", "scale_ladder.py"))
ladder = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ladder)


def test_one_tiny_rung_is_recorded(tmp_path, monkeypatch):
    # A rung that writes a report and one that exits 2, run twice so the
    # second invocation adds its runs to the file of the first; then a run
    # its timeout kills.
    ok, refused = "radius --family mad --depth 3", "radius --family mad --depth 0"
    monkeypatch.setattr(ladder, "LADDER", {"tiny": (ok, 120), "refused": (refused, 120)})
    for _ in range(2):
        assert ladder.main(["--out-dir", str(tmp_path)]) == 0
    (path,) = glob.glob(str(tmp_path / "BENCH_scale_*.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["host"]["rlimit_as_bytes"] == 3 * 10**9 and doc["host"]["blas_threads"] == 1
    assert "no allocator tunable" in doc["method"]
    assert doc["rungs"]["tiny"]["command"] == "python -m treeshift.cli " + ok
    runs = doc["rungs"]["tiny"]["runs"]
    assert [r["side"] for r in runs] == ["change", "change"]
    done = runs[0]
    assert set(done) == {"side", "git", "src_sha256", "wall_s", "max_rss_mb", "minflt", "exit_code",
                         "timeout_s", "timed_out", "report_sha256", "stderr_last"}
    assert done["exit_code"] == 0 and not done["timed_out"] and done["wall_s"] > 0
    assert done["max_rss_mb"] > 0 and done["minflt"] > 0 and done["timeout_s"] == 120
    monkeypatch.delenv("TREESHIFT_OUT", raising=False)
    assert main([*ok.split(), "--out", str(tmp_path / "here")]) == 0
    with open(tmp_path / "here" / "report.json", "rb") as fh:
        assert done["report_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    no = doc["rungs"]["refused"]["runs"][0]
    assert no["exit_code"] == 2 and no["report_sha256"] is None
    assert no["stderr_last"] == "error: mad requires depth >= 1"
    assert doc["rungs"]["refused"]["summary"]["change"]["exit_codes"] == [2]
    killed = ladder.run_once(os.path.join(ROOT, "src"), ok.split(), 0.001)
    assert killed["timed_out"] and killed["exit_code"] < 0 and killed["report_sha256"] is None
