import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs in a fresh interpreter, since this test process has scipy loaded already.
COLD_START = """
import sys

import treeshift
import treeshift.cli

assert treeshift.cli.main(["list"]) == 0
t2 = treeshift.make(treeshift.GallerySpec(family="t2", depth=6, params={"alpha": 0.5}))
assert treeshift.image_intersection_dim(t2, 1, 2, treeshift.kernel_basis(t2)) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_import_path_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests as an oracle.
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    env.pop("TREESHIFT_OUT", None)
    proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("norms: "), proc.stdout
    assert list(tmp_path.iterdir()) == []
