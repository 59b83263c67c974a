import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treeshift.cli as cli
import treeshift.wold as wold
from treeshift import GallerySpec, kernel_basis, make, operator_norm_power, power_norm, wold_gram
from treeshift.cli import _run_balanced, _run_norms, main
from treeshift.report import _BLOCK, write_report

from oracles import loop_csv_text, row_table
from test_wold import weighted_trees

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
    capsys.readouterr()
    assert _run(["wold", "--family", "broom", "--arms", "3", "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == "error: peel needs an injective shift: tree has genuine leaves\n"
    assert _run(["peel", "--family", "mad", "--depth", "6", "--out", str(tmp_path / "d")]) == 2
    assert _run(["approx", "--family", "mad", "--depth", "4", "--phi", "mystery:1",
                 "--out", str(tmp_path / "e")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["integral", "--family", "random", "--depth", "3"],
    ["wold", "--family", "random", "--depth", "3"],
    ["approx", "--family", "random", "--depth", "3"],
    ["norms", "--family", "random", "--depth", "3"],
    ["norms", "--family", "mad", "--depth", "3"],
    ["gallery"],
])
def test_negative_seed_names_its_option(tmp_path, capsys, argv):
    out = str(tmp_path / "r")
    assert _run([*argv, "--seed", "-1", "--out", out]) == 2
    assert capsys.readouterr().err.endswith("argument --seed: must be >= 0, got -1\n")
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, message", [
    (["approx", "--levels", "a"], "argument --levels: must be comma-separated integers, got 'a'"),
    (["approx", "--levels", "1,x"], "argument --levels: must be comma-separated integers, got '1,x'"),
    (["approx", "--levels", "2.5"], "argument --levels: must be comma-separated integers, got '2.5'"),
    (["norms", "--seed", "1.5"], "argument --seed: must be an integer, got '1.5'"),
    (["wold", "--cases", "x"], "argument --cases: must be an integer, got 'x'"),
])
def test_non_integer_flags_name_their_option(tmp_path, capsys, argv, message):
    out = str(tmp_path / "r")
    assert _run([*argv, "--family", "mad", "--depth", "4", "--out", out]) == 2
    assert capsys.readouterr().err.endswith(message + "\n")
    assert not os.path.exists(out)


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


def _ray_file(tmp_path, weight):
    """A depth-3 ray with every weight equal to ``weight``, as a tree file."""
    spec = tmp_path / "ray.json"
    doc = {"vertices": 4, "parents": [None, 0, 1, 2], "weights": [0, weight, weight, weight]}
    spec.write_text(json.dumps(doc), encoding="utf-8")
    return str(spec)


@pytest.mark.parametrize("argv", [["approx", "--levels", "1,2"], ["gram"], ["integral", "--cases", "1"]],
                         ids=["approx", "gram", "integral"])
def test_non_finite_report_exits_two_without_numpy_warnings(tmp_path, capsys, argv):
    # Powers of 1e150 overflow; the report would hold inf or NaN.
    out = str(tmp_path / "r")
    assert _run(argv + ["--tree", _ray_file(tmp_path, 1e150), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "RuntimeWarning" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("weight", [1e100, 1e103, 1e104, 1e110, 1e150])
def test_wold_refuses_a_lift_that_underflows(tmp_path, capsys, weight):
    # Each lift divides by weight^2: a quotient below the subnormals is lost,
    # and the round trip would miss it; a subnormal one still passes.
    out = str(tmp_path / "r")
    code = _run(["wold", "--tree", _ray_file(tmp_path, weight), "--cases", "1", "--out", out])
    if weight < 1e105:
        assert code == 0
        assert _read_report(out)["verdict"] == "pass"
    else:
        assert code == 2
        assert "error: peel lift underflows at vertex 0" in capsys.readouterr().err
        assert not os.path.exists(out)


_APPROX_PHI = ["approx", "--family", "mad", "--depth", "4", "--levels", "1", "--phi"]
_INTEGRAL_PHI = ["integral", "--family", "mad", "--depth", "4", "--cases", "1", "--phi"]
_HUGE = 10 ** 401  # a JSON integer past the float64 range
_PAST_MAXSIZE = f"error: %s must be at most sys.maxsize = {sys.maxsize}"
_TWO_BRANCHES = {"vertices": 9, "parents": [None, 0, 0, 1, 2, 3, 4, 5, 6],
                 "weights": [0, 1e80, 1e150, 1e80, 1e150, 1e80, 1e150, 1e80, 1.0]}

# A bytes doc is the file's text as is: json.dumps cannot write this array.
_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("argv, doc, message", [
    (["norms", "--max-power", "5", "--family", "mad", "--depth", "4"], None,
     "error: max power must lie in [1, 4]"),
    # Refused before the power range, which would be the empty [1, 0].
    (["norms"], {"vertices": 1, "parents": [None]}, "error: a depth-0 tree has no power to tabulate"),
    # Order 16 of a weight-1e10 ray is 1e320 at the root; order 15 is 1e300.
    (["norms"], {"vertices": 41, "parents": [None, *range(40)], "weights": [0] + [1e10] * 40},
     "error: norm(S^16 e_0)^2 overflows float64 (power norms of order 16)"),
    (["norms"], {"vertices": ["a", "b"], "edges": [[0, 1, 1]]}, "error: edge [0, 1, 1] is not a pair"),
    (["norms"], {"vertices": ["a", "b"], "edges": [1]}, "error: edge 1 is not a pair"),
    (["norms"], {"vertices": ["a", "b"], "edges": [[0, 7]]}, "error: edge endpoint 7 outside 0..1"),
    (["norms"], {"vertices": "ab", "edges": [[0, 1]]}, "error: vertices must be a list of labels"),
    (["norms"], {"vertices": ["a", "b"], "edges": "01"},
     "error: edges must be a list of [parent, child] pairs"),
    (["norms"], [None, 0], "error: tree spec file must hold a JSON object"),
    (["peel", "--family", "t2", "--alpha", "0.5", "--depth", "2"], None,
     "error: need depth >= 3 to see at least one exact layer"),
    (["radius"], {"vertices": 1, "parents": [None]}, "error: tree has no edges, no path to estimate along"),
    # The root-to-vertex-4 product is 1e400; the true tail infimum over the
    # window is (1e400)^(1/1004), about 2.5, not the overflowed 1e100.
    (["radius"],
     {"vertices": 1005, "parents": [None, *range(1004)], "weights": [0] + [1e100] * 4 + [1.0] * 1000},
     "error: the weight product from the root to vertex 4 overflows float64"),
    # The only vertex at or past the tail start carries the overflowed product.
    (["radius", "--tail-start", "4"],
     {"vertices": 5, "parents": [None, 0, 1, 2, 3], "weights": [0] + [1e100] * 4},
     "error: the weight product from the root to vertex 4 overflows float64"),
    # Vertex 6 is the first non-finite id, but the lowest-id terminal is 7,
    # and 7 is the shallowest non-finite vertex on its path 0-1-3-5-7.
    (["radius"], _TWO_BRANCHES, "error: the weight product from the root to vertex 7 overflows float64"),
    # Refusal order: a root-only tree, then a negative tail start, then overflow.
    (["radius", "--tail-start", "-1"], {"vertices": 1, "parents": [None]},
     "error: tree has no edges, no path to estimate along"),
    (["radius", "--tail-start", "-1"], _TWO_BRANCHES, "error: n must be nonnegative"),
    # Sizes past sys.maxsize, which numpy refuses without naming the input.
    (["radius"], {"family": "random", "depth": _HUGE}, _PAST_MAXSIZE % "depth"),
    (["norms", "--family", "mad", "--depth", str(10 ** 20)], None, _PAST_MAXSIZE % "depth"),
    (["norms", "--family", "broom", "--arms", str(10 ** 20)], None, _PAST_MAXSIZE % "arms"),
    # Symbol files: argv ends in --phi and doc is the file's document.
    (_APPROX_PHI, {"support": [["2", "1", 0]]},
     "error: the order of symbol support entry 0 must be an integer, got '2'"),
    (_APPROX_PHI, {"support": 5}, "error: symbol 'support' must be a list of [k, re, im] triples, got 5"),
    (_APPROX_PHI, {"support": [[1.5, 1, 0]]},
     "error: the order of symbol support entry 0 must be an integer, got 1.5"),
    (_APPROX_PHI, {"support": [[True, 1, 0]]},
     "error: the order of symbol support entry 0 must be an integer, got True"),
    (_APPROX_PHI, {"support": [[1, 0.5]]},
     "error: symbol support entry 0 must be a [k, re, im] triple, got [1, 0.5]"),
    (_APPROX_PHI, {"rule": "ones", "K": 2.7}, "error: symbol rule parameter 'K' must be an integer, got 2.7"),
    (_APPROX_PHI, {"rule": "ones", "K": "3"}, "error: symbol rule parameter 'K' must be an integer, got '3'"),
    (_APPROX_PHI, {"rule": "power_law", "exponent": True, "K": 3},
     "error: symbol rule parameter 'exponent' must be a number, got True"),
    (_APPROX_PHI, {"coeffs": {"1": ["0.5", True]}},
     "error: the real part of the coefficient at order 1 must be a number, got '0.5'"),
    (_APPROX_PHI, {"coeffs": {"1": [0.5, True]}},
     "error: the imaginary part of the coefficient at order 1 must be a number, got True"),
    (_APPROX_PHI, {"coeffs": {"1.5": [0.5, 1]}}, "error: symbol 'coeffs' key '1.5' is not an integer order"),
    (_APPROX_PHI, {"coeffs": {"1_0": [0.5, 1]}}, "error: symbol 'coeffs' key '1_0' is not an integer order"),
    (_APPROX_PHI, {"coeffs": {" 3": [0.5, 1]}}, "error: symbol 'coeffs' key ' 3' is not an integer order"),
    (_APPROX_PHI, {"coeffs": {"+3": [0.5, 1]}}, "error: symbol 'coeffs' key '+3' is not an integer order"),
    # Tree-spec numbers are validated, not converted.
    (["norms"], {"vertices": 3, "parents": [None, 0, 0], "weights": [0, "0.5", True]},
     "error: weights[1] must be a number, got '0.5'"),
    (["norms"], {"vertices": 3, "parents": [None, 0, 0], "weights": [0, 0.5, True]},
     "error: weights[2] must be a number, got True"),
    (["norms"], {"vertices": 3, "parents": [None, 0, 0], "weights": [0, "x", 1]},
     "error: weights[1] must be a number, got 'x'"),
    (["norms"], {"vertices": 3, "parents": [None, 0, 0], "weights": "012"},
     "error: weights must be a list with one entry per vertex"),
    (["norms"], {"vertices": ["a", "b", "c"], "edges": [[0, 1], [0, 2]], "weights": "12"},
     "error: weights must be a list of numbers, got '12'"),
    (["norms"], {"family": "t2", "depth": 3, "params": {"alpha": "0.5"}},
     "error: alpha must be a number, got '0.5'"),
    (["norms"], {"family": "broom", "params": {"arms": 2, "weights": ["1", True]}},
     "error: weights[0] must be a number, got '1'"),
    (["norms"], {"family": "broom", "params": {"arms": 2, "weights": [1, True]}},
     "error: weights[1] must be a number, got True"),
    (["norms"], {"family": "random_balanced", "depth": 2, "params": {"generation_norms": ["1", True]}},
     "error: generation_norms[0] must be a number, got '1'"),
    (["norms"], {"family": "random_balanced", "depth": 2, "params": {"generation_norms": [1, True]}},
     "error: generation_norms[1] must be a number, got True"),
    (["norms"], {"family": "broom_leaf", "params": {"omega_weight": "2"}},
     "error: omega_weight must be a number, got '2'"),
    # Each of these once escaped as a traceback with exit 1.
    (["norms"], {"vertices": 3, "parents": [None, 0, 0], "weights": [0, _HUGE, 1]},
     "error: weights[1] is too large for float64"),
    (_APPROX_PHI, {"support": [[1, _HUGE, 0]]},
     "error: the real part of symbol support entry 0 is too large for float64"),
    (_APPROX_PHI, {"rule": "power_law", "exponent": _HUGE, "K": 3},
     "error: symbol rule parameter 'exponent' is too large for float64"),
    ([*_APPROX_PHI, "power_law:2000:3"], None, "error: coefficient at order 2 overflows float64"),
    (_APPROX_PHI, {"rule": "power_law", "exponent": 2000, "K": 3},
     "error: coefficient at order 2 overflows float64"),
    (_APPROX_PHI, ["support"], "error: symbol file must hold a JSON object"),
    (_APPROX_PHI, 5, "error: symbol file must hold a JSON object"),
    (["norms"], _DEEP, "error: tree spec file nests too deeply"),
    (_APPROX_PHI, _DEEP, "error: symbol file nests too deeply"),
    # Orders past sys.maxsize, which islice and range lengths refuse.
    ([*_APPROX_PHI, f"indicator:{_HUGE}"], None, _PAST_MAXSIZE % "the indicator order k"),
    ([*_INTEGRAL_PHI, f"indicator:{_HUGE}"], None, _PAST_MAXSIZE % "the indicator order k"),
    ([*_APPROX_PHI, f"ones:{_HUGE}"], None, _PAST_MAXSIZE % "the truncation degree K"),
    (_INTEGRAL_PHI, {"rule": "power_law", "exponent": 1, "K": _HUGE},
     _PAST_MAXSIZE % "the truncation degree K"),
    (_APPROX_PHI, {"support": [[_HUGE, 1, 0]]}, _PAST_MAXSIZE % "a symbol order"),
], ids=["max_power", "norms_root_only", "norms_ray_overflow", "triple_edge", "scalar_edge", "endpoint_range",
        "vertices_string", "edges_string", "json_array", "peel_depth_2", "radius_root_only", "radius_overflow",
        "radius_overflow_tail_start", "radius_overflow_lowest_terminal",
        "radius_root_only_negative_tail", "radius_negative_tail_before_overflow", "random_depth_huge",
        "mad_depth_huge", "broom_arms_huge", "phi_order_string", "phi_support_scalar", "phi_order_float",
        "phi_order_bool", "phi_support_pair", "phi_rule_float", "phi_rule_string", "phi_rule_bool",
        "phi_coeffs_string", "phi_coeffs_bool", "phi_coeffs_key", "phi_coeffs_key_underscore",
        "phi_coeffs_key_space", "phi_coeffs_key_plus", "parents_weight_string",
        "parents_weight_bool", "parents_weight_word", "parents_weights_string", "edges_weights_string",
        "t2_alpha_string", "broom_weight_string", "broom_weight_bool", "balanced_norm_string",
        "balanced_norm_bool", "broom_leaf_omega_string", "parents_weight_huge", "phi_part_huge",
        "phi_rule_exponent_huge", "phi_grammar_overflow", "phi_rule_overflow", "phi_file_array",
        "phi_file_number", "tree_file_deep", "phi_file_deep", "approx_indicator_huge",
        "integral_indicator_huge", "approx_ones_huge", "integral_power_law_huge", "approx_support_huge"])
def test_refusals_exit_two_with_their_message(tmp_path, capsys, argv, doc, message):
    out = str(tmp_path / "r")
    text = doc.decode() if isinstance(doc, bytes) else json.dumps(doc)
    if argv[-1] == "--phi":
        phi = tmp_path / "phi.json"
        phi.write_text(text, encoding="utf-8")
        argv = [*argv, f"file:{phi}"]
    elif doc is not None:
        spec = tmp_path / "tree.json"
        spec.write_text(text, encoding="utf-8")
        argv = [*argv, "--tree", str(spec)]
    assert _run([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not os.path.exists(out)


def test_symbol_order_at_maxsize_runs(tmp_path):
    # mult_column walks at most depth + 1 levels below a probe, so an order
    # islice could not take as its stop still gives a report.
    out = str(tmp_path / "r")
    assert _run([*_APPROX_PHI, f"indicator:{sys.maxsize}", "--out", out]) == 0
    assert _read_report(out)["inputs"]["phi"] == f"indicator:{sys.maxsize}"


_texts = st.text(max_size=6) | st.sampled_from([
    '', '"', '\\', 'a,b', 'say "hi"', 'x\ny', '\r\n', '\x00\x1f\x7f', 'é ü ∞ 🌲', ' ', '[]', '],\n[',
])
_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**100, 2**100) | _texts
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e308, 1e16, 1e-7, 0.1, -2.5])
)
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=8,
)


# One valid document of each input form: "tree" documents go to --tree,
# "phi" documents to --phi file:PATH. Real-valued fields hold floats and
# integer fields ints, so a leaf's kind is the type of its value here.
_VALID_INPUTS = [
    ("tree", {"vertices": ["a", "b", "c"], "edges": [[0, 1], [0, 2]], "weights": [0.5, 0.8]}),
    ("tree", {"vertices": 4, "parents": [None, 0, 0, 1], "weights": [0.0, 0.6, 0.8, 1.5]}),
    ("tree", {"family": "t2", "depth": 3, "params": {"alpha": 0.5}}),
    ("tree", {"family": "broom_leaf", "params": {"arms": 3, "weights": [1.0, 0.5, 0.25], "omega_weight": 2.0}}),
    ("tree", {"family": "random_balanced", "depth": 3,
              "params": {"seed": 1, "branching": [1, 2], "generation_norms": [1.0, 0.5, 2.0]}}),
    ("phi", {"coeffs": {"0": [1.0, 0.0], "2": [0.5, -0.25]}}),
    ("phi", {"support": [[0, 1.0, 0.0], [2, 0.5, 0.5]]}),
    ("phi", {"rule": "power_law", "exponent": -1.5, "K": 3}),
    ("phi", {"rule": "indicator", "k": 2}),
]
# Size fields draw valid integers from a small range only: a symbol rule's
# K, the Fejer tables of --levels and the random builder's generations are
# materialised in full, and the quadrature takes roots in proportion to a
# support order, so a huge size is a memory cost, not a refusal.
_SIZE_KEYS = {"depth", "arms", "vertices", "K", "k"}
_sizes = st.integers(-1, 4)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _texts | st.floats()
    | st.sampled_from([10 ** 401, -10 ** 401, 2 ** 63, 1e308, -0.0, float("nan"), float("inf")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, path=()):
    """The path of doc itself and of every container and leaf inside it."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    _at(copy, path[:-1])[path[-1]] = value
    return copy


def _kind(x):
    """int or float for a JSON number, None for anything else (bools included)."""
    return type(x) if type(x) in (int, float) else None


@st.composite
def _mutated_inputs(draw):
    """A valid input with one leaf or container replaced by a drawn JSON value."""
    form, doc = draw(st.sampled_from(_VALID_INPUTS))
    path = draw(st.sampled_from(list(_paths(doc))))
    old = _at(doc, path)
    support_order = path[:1] == ("support",) and path[2:] == (0,)
    if path and path[-1] == "branching":
        new = draw(st.lists(_sizes, max_size=3))
    elif "branching" in path or support_order or (path and path[-1] in _SIZE_KEYS and _kind(old) is int):
        new = draw(_sizes)
    else:
        new = draw(_json_values)
    levels = ",".join(map(str, draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))))
    return form, doc, path, new, levels


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_mutated_inputs(), st.sampled_from(["approx", "integral"]))
def test_mutated_inputs_exit_two_with_one_line_or_report(case, phi_run):
    form, doc, path, new, levels = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "r")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_replaced(doc, path, new)))
        if form == "tree":
            argv = ["norms", "--tree", src]
        elif phi_run == "approx":
            argv = ["approx", "--family", "mad", "--depth", "3", "--levels", levels, "--probes", "1"]
        else:
            argv = ["integral", "--family", "mad", "--depth", "3", "--cases", "1"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, *(["--phi", f"file:{src}"] if form == "phi" else []), "--out", out])
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
        else:
            assert code in (0, 1) and err.getvalue() == ""
            assert os.path.exists(os.path.join(out, "report.json"))
    # A number replaced by a value of another kind is refused. The root's
    # entry of a parents-form weight list is ignored, so it is exempt.
    kind = _kind(_at(doc, path))
    root_weight = path[-2:] == ("weights", 0) and "parents" in doc
    if kind is not None and not root_weight and _kind(new) not in ({int} if kind is int else {int, float}):
        assert code == 2, err.getvalue()


@st.composite
def _reports(draw):
    """Dicts shaped like a report: schema keys, nested inputs, tables of equal-length columns."""
    tables = []
    for i in range(draw(st.integers(0, 3))):
        width, n_rows = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        columns = [{"name": draw(_texts), "op": draw(_texts), "tol": draw(st.none() | st.floats(0, 1))}
                   for _ in range(width)]
        cells = [draw(st.lists(_scalars, min_size=n_rows, max_size=n_rows)) for _ in range(width)]
        tables.append({"name": f"t{i}", "columns": columns, "cells": cells})
    extra = draw(st.dictionaries(st.sampled_from(["balanced", "monotone", "regime", "zz"]), _values))
    return {**extra, "schema": 1, "experiment": draw(_texts),
            "inputs": {"tree_spec": draw(_values), "max_power": draw(st.integers(1, 9))},
            "tolerances": draw(st.dictionaries(_texts, st.none() | st.floats(0, 1), max_size=2)),
            "verdict": draw(_texts), "tables": tables}


_ONE_CELL = {"name": "c", "op": "", "tol": None}


def _one_table(columns, cells):
    return {"schema": 1, "experiment": "e", "inputs": {}, "tolerances": {}, "verdict": "pass",
            "tables": [{"name": "t", "columns": columns, "cells": cells}]}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_reports())
@example({"schema": 1, "experiment": "", "inputs": {}, "tolerances": {}, "verdict": "", "tables": []})
@example({"schema": 1, "experiment": "e", "inputs": {"tree_spec": {"labels": ['q"', "a,b", "é"]}},
          "tolerances": {}, "verdict": "pass", "tables": [
              {"name": "empty", "columns": [_ONE_CELL], "cells": [[]]},
              {"name": "one", "columns": [_ONE_CELL],
               "cells": [[-0.0, 5e-324, 1e308, 1e16, 2**70, "x\ny", None, True]]},
              {"name": "none", "columns": [], "cells": []},
          ]})
# One example per column kind the column pass tells apart.
@example(_one_table([_ONE_CELL], [[True, False, True]]))
@example(_one_table([_ONE_CELL], [[None, None]]))
@example(_one_table([_ONE_CELL, _ONE_CELL], [[1, -0.0, 3], [2.5, 2**70, 1e-7]]))
@example(_one_table([_ONE_CELL, _ONE_CELL], [[1, False, 2], [True, 0, 2]]))
@example(_one_table([_ONE_CELL, _ONE_CELL], [["a,b", 'say "hi"', "x\ny", ""], ["%d", "x\ry", "%", "%%s"]]))
@example(_one_table([_ONE_CELL], [[""]]))
@example(_one_table([_ONE_CELL], [["%s", "\r", "", '"']]))
# Text that a split on NaN or on ": NaN" rather than on '"rows": NaN' would cut.
@example({"schema": 1, "experiment": 'rows": NaN', "verdict": "NaN",
          "inputs": {"rows": 2.5, "a: NaN": ["NaN", "a: NaN", 'rows": NaN', "Infinity", "\x00"]},
          "tolerances": {'rows": NaN': 1e-9, "Infinity": None}, "tables": [
              {"name": "rows", "columns": [{"name": 'rows": NaN', "op": "a: NaN", "tol": None}],
               "cells": [['"rows": NaN', "NaN", "-Infinity", "\x00"]]},
              {"name": "NaN", "columns": [{"name": "\x00", "op": "Infinity", "tol": 0.5}], "cells": [[]]},
          ]})
def test_report_writer_matches_json_dumps(report):
    rows_report = {**report, "tables": [row_table(t) for t in report["tables"]]}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r")
        assert write_report(out, report) == os.path.join(out, "report.json")
        with open(os.path.join(out, "report.json"), "r", encoding="utf-8", newline="") as fh:
            assert fh.read() == json.dumps(rows_report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        names = ["report.json"] + [f"{t['name']}.csv" for t in report["tables"]]
        assert sorted(os.listdir(out)) == sorted(names)
        for tab in rows_report["tables"]:
            with open(os.path.join(out, f"{tab['name']}.csv"), "rb") as fh:
                assert fh.read() == loop_csv_text(tab).encode("utf-8")


@pytest.mark.parametrize("where", ["row", "inputs", "mixed_row", "tol", "tolerances"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_report_writer_refuses_non_finite_before_writing(tmp_path, where, bad):
    # "row" puts bad in an all-float column, "mixed_row" in a column of ints
    # and floats, "tol" in a column spec's tol; the rest name the report key.
    first = 1 if where == "mixed_row" else 1.0
    in_cells = where in ("row", "mixed_row")
    column = {**_ONE_CELL, "tol": bad if where == "tol" else None}
    table = {"name": "t", "columns": [column], "cells": [[first, bad if in_cells else 2.0]]}
    report = {"schema": 1, "inputs": {"x": [bad] if where == "inputs" else 0.5},
              "tolerances": {"abs": bad if where == "tolerances" else 1e-9}, "tables": [table]}
    out = tmp_path / "r"
    with pytest.raises(ValueError, match="non-finite"):
        write_report(str(out), report)
    assert not out.exists()


def test_report_writer_refuses_non_scalar_cells(tmp_path):
    table = {"name": "t", "columns": [_ONE_CELL], "cells": [[1, [2]]]}
    with pytest.raises(TypeError, match="cells"):
        write_report(str(tmp_path / "r"), {"schema": 1, "tables": [table]})
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("width, cells", [(2, [[1, 2], [3]]), (2, [[1], [2, 3, 4]]), (1, [[1.0], []]),
                                          (0, [[None]]), (2, [[1, 2]]), (1, [[], []])])
def test_report_writer_refuses_unequal_columns(tmp_path, width, cells):
    # Columns of unequal length, or not one per column spec. A second,
    # well-formed table: nothing of the report is written either.
    tables = [{"name": "ok", "columns": [_ONE_CELL], "cells": [[1]]},
              {"name": "t", "columns": [_ONE_CELL] * width, "cells": cells}]
    with pytest.raises(TypeError, match=f"cells must be {width} columns of equal length"):
        write_report(str(tmp_path / "r"), {"schema": 1, "tables": tables})
    assert not (tmp_path / "r").exists()


def test_report_writer_block_boundaries(tmp_path):
    # Rows are written _BLOCK at a time: one table ends 3 rows into its
    # third block, one fills exactly one block, and one has no rows.
    kinds = [
        ["a,b", 'say "hi"', "x\ny", "nul\x00", "100%", "%s", None, "", "plain"],
        [-0.0, 5e-324, 1e308, 0.1, 1e16, -2.5, 3.0],
        [0, -1, 2**70, 7, -2**70],
        [True, False, False, True],
        [1, 2.5, None, "s,%d", True, 2**70, -0.0, "\x00"],
    ]
    columns = [{"name": f"c{i}\x00,%", "op": "", "tol": None} for i in range(len(kinds))]
    tables = [{"name": name, "columns": columns,
               "cells": [[vals[(i * 7 + 1) % len(vals)] for i in range(n)] for vals in kinds]}
              for name, n in (("big", 2 * _BLOCK + 3), ("exact", _BLOCK), ("empty", 0))]
    report = {"schema": 1, "experiment": "e\x00", "inputs": {"x": "\x00"}, "tables": tables}
    out = str(tmp_path / "r")
    write_report(out, report)
    rows_report = {**report, "tables": [row_table(t) for t in tables]}
    with open(os.path.join(out, "report.json"), "r", encoding="utf-8", newline="") as fh:
        assert fh.read() == json.dumps(rows_report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    for tab in rows_report["tables"]:
        with open(os.path.join(out, f"{tab['name']}.csv"), "rb") as fh:
            assert fh.read() == loop_csv_text(tab).encode("utf-8")


def test_report_writer_memory_is_bounded_by_a_block(tmp_path):
    # The writer holds one block of rows at a time, not the whole text of
    # either file, so its peak stays well below the size of report.json:
    # 0.39 of it for this table, where holding both texts whole reads 3.6.
    n = 1 << 17
    cells = [[i * 0.1 + 1 / 3 for i in range(n)], list(range(-n, n, 2)), [i % 3 == 0 for i in range(n)]]
    report = {"schema": 1, "tables": [{"name": "t", "columns": [_ONE_CELL] * 3, "cells": cells}]}
    tracemalloc.start()
    try:
        path = write_report(str(tmp_path / "r"), report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * os.path.getsize(path)


def test_deep_ray_report_bytes(tmp_path):
    # The golden norms report is depth 40; the benchmark's deep_ray runs reach depth 416.
    out = str(tmp_path / "r")
    assert _run(["norms", "--family", "mad", "--depth", "416", "--out", out]) == 0
    body = _run_norms(argparse.Namespace(max_power=None, tol=1e-12),
                      make(GallerySpec(family="mad", depth=416)), "mad")
    with open(os.path.join(out, "report.json"), "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    table = row_table(body["tables"][0])
    report = {**json.loads(text), "tables": [table]}
    assert len(table["rows"]) == 416
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(os.path.join(out, "power_norms.csv"), "rb") as fh:
        assert fh.read() == loop_csv_text(table).encode("utf-8")


def _bits(rows):
    return [[(type(x), x.hex() if type(x) is float else x) for x in row] for row in rows]


@settings(derandomize=True, deadline=None)
@given(weighted_trees())
def test_norms_rows_match_per_row_queries(s):
    for shift in (s, make(GallerySpec(family="mad", depth=s.max_depth + 1))):
        for max_n in range(1, shift.max_depth + 1):
            args = argparse.Namespace(max_power=max_n, tol=1e-12)
            rows = row_table(_run_norms(args, shift, None)["tables"][0])["rows"]
            want = []
            # Descending, so every order is rebuilt from order 1 rather than read at the cursor.
            for n in range(max_n, 0, -1):
                est = operator_norm_power(shift, n)
                e0 = power_norm(shift, 0, n)
                want.insert(0, [n, e0, est.value, est.attained_at, est.may_grow_beyond_horizon,
                                est.value ** (1.0 / n)])
            assert _bits(rows) == _bits(want)


@settings(derandomize=True, deadline=None)
@given(weighted_trees(weights=st.floats(0.0, 4.0)))
def test_balanced_generation_norms_match_per_vertex_queries(s):
    if s.max_depth < 1:
        return
    rows = row_table(_run_balanced(argparse.Namespace(max_power=1), s, None)["tables"][0])["rows"]
    want = []
    for d, gen in enumerate(s.tree.generations[:-1]):
        norms = [power_norm(s, u, 1) for u in gen]
        want.append([d, len(gen), min(norms), max(norms), max(norms) - min(norms)])
    assert _bits(rows) == _bits(want)


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


@pytest.mark.parametrize("weight", [1e80, 1e150])
def test_gram_overflow_exits_two_without_report(tmp_path, capsys, weight):
    # A depth-3 binary tree of equal weights. At 1e80 the ladder is finite
    # and the pairings (1, 3) and (2, 3) overflow; at 1e150 S^3 of the root
    # holds inf, and each pairing against it is inf or NaN. wold_gram
    # multiplies only the live columns, and drops exact-zero columns only:
    # an overflowed pairing lies in the live block, and a live column with
    # an inf meets at least one column on the other side, so the refusal
    # stays.
    spec = tmp_path / "tree.json"
    spec.write_text(json.dumps({"vertices": 15, "parents": [None, *(v // 2 for v in range(14))],
                                "weights": [0.0, *[weight] * 14]}))
    out = tmp_path / "r"
    assert _run(["gram", "--tree", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the report holds a non-finite number; nothing was written\n"
    assert not out.exists()


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


@pytest.mark.parametrize("shift", [["--family", "broom_leaf"],
                                   ["--family", "random", "--branching", "1,2,3", "--depth", "6", "--seed", "5"]])
def test_radius_tail_start_past_int64(tmp_path, shift):
    # Each tail_start cell is min(tail_start, length) in Python ints, so a
    # start of 2**70 is every path's length (broom_leaf: lengths 1 and 2).
    # The golden radius_random_tail_2e70 pins the second report's bytes.
    out = str(tmp_path / "r")
    assert _run(["radius", *shift, "--tail-start", str(2**70), "--out", out]) == 0
    rows = _read_report(out)["tables"][0]["rows"]
    assert rows and all(row[4] == row[2] for row in rows)


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


@pytest.mark.parametrize("exc, err", [
    (MemoryError(), "error: out of memory running radius\n"),
    (MemoryError("Unable to allocate 8.00 EiB"),
     "error: out of memory running radius: Unable to allocate 8.00 EiB\n"),
])
def test_out_of_memory_message_has_no_empty_detail(tmp_path, capsys, monkeypatch, exc, err):
    def run(args, s, family):
        raise exc

    monkeypatch.setitem(cli.EXPERIMENTS, "radius", cli.EXPERIMENTS["radius"]._replace(run=run))
    out = tmp_path / "r"
    assert _run(["radius", "--family", "mad", "--depth", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_wold_round_trip_builds_no_per_vertex_dict(tmp_path, capsys):
    # N = 131 071: a per-vertex TreeVector dict of f or of reconstruct's
    # result would take about 17 MB on its own under tracemalloc.
    argv = ["wold", "--family", "random", "--branching", "2", "--depth", "16", "--cases", "1"]
    tracemalloc.start()
    try:
        rc = _run([*argv, "--out", str(tmp_path / "r")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    assert peak < 40 * 2**20, peak
