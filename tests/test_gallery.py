import argparse
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    GALLERY_FAMILIES,
    GallerySpec,
    HorizonError,
    PathSelector,
    TreeSpecError,
    enumerate_paths,
    is_balanced,
    load_shift,
    mad_divergence_partial_sum,
    make,
    path_radius_estimate,
    path_restriction,
    power_norm,
    random_balanced,
    t2_expected_peel_coefficient,
)

from treeshift.cli import _run_radius

from oracles import dense_shift_matrix, loop_family, loop_path_radii, row_table


def test_mad_weight_rule():
    s = make(GallerySpec(family="mad", depth=6))
    assert s.lam[1] == 1.0
    for v in range(2, 7):
        assert s.lam[v] == v / (v - 1)
    assert s.norm_attained_within_depth == 1


def test_t2_weight_rule_and_validation():
    s = make(GallerySpec(family="t2", depth=4, params={"alpha": 0.25}))
    t = s.tree
    for j in range(1, 5):
        assert s.lam[t.vertex_with_label(f"(1,{j})")] == 1.0
        assert s.lam[t.vertex_with_label(f"(2,{j})")] == 0.25
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            make(GallerySpec(family="t2", depth=4, params={"alpha": bad}))
    with pytest.raises(ValueError):
        make(GallerySpec(family="t2", depth=4))
    with pytest.raises(ValueError):
        make(GallerySpec(family="t2", params={"alpha": 0.5}))


def test_t2_zero_weight_rule():
    s = make(GallerySpec(family="t2_zero", depth=4))
    t = s.tree
    for j in range(1, 5):
        up = s.lam[t.vertex_with_label(f"(1,{j})")]
        low = s.lam[t.vertex_with_label(f"(2,{j})")]
        if j == 2:
            assert up == 0.0 and low == 0.0
        else:
            assert up == 1.0 and low == 2.0
    assert s.norm_attained_within_depth == 2
    with pytest.raises(ValueError):
        make(GallerySpec(family="t2_zero", depth=2))


def test_broom_weight_rules():
    s = make(GallerySpec(family="broom", params={"arms": 4}))
    assert [s.lam[n] for n in range(1, 5)] == [1.0, 0.5, 1.0 / 3.0, 0.25]
    custom = make(GallerySpec(family="broom", params={"arms": 2, "weights": [0.3, 0.4]}))
    assert custom.lam[1:].tolist() == [0.3, 0.4]
    with pytest.raises(ValueError):
        make(GallerySpec(family="broom", params={"arms": 3, "weights": [1.0]}))
    with pytest.raises(ValueError):
        make(GallerySpec(family="broom", params={"arms": 2, "weights": [1.0, 0.0]}))

    bl = make(GallerySpec(family="broom_leaf", params={"arms": 3, "omega_weight": 2.5}))
    assert bl.lam[bl.tree.vertex_with_label("omega")] == 2.5
    with pytest.raises(ValueError):
        make(GallerySpec(family="broom_leaf", params={"arms": 3, "omega_weight": 0.0}))


def test_unknown_family_and_stray_params():
    with pytest.raises(ValueError):
        make(GallerySpec(family="nope", depth=3))
    with pytest.raises(ValueError):
        make(GallerySpec(family="unilateral", depth=3, params={"alpha": 0.5}))
    with pytest.raises(ValueError):
        make(GallerySpec(family="mad"))


def test_fixed_depth_families_reject_other_depths(tmp_path):
    for family, depth in (("broom", 7), ("broom", 2), ("broom_leaf", 9), ("broom_leaf", 1)):
        with pytest.raises(TreeSpecError, match="depth"):
            make({"family": family, "depth": depth})
        with pytest.raises(TreeSpecError, match="depth"):
            make(GallerySpec(family=family, depth=depth))
        path = tmp_path / f"{family}_{depth}.json"
        path.write_text(json.dumps({"family": family, "depth": depth}), encoding="utf-8")
        with pytest.raises(TreeSpecError, match="depth"):
            load_shift(str(path))
    assert make(GallerySpec(family="broom", depth=1)).max_depth == 1
    assert make({"family": "broom_leaf", "depth": 2}).max_depth == 2


def test_random_weights_deterministic_and_in_range():
    a = make(GallerySpec(family="random", depth=6, params={"seed": 8}))
    b = make(GallerySpec(family="random", depth=6, params={"seed": 8}))
    assert a.lam.tolist() == b.lam.tolist()
    c = make(GallerySpec(family="random", depth=6, params={"seed": 9}))
    assert a.lam.tolist() != c.lam.tolist()
    for w in a.lam[1:].tolist():
        assert 0.5 <= w <= 2.0


def test_random_balanced_hits_generation_targets():
    norms = [1.5, 0.5, 1.0, 2.0, 0.75]
    s = random_balanced(seed=4, branching=(1, 2, 3), depth=5, generation_norms=norms)
    assert is_balanced(s).ok
    for d in range(5):
        for u in s.tree.generations[d]:
            assert abs(power_norm(s, u, 1) - norms[d]) <= 1e-12, (d, u)
    with pytest.raises(ValueError):
        random_balanced(seed=4, branching=(1, 2), depth=5, generation_norms=[1.0, 1.0])
    with pytest.raises(ValueError):
        random_balanced(seed=4, branching=(1, 2), depth=2, generation_norms=[1.0, -1.0])


def test_make_accepts_mapping_form():
    via_map = make({"family": "t2", "depth": 3, "params": {"alpha": 0.5}})
    via_spec = make(GallerySpec(family="t2", depth=3, params={"alpha": 0.5}))
    assert via_map.lam.tolist() == via_spec.lam.tolist()


def test_load_shift_documents(tmp_path):
    explicit = {
        "vertices": ["r", "x", "y"],
        "edges": [[0, 1], [1, 2]],
        "weights": [0.5, 2.0],
    }
    s = load_shift(explicit)
    assert s.lam[1:].tolist() == [0.5, 2.0]

    defaulted = load_shift({"vertices": ["r", "x"], "edges": [[0, 1]]})
    assert defaulted.lam[1:].tolist() == [1.0]  # absent weights read as 1

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "mad", "depth": 4}), encoding="utf-8")
    s = load_shift(str(path))
    assert s.lam[4] == 4 / 3

    with pytest.raises(TreeSpecError):
        load_shift({"family": "mystery", "depth": 2})
    with pytest.raises(TreeSpecError):
        load_shift({"family": "mad", "depth": 2, "weights": [1.0, 1.0]})


def test_path_restriction_matches_compressed_operator():
    s = make(GallerySpec(family="t2", depth=5, params={"alpha": 0.5}))
    lower = PathSelector.from_child_indices(s.tree, [1, 0, 0, 0, 0])
    mu = path_restriction(s, lower).mu
    assert mu == (0.5,) * 5
    # Compress the dense operator to the path and compare weights.
    idx = list(lower.vertices)
    sub = dense_shift_matrix(s)[np.ix_(idx, idx)]
    for k in range(5):
        assert abs(sub[k + 1, k] - mu[k]) <= 1e-15
    assert np.count_nonzero(sub) == 5

    other_tree = make(GallerySpec(family="mad", depth=5))
    with pytest.raises(ValueError):
        path_restriction(other_tree, PathSelector(vertices=(0, 99)))


def test_path_radius_estimates():
    mad = make(GallerySpec(family="mad", depth=8))
    chain = enumerate_paths(mad.tree)[0]
    assert path_radius_estimate(mad, chain, 1) == 1.0
    # Products equal the depth, and k^(1/k) decreases from k=3 on.
    assert abs(path_radius_estimate(mad, chain, 4) - 8.0 ** (1 / 8)) <= 1e-13

    t2 = make(GallerySpec(family="t2", depth=6, params={"alpha": 0.5}))
    upper = PathSelector.from_child_indices(t2.tree, [0] * 6)
    lower = PathSelector.from_child_indices(t2.tree, [1] + [0] * 5)
    assert path_radius_estimate(t2, upper, 2) == 1.0
    assert abs(path_radius_estimate(t2, lower, 3) - 0.5) <= 1e-15

    with pytest.raises(ValueError):
        path_radius_estimate(mad, chain, -1)
    with pytest.raises(HorizonError):
        path_radius_estimate(mad, chain, 9)
    # A root-only path has no vertex at depth >= 1 whatever the tail start.
    with pytest.raises(HorizonError, match="^tail start 1 passes the end of a length-0 path$"):
        path_radius_estimate(mad, PathSelector((0,)), 0)


def test_path_radius_refuses_an_overflowed_product():
    # 1e100^4 overflows at vertex 4, and every later product carries it,
    # whether the tail starts before, at or past that vertex.
    ray = load_shift({"vertices": 7, "parents": [None, 0, 1, 2, 3, 4, 5],
                      "weights": [0, 1e100, 1e100, 1e100, 1e100, 1.0, 1.0]})
    chain = enumerate_paths(ray.tree)[0]
    for n in (1, 4, 6):
        with pytest.raises(ValueError, match="^the weight product from the root to vertex 4 overflows"):
            path_radius_estimate(ray, chain, n)


# Weights of --tree specs: zeros of both signs, and in some specs factors
# whose products overflow within three generations (1e150 still has a
# finite square). A small reach makes deep trees.
_WEIGHTS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]) | st.floats(0.01, 100.0)
_HUGE_WEIGHTS = st.sampled_from([-0.0, 1e80, 1e150])
_LAWS = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@st.composite
def _parents_specs(draw):
    n, reach = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    parents = [None] + [draw(st.integers(max(0, v - reach), v - 1)) for v in range(1, n)]
    weights = draw(st.lists(draw(st.sampled_from([_WEIGHTS, _HUGE_WEIGHTS])), min_size=n - 1, max_size=n - 1))
    return {"vertices": n, "parents": parents, "weights": [0.0, *weights]}


# One strategy per family, plus --tree specs; the kind is drawn first.
_RADIUS_SPECS = {
    "unilateral": st.builds(lambda d: {"family": "unilateral", "depth": d}, st.integers(0, 6)),
    "mad": st.builds(lambda d: {"family": "mad", "depth": d}, st.integers(1, 6)),
    "broom": st.builds(lambda a: {"family": "broom", "params": {"arms": a}}, st.integers(1, 6)),
    "broom_leaf": st.builds(lambda a, w: {"family": "broom_leaf", "params": {"arms": a, "omega_weight": w}},
                            st.integers(2, 6), st.floats(0.1, 4.0)),
    "t2": st.builds(lambda a, d: {"family": "t2", "depth": d, "params": {"alpha": a}},
                    st.floats(0.05, 0.95), st.integers(1, 6)),
    "t2_zero": st.builds(lambda d: {"family": "t2_zero", "depth": d}, st.integers(3, 6)),
    **{f: st.builds(lambda d, seed, law, f=f: {"family": f, "depth": d,
                                               "params": {"seed": seed, "branching": law}},
                    st.integers(0, 5), st.integers(0, 2**16), _LAWS)
       for f in ("random", "random_balanced")},
    "parents": _parents_specs(),
}


def _runner_rows(s, tail_start):
    return row_table(_run_radius(argparse.Namespace(tail_start=tail_start), s, None)["tables"][0])["rows"]


def _rows_or_refusal(run, s, tail_start):
    """Rows with every cell tagged by its type and floats as .hex(), or the refusal."""
    try:
        rows = run(s, tail_start)
    except ValueError as exc:
        return str(exc)
    return [[(type(x).__name__, x.hex() if isinstance(x, float) else x) for x in row] for row in rows]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(sorted(_RADIUS_SPECS)).flatmap(_RADIUS_SPECS.get),
       st.sampled_from([-1, 0, 1, 2, "D", "D+3", 2**70]))
def test_radius_rows_match_the_per_path_walk_bitwise(spec, tail):
    # Every family (broom_leaf's short paths, t2_zero's zeros) and --tree
    # specs with 0.0, -0.0 and overflowing weights, at each tail start;
    # 2**70 lies past int64, so every tail_start cell is the path length.
    s = load_shift(spec)
    tail_start = {"D": s.max_depth, "D+3": s.max_depth + 3}.get(tail, tail)
    runner = _rows_or_refusal(_runner_rows, s, tail_start)
    assert runner == _rows_or_refusal(loop_path_radii, s, tail_start)
    if isinstance(runner, list):
        paths = enumerate_paths(s.tree)
        for row in runner:
            (_, i), (_, start), (_, est) = row[0], row[4], row[5]
            assert path_radius_estimate(s, paths[i], start).hex() == est


def test_t2_peel_coefficient_closed_form():
    assert abs(t2_expected_peel_coefficient(0, 0.5) + 0.8) <= 1e-15
    assert abs(t2_expected_peel_coefficient(1, 0.5) + 0.8) <= 1e-15
    assert abs(t2_expected_peel_coefficient(2, 0.5) + 16.0 / 15.0) <= 1e-15
    assert abs(t2_expected_peel_coefficient(16, 0.5) * 0.5) > 1e3
    with pytest.raises(ValueError):
        t2_expected_peel_coefficient(-1, 0.5)
    with pytest.raises(ValueError):
        t2_expected_peel_coefficient(2, 1.5)


def test_divergence_partial_sums_track_harmonic_numbers():
    assert abs(mad_divergence_partial_sum(1) - 1.0) <= 1e-12
    assert abs(mad_divergence_partial_sum(4) - 25.0 / 12.0) <= 1e-10
    h200 = sum(1.0 / k for k in range(1, 201))
    assert abs(mad_divergence_partial_sum(200) - h200) <= 1e-10
    assert mad_divergence_partial_sum(200) > 5.0

    host = make(GallerySpec(family="mad", depth=10))
    assert abs(mad_divergence_partial_sum(6, host) - sum(1.0 / k for k in range(1, 7))) <= 1e-10
    with pytest.raises(HorizonError):
        mad_divergence_partial_sum(11, host)
    with pytest.raises(ValueError):
        mad_divergence_partial_sum(0)


def _family_sweep():
    """(family, depth, params) over every family at each valid depth 0-7."""
    for depth in range(8):
        yield "unilateral", depth, {}
        if depth >= 1:
            yield "mad", depth, {}
            yield "t2", depth, {"alpha": 0.5}
            yield "t2", depth, {"alpha": 0.3}
        if depth >= 3:
            yield "t2_zero", depth, {}
        for law in ((1, 2), (2,), (1, 2, 3), (8,), (1, 9), (20,), (130,)):
            if max(law) ** depth > 10_000:
                continue  # counts of 8 and more are reached at smaller depths
            for seed in range(4):
                params = {"seed": seed, "branching": law}
                yield "random", depth, params
                yield "random_balanced", depth, params
        yield "random_balanced", depth, {"seed": 5, "generation_norms": [0.5 + d for d in range(depth)]}
    for arms in (1, 2, 5, 9):
        yield "broom", 1, {"arms": arms}
    yield "broom", 1, {"arms": 3, "weights": [0.3, 2.0, 1e-3]}
    for arms in (2, 3, 8):
        yield "broom_leaf", 2, {"arms": arms}
    yield "broom_leaf", 2, {"arms": 2, "weights": [0.25, 4.0], "omega_weight": 2.5}


def test_families_bitwise_equal_assembled_builders():
    seen = set()
    for family, depth, params in _family_sweep():
        seen.add(family)
        s = make({"family": family, "depth": depth, "params": params})
        t, lam = loop_family(family, depth, params)
        case = (family, depth, params)
        assert np.asarray(s.tree.parent[1:], dtype=np.intp).tobytes() == \
            np.asarray(t.parent[1:], dtype=np.intp).tobytes(), case
        assert s.tree.labels == t.labels, case
        assert sorted(s.tree.genuine_leaves) == sorted(t.genuine_leaves), case
        assert s.lam[1:].tobytes() == np.asarray(lam, dtype=float).tobytes(), case
        assert s.tree == t, case
    assert seen == set(GALLERY_FAMILIES)
