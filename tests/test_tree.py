import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    DirectedTree,
    PathSelector,
    TreeSpecError,
    build_tree,
    children_n,
    descendants,
    enumerate_paths,
    make,
    parse_tree_spec,
)

from oracles import children_n_brute


def test_bfs_relabeling_and_generations():
    # Input order deliberately scrambled; ids must come out breadth first.
    spec = {
        "vertices": ["c", "root", "a", "b", "d"],
        "edges": [[1, 2], [1, 3], [2, 0], [2, 4]],
    }
    t = build_tree(spec)
    assert t.labels[0] == "root"
    assert t.parent[0] == -1
    assert t.depth.tolist() == [0, 1, 1, 2, 2]
    assert tuple(map(tuple, t.generations)) == ((0,), (1, 2), (3, 4))
    for d, gen in enumerate(t.generations):
        assert list(gen) == sorted(gen)
        assert all(t.depth[v] == d for v in gen)
    # Generations occupy contiguous id ranges under BFS numbering.
    flat = [v for gen in t.generations for v in gen]
    assert flat == list(range(t.n_vertices))


def test_children_sorted_and_parent_consistency():
    t = build_tree({"family": "random", "depth": 5, "params": {"seed": 9, "branching": (1, 2, 3)}})
    for v in range(t.n_vertices):
        kids = t.children[v]
        assert list(kids) == sorted(kids)
        for w in kids:
            assert t.parent[w] == v
            assert t.depth[w] == t.depth[v] + 1


def test_family_shapes():
    chain = build_tree({"family": "unilateral", "depth": 5})
    assert chain.n_vertices == 6 and chain.max_depth == 5
    assert not chain.genuine_leaves

    broom = build_tree({"family": "broom", "params": {"arms": 4}})
    assert broom.n_vertices == 5 and broom.max_depth == 1
    assert broom.genuine_leaves == frozenset({1, 2, 3, 4})

    bl = build_tree({"family": "broom_leaf", "params": {"arms": 3}})
    assert bl.n_vertices == 5 and bl.max_depth == 2
    omega = bl.vertex_with_label("omega")
    assert bl.depth[omega] == 2
    assert bl.parent[omega] == bl.vertex_with_label("1")
    # Arms past the first are genuine leaves despite sitting above the cut.
    assert bl.genuine_leaves == frozenset({bl.vertex_with_label("2"), bl.vertex_with_label("3"), omega})

    t2 = build_tree({"family": "t2", "depth": 3})
    assert t2.n_vertices == 7
    assert t2.labels[0] == "(0,0)"
    v = t2.vertex_with_label("(2,3)")
    assert t2.depth[v] == 3
    assert t2.parent[v] == t2.vertex_with_label("(2,2)")


def test_random_family_determinism_and_branching_law():
    a = build_tree({"family": "random", "depth": 6, "params": {"seed": 3}})
    b = build_tree({"family": "random", "depth": 6, "params": {"seed": 3}})
    assert a == b
    c = build_tree({"family": "random", "depth": 6, "params": {"seed": 4}})
    assert a != c
    for v in range(a.n_vertices):
        if a.depth[v] < a.max_depth:
            assert len(a.children[v]) in (1, 2)


def test_children_n_matches_brute_force():
    rng = np.random.default_rng(20240814)
    for _ in range(20):
        seed = int(rng.integers(0, 10_000))
        t = build_tree({"family": "random", "depth": 5, "params": {"seed": seed, "branching": (1, 2, 3)}})
        for u in range(t.n_vertices):
            for n in range(0, t.max_depth - t.depth[u] + 2):
                assert children_n(t, u, n) == children_n_brute(t, u, n)


def test_descendants_contains_subtree():
    t = build_tree({"family": "t2", "depth": 4})
    v = t.vertex_with_label("(1,2)")
    expect = sorted(t.vertex_with_label(f"(1,{j})") for j in range(2, 5))
    assert descendants(t, v) == expect
    assert descendants(t, 0) == list(range(t.n_vertices))


def test_enumerate_paths_counts_and_flags():
    t2 = build_tree({"family": "t2", "depth": 4})
    paths = enumerate_paths(t2)
    assert len(paths) == 2
    assert all(len(p.vertices) == 5 for p in paths)
    assert not any(p.leaf_terminated for p in paths)

    bl = build_tree({"family": "broom_leaf", "params": {"arms": 3}})
    paths = enumerate_paths(bl)
    # One path per childless vertex: arms 2, 3 and omega.
    assert len(paths) == 3
    assert all(p.leaf_terminated for p in paths)


def test_path_selector_validation():
    t = build_tree({"family": "t2", "depth": 3})
    good = PathSelector.from_child_indices(t, [1, 0, 0])
    assert t.labels[good.terminal] == "(2,3)"
    assert PathSelector.from_vertices(t, good.vertices).vertices == good.vertices
    with pytest.raises(ValueError):
        PathSelector.from_vertices(t, [1, 3])
    with pytest.raises(ValueError):
        PathSelector.from_vertices(t, [0, t.vertex_with_label("(1,2)")])
    with pytest.raises(ValueError):
        PathSelector.from_child_indices(t, [2])
    with pytest.raises(ValueError):
        PathSelector.from_child_indices(t, [0, 0, 0, 0])


def test_spec_rejects_malformed_documents():
    with pytest.raises(TreeSpecError):
        build_tree({"vertices": [], "edges": []})
    with pytest.raises(TreeSpecError):
        build_tree({"vertices": ["a", "b", "c"], "edges": [[0, 2], [1, 2]]})
    with pytest.raises(TreeSpecError):
        build_tree({"vertices": ["a", "b"], "edges": [[0, 1], [1, 0]]})
    with pytest.raises(TreeSpecError):
        # Detached two-cycle: every vertex has a parent somewhere.
        build_tree({"vertices": ["a", "b", "c"], "edges": [[1, 2], [2, 1]]})
    with pytest.raises(TreeSpecError):
        build_tree({"vertices": ["a", "b", "c"], "edges": [[0, 1]]})
    with pytest.raises(TreeSpecError):
        build_tree({"vertices": ["a"], "edges": [], "color": "red"})
    with pytest.raises(TreeSpecError):
        build_tree({"family": "unilateral", "depth": 3, "weights": [1.0]})
    with pytest.raises(TreeSpecError):
        build_tree({"family": "no_such_family", "depth": 3})
    with pytest.raises(TreeSpecError):
        build_tree({"family": "mad"})
    with pytest.raises(TreeSpecError):
        build_tree({"family": "broom", "depth": 3, "params": {"arms": 2}})
    with pytest.raises(TreeSpecError):
        build_tree({"edges": [[0, 1]]})
    with pytest.raises(TreeSpecError):
        parse_tree_spec({"vertices": ["a", "b"], "edges": [[0, 1]], "weights": [1.0, 2.0]})


@pytest.mark.parametrize("spec, message", [
    ({"vertices": 3, "parents": [None, 0, 0.9]}, "parents[2] must be an integer, got 0.9"),
    ({"vertices": 3, "parents": [None, 0, "x"]}, "parents[2] must be an integer, got 'x'"),
    ({"vertices": 3, "parents": [None, False, 0]}, "parents[1] must be an integer, got False"),
    ({"vertices": ["a", "b", "c"], "edges": [[0, 1], [True, 2.5]]},
     "edge endpoint must be an integer, got True"),
    ({"vertices": ["a", "b", "c"], "edges": [[0, 1], [0, 2.0]]}, "edge endpoint must be an integer, got 2.0"),
    ({"vertices": ["a", "b"], "edges": ["01"]}, "edge '01' is not a pair"),
])
def test_spec_ids_are_validated_not_truncated(spec, message):
    with pytest.raises(TreeSpecError) as exc:
        parse_tree_spec(spec)
    assert str(exc.value) == message


def test_explicit_weights_follow_relabeling():
    # Weights ride on edges; after BFS renumbering they key by child id.
    spec = {
        "vertices": ["b", "root", "a"],
        "edges": [[1, 2], [2, 0]],
        "weights": [0.25, 4.0],
    }
    t, weights = parse_tree_spec(spec)
    assert t.labels == ("root", "a", "b")
    assert weights.tolist() == [0.25, 4.0]


def test_parents_array_schema():
    # Parents listed per vertex; weights[0] sits at the root and is ignored.
    spec = {"vertices": 4, "parents": [None, 0, 0, 1], "weights": [9.0, 1.0, 0.5, 0.25]}
    t, weights = parse_tree_spec(spec)
    assert t.parent.tolist() == [-1, 0, 0, 1]
    assert t.labels == ("0", "1", "2", "3")
    assert weights.tolist() == [1.0, 0.5, 0.25]
    # Vertices are relabelled to BFS order, and weights follow them.
    t, weights = parse_tree_spec({"vertices": 3, "parents": [None, 2, 0],
                                  "weights": [0.0, 0.5, 2.0]})
    assert t.labels == ("0", "2", "1") and t.parent.tolist() == [-1, 0, 1]
    assert weights.tolist() == [2.0, 0.5]
    assert parse_tree_spec({"vertices": 1, "parents": [None]})[0].n_vertices == 1
    for bad in (
        {"vertices": 3, "parents": [0, 0, 1]},  # parents[0] is not null
        {"vertices": 3, "parents": [None, 0, None]},  # a second root
        {"vertices": 4, "parents": [None, 0, 0]},  # vertex count disagrees
        {"parents": [None, 0]},  # vertex count missing
        {"vertices": 2, "parents": [None, 0], "weights": [1.0]},  # one weight per vertex
        {"vertices": 0, "parents": []},
        {"vertices": 3, "parents": [None, 2, 1]},  # a cycle below no root
        {"vertices": 2, "parents": [None, 0], "edges": [[0, 1]]},
    ):
        with pytest.raises(TreeSpecError):
            parse_tree_spec(bad)


def test_interior_and_leaf_queries():
    bl = build_tree({"family": "broom_leaf", "params": {"arms": 3}})
    assert bl.is_interior(0)
    assert not bl.is_interior(bl.vertex_with_label("omega"))
    arm2 = bl.vertex_with_label("2")
    assert bl.is_leaf(arm2) and bl.is_interior(arm2)
    assert set(bl.interior_vertices()) == {v for v in range(bl.n_vertices) if bl.depth[v] < 2}


def test_from_bfs_parents_derives_structure():
    t = DirectedTree.from_bfs_parents([-1, 0, 0, 1, 1, 1, 2])
    assert t.parent.tolist() == [-1, 0, 0, 1, 1, 1, 2]
    assert tuple(map(tuple, t.children)) == ((1, 2), (3, 4, 5), (6,), (), (), (), ())
    assert t.depth.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert tuple(map(tuple, t.generations)) == ((0,), (1, 2), (3, 4, 5, 6))
    assert t.labels == ("0", "1", "2", "3", "4", "5", "6")
    assert not t.genuine_leaves  # every childless vertex sits at the cut
    assert t.labels_of([6, 0, 3]) == ["6", "0", "3"]
    t = DirectedTree.from_bfs_parents([-1, 0, 0, 1])
    assert t.labels_of(range(2)) == ["0", "1"] and "labels" not in vars(t)  # formats only the ids asked for
    t = DirectedTree.from_bfs_parents([0, 0, 0, 1], labels="rabc", genuine_leaves=[2])
    assert t.labels == ("r", "a", "b", "c") and t.genuine_leaves == frozenset({2})
    assert t.labels_of([3, 1]) == ["c", "a"]
    assert DirectedTree.from_bfs_parents([0, 0, 0, 1]).genuine_leaves == frozenset({2})
    assert tuple(map(tuple, DirectedTree.from_bfs_parents([-1]).generations)) == ((0,),)
    for bad in ([], [0, 1], [0, 0, 2], [0, 0, 1, 0], [0, -1]):
        with pytest.raises(TreeSpecError):
            DirectedTree.from_bfs_parents(bad)


@st.composite
def bfs_parents(draw):
    """A BFS parent array: vertices, in id order, take 0 to 3 children each."""
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    parent = [-1]
    for u, c in enumerate(counts):
        if u == len(parent):
            break
        parent += [u] * c
    return parent


@settings(derandomize=True, deadline=None)
@given(bfs_parents())
def test_bfs_views_match_per_vertex_derivation(parent):
    t = DirectedTree.from_bfs_parents(parent)
    n = len(parent)
    depth = [0] * n
    for v in range(1, n):
        depth[v] = depth[parent[v]] + 1
    kids = [[v for v in range(n) if parent[v] == u] for u in range(n)]
    assert t.parent.tolist() == parent
    assert [list(c) for c in t.children] == kids
    assert t.depth.tolist() == depth
    assert [list(g) for g in t.generations] == [
        [v for v in range(n) if depth[v] == d] for d in range(max(depth) + 1)
    ]
    assert t.genuine_leaves == {v for v in range(n) if not kids[v] and depth[v] < max(depth)}
    assert t.labels == tuple(str(v) for v in range(n))
    for u in range(n):
        for k in range(t.max_depth - depth[u] + 2):
            assert children_n(t, u, k) == children_n_brute(t, u, k)
        below = []
        for v in range(n):
            x = v
            while x not in (u, -1):
                x = parent[x]
            if x == u:
                below.append(v)
        assert descendants(t, u) == below
    again = DirectedTree.from_bfs_parents(np.array(parent), [str(v) for v in range(n)])
    assert t == again
    assert t != DirectedTree.from_bfs_parents(parent, genuine_leaves=t.genuine_leaves | {n - 1})


def test_build_tree_and_make_share_family_rules():
    rejected = [
        {"family": "t2", "depth": 3, "params": {"bogus": 1}},
        {"family": "mad", "depth": 0},
        {"family": "t2_zero", "depth": 1},
        {"family": "unilateral", "depth": -1},
        {"family": "unilateral", "depth": 2.5},
        {"family": "broom", "params": {"arms": 2.7}},
        {"family": "broom", "params": {"arms": 0}},
        {"family": "broom_leaf", "params": {"arms": 1}},
        {"family": "random", "depth": 3, "params": {"seed": 1.5}},
        {"family": "random", "depth": 3, "params": {"seed": True}},
        {"family": "random", "depth": 3, "params": {"branching": "12"}},
        {"family": "random", "depth": 3, "params": {"branching": [1, 2.0]}},
        {"family": "random", "depth": 3, "params": {"branching": [0, 1]}},
        {"family": "random", "depth": 3, "params": {"branching": []}},
        {"family": "random_balanced", "depth": 3, "params": {"seed": 0.5}},
        {"family": "random", "depth": 3, "params": None},
        {"family": "mad", "depth": 3, "color": "red"},
        {"family": "no_such_family", "depth": 3},
    ]
    for spec in rejected:
        with pytest.raises(TreeSpecError):
            build_tree(spec)
        with pytest.raises(TreeSpecError):
            make(spec)
    # random_balanced is the random structure under another weight rule.
    params = {"seed": 6, "branching": [1, 3]}
    balanced = build_tree({"family": "random_balanced", "depth": 4, "params": params})
    assert balanced == build_tree({"family": "random", "depth": 4, "params": params})
    assert balanced == make({"family": "random_balanced", "depth": 4, "params": params}).tree
    # Weight params are read only where weights are built.
    assert build_tree({"family": "t2", "depth": 2}).n_vertices == 5
    with pytest.raises(TreeSpecError):
        parse_tree_spec({"family": "t2", "depth": 2})
    tree, weights = parse_tree_spec({"family": "t2", "depth": 2, "params": {"alpha": 0.5}})
    assert weights.tolist() == [1.0, 0.5, 1.0, 0.5]
