"""Rooted directed trees truncated at a fixed generation depth.

Vertex ids are dense integers assigned breadth first, so the root is id 0
and every generation occupies a contiguous id range. All list-valued
queries return vertices in ascending id order, which makes downstream
numerics reproducible. Trees are immutable after construction and safe to
share between threads.

A tree comes either from an explicit vertex/edge description or from a
named generator family (see FAMILY_NAMES). Childless vertices strictly
above the truncation depth are recorded as genuine leaves. Childless
vertices at the truncation depth are boundary vertices: they are presumed
to continue past the horizon unless the generating family knows better
(the broom families mark their arms as genuine leaves even though the arms
sit at the deepest generation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

VertexId = int

FAMILY_NAMES = (
    "unilateral",
    "mad",
    "broom",
    "broom_leaf",
    "t2",
    "t2_zero",
    "random",
)


class TreeSpecError(ValueError):
    """Malformed tree description: bad keys, cycles, missing root, ..."""


@dataclass(frozen=True)
class DirectedTree:
    """A finite rooted directed tree with breadth-first integer ids.

    Fields are parallel tuples indexed by vertex id. ``parent[0]`` is
    ``None``; ``generations[n]`` lists the vertices at depth ``n`` and the
    union over n partitions the vertex set. ``genuine_leaves`` holds the
    childless vertices known to be childless in the untruncated object,
    as opposed to artifacts of cutting at ``max_depth``.
    """

    parent: tuple[Optional[VertexId], ...]
    children: tuple[tuple[VertexId, ...], ...]
    depth: tuple[int, ...]
    generations: tuple[tuple[VertexId, ...], ...]
    labels: tuple[str, ...]
    genuine_leaves: frozenset[VertexId]

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @property
    def max_depth(self) -> int:
        return len(self.generations) - 1

    def check_vertex(self, v: VertexId) -> None:
        if not isinstance(v, (int, np.integer)) or not 0 <= v < self.n_vertices:
            raise ValueError(f"invalid vertex id {v!r}")

    def parent_of(self, v: VertexId) -> Optional[VertexId]:
        self.check_vertex(v)
        return self.parent[v]

    def children_of(self, v: VertexId) -> tuple[VertexId, ...]:
        self.check_vertex(v)
        return self.children[v]

    def depth_of(self, v: VertexId) -> int:
        self.check_vertex(v)
        return self.depth[v]

    def generation(self, n: int) -> tuple[VertexId, ...]:
        if not 0 <= n <= self.max_depth:
            raise ValueError(f"generation {n} outside [0, {self.max_depth}]")
        return self.generations[n]

    def label_of(self, v: VertexId) -> str:
        self.check_vertex(v)
        return self.labels[v]

    def vertex_with_label(self, label: str) -> VertexId:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no vertex labelled {label!r}") from None

    def is_interior(self, v: VertexId) -> bool:
        """True when v sits strictly above the truncation boundary."""
        self.check_vertex(v)
        return self.depth[v] < self.max_depth

    def interior_vertices(self) -> Iterator[VertexId]:
        for gen in self.generations[:-1]:
            yield from gen

    def is_leaf(self, v: VertexId) -> bool:
        self.check_vertex(v)
        return not self.children[v]


@dataclass(frozen=True)
class PathSelector:
    """A root-anchored chain of vertices, one child chosen per depth.

    ``leaf_terminated`` marks chains ending at a genuine leaf rather than
    at the truncation boundary.
    """

    vertices: tuple[VertexId, ...]
    leaf_terminated: bool = False

    @property
    def terminal(self) -> VertexId:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_vertices(cls, tree: DirectedTree, vertices: Sequence[VertexId]) -> "PathSelector":
        vs = tuple(int(v) for v in vertices)
        if not vs or vs[0] != 0:
            raise ValueError("path must start at the root")
        for above, below in zip(vs, vs[1:]):
            tree.check_vertex(below)
            if tree.parent[below] != above:
                raise ValueError(f"{below} is not a child of {above}")
        return cls(vs, leaf_terminated=vs[-1] in tree.genuine_leaves)

    @classmethod
    def from_child_indices(cls, tree: DirectedTree, picks: Sequence[int]) -> "PathSelector":
        """Build a path by picking the ``picks[d]``-th child at depth d."""
        v = 0
        vs = [v]
        for i, pick in enumerate(picks):
            kids = tree.children[v]
            if not kids:
                raise ValueError(f"path ends at depth {i}, no child to pick")
            if not 0 <= pick < len(kids):
                raise ValueError(f"child index {pick} out of range at depth {i}")
            v = kids[pick]
            vs.append(v)
        return cls(tuple(vs), leaf_terminated=v in tree.genuine_leaves)


def _assemble(labels: Sequence[str], edges: Sequence[tuple[int, int]]) -> tuple[DirectedTree, dict[int, int]]:
    """Validate and relabel an explicit description into BFS ids.

    Returns the tree together with the input-index -> id map, which the
    weight loader needs to attach per-edge weights.
    """
    n = len(labels)
    if n == 0:
        raise TreeSpecError("tree has zero vertices")
    parent_in: dict[int, int] = {}
    children_in: dict[int, list[int]] = {i: [] for i in range(n)}
    for e in edges:
        if len(e) != 2:
            raise TreeSpecError(f"edge {e!r} is not a pair")
        p, c = int(e[0]), int(e[1])
        for x in (p, c):
            if not 0 <= x < n:
                raise TreeSpecError(f"edge endpoint {x} outside 0..{n - 1}")
        if c in parent_in:
            raise TreeSpecError(f"two parents for vertex index {c}")
        parent_in[c] = p
        children_in[p].append(c)
    roots = [i for i in range(n) if i not in parent_in]
    if not roots:
        raise TreeSpecError("cycle detected: every vertex has a parent")
    if len(roots) > 1:
        raise TreeSpecError(f"disconnected: {len(roots)} parentless vertices")
    root = roots[0]

    order: list[int] = [root]
    depth_in = {root: 0}
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for c in children_in[u]:
            depth_in[c] = depth_in[u] + 1
            order.append(c)
    if len(order) < n:
        # Unreached vertices all have parents, so their ancestry loops.
        raise TreeSpecError("cycle detected among vertices unreachable from the root")

    new_id = {old: i for i, old in enumerate(order)}
    parent = tuple(None if old == root else new_id[parent_in[old]] for old in order)
    children = tuple(tuple(sorted(new_id[c] for c in children_in[old])) for old in order)
    depth = tuple(depth_in[old] for old in order)
    max_depth = max(depth)
    gens: list[list[int]] = [[] for _ in range(max_depth + 1)]
    for v, d in enumerate(depth):
        gens[d].append(v)
    generations = tuple(tuple(g) for g in gens)
    genuine = frozenset(v for v in range(n) if not children[v] and depth[v] < max_depth)
    tree = DirectedTree(
        parent=parent,
        children=children,
        depth=depth,
        generations=generations,
        labels=tuple(str(labels[old]) for old in order),
        genuine_leaves=genuine,
    )
    return tree, new_id


def _chain(depth: int) -> DirectedTree:
    if depth < 0:
        raise TreeSpecError("depth must be nonnegative")
    labels = [str(i) for i in range(depth + 1)]
    edges = [(i, i + 1) for i in range(depth)]
    return _assemble(labels, edges)[0]


def _broom(arms: int) -> DirectedTree:
    if arms < 1:
        raise TreeSpecError("broom needs at least one arm")
    labels = ["0"] + [str(i) for i in range(1, arms + 1)]
    edges = [(0, i) for i in range(1, arms + 1)]
    tree = _assemble(labels, edges)[0]
    # Arms are leaves of the untruncated object, not boundary artifacts.
    return replace(tree, genuine_leaves=frozenset(range(1, arms + 1)))


def _broom_leaf(arms: int) -> DirectedTree:
    """A broom whose first arm carries a single pendant vertex."""
    if arms < 2:
        raise TreeSpecError("broom_leaf needs at least two arms")
    labels = ["0"] + [str(i) for i in range(1, arms + 1)] + ["omega"]
    edges = [(0, i) for i in range(1, arms + 1)] + [(1, arms + 1)]
    tree = _assemble(labels, edges)[0]
    omega = tree.vertex_with_label("omega")
    genuine = frozenset(range(2, arms + 1)) | {omega}
    return replace(tree, genuine_leaves=genuine)


def _two_rays(depth: int) -> DirectedTree:
    if depth < 1:
        raise TreeSpecError("t2 needs depth >= 1")
    labels = ["(0,0)"]
    edges = []
    idx = {}
    k = 1
    for j in range(1, depth + 1):
        for i in (1, 2):
            labels.append(f"({i},{j})")
            idx[(i, j)] = k
            src = 0 if j == 1 else idx[(i, j - 1)]
            edges.append((src, k))
            k += 1
    return _assemble(labels, edges)[0]


def _random_structure(depth: int, seed: int, branching: Sequence[int]) -> DirectedTree:
    if depth < 0:
        raise TreeSpecError("depth must be nonnegative")
    choices = [int(b) for b in branching]
    if not choices or any(b < 1 for b in choices):
        raise TreeSpecError("branching law must list child counts >= 1")
    rng = np.random.default_rng([int(seed), 0])
    labels = ["0"]
    edges: list[tuple[int, int]] = []
    frontier = [0]
    count = 1
    for _ in range(depth):
        nxt = []
        counts = rng.choice(choices, size=len(frontier)).tolist()
        for u, n_children in zip(frontier, counts):
            for _ in range(n_children):
                labels.append(str(count))
                edges.append((u, count))
                nxt.append(count)
                count += 1
        frontier = nxt
    return _assemble(labels, edges)[0]


def _family_tree(family: str, params: Mapping[str, object], depth: Optional[int]) -> DirectedTree:
    if family in ("unilateral", "mad"):
        if depth is None:
            raise TreeSpecError(f"{family} requires a depth")
        return _chain(depth)
    if family == "broom":
        arms = int(params.get("arms", 5))
        if depth is not None and depth != 1:
            raise TreeSpecError("broom trees have depth 1")
        return _broom(arms)
    if family == "broom_leaf":
        arms = int(params.get("arms", 5))
        if depth is not None and depth != 2:
            raise TreeSpecError("broom_leaf trees have depth 2")
        return _broom_leaf(arms)
    if family in ("t2", "t2_zero"):
        if depth is None:
            raise TreeSpecError(f"{family} requires a depth")
        return _two_rays(depth)
    if family == "random":
        if depth is None:
            raise TreeSpecError("random requires a depth")
        seed = int(params.get("seed", 0))
        branching = params.get("branching", (1, 2))
        return _random_structure(depth, seed, branching)  # type: ignore[arg-type]
    raise TreeSpecError(f"unknown family {family!r}")


_EXPLICIT_KEYS = {"vertices", "edges", "weights"}
_PARENTS_KEYS = {"vertices", "parents", "weights"}
_FAMILY_KEYS = {"family", "params", "depth"}


def parse_tree_spec(spec: Mapping[str, object]) -> tuple[DirectedTree, Optional[list[float]]]:
    """Parse a tree-spec mapping into a tree plus optional edge weights.

    Three document shapes are accepted. The explicit shape lists vertices
    and edges (child weights may ride along, parallel to the edge list):

        {"vertices": ["a", "b"], "edges": [[0, 1]], "weights": [0.5]}

    The parents shape gives the parent of every vertex, null for the root
    at index 0, and optionally one weight per vertex (weights[0], at the
    root, is ignored):

        {"vertices": 3, "parents": [null, 0, 0], "weights": [0.0, 0.6, 0.8]}

    The family shape names a registered generator:

        {"family": "t2", "params": {"alpha": 0.5}, "depth": 8}

    Unknown top-level keys are rejected. Weights returned here are keyed
    by vertex id of the child endpoint, in id order starting at 1; the
    family shape returns None (weight rules live in the gallery).
    """
    keys = set(spec)
    if "family" in keys:
        extra = keys - _FAMILY_KEYS
        if extra:
            raise TreeSpecError(f"unknown keys in family spec: {sorted(extra)}")
        params = spec.get("params", {})
        if not isinstance(params, Mapping):
            raise TreeSpecError("params must be a mapping")
        depth = spec.get("depth")
        tree = _family_tree(str(spec["family"]), params, None if depth is None else int(depth))
        return tree, None
    if "parents" in keys:
        extra = keys - _PARENTS_KEYS
        if extra:
            raise TreeSpecError(f"unknown keys in tree spec: {sorted(extra)}")
        parents = spec["parents"]
        if not isinstance(parents, Sequence) or isinstance(parents, str) or not parents:
            raise TreeSpecError("parents must be a nonempty list")
        n = len(parents)
        if spec.get("vertices") != n:
            raise TreeSpecError(f"vertices is {spec.get('vertices')!r} but parents has {n} entries")
        if parents[0] is not None:
            raise TreeSpecError("parents[0] must be null: vertex 0 is the root")
        roots = [i for i, p in enumerate(parents) if p is None]
        if len(roots) > 1:
            raise TreeSpecError(f"second root: parents[{roots[1]}] is null")
        weights = spec.get("weights")
        if weights is not None:
            if not isinstance(weights, Sequence) or len(weights) != n:
                raise TreeSpecError("weights must have one entry per vertex")
            weights = weights[1:]
        edges = [(p, c) for c, p in enumerate(parents) if c]
        return _explicit([str(i) for i in range(n)], edges, weights)
    if "vertices" in keys:
        extra = keys - _EXPLICIT_KEYS
        if extra:
            raise TreeSpecError(f"unknown keys in tree spec: {sorted(extra)}")
        vertices = spec.get("vertices")
        edges = spec.get("edges")
        if not isinstance(vertices, Sequence) or isinstance(vertices, str):
            raise TreeSpecError("vertices must be a list of labels")
        if not isinstance(edges, Sequence):
            raise TreeSpecError("edges must be a list of [parent, child] pairs")
        return _explicit(list(vertices), [tuple(e) for e in edges], spec.get("weights"))
    raise TreeSpecError("tree spec needs one of 'vertices', 'parents' or 'family'")


def _explicit(
    labels: Sequence[str], edges: Sequence[tuple], weights_in
) -> tuple[DirectedTree, Optional[list[float]]]:
    """Assemble labels and edges; weights, if given, run parallel to the edges."""
    tree, new_id = _assemble(labels, edges)
    if weights_in is None:
        return tree, None
    if not isinstance(weights_in, Sequence) or len(weights_in) != len(edges):
        raise TreeSpecError("weights must parallel the edge list")
    by_vertex = [0.0] * tree.n_vertices
    for (_, c), w in zip(edges, weights_in):
        by_vertex[new_id[int(c)]] = float(w)
    return tree, [by_vertex[v] for v in range(1, tree.n_vertices)]


def build_tree(spec: Mapping[str, object]) -> DirectedTree:
    """Build a tree from a spec mapping, discarding any weight payload."""
    return parse_tree_spec(spec)[0]


def load_tree_file(path: str) -> Mapping[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, Mapping):
        raise TreeSpecError("tree spec file must hold a JSON object")
    return doc


def children_n(tree: DirectedTree, u: VertexId, n: int) -> list[VertexId]:
    """Vertices exactly n generations below u, ascending id order.

    Empty when depth(u) + n exceeds the truncation depth.
    """
    tree.check_vertex(u)
    if n < 0:
        raise ValueError("n must be nonnegative")
    frontier = [u]
    for _ in range(n):
        if not frontier:
            return []
        frontier = [w for v in frontier for w in tree.children[v]]
    return sorted(frontier)


def descendants(tree: DirectedTree, u: VertexId) -> list[VertexId]:
    """u together with everything below it, ascending id order."""
    tree.check_vertex(u)
    out = []
    stack = [u]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(tree.children[v])
    return sorted(out)


def enumerate_paths(tree: DirectedTree) -> list[PathSelector]:
    """All maximal root-anchored chains, ordered by terminal vertex id.

    On a tree that is leafless within the truncation every chain ends at
    the boundary generation and the count equals the number of depth-D
    vertices. Chains ending at a genuine leaf are flagged, not rejected.
    """
    paths = []
    for v in range(tree.n_vertices):
        if tree.children[v]:
            continue
        chain = [v]
        u = tree.parent[v]
        while u is not None:
            chain.append(u)
            u = tree.parent[u]
        chain.reverse()
        paths.append(PathSelector(tuple(chain), leaf_terminated=v in tree.genuine_leaves))
    return paths
