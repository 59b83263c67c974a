"""Rooted directed trees truncated at a fixed generation depth.

Vertex ids are dense integers assigned breadth first, so the root is id 0
and every generation and every sibling set occupies a contiguous id
range, so a tree is a few numpy arrays indexed by id. All list-valued
queries return vertices in ascending id order, which makes downstream
numerics reproducible. Trees are immutable after construction and safe
to share between threads.

A tree comes either from an explicit vertex/edge or parents description,
relabelled breadth first, or from a named family in ``FAMILIES``. Both
routes end in ``DirectedTree.from_bfs_parents``, which derives the
offsets from the breadth-first parent array. Childless vertices
strictly above the truncation depth are recorded as genuine leaves.
Childless vertices at the truncation depth are boundary vertices: they
are presumed to continue past the horizon unless the generating family
knows better (the broom families mark their arms as genuine leaves even
though the arms sit at the deepest generation).

``FAMILIES`` is the one registry of named families. Each entry holds the
allowed params with their defaults, the depth rule, the parent-array
builder, the weight rule and ``norm_attained_within_depth``; the gallery
turns an entry into a shift.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

VertexId = int


class TreeSpecError(ValueError):
    """Malformed tree description or symbol document: bad keys, cycles,
    missing root, a number of the wrong kind, ..."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ranges(bounds: np.ndarray) -> tuple[range, ...]:
    b = bounds.tolist()
    return tuple(map(range, b[:-1], b[1:]))


def _childless(first_child: np.ndarray) -> np.ndarray:
    """The ids u < len(first_child) - 1 without children, ascending: path terminals."""
    return np.flatnonzero(np.diff(first_child) == 0)


@dataclass(frozen=True, eq=False)
class DirectedTree:
    """A finite rooted directed tree with breadth-first integer ids.

    Three read-only intp arrays hold the tree: ``parent`` (-1 at the
    root), ``first_child`` (the children of u are the ids
    ``first_child[u]:first_child[u + 1]``) and ``gen_offsets`` (generation
    d is ``gen_offsets[d]:gen_offsets[d + 1]``). ``genuine_leaves`` holds
    the childless vertices known to be childless in the untruncated
    object, as opposed to artifacts of cutting at ``max_depth``; ``names``
    the labels a description gave, None for ``str(v)``. ``max_depth``,
    the ``children`` and ``generations`` range views, the ``depth`` array
    and ``labels`` are built on first use.
    """

    parent: np.ndarray
    first_child: np.ndarray
    gen_offsets: np.ndarray
    genuine_leaves: frozenset[VertexId]
    names: Optional[tuple[str, ...]] = None

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def max_depth(self) -> int:
        return len(self.gen_offsets) - 2

    children = cached_property(lambda self: _ranges(self.first_child))
    generations = cached_property(lambda self: _ranges(self.gen_offsets))

    @cached_property
    def depth(self) -> np.ndarray:
        sizes = np.diff(self.gen_offsets)
        return _read_only(np.repeat(np.arange(len(sizes), dtype=np.intp), sizes))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(str, range(self.n_vertices))) if self.names is None else self.names

    def labels_of(self, ids: Iterable[VertexId]) -> list[str]:
        """The labels of ``ids``, in order, formatting only those (``labels`` formats all N)."""
        return list(map(str, ids)) if self.names is None else [self.names[v] for v in ids]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedTree):
            return NotImplemented
        return (
            self.parent.tobytes() == other.parent.tobytes()
            and self.genuine_leaves == other.genuine_leaves
            and (self.names is other.names or self.labels == other.labels)
        )

    @classmethod
    def from_bfs_parents(
        cls,
        parent: Sequence[int],
        labels: Optional[Sequence[str]] = None,
        genuine_leaves: Optional[Iterable[VertexId]] = None,
    ) -> "DirectedTree":
        """Derive the child and generation offsets from a BFS parent array.

        ``parent[v]`` is the parent id of vertex v; entry 0, the root's, is
        ignored. Breadth-first ids make the entries nondecreasing with
        ``parent[v] < v``, so the children of u are the id range starting
        at the first v with ``parent[v] >= u``. Labels default to
        ``str(v)``; genuine leaves default to the childless vertices above
        the deepest generation.
        """
        n = len(parent)
        if n == 0:
            raise TreeSpecError("parent array is empty: a tree needs a root")
        p = np.concatenate(([-1], np.asarray(parent[1:], dtype=np.intp)))
        if n > 1 and (p[1] != 0 or np.any(np.diff(p[1:]) < 0) or np.any(p[1:] >= np.arange(1, n))):
            raise TreeSpecError("parent array is not in breadth-first order")
        first = np.searchsorted(p[1:], np.arange(n + 1)) + 1
        # Generation d + 2 starts at the first child of generation d + 1.
        offsets = [0, 1]
        while offsets[-1] < n:
            offsets.append(first.item(offsets[-1]))
        if genuine_leaves is None:
            genuine_leaves = _childless(first[: offsets[-2] + 1]).tolist()
        return cls(
            parent=_read_only(p),
            first_child=_read_only(first),
            gen_offsets=_read_only(np.array(offsets, dtype=np.intp)),
            genuine_leaves=frozenset(genuine_leaves),
            names=None if labels is None else tuple(labels),
        )

    def check_vertex(self, v: VertexId) -> None:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < self.n_vertices:
            raise ValueError(f"invalid vertex id {v!r}")

    def vertex_with_label(self, label: str) -> VertexId:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no vertex labelled {label!r}") from None

    def is_interior(self, v: VertexId) -> bool:
        """True when v sits strictly above the truncation boundary."""
        self.check_vertex(v)
        return v < self.gen_offsets.item(-2)

    def interior_vertices(self) -> range:
        return range(self.gen_offsets.item(-2))

    def is_leaf(self, v: VertexId) -> bool:
        self.check_vertex(v)
        return self.first_child.item(v) == self.first_child.item(v + 1)

    def levels_below(self, u: VertexId) -> Iterator[range]:
        """The descendants of u as one id range per generation, from u down."""
        lo, hi = u, u + 1
        while lo < hi:
            yield range(lo, hi)
            # The children of the ids lo:hi are the ids first_child[lo]:first_child[hi].
            lo, hi = self.first_child.item(lo), self.first_child.item(hi)


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
            kids = range(tree.first_child.item(v), tree.first_child.item(v + 1))
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
        if not isinstance(e, Sequence) or isinstance(e, str) or len(e) != 2:
            raise TreeSpecError(f"edge {e!r} is not a pair")
        p, c = _integer("edge endpoint", e[0]), _integer("edge endpoint", e[1])
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
    head = 0
    while head < len(order):
        order.extend(children_in[order[head]])
        head += 1
    if len(order) < n:
        # Unreached vertices all have parents, so their ancestry loops.
        raise TreeSpecError("cycle detected among vertices unreachable from the root")

    new_id = {old: i for i, old in enumerate(order)}
    parent = [0] + [new_id[parent_in[old]] for old in order[1:]]
    tree = DirectedTree.from_bfs_parents(parent, [str(labels[old]) for old in order])
    return tree, new_id


# The one copy of each reader of outside input (numbers, JSON files, unknown
# keys, coefficient tables), shared by tree specs and symbol documents.
def _integer(name: str, x: object) -> int:
    # The type test spares JSON ints the slow abstract-class check.
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        raise TreeSpecError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _at_most_maxsize(name: str, k: int) -> int:
    """k, refused past sys.maxsize, the largest size numpy, range and islice take."""
    if k > sys.maxsize:
        raise TreeSpecError(f"{name} must be at most sys.maxsize = {sys.maxsize}")
    return k


def _real(name: str, x: object) -> float:
    if type(x) not in (float, int) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise TreeSpecError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise TreeSpecError(f"{name} is too large for float64") from None


def _reals(name: str, xs: object) -> list[float]:
    if isinstance(xs, (str, bytes)) or not isinstance(xs, (Sequence, np.ndarray)):
        raise TreeSpecError(f"{name} must be a list of numbers, got {xs!r}")
    return [_real(f"{name}[{i}]", x) for i, x in enumerate(xs)]


def _refuse_unknown(keys: Iterable, allowed: set, what: str) -> None:
    extra = set(keys) - allowed
    if extra:
        raise TreeSpecError(f"unknown keys in {what}: {sorted(extra)}")


def _load_object(path: str, what: str) -> Mapping[str, object]:
    """The JSON object in the file at path; ``what`` names the file in refusals."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise TreeSpecError(f"{what} nests too deeply") from None
    if not isinstance(doc, Mapping):
        raise TreeSpecError(f"{what} must hold a JSON object")
    return doc


def _coefficients(orders: Iterable, value: Callable[[object], object]) -> dict[int, complex]:
    """{k: complex(value(k))} over the integer orders, in their order, zeros
    dropped; a value that is not finite or overflows is refused by order."""
    vals: dict[int, complex] = {}
    for key in orders:
        k = _integer("coefficient order", key)
        try:
            c = complex(value(key))
        except OverflowError:
            raise TreeSpecError(f"coefficient at order {k} overflows float64") from None
        if not cmath.isfinite(c):
            raise TreeSpecError(f"coefficient at order {k} must be finite, got {c}")
        if c != 0:
            vals[k] = c
    return vals


def _ray_parents(depth: int, p: Mapping[str, object]):
    return np.arange(-1, depth), None, None


def _broom_parents(depth: int, p: Mapping[str, object]):
    arms = _at_most_maxsize("arms", _integer("arms", p["arms"]))
    if arms < 1:
        raise TreeSpecError("broom needs at least one arm")
    # Arms are leaves of the untruncated object, not boundary artifacts.
    return np.zeros(arms + 1, dtype=np.intp), None, range(1, arms + 1)


def _broom_leaf_parents(depth: int, p: Mapping[str, object]):
    """A broom whose first arm carries a single pendant vertex, omega."""
    arms = _at_most_maxsize("arms", _integer("arms", p["arms"]))
    if arms < 2:
        raise TreeSpecError("broom_leaf needs at least two arms")
    labels = [*map(str, range(arms + 1)), "omega"]
    return np.array([0] * (arms + 1) + [1]), labels, range(2, arms + 2)


def _two_ray_parents(depth: int, p: Mapping[str, object]):
    """Ray i in {1, 2} holds the odd / even ids: (i, j) is vertex 2j - 2 + i."""
    labels = ["(0,0)"] + [f"({2 - v % 2},{(v + 1) // 2})" for v in range(1, 2 * depth + 1)]
    return np.maximum(np.arange(-2, 2 * depth - 1), 0), labels, None


def _random_parents(depth: int, p: Mapping[str, object]):
    """Per generation, each vertex draws its child count from the branching law."""
    seed = _integer("seed", p["seed"])
    law = p["branching"]
    if isinstance(law, (str, bytes)) or not isinstance(law, Sequence) or not law:
        raise TreeSpecError(f"branching must be a nonempty list of child counts, got {law!r}")
    law = [_integer("branching entry", b) for b in law]
    if min(law) < 1:
        raise TreeSpecError("branching law must list child counts >= 1")
    rng = np.random.default_rng([seed, 0])
    parent = [np.zeros(1, dtype=np.intp)]
    start, stop = 0, 1
    for _ in range(depth):
        kids = np.repeat(np.arange(start, stop), rng.choice(law, size=stop - start))
        parent.append(kids)
        start, stop = stop, stop + len(kids)
    return np.concatenate(parent), None, None


def _broom_weights(tree: DirectedTree, p: Mapping[str, object]) -> np.ndarray:
    arms = tree.first_child.item(1) - tree.first_child.item(0)
    if p["weights"] is None:
        return 1.0 / np.arange(1, arms + 1)
    vals = np.array(_reals("weights", p["weights"]))
    if len(vals) != arms:
        raise TreeSpecError(f"expected {arms} arm weights, got {len(vals)}")
    if np.any(vals <= 0):
        raise TreeSpecError("arm weights must be positive")
    return vals


def _broom_leaf_weights(tree: DirectedTree, p: Mapping[str, object]) -> np.ndarray:
    omega = _real("omega_weight", p["omega_weight"])
    if omega <= 0:
        raise TreeSpecError("omega_weight must be positive")
    return np.append(_broom_weights(tree, p), omega)


def _t2_weights(tree: DirectedTree, p: Mapping[str, object]) -> np.ndarray:
    if p["alpha"] is None:
        raise TreeSpecError("t2 requires params['alpha']")
    alpha = _real("alpha", p["alpha"])
    if not 0.0 < alpha < 1.0:
        raise TreeSpecError(f"alpha must lie in (0, 1), got {alpha}")
    return np.tile([1.0, alpha], tree.max_depth)


def _t2_zero_weights(tree: DirectedTree, p: Mapping[str, object]) -> np.ndarray:
    lam = np.tile([1.0, 2.0], tree.max_depth)
    lam[2:4] = 0.0  # both edges into generation 2
    return lam


def _random_weights(tree: DirectedTree, p: Mapping[str, object]) -> np.ndarray:
    rng = np.random.default_rng([int(p["seed"]), 1])  # type: ignore[call-overload]
    return np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=tree.n_vertices - 1))


def _balanced_weights(tree: DirectedTree, p: Mapping[str, object]) -> np.ndarray:
    """Each parent at depth d splits generation_norms[d]^2 over its children
    in proportion to uniform draws, so every interior column norm at depth d
    is exactly that target.

    One draw per child in id order is the stream the per-parent draws make.
    Sibling sums run per child count c on the (parents, c) block, where
    ``sum(axis=1)`` adds each row in the order ``draws[kids].sum()`` does,
    numpy's pairwise order from 8 children on (``np.add.reduceat`` does
    not).
    """
    depth = tree.max_depth
    norms = p["generation_norms"]
    if norms is None:
        norms = [1.0] * depth
    else:
        norms = _reals("generation_norms", norms)
        if len(norms) < depth:
            raise TreeSpecError(f"need {depth} generation norms, got {len(norms)}")
        if any(g <= 0 for g in norms):
            raise TreeSpecError("generation norms must be positive")
    rng = np.random.default_rng([int(p["seed"]), 2])  # type: ignore[call-overload]
    draws = rng.uniform(0.5, 1.5, size=tree.n_vertices - 1)
    first = tree.first_child[:-1] - 1  # index into draws of each parent's first child
    counts = np.diff(tree.first_child)
    sums = np.empty_like(draws)
    for c in np.unique(counts[counts > 0]).tolist():
        block = first[counts == c][:, None] + np.arange(c)
        sums[block] = draws[block].sum(axis=1)[:, None]
    return np.sqrt(np.square(norms)[tree.depth[1:] - 1] * (draws / sums))


@dataclass(frozen=True)
class Family:
    """One named family: how to build its tree and weigh its edges.

    ``build(depth, params)`` returns the BFS parent array, plus labels and
    genuine leaves where they differ from the ``from_bfs_parents``
    defaults (None otherwise). ``weights(tree, params)`` returns the
    weights of vertices 1..N-1. ``params`` lists every accepted param with
    its default. A family has either a fixed depth or a minimum one.
    """

    build: Callable[[int, Mapping[str, object]], tuple]
    weights: Callable[[DirectedTree, Mapping[str, object]], np.ndarray]
    params: Mapping[str, object] = field(default_factory=dict)
    min_depth: int = 0
    fixed_depth: Optional[int] = None
    norm_attained_within_depth: Optional[int] = None


# unilateral       single ray, every weight 1
# mad              single ray, weight n/(n-1) on the n-th edge (first is 1),
#                  so the weight product from the root to depth n is exactly n
# broom            root with finitely many arms, arms are genuine leaves;
#                  default arm weights 1/n (square summable surrogate)
# broom_leaf       broom whose first arm carries one pendant vertex
# t2               two rays glued at the root, upper weights 1, lower alpha
# t2_zero          two rays with a zero weight at the second step of each,
#                  ones above, twos below elsewhere
# random           seeded random structure, weights log-uniform in [0.5, 2]
# random_balanced  the random structure, per-parent weights drawn on a
#                  simplex so every generation shares one column norm
#
# The finite broom stands in for its countable-arm counterpart: kernel and
# image statements depend only on the arms actually present.
_RANDOM = {"seed": 0, "branching": (1, 2)}

FAMILIES: Mapping[str, Family] = {
    "unilateral": Family(
        _ray_parents, lambda t, p: np.ones(t.n_vertices - 1), norm_attained_within_depth=0
    ),
    "mad": Family(
        _ray_parents,
        lambda t, p: np.arange(1, t.n_vertices) / np.arange(0, t.n_vertices - 1).clip(1),
        min_depth=1,
        norm_attained_within_depth=1,
    ),
    "broom": Family(
        _broom_parents,
        _broom_weights,
        {"arms": 5, "weights": None},
        fixed_depth=1,
        norm_attained_within_depth=0,
    ),
    "broom_leaf": Family(
        _broom_leaf_parents,
        _broom_leaf_weights,
        {"arms": 5, "weights": None, "omega_weight": 1.0},
        fixed_depth=2,
        norm_attained_within_depth=1,
    ),
    "t2": Family(
        _two_ray_parents, _t2_weights, {"alpha": None}, min_depth=1, norm_attained_within_depth=0
    ),
    "t2_zero": Family(
        _two_ray_parents, _t2_zero_weights, min_depth=3, norm_attained_within_depth=2
    ),
    "random": Family(_random_parents, _random_weights, _RANDOM),
    "random_balanced": Family(
        _random_parents, _balanced_weights, {**_RANDOM, "generation_norms": None}
    ),
}


def _family(spec: Mapping[str, object], weigh: bool) -> tuple[DirectedTree, Optional[np.ndarray]]:
    """Check a family document against its ``FAMILIES`` entry and build it."""
    _refuse_unknown(spec, _FAMILY_KEYS, "family spec")
    name = str(spec["family"])
    fam = FAMILIES.get(name)
    if fam is None:
        raise TreeSpecError(f"unknown family {name!r}")
    given = spec.get("params", {})
    if not isinstance(given, Mapping):
        raise TreeSpecError("params must be a mapping")
    extra = set(given) - set(fam.params)
    if extra:
        raise TreeSpecError(f"{name} does not take params {sorted(extra)}")
    depth = spec.get("depth")
    if depth is not None:
        depth = _at_most_maxsize("depth", _integer("depth", depth))
    if fam.fixed_depth is not None:
        if depth not in (None, fam.fixed_depth):
            raise TreeSpecError(f"{name} trees have depth {fam.fixed_depth}, got {depth}")
        depth = fam.fixed_depth
    elif depth is None:
        raise TreeSpecError(f"{name} requires a depth")
    elif depth < fam.min_depth:
        raise TreeSpecError(f"{name} requires depth >= {fam.min_depth}")
    params = {**fam.params, **given}
    parent, labels, genuine = fam.build(depth, params)
    tree = DirectedTree.from_bfs_parents(parent, labels, genuine)
    return tree, fam.weights(tree, params) if weigh else None


_EXPLICIT_KEYS = {"vertices", "edges", "weights"}
_PARENTS_KEYS = {"vertices", "parents", "weights"}
_FAMILY_KEYS = {"family", "params", "depth"}


def parse_tree_spec(spec: Mapping[str, object]) -> tuple[DirectedTree, Optional[np.ndarray]]:
    """Parse a tree-spec mapping into a tree plus optional edge weights.

    Three document shapes are accepted. The explicit shape lists vertices
    and edges (child weights may ride along, parallel to the edge list):

        {"vertices": ["a", "b"], "edges": [[0, 1]], "weights": [0.5]}

    The parents shape gives the parent of every vertex, null for the root
    at index 0, and optionally one weight per vertex (weights[0], at the
    root, is ignored):

        {"vertices": 3, "parents": [null, 0, 0], "weights": [0.0, 0.6, 0.8]}

    The family shape names an entry of ``FAMILIES``, whose params and
    depth rule it must meet (a fixed-depth family may omit the depth):

        {"family": "t2", "params": {"alpha": 0.5}, "depth": 8}

    Unknown top-level keys are rejected. Weights are returned as a float64
    array over the child endpoints, vertex ids 1..N-1 in order; the family
    shape returns the family's weights, the other shapes None when the
    document carries none.
    """
    keys = set(spec)
    if "family" in keys:
        return _family(spec, weigh=True)
    if "parents" in keys:
        _refuse_unknown(keys, _PARENTS_KEYS, "tree spec")
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
            if isinstance(weights, str) or not isinstance(weights, Sequence) or len(weights) != n:
                raise TreeSpecError("weights must be a list with one entry per vertex")
            weights = [_real(f"weights[{v}]", w) for v, w in enumerate(weights) if v]  # the root's is ignored
        edges = [(_integer(f"parents[{c}]", p), c) for c, p in enumerate(parents) if c]
        return _explicit([str(i) for i in range(n)], edges, weights)
    if "vertices" in keys:
        _refuse_unknown(keys, _EXPLICIT_KEYS, "tree spec")
        vertices = spec.get("vertices")
        edges = spec.get("edges")
        if not isinstance(vertices, Sequence) or isinstance(vertices, str):
            raise TreeSpecError("vertices must be a list of labels")
        if not isinstance(edges, Sequence) or isinstance(edges, str):
            raise TreeSpecError("edges must be a list of [parent, child] pairs")
        return _explicit(list(vertices), edges, spec.get("weights"))
    raise TreeSpecError("tree spec needs one of 'vertices', 'parents' or 'family'")


def _explicit(
    labels: Sequence[str], edges: Sequence[tuple], weights_in
) -> tuple[DirectedTree, Optional[np.ndarray]]:
    """Assemble labels and edges; weights, if given, run parallel to the edges."""
    tree, new_id = _assemble(labels, edges)
    if weights_in is None:
        return tree, None
    weights_in = _reals("weights", weights_in)
    if len(weights_in) != len(edges):
        raise TreeSpecError("weights must parallel the edge list")
    by_vertex = np.zeros(tree.n_vertices)
    for (_, c), w in zip(edges, weights_in):
        by_vertex[new_id[c]] = w
    return tree, by_vertex[1:]


def build_tree(spec: Mapping[str, object]) -> DirectedTree:
    """Build a tree from a spec mapping, discarding any weight payload.

    A family's weight rule is not run, so its weight params (t2's alpha,
    say) may be left out here.
    """
    if "family" in spec:
        return _family(spec, weigh=False)[0]
    return parse_tree_spec(spec)[0]


def load_tree_file(path: str) -> Mapping[str, object]:
    return _load_object(path, "tree spec file")


def children_n(tree: DirectedTree, u: VertexId, n: int) -> list[VertexId]:
    """Vertices exactly n generations below u, ascending id order.

    Empty when depth(u) + n exceeds the truncation depth.
    """
    tree.check_vertex(u)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(next(islice(tree.levels_below(u), n, None), ()))


def descendants(tree: DirectedTree, u: VertexId) -> list[VertexId]:
    """u together with everything below it, ascending id order."""
    tree.check_vertex(u)
    return [v for level in tree.levels_below(u) for v in level]


def enumerate_paths(tree: DirectedTree) -> list[PathSelector]:
    """All maximal root-anchored chains, ordered by terminal vertex id.

    On a tree that is leafless within the truncation every chain ends at
    the boundary generation and the count equals the number of depth-D
    vertices. Chains ending at a genuine leaf are flagged, not rejected.
    """
    parent = tree.parent.tolist()
    paths = []
    for v in _childless(tree.first_child).tolist():
        chain = [v]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        chain.reverse()
        paths.append(PathSelector(tuple(chain), leaf_terminated=v in tree.genuine_leaves))
    return paths
