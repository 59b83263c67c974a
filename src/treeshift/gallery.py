"""Named shift fixtures, plus path utilities.

The families, their params and their weight rules live in one table,
``tree.FAMILIES``. This module turns a family document into a shift
(``make``, ``load_shift``, ``random_balanced``) and names the families
in ``GALLERY_FAMILIES``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import tree as treemod
from .multiplier import Symbol, gamma_apply
from .ops import HorizonError, TreeVector, TruncatedShift
from .tree import PathSelector

GALLERY_FAMILIES = tuple(treemod.FAMILIES)


@dataclass(frozen=True)
class GallerySpec:
    family: str
    depth: Optional[int] = None
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ClassicalWeights:
    """Weight sequence of a shift restricted to one root-anchored path."""

    mu: tuple[float, ...]


def make(spec: Union[GallerySpec, Mapping[str, object]]) -> TruncatedShift:
    """Build the shift for a gallery spec (mapping form accepted)."""
    if isinstance(spec, GallerySpec):
        spec = {"family": spec.family, "depth": spec.depth, "params": spec.params}
    return load_shift(spec)


def random_balanced(
    seed: int,
    branching: Sequence[int],
    depth: int,
    generation_norms: Optional[Sequence[float]] = None,
) -> TruncatedShift:
    """Seeded random structure whose column norms are constant per generation.

    Each parent at depth d distributes generation_norms[d]^2 over its
    children through a normalized positive draw, so the squared column
    norm at every interior vertex of depth d is exactly that target.
    """
    params = {"seed": seed, "branching": branching, "generation_norms": generation_norms}
    return load_shift({"family": "random_balanced", "depth": depth, "params": params})


def load_shift(source: Union[str, Mapping[str, object]]) -> TruncatedShift:
    """Build a shift from a tree-spec document or a path to one.

    Family documents carry their family's weights. Explicit documents may
    carry a weights array parallel to the edges; without one every weight
    defaults to 1.
    """
    doc = treemod.load_tree_file(source) if isinstance(source, str) else source
    t, weights = treemod.parse_tree_spec(doc)
    lam = [1.0] * (t.n_vertices - 1) if weights is None else weights
    attained = None
    if "family" in doc:
        attained = treemod.FAMILIES[str(doc["family"])].norm_attained_within_depth
    return TruncatedShift(t, lam, norm_attained_within_depth=attained)


def path_restriction(s: TruncatedShift, p: PathSelector) -> ClassicalWeights:
    """Weights of the classical one-sided shift carried by a path.

    The k-th classical weight is the tree weight on the edge entering the
    (k+1)-st path vertex.
    """
    PathSelector.from_vertices(s.tree, p.vertices)  # revalidate against this tree
    return ClassicalWeights(mu=tuple(s.lam[list(p.vertices[1:])].tolist()))


def path_radius_estimate(s: TruncatedShift, p: PathSelector, n: int) -> float:
    """Tail infimum of (root-to-v weight product)^(1/depth(v)) along a path.

    Scans the path vertices of depth at least max(n, 1); a finite stand-in
    for the liminf that defines the path-induced radius, hence evidence
    rather than a certified limit. A product that overflows float64
    raises ``ValueError`` naming its vertex.
    """
    length = len(p.vertices) - 1
    if max(n, 1) > length:
        raise HorizonError(f"tail start {max(n, 1)} passes the end of a length-{length} path")
    PathSelector.from_vertices(s.tree, p.vertices)
    k = np.arange(length + 1)  # path vertex k as id k, at depth k
    return _tail_radii(k - 1, k, s.lam[list(p.vertices)], k[-1:], n, p.vertices).item(0)


def _tail_radii(parent, depth, lam, ends, tail_start: int, ids: Sequence[int]) -> np.ndarray:
    """The path estimate at each terminal in ends, from one pass over the
    breadth-first ids that keeps a walk's bits: prod(v) = prod(parent) * lam(v),
    CPython's ``**`` (``np.power`` rounds differently) and min(tail(parent), r(v)).
    A negative tail_start is refused, then a non-finite product, naming the
    shallowest one (as ``ids[v]``) on the path of the first such terminal."""
    if tail_start < 0:
        raise ValueError("n must be nonnegative")
    n, start = len(parent), max(tail_start, 1)
    prod, est = array("d", [1.0]) * n, array("d", [0.0]) * n
    for v, u, d, w in zip(range(1, n), parent[1:].tolist(), depth[1:].tolist(), lam[1:].tolist()):
        prod[v] = p = prod[u] * w
        r, e = p ** (1.0 / d), est[u]
        est[v] = r if d <= start or r < e else e
    bad = ends[~np.isfinite(np.frombuffer(prod)[ends])]
    if bad.size:
        v = bad.item(0)
        while not math.isfinite(prod[parent[v]]):
            v = parent.item(v)
        raise ValueError(f"the weight product from the root to vertex {ids[v]} overflows float64")
    return np.frombuffer(est)[ends]


def t2_expected_peel_coefficient(j: int, alpha: float) -> float:
    """Closed-form lower-ray layer coefficient for the two-ray shift.

    gamma_j = -1 / ((j + 1) * alpha^j * (1 + alpha^2)). Since |gamma_j|
    grows like alpha^(-j) / j, no square-summable layer expansion exists
    on the untruncated tree; the truncated peel still reproduces each
    coefficient exactly.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return -1.0 / ((j + 1) * alpha**j * (1.0 + alpha * alpha))


def mad_divergence_partial_sum(k_max: int, shift: Optional[TruncatedShift] = None) -> float:
    """Squared norm of the order-(-3/2) power-law image of the root vector
    on the telescoping ray, truncated at k_max.

    The image coefficient at depth k is k * k^(-3/2) = k^(-1/2), so the
    partial sum equals the k_max-th harmonic number and grows without
    bound; each value is necessary-condition evidence only.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if shift is None:
        shift = make(GallerySpec(family="mad", depth=k_max))
    elif k_max > shift.max_depth:
        raise HorizonError(f"k_max {k_max} passes the truncation depth {shift.max_depth}")
    phi = Symbol.power_law(-1.5, k_max)
    image = gamma_apply(shift, phi, TreeVector.basis(shift.tree, 0)).to_dense()
    return sum((c * c.conjugate()).real for c in image[1 : k_max + 1].tolist())  # vertex k at depth k
