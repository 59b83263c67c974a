"""Named shift fixtures, plus path utilities.

The families, their params and their weight rules live in one table,
``tree.FAMILIES``. This module turns a family document into a shift
(``make``, ``load_shift``, ``random_balanced``) and names the families
in ``GALLERY_FAMILIES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

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
    if n < 0:
        raise ValueError("n must be nonnegative")
    lo = max(n, 1)
    if lo > len(p.vertices) - 1:
        raise HorizonError(f"tail start {lo} passes the end of a length-{len(p.vertices) - 1} path")
    PathSelector.from_vertices(s.tree, p.vertices)
    best = math.inf
    prod = 1.0
    for k, (v, w) in enumerate(zip(p.vertices[1:], s.lam[list(p.vertices[1:])].tolist()), start=1):
        prod *= w
        if not math.isfinite(prod):
            raise ValueError(f"the weight product from the root to vertex {v} overflows float64")
        if k >= lo:
            best = min(best, prod ** (1.0 / k))
    return best


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
