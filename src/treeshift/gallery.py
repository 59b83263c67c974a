"""Named shift fixtures with their weight rules, plus path utilities.

Families
--------
unilateral       single ray, every weight 1
mad              single ray, weight n/(n-1) on the n-th edge (first is 1),
                 so the weight product from the root to depth n is exactly n
broom            root with finitely many arms, arms are genuine leaves;
                 default arm weights 1/n (square summable surrogate)
broom_leaf       broom whose first arm carries one pendant vertex
t2               two rays glued at the root, upper weights 1, lower alpha
t2_zero          two rays with a zero weight at the second step of each,
                 ones above, twos below elsewhere
random           seeded random structure, weights log-uniform in [0.5, 2]
random_balanced  seeded random structure, per-parent weights drawn on a
                 simplex so every generation shares one column norm

The finite broom stands in for its countable-arm counterpart: kernel and
image statements below depend only on the arms actually present.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import tree as treemod
from .multiplier import Symbol, gamma_apply
from .ops import HorizonError, TreeVector, TruncatedShift, WeightSystem
from .tree import DirectedTree, PathSelector, TreeSpecError, VertexId

GALLERY_FAMILIES = (
    "unilateral",
    "mad",
    "broom",
    "broom_leaf",
    "t2",
    "t2_zero",
    "random",
    "random_balanced",
)


@dataclass(frozen=True)
class GallerySpec:
    family: str
    depth: Optional[int] = None
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ClassicalWeights:
    """Weight sequence of a shift restricted to one root-anchored path."""

    mu: tuple[float, ...]


def _check_params(spec: GallerySpec, allowed: set) -> None:
    extra = set(spec.params) - allowed
    if extra:
        raise ValueError(f"{spec.family} does not take params {sorted(extra)}")


def _need_depth(spec: GallerySpec, at_least: int = 0) -> int:
    if spec.depth is None:
        raise ValueError(f"{spec.family} requires a depth")
    if spec.depth < at_least:
        raise ValueError(f"{spec.family} requires depth >= {at_least}")
    return spec.depth


def make(spec: Union[GallerySpec, Mapping[str, object]]) -> TruncatedShift:
    """Build the shift for a gallery spec (mapping form accepted)."""
    if isinstance(spec, Mapping):
        spec = GallerySpec(
            family=str(spec.get("family")),
            depth=None if spec.get("depth") is None else int(spec.get("depth")),  # type: ignore[arg-type]
            params=dict(spec.get("params", {})),  # type: ignore[arg-type]
        )
    fam = spec.family
    if fam == "unilateral":
        _check_params(spec, set())
        depth = _need_depth(spec)
        t = treemod.build_tree({"family": "unilateral", "depth": depth})
        lam = {v: 1.0 for v in range(1, t.n_vertices)}
        return TruncatedShift(t, lam, norm_attained_within_depth=0)
    if fam == "mad":
        _check_params(spec, set())
        depth = _need_depth(spec, 1)
        t = treemod.build_tree({"family": "mad", "depth": depth})
        lam = {v: 1.0 if v == 1 else v / (v - 1) for v in range(1, t.n_vertices)}
        return TruncatedShift(t, lam, norm_attained_within_depth=1)
    if fam == "broom":
        _check_params(spec, {"arms", "weights"})
        arms = int(spec.params.get("arms", 5))
        t = treemod.build_tree({"family": "broom", "params": {"arms": arms}})
        lam = _arm_weights(spec.params.get("weights"), arms)
        return TruncatedShift(t, lam, norm_attained_within_depth=0)
    if fam == "broom_leaf":
        _check_params(spec, {"arms", "weights", "omega_weight"})
        arms = int(spec.params.get("arms", 5))
        t = treemod.build_tree({"family": "broom_leaf", "params": {"arms": arms}})
        lam = _arm_weights(spec.params.get("weights"), arms)
        omega = float(spec.params.get("omega_weight", 1.0))  # type: ignore[arg-type]
        if omega <= 0:
            raise ValueError("omega_weight must be positive")
        lam[t.vertex_with_label("omega")] = omega
        return TruncatedShift(t, lam, norm_attained_within_depth=1)
    if fam == "t2":
        _check_params(spec, {"alpha"})
        depth = _need_depth(spec, 1)
        if "alpha" not in spec.params:
            raise ValueError("t2 requires params['alpha']")
        alpha = float(spec.params["alpha"])  # type: ignore[arg-type]
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        t = treemod.build_tree({"family": "t2", "depth": depth})
        ids = {label: v for v, label in enumerate(t.labels)}
        lam = {}
        for j in range(1, depth + 1):
            lam[ids[f"(1,{j})"]] = 1.0
            lam[ids[f"(2,{j})"]] = alpha
        return TruncatedShift(t, lam, norm_attained_within_depth=0)
    if fam == "t2_zero":
        _check_params(spec, set())
        depth = _need_depth(spec, 3)
        t = treemod.build_tree({"family": "t2_zero", "depth": depth})
        ids = {label: v for v, label in enumerate(t.labels)}
        lam = {}
        for j in range(1, depth + 1):
            lam[ids[f"(1,{j})"]] = 0.0 if j == 2 else 1.0
            lam[ids[f"(2,{j})"]] = 0.0 if j == 2 else 2.0
        return TruncatedShift(t, lam, norm_attained_within_depth=2)
    if fam == "random":
        _check_params(spec, {"seed", "branching"})
        depth = _need_depth(spec)
        seed = int(spec.params.get("seed", 0))  # type: ignore[arg-type]
        branching = tuple(spec.params.get("branching", (1, 2)))  # type: ignore[arg-type]
        t = treemod.build_tree(
            {"family": "random", "depth": depth, "params": {"seed": seed, "branching": branching}}
        )
        rng = np.random.default_rng([seed, 1])
        lo, hi = math.log(0.5), math.log(2.0)
        n = t.n_vertices
        lam = dict(zip(range(1, n), np.exp(rng.uniform(lo, hi, size=n - 1)).tolist()))
        return TruncatedShift(t, lam)
    if fam == "random_balanced":
        _check_params(spec, {"seed", "branching", "generation_norms"})
        depth = _need_depth(spec)
        seed = int(spec.params.get("seed", 0))  # type: ignore[arg-type]
        branching = tuple(spec.params.get("branching", (1, 2)))  # type: ignore[arg-type]
        norms = spec.params.get("generation_norms")
        return random_balanced(seed, branching, depth, norms)  # type: ignore[arg-type]
    raise ValueError(f"unknown gallery family {spec.family!r}")


def _arm_weights(weights: object, arms: int) -> dict[VertexId, float]:
    if weights is None:
        vals = [1.0 / n for n in range(1, arms + 1)]
    else:
        vals = [float(w) for w in weights]  # type: ignore[union-attr]
        if len(vals) != arms:
            raise ValueError(f"expected {arms} arm weights, got {len(vals)}")
        if any(w <= 0 for w in vals):
            raise ValueError("arm weights must be positive")
    return {n: vals[n - 1] for n in range(1, arms + 1)}


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
    t = treemod.build_tree(
        {"family": "random", "depth": depth, "params": {"seed": seed, "branching": tuple(branching)}}
    )
    if generation_norms is None:
        norms = [1.0] * max(depth, 1)
    else:
        norms = [float(g) for g in generation_norms]
        if len(norms) < depth:
            raise ValueError(f"need {depth} generation norms, got {len(norms)}")
        if any(g <= 0 for g in norms):
            raise ValueError("generation norms must be positive")
    rng = np.random.default_rng([int(seed), 2])
    lam: dict[VertexId, float] = {}
    for d, gen in enumerate(t.generations[:-1]):
        target = norms[d] * norms[d]
        for u in gen:
            kids = t.children[u]
            if not kids:
                continue
            draws = rng.uniform(0.5, 1.5, size=len(kids))
            shares = draws / draws.sum()
            for v, share in zip(kids, shares):
                lam[v] = math.sqrt(target * float(share))
    return TruncatedShift(t, lam)


def load_shift(source: Union[str, Mapping[str, object]]) -> TruncatedShift:
    """Build a shift from a tree-spec document or a path to one.

    Family documents route through the gallery weight rules. Explicit
    documents may carry a weights array parallel to the edges; without one
    every weight defaults to 1.
    """
    if isinstance(source, str):
        doc = treemod.load_tree_file(source)
    else:
        doc = source
    if "family" in doc:
        fam = str(doc["family"])
        if fam not in GALLERY_FAMILIES:
            raise TreeSpecError(f"unknown family {fam!r}")
        extra = set(doc) - {"family", "params", "depth"}
        if extra:
            raise TreeSpecError(f"unknown keys in family spec: {sorted(extra)}")
        return make(doc)
    t, weights = treemod.parse_tree_spec(doc)
    if weights is None:
        lam = {v: 1.0 for v in range(1, t.n_vertices)}
    else:
        lam = {v: weights[v - 1] for v in range(1, t.n_vertices)}
    return TruncatedShift(t, lam)


def path_restriction(s: TruncatedShift, p: PathSelector) -> ClassicalWeights:
    """Weights of the classical one-sided shift carried by a path.

    The k-th classical weight is the tree weight on the edge entering the
    (k+1)-st path vertex.
    """
    PathSelector.from_vertices(s.tree, p.vertices)  # revalidate against this tree
    return ClassicalWeights(mu=tuple(s.weights.lam[v] for v in p.vertices[1:]))


def path_radius_estimate(s: TruncatedShift, p: PathSelector, n: int) -> float:
    """Tail infimum of (root-to-v weight product)^(1/depth(v)) along a path.

    Scans the path vertices of depth at least max(n, 1); a finite stand-in
    for the liminf that defines the path-induced radius, hence evidence
    rather than a certified limit.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > len(p.vertices) - 1:
        raise HorizonError(f"tail start {n} passes the end of a length-{len(p.vertices) - 1} path")
    PathSelector.from_vertices(s.tree, p.vertices)
    lo = max(n, 1)
    best = math.inf
    prod = 1.0
    for k, v in enumerate(p.vertices[1:], start=1):
        prod *= s.weights.lam[v]
        if k >= lo:
            best = min(best, prod ** (1.0 / k))
    if best is math.inf:
        raise HorizonError("path has no vertex at or past the tail start")
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
    image = gamma_apply(shift, phi, TreeVector.basis(shift.tree, 0))
    total = 0.0
    for k in range(1, k_max + 1):
        c = image.get(k)
        total += (c * c.conjugate()).real
    return total
