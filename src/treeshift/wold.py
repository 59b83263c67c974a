"""Wold-type decomposition machinery for the truncated shift.

The kernel of the adjoint splits into blocks with pairwise disjoint
supports: the root direction, plus one block per parent vertex u, the
orthogonal complement of lam^u in C^{Chi(u)}: the vectors on u's children
with sum of lam(v) * f(v) = 0 over the siblings. Blocks supported on the
boundary generation are exact for the truncated operator but meaningless
for the untruncated one, so kernel queries exclude them by default
(interior_only=True).

Peeling walks a vector down the orthogonal ladder: project onto the
kernel, left-invert the remainder through the diagonal of S* S, repeat.
Reconstruction re-applies the shift Horner style and is exact on the
truncated space (the residual carries the final remainder plus the
boundary-block part of the input).

Everything runs on arrays indexed by breadth-first id, where each sibling
set is a contiguous id range. ``KernelBasis`` holds the blocks of all
parents with c children and positive child weights as one
(parents, c - 1, c) array over their sibling ranges, built by one
modified Gram-Schmidt pass over the whole class; its ``blocks`` and
``vectors()`` are ``TreeVector`` views built on first use. Projection,
peeling and reconstruction work on dense complex vectors and convert
``TreeVector``s once at each edge. After k lifts a peel remainder lives
on the ids at depth <= max_depth - k, a prefix of the breadth-first ids,
and ``apply_shift``/``apply_adjoint`` act on such a prefix as on the
tree cut at that depth; so peel step k and the matching Horner step of
reconstruction run on that prefix only. Peel time is the sum over
generations t of N_t (max_depth - t + 1) for N_t vertices at depth t:
O(N) on a tree that branches geometrically, O(max_depth^2) on a ray.
The layers are stored on the kernel basis' support only, O(N) entries
in all.

Order contract. The arithmetic is the per-vertex ``TreeVector`` route's
(kept in the test suite as the bitwise reference), spelled out on real
and imaginary parts: CPython's complex products (``ops._cmul``) and
quotients, a float promoted to complex(x, 0.0), and every sum sequential
from 0.0 in the order that route visits its terms. Every inner product
walks the basis vector's keys in insertion order, as ``TreeVector.inner``
does, so ``project_kernel`` is bitwise equal to that route for every
finite input, in any order. ``peel`` and ``reconstruct``
are bitwise equal to it when it walks each sibling set in ascending id
order. It does for inputs in ascending id order that fill every
generation they touch, unless an intermediate entry cancels to exactly
zero; every CLI input is one. For other inputs the two routes add some
terms in another order and agree to rounding. Non-finite coefficients
are refused with ``ValueError``: a 0 * inf term would be NaN on the
dense route where the scalar route skips it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np
import scipy.linalg

from .ops import (
    HorizonError,
    TreeVector,
    TruncatedShift,
    _cmul,
    _join,
    _mixed_product,
    _row_sums,
    _same_tree,
    apply_adjoint,
    apply_shift,
    is_injective,
)
from .tree import DirectedTree, VertexId


@dataclass(frozen=True)
class KernelBlock:
    """Orthonormal vectors supported on one sibling set (or the root)."""

    parent: Optional[VertexId]
    vectors: tuple[TreeVector, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


@cache
def _key_order(c: int) -> np.ndarray:
    """Row j: the sibling positions of vector j's keys, (0, j + 1, 1, ..., j), then the rest.

    That is the order the scalar Gram-Schmidt pass inserts them in.
    """
    return np.array([[0, j + 1, *range(1, j + 1), *range(j + 2, c)] for j in range(c - 1)])


@dataclass(frozen=True)
class _SiblingClass:
    """The kernel blocks of every parent with c >= 2 children, all of positive weight."""

    parents: np.ndarray  # (P,) ascending parent ids
    first: np.ndarray  # (P,) id of each parent's first child
    vecs: np.ndarray  # (P, c - 1, c) complex; zero off each vector's keys


@dataclass(frozen=True, eq=False)
class KernelBasis:
    """Orthonormal kernel basis: per-class sibling arrays plus scalar blocks.

    ``classes`` holds the blocks of parents whose children all have
    positive weight, one ``_SiblingClass`` per child count. ``scalar``
    holds the root block and the blocks ``_sibling_block`` builds one by
    one: sibling sets with a zero weight, and the rare sets where the
    class pass would meet an exact zero. Blocks, and the
    flattened column order of ``vectors()``, run by ascending parent with
    the root first, then by vector within a block.
    """

    tree: DirectedTree
    interior_only: bool
    classes: tuple[_SiblingClass, ...]
    scalar: tuple[KernelBlock, ...]

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Block parents in block order (-1 for the root) and each block's first column."""
        parents = np.concatenate(
            [[-1 if b.parent is None else b.parent for b in self.scalar]]
            + [cls.parents for cls in self.classes]
        ).astype(np.intp)
        dims = np.concatenate(
            [[b.dim for b in self.scalar]]
            + [np.full(len(cls.parents), cls.vecs.shape[1]) for cls in self.classes]
        ).astype(np.intp)
        order = np.argsort(parents, kind="stable")
        dims = dims[order]
        return parents[order], np.cumsum(dims) - dims

    @cached_property
    def _support(self) -> np.ndarray:
        """Read-only ascending ids of the union of the block supports."""
        mask = np.zeros(self.tree.n_vertices, dtype=bool)
        for cls in self.classes:
            mask[cls.first[:, None] + np.arange(cls.vecs.shape[2])] = True
        for b in self.scalar:
            for vec in b.vectors:
                mask[list(vec.coeffs)] = True
        ids = np.flatnonzero(mask)
        ids.flags.writeable = False
        return ids

    @property
    def total_dim(self) -> int:
        dims = [b.dim for b in self.scalar] + [cls.vecs[..., 0].size for cls in self.classes]
        return sum(dims)

    @cached_property
    def blocks(self) -> tuple[KernelBlock, ...]:
        blocks = {-1 if b.parent is None else b.parent: b for b in self.scalar}
        for cls in self.classes:
            c = cls.vecs.shape[2]
            order = _key_order(c)
            keys = (cls.first[:, None, None] + order).tolist()
            vals = cls.vecs[:, np.arange(c - 1)[:, None], order].tolist()
            for u, ks, vs in zip(cls.parents.tolist(), keys, vals):
                vectors = tuple(
                    TreeVector(self.tree, dict(zip(k[: j + 2], v[: j + 2])))
                    for j, (k, v) in enumerate(zip(ks, vs))
                )
                blocks[u] = KernelBlock(parent=u, vectors=vectors)
        return tuple(blocks[u] for u in sorted(blocks))

    def vectors(self) -> list[TreeVector]:
        return [v for b in self.blocks for v in b.vectors]

    def support_depths(self, tree) -> list[int]:
        """Depth of the generation each block lives on."""
        parents = self._layout[0]
        return np.where(parents < 0, 0, tree.depth[np.maximum(parents, 0)] + 1).tolist()


@dataclass(frozen=True, eq=False)
class WoldComponents:
    """Kernel-valued layers f_k with f = sum of S^k f_k plus residual.

    ``kernel_ids`` holds the read-only ascending ids of the kernel basis'
    support: the root and every sibling set that carries a block. Layer k
    lives there at depth <= max_depth - k, a prefix of those ids, and
    ``layers[k]`` is a read-only 1-D array of its values at
    ``kernel_ids[:len(layers[k])]``; all layers together hold at most
    2N + max_depth + 1 entries. ``rest`` is the residual as a read-only
    (N,) array indexed by breadth-first id. ``components`` and
    ``residual`` are the same vectors as ``TreeVector``s in ascending id
    order, built on first use.
    """

    tree: DirectedTree
    kernel_ids: np.ndarray
    layers: tuple[np.ndarray, ...]
    rest: np.ndarray
    horizon: int

    @cached_property
    def components(self) -> tuple[TreeVector, ...]:
        ids = self.kernel_ids
        return tuple(
            TreeVector._of(self.tree, dict(zip(ids[: len(x)].tolist(), x.tolist()))) for x in self.layers
        )

    @cached_property
    def residual(self) -> TreeVector:
        return TreeVector.from_dense(self.tree, self.rest)


@dataclass(frozen=True)
class BalanceResult:
    ok: bool
    u: Optional[VertexId] = None
    v: Optional[VertexId] = None
    power: Optional[int] = None
    norm_u: Optional[float] = None
    norm_v: Optional[float] = None


@dataclass(frozen=True)
class GramResult:
    matrix: np.ndarray
    n: int
    m: int
    exceeds_horizon: bool

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0


def _has_zero(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Rows holding an entry with both parts zero, which a ``TreeVector`` prunes."""
    return ((re == 0) & (im == 0)).any(axis=-1)


def _sibling_block(s: TruncatedShift, u: VertexId) -> Optional[KernelBlock]:
    """The block of one parent by the scalar route; used for sibling sets with a zero weight."""
    tree = s.tree
    kids = tree.children[u]
    if not kids:
        return None
    weights = s.lam[kids.start:kids.stop].tolist()
    if all(w == 0 for w in weights):
        # Vacuous constraint: every sibling direction lies in the kernel.
        vecs = tuple(TreeVector.basis(tree, v) for v in kids)
        return KernelBlock(parent=u, vectors=vecs)
    pivot_pos = next(i for i, w in enumerate(weights) if w != 0)
    pivot = kids[pivot_pos]
    candidates = []
    for i, v in enumerate(kids):
        if i == pivot_pos:
            continue
        # lam(v) e_pivot - lam(pivot) e_v is annihilated exactly.
        candidates.append(TreeVector(tree, {pivot: weights[i], v: -weights[pivot_pos]}))
    vecs: list[TreeVector] = []
    for cand in candidates:
        work = cand
        for b in vecs:
            work = work.minus(b.scaled(work.inner(b)))
        nrm = work.norm()
        if nrm > 1e-14:
            vecs.append(work.scaled(1.0 / nrm))
    if not vecs:
        return None
    return KernelBlock(parent=u, vectors=tuple(vecs))


def _class_blocks(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_sibling_block`` for P parents with c >= 2 positive child weights at once.

    ``w`` is the (P, c) array of the weights. The pivot is the first
    child; candidate j is lam(v_(j+1)) e_(v_0) - lam(v_0) e_(v_(j+1)), and
    the modified Gram-Schmidt pass runs across all parents together,
    each operation spelled as the scalar route rounds it. Vector j's keys
    sit at positions 0..j + 1, inserted as (0, j + 1, 1, ..., j); the
    inner products with earlier vectors walk positions 0..k in ascending
    order and the norm walks the insertion order.

    Returns the (P, c - 1, c) vectors and a (P,) mask of parents where
    the scalar route would prune an exact zero or drop a short vector,
    which changes its key order; those parents go through
    ``_sibling_block`` instead.
    """
    p, c = w.shape
    re = np.zeros((p, c - 1, c))
    im = np.zeros((p, c - 1, c))
    bad = np.zeros(p, dtype=bool)
    # Extreme weights can overflow, or divide by a zero norm; those parents
    # come out marked and are rebuilt, so numpy's warnings would say nothing.
    with np.errstate(all="ignore"):
        for j in range(c - 1):
            i = j + 1
            wr = np.zeros((p, i + 1))
            wi = np.zeros((p, i + 1))
            wr[:, 0] = w[:, i]
            wr[:, i] = -w[:, 0]
            for k in range(j):
                # Vector k's keys sit at positions 0..k + 1.
                br, bi = re[:, k, : k + 2], im[:, k, : k + 2]
                tr, ti = _cmul(wr[:, : k + 1], wi[:, : k + 1], br[:, : k + 1], -bi[:, : k + 1])
                kr, ki = _row_sums(tr)[:, None], _row_sums(ti)[:, None]
                xr, xi = _cmul(kr, ki, br, bi)
                yr, yi = _cmul(-1.0, 0.0, xr, xi)
                wr[:, : k + 2] += yr
                wi[:, : k + 2] += yi
                bad |= ((kr == 0) & (ki == 0))[:, 0] | _has_zero(xr, xi)
                bad |= _has_zero(wr[:, : k + 2], wi[:, : k + 2])
            sq = (wr * wr - wi * -wi)[:, [0, i, *range(1, i)]]
            nrm = np.sqrt(_row_sums(sq))
            bad |= ~(nrm > 1e-14)
            re[:, j, : i + 1], im[:, j, : i + 1] = _cmul((1.0 / nrm)[:, None], 0.0, wr, wi)
            bad |= _has_zero(re[:, j, : i + 1], im[:, j, : i + 1])
    return _join(re, im), bad


def kernel_basis(s: TruncatedShift, interior_only: bool = True) -> KernelBasis:
    """Blocked orthonormal basis of the kernel of the adjoint.

    Per parent u the block has dimension (children count - 1) when some
    child weight is nonzero, and full dimension otherwise. Determinism
    comes from the fixed child order feeding a modified Gram-Schmidt pass.
    With interior_only the blocks supported on the boundary generation are
    dropped: their kernel membership is an artifact of cutting the tree.
    The parents whose children all have positive weight are built one
    child-count class at a time by ``_class_blocks``; the others, one by
    one, by ``_sibling_block``.
    """
    tree = s.tree
    # The parents are the ids before generation max_depth - 1 (interior) or max_depth.
    end = tree.gen_offsets.item(max(0, tree.max_depth - (1 if interior_only else 0)))
    first = tree.first_child[:end]
    count = tree.first_child[1 : end + 1] - first
    classes = []
    scalar = [KernelBlock(parent=None, vectors=(TreeVector.basis(tree, 0),))]
    for c in np.unique(count[count > 0]).tolist():
        parents = np.flatnonzero(count == c)
        w = s.lam[first[parents, None] + np.arange(c)]
        positive = (w > 0).all(axis=1)
        loop = ~positive  # a zero weight moves the pivot or prunes a key
        if c > 1 and positive.any():
            vecs, bad = _class_blocks(w[positive])
            loop[np.flatnonzero(positive)[bad]] = True
            keep = parents[positive][~bad]
            if keep.size:
                classes.append(_SiblingClass(keep, first[keep], vecs[~bad]))
        for u in parents[loop].tolist():
            block = _sibling_block(s, u)
            if block is not None:
                scalar.append(block)
    return KernelBasis(tree, interior_only, tuple(classes), tuple(scalar))


def _dense(s: TruncatedShift, f: TreeVector, what: str) -> np.ndarray:
    """f as a complex (N,) array; non-finite coefficients are refused."""
    _same_tree(s, f)
    x = f.to_dense()
    bad = ~np.isfinite(x)
    if bad.any():
        v = int(np.argmax(bad))
        raise ValueError(f"{what} needs finite coefficients; vertex {v} has {complex(x[v])}")
    return x


def _inner_sums(t: np.ndarray) -> np.ndarray:
    """<x, b_j> from the (P, c - 1, c) terms x(v) * conj(b_j(v)) at sibling positions.

    Each sum walks b_j's keys in insertion order, as ``TreeVector.inner``
    does; a zero term at a key outside x's support leaves it unchanged.
    """
    p, d, c = t.shape
    j = np.arange(d)
    return np.cumsum(t[:, j[:, None], _key_order(c)], axis=2)[:, j, j + 1] + 0.0


def _project(basis: KernelBasis, x: np.ndarray, upto: int) -> np.ndarray:
    """Projection of x onto the root block and the blocks of parents below ``upto``.

    Per block, each coefficient <x, b> is a sequential sum and the block's
    image sums coefficient times vector over the vectors in order, from
    0.0, as the scalar route accumulates it.
    """
    out = np.zeros_like(x)
    for cls in basis.classes:
        m = int(np.searchsorted(cls.parents, upto))
        if not m:
            continue
        rows = cls.first[:m, None] + np.arange(cls.vecs.shape[2])
        b = cls.vecs[:m]
        tr, ti = _cmul(x.real[rows][:, None, :], x.imag[rows][:, None, :], b.real, -b.imag)
        kr, ki = _inner_sums(tr)[:, :, None], _inner_sums(ti)[:, :, None]
        pr, pi = _cmul(kr, ki, b.real, b.imag)
        out.real[rows] = np.cumsum(pr, axis=1)[:, -1] + 0.0
        out.imag[rows] = np.cumsum(pi, axis=1)[:, -1] + 0.0
    for block in basis.scalar:
        if block.parent is not None and block.parent >= upto:
            continue
        acc: dict[VertexId, complex] = {}
        for b in block.vectors:
            coeff = sum(x.item(v) * c.conjugate() for v, c in b.items())
            for v, c in b.items():
                acc[v] = acc.get(v, 0j) + coeff * c
        for v, c in acc.items():
            out[v] = c
    return out


def project_kernel(s: TruncatedShift, f: TreeVector, basis: Optional[KernelBasis] = None) -> TreeVector:
    """Orthogonal projection of f onto the span of the kernel basis.

    Defaults to the interior basis, built afresh. Blocks have disjoint
    supports, so the projection is a per-block expansion in the
    orthonormal vectors. Non-finite coefficients, and a basis of another
    tree, raise ``ValueError``.
    """
    x = _dense(s, f, "project_kernel")
    if basis is None:
        basis = kernel_basis(s)
    _same_tree(s, basis)
    return TreeVector.from_dense(s.tree, _project(basis, x, s.tree.n_vertices))


def _pruned(x: np.ndarray) -> np.ndarray:
    """Entries with both parts zero become +0, as a ``TreeVector`` drops them."""
    x[x == 0] = 0
    return x


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.plus(b)``: b added where it has support, a kept elsewhere."""
    return _pruned(np.where(b != 0, a + b, a))


def _minus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.minus(b)``, which adds -1.0 * b with CPython's rounding."""
    return _plus(a, _mixed_product(-1.0, b))


def _placed(size: int, at, vals: np.ndarray) -> np.ndarray:
    """A complex (size,) array of zeros with ``vals`` written at ``at``."""
    out = np.zeros(size, dtype=complex)
    out[at] = vals
    return out


def peel(s: TruncatedShift, f: TreeVector, horizon: int) -> WoldComponents:
    """Split f into kernel-valued layers along powers of the shift.

    Requires the shift to be injective (interior columns nonvanishing and
    no genuine leaves); left inversion divides by the diagonal entries of
    S* S, which are the squared column norms. The residual collects the
    boundary-block part of f plus whatever survives ``horizon`` peels; for
    f supported strictly above the boundary and horizon = max_depth it
    vanishes identically. A NaN or infinite coefficient in f raises
    ``ValueError`` naming the first such vertex.

    Step k runs on the ids at depth <= max_depth - k, where the lifted
    remainder lives, and stores its layer on the kernel ids there.
    """
    _same_tree(s, f)
    if not 0 <= horizon <= s.max_depth:
        raise HorizonError(f"peel horizon {horizon} outside [0, {s.max_depth}]")
    inj = is_injective(s)
    if not inj.injective:
        reason = "tree has genuine leaves" if inj.interior_injective else (
            f"column at vertex {inj.witness} has norm {inj.min_column_norm}"
        )
        raise ValueError(f"peel needs an injective shift: {reason}")
    x = _dense(s, f, "peel")
    offsets, depth = s.tree.gen_offsets, s.max_depth
    # One basis for every peel step. Its boundary blocks live on the ids
    # from ``cut`` on.
    basis = kernel_basis(s, interior_only=False)
    ids = basis._support
    cut = offsets.item(max(1, depth))
    full = _project(basis, x, s.tree.n_vertices)
    # The interior layer and the boundary part have disjoint supports, so
    # subtracting both at once is subtracting one after the other.
    remainder = _minus(x, full)
    layers = [full[ids[: np.searchsorted(ids, cut)]]]
    boundary = full
    boundary[:cut] = 0
    for k in range(1, horizon + 1):
        # Lifting moves the remainder from depth <= depth - k + 1 up one
        # generation; the blocks it meets are those of parents above it.
        size = offsets.item(depth - k + 1)
        lifted = _left_invert(s, remainder, size)
        layer = _project(basis, lifted, offsets.item(depth - k))
        layers.append(layer[ids[: np.searchsorted(ids, size)]])
        remainder = _minus(lifted, layer)
    tail = remainder
    for d in range(depth - horizon + 1, depth + 1):
        if not tail.any():
            break
        tail = _pruned(apply_shift(s, _placed(offsets.item(d + 1), slice(len(tail)), tail)))
    rest = _plus(boundary, _placed(len(boundary), slice(len(tail)), tail))
    for arr in (*layers, rest):
        arr.flags.writeable = False
    return WoldComponents(s.tree, ids, tuple(layers), rest, horizon)


def _left_invert(s: TruncatedShift, r: np.ndarray, size: int) -> np.ndarray:
    """Apply the diagonal left inverse (S* S)^(-1) S* to a range vector.

    ``r`` holds the ids at depth <= t and the result the first
    ``size`` = ``gen_offsets[t]`` ids, those at depth <= t - 1. ``c / d``
    divides by complex(d, 0.0) in CPython: (re + im * 0.0) / d and
    (im - re * 0.0) / d. Peel has checked every interior d > 0.
    """
    up = apply_adjoint(s, r)[:size]
    col = s.power_norms_sq(1)[:size]
    out = np.empty_like(up)
    re, im = up.real, up.imag
    out.real = (re + im * 0.0) / col
    out.imag = (im - re * 0.0) / col
    return _pruned(out)


def reconstruct(s: TruncatedShift, comp: WoldComponents) -> TreeVector:
    """Sum of S^k components[k] plus the residual, Horner style, in ascending id order.

    The partial sum from layer k on lives on depth <= max_depth - k, so
    each step runs on that prefix of the ids.
    """
    offsets, ids = s.tree.gen_offsets, comp.kernel_ids
    acc = None
    for k in range(comp.horizon, -1, -1):
        size = offsets.item(s.max_depth - k + 1)
        layer = _placed(size, ids[: len(comp.layers[k])], comp.layers[k])
        if acc is not None:
            layer = _plus(layer, _pruned(apply_shift(s, _placed(size, slice(len(acc)), acc))))
        acc = layer
    return TreeVector.from_dense(s.tree, _plus(acc, comp.rest))


def _mismatch(val: np.ndarray, ref: np.ndarray, rel_tol: float, abs_tol: float) -> np.ndarray:
    return np.abs(val - ref) > np.maximum(abs_tol, rel_tol * np.maximum(val, ref))


def is_balanced(s: TruncatedShift, rel_tol: float = 1e-10, abs_tol: float = 1e-12) -> BalanceResult:
    """Are the interior column norms constant within each generation?

    The witness pairs the first vertex of the generation with the first
    vertex, in id order, whose column norm differs from it.
    """
    if s.max_depth == 0:
        return BalanceResult(ok=True)
    val = np.sqrt(s.power_norms_sq(1)[: s.tree.gen_offsets[s.max_depth]])
    first = s.tree.gen_offsets[s.tree.depth[: val.size]]  # first vertex of each generation
    bad = np.flatnonzero(_mismatch(val, val[first], rel_tol, abs_tol))
    if not bad.size:
        return BalanceResult(ok=True)
    v = int(bad[0])
    u = int(first[v])
    return BalanceResult(ok=False, u=u, v=v, power=1, norm_u=float(val[u]), norm_v=float(val[v]))


def is_locally_power_balanced(
    s: TruncatedShift, max_n: int, rel_tol: float = 1e-10, abs_tol: float = 1e-12
) -> BalanceResult:
    """Do all sibling pairs share power-column norms up to order max_n?

    Orders are capped at each sibling set's horizon, so every compared
    value is exact for the untruncated tree. The witness is the first
    mismatch by parent id, then order, then sibling id. Orders are
    scanned outermost so each one is built once; a mismatch found at
    order n leaves only parents of smaller id to scan at higher orders.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    first = s.tree.first_child[s.tree.parent[1:]]  # first sibling of vertices 1..N-1
    found: Optional[BalanceResult] = None
    limit = s.tree.n_vertices
    for n in range(1, min(max_n, s.max_depth) + 1):
        m = min(int(s.tree.gen_offsets[s.max_depth - n + 1]), limit)
        if m <= 1:
            break
        val = np.sqrt(s.power_norms_sq(n)[:m])
        bad = np.flatnonzero(_mismatch(val[1:], val[first[: m - 1]], rel_tol, abs_tol))
        if bad.size:
            v = int(bad[0]) + 1
            u = int(first[v - 1])
            found = BalanceResult(
                ok=False, u=u, v=v, power=n, norm_u=float(val[u]), norm_v=float(val[v])
            )
            limit = u
    return found or BalanceResult(ok=True)


def _basis_block(s: TruncatedShift, basis: KernelBasis) -> np.ndarray:
    """The basis as an N x dim block, one column per vector, scattered from its arrays."""
    block = np.zeros((s.tree.n_vertices, basis.total_dim), dtype=complex)
    parents, starts = basis._layout
    for cls in basis.classes:
        p, d, c = cls.vecs.shape
        cols = starts[np.searchsorted(parents, cls.parents)][:, None] + np.arange(d)
        rows = cls.first[:, None] + np.arange(c)
        block[rows[:, None, :], cols[:, :, None]] = cls.vecs
    for b in basis.scalar:
        col = starts.item(np.searchsorted(parents, -1 if b.parent is None else b.parent))
        for j, vec in enumerate(b.vectors):
            for v, c in vec.items():
                block[v, col + j] = c
    return block


def _ladder(s: TruncatedShift, basis: KernelBasis) -> Iterator[np.ndarray]:
    """S^0 B, S^1 B, ...: the basis block, then each block shifted on from the one before."""
    block = _basis_block(s, basis)
    while True:
        yield block
        block = apply_shift(s, block)


def power_images(s: TruncatedShift, basis: KernelBasis, top: int) -> list[np.ndarray]:
    """The ladder [S^0 B, ..., S^top B] of power images of the basis.

    Entry k is an N x dim block with one column per basis vector, in the
    column order of ``vectors()``. The basis is scattered once and each
    block is shifted on from the one before by ``apply_shift``, so the
    ladder costs ``top`` block shifts and holds top + 1 blocks. A basis of
    another tree raises ``ValueError``.
    """
    _same_tree(s, basis)
    if top < 0:
        raise ValueError("top power must be nonnegative")
    return list(islice(_ladder(s, basis), top + 1))


def _images_at(s: TruncatedShift, basis: KernelBasis, *powers: int) -> dict[int, np.ndarray]:
    """The blocks S^k B for k in ``powers``; the others are dropped as the ladder climbs."""
    return {k: b for k, b in zip(range(max(powers) + 1), _ladder(s, basis)) if k in powers}


def wold_gram(
    s: TruncatedShift,
    n: int,
    m: int,
    basis: KernelBasis,
    strict: bool = False,
    ladder: Optional[Sequence[np.ndarray]] = None,
) -> GramResult:
    """Pairings <S^n g_i, S^m h_j> over the flattened kernel basis.

    A block whose support depth plus max(n, m) passes the horizon is
    mapped to exact zero by the truncated powers; entries against it are
    therefore exact zeros of the truncated operator but say nothing about
    the untruncated one. Such gram matrices are flagged, and rejected when
    strict=True.

    ``ladder`` is ``power_images(s, basis, top)`` for some top >= max(n,
    m); one ladder serves every pair up to its top. Without it the two
    blocks are shifted on from the basis here. Either way the matrix is
    ``ladder[n].T @ conj(ladder[m])`` with the same bits. A basis of
    another tree, or a ladder that stops short of max(n, m), raises
    ``ValueError``.
    """
    _same_tree(s, basis)
    if n < 0 or m < 0:
        raise ValueError("powers must be nonnegative")
    if ladder is not None and len(ladder) <= max(n, m):
        raise ValueError(f"the ladder stops at power {len(ladder) - 1}, below {max(n, m)}")
    deepest = max(basis.support_depths(s.tree))
    exceeds = deepest + max(n, m) > s.max_depth
    if strict and exceeds:
        raise HorizonError(f"gram orders ({n}, {m}) pass the horizon for a block at depth {deepest}")
    images = _images_at(s, basis, n, m) if ladder is None else ladder
    return GramResult(matrix=images[n].T @ np.conj(images[m]), n=n, m=m, exceeds_horizon=exceeds)


def image_dim(s: TruncatedShift, n: int, basis: KernelBasis, tol: Optional[float] = None) -> int:
    """Numerical rank of S^n applied to the kernel-basis span."""
    _same_tree(s, basis)
    a = _images_at(s, basis, n)[n]
    if a.size == 0:
        return 0
    return int(np.linalg.matrix_rank(a, tol=tol))


def image_intersection_dim(
    s: TruncatedShift, n: int, m: int, basis: KernelBasis, tol: float = 1e-8
) -> int:
    """Dimension of the intersection of the n-th and m-th power images.

    Orthonormalizes both images and counts principal-angle cosines at
    least 1 - tol.
    """
    _same_tree(s, basis)
    images = _images_at(s, basis, n, m)
    a, b = scipy.linalg.orth(images[n]), scipy.linalg.orth(images[m])
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0
    cosines = scipy.linalg.svdvals(a.conj().T @ b)
    cosines = np.clip(cosines, 0.0, 1.0)
    return int(np.sum(cosines >= 1.0 - tol))
