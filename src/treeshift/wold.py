"""Wold-type decomposition machinery for the truncated shift.

The kernel of the adjoint splits into blocks with pairwise disjoint
supports: the root direction, plus one block per parent vertex whose
children carry the single linear constraint sum of lam(v) * f(v) = 0 over
the siblings. Blocks supported on the boundary generation are exact for
the truncated operator but meaningless for the untruncated one, so kernel
queries exclude them by default (interior_only=True).

Peeling walks a vector down the orthogonal ladder: project onto the
kernel, left-invert the remainder through the diagonal of S* S, repeat.
Reconstruction re-applies the shift Horner style and is exact on the
truncated space (the residual carries the final remainder plus the
boundary-block part of the input).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .ops import (
    HorizonError,
    TreeVector,
    TruncatedShift,
    _same_tree,
    apply_adjoint,
    apply_shift,
    is_injective,
)
from .tree import VertexId


@dataclass(frozen=True)
class KernelBlock:
    """Orthonormal vectors supported on one sibling set (or the root)."""

    parent: Optional[VertexId]
    vectors: tuple[TreeVector, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class KernelBasis:
    blocks: tuple[KernelBlock, ...]
    interior_only: bool

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def vectors(self) -> list[TreeVector]:
        return [v for b in self.blocks for v in b.vectors]

    def support_depths(self, tree) -> list[int]:
        """Depth of the generation each block lives on."""
        return [0 if b.parent is None else tree.depth.item(b.parent) + 1 for b in self.blocks]


@dataclass(frozen=True)
class WoldComponents:
    """Kernel-valued layers f_k with f = sum of S^k f_k plus residual."""

    components: tuple[TreeVector, ...]
    residual: TreeVector
    horizon: int


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


def _sibling_block(s: TruncatedShift, u: VertexId) -> Optional[KernelBlock]:
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


def kernel_basis(s: TruncatedShift, interior_only: bool = True) -> KernelBasis:
    """Blocked orthonormal basis of the kernel of the adjoint.

    Per parent u the block has dimension (children count - 1) when some
    child weight is nonzero, and full dimension otherwise. Determinism
    comes from the fixed child order feeding a modified Gram-Schmidt pass.
    With interior_only the blocks supported on the boundary generation are
    dropped: their kernel membership is an artifact of cutting the tree.
    """
    tree = s.tree
    blocks = [KernelBlock(parent=None, vectors=(TreeVector.basis(tree, 0),))]
    # The parents are the ids before generation max_depth - 1 (interior) or max_depth.
    end = tree.gen_offsets.item(max(0, tree.max_depth - (1 if interior_only else 0)))
    for u in range(end):
        block = _sibling_block(s, u)
        if block is not None:
            blocks.append(block)
    return KernelBasis(blocks=tuple(blocks), interior_only=interior_only)


def project_kernel(s: TruncatedShift, f: TreeVector, basis: Optional[KernelBasis] = None) -> TreeVector:
    """Orthogonal projection of f onto the span of the kernel basis.

    Defaults to the interior basis, built afresh. Blocks have disjoint
    supports, so the projection is a per-block expansion in the
    orthonormal vectors.
    """
    _same_tree(s, f)
    if basis is None:
        basis = kernel_basis(s)
    out: dict[VertexId, complex] = {}
    for block in basis.blocks:
        for b in block.vectors:
            coeff = f.inner(b)
            if coeff == 0:
                continue
            for v, c in b.items():
                out[v] = out.get(v, 0j) + coeff * c
    return TreeVector(s.tree, out)


def _boundary_basis(s: TruncatedShift) -> KernelBasis:
    """The kernel blocks supported at the deepest generation, in id order."""
    parents = s.tree.generations[s.max_depth - 1] if s.max_depth else ()
    blocks = (_sibling_block(s, u) for u in parents)
    return KernelBasis(blocks=tuple(b for b in blocks if b is not None), interior_only=False)


def peel(s: TruncatedShift, f: TreeVector, horizon: int) -> WoldComponents:
    """Split f into kernel-valued layers along powers of the shift.

    Requires the shift to be injective (interior columns nonvanishing and
    no genuine leaves); left inversion divides by the diagonal entries of
    S* S, which are the squared column norms. The residual collects the
    boundary-block part of f plus whatever survives ``horizon`` peels; for
    f supported strictly above the boundary and horizon = max_depth it
    vanishes identically.
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
    basis = kernel_basis(s)
    boundary_part = project_kernel(s, f, _boundary_basis(s))
    layer = project_kernel(s, f, basis)
    components = [layer]
    remainder = f.minus(layer).minus(boundary_part)
    for _ in range(horizon):
        lifted = _left_invert(s, remainder)
        layer = project_kernel(s, lifted, basis)
        components.append(layer)
        remainder = lifted.minus(layer)
    tail = remainder
    for _ in range(horizon):
        if not tail.coeffs:
            break
        tail = apply_shift(s, tail)
    return WoldComponents(
        components=tuple(components), residual=boundary_part.plus(tail), horizon=horizon
    )


def _left_invert(s: TruncatedShift, r: TreeVector) -> TreeVector:
    """Apply the diagonal left inverse (S* S)^(-1) S* to a range vector."""
    up = apply_adjoint(s, r)
    col = s.power_norms_sq(1)
    out = {}
    for u, c in up.items():
        d = float(col[u])
        if d > 0:
            out[u] = c / d
    return TreeVector(s.tree, out)


def reconstruct(s: TruncatedShift, comp: WoldComponents) -> TreeVector:
    """Sum of S^k components[k] plus the residual, Horner style."""
    acc = TreeVector.zero(s.tree)
    for layer in reversed(comp.components):
        acc = layer.plus(apply_shift(s, acc)) if acc.coeffs else layer
    return acc.plus(comp.residual)


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


def _dense_images(s: TruncatedShift, n: int, basis: KernelBasis) -> np.ndarray:
    """S^n applied to the basis, as an N x dim block with one column per vector.

    The block is scattered once from the basis vectors and shifted n
    times as a whole by ``apply_shift``.
    """
    rows: list[VertexId] = []
    cols: list[int] = []
    vals: list[complex] = []
    for j, b in enumerate(basis.vectors()):
        for v, c in b.items():
            rows.append(v)
            cols.append(j)
            vals.append(c)
    block = np.zeros((s.tree.n_vertices, basis.total_dim), dtype=complex)
    block[rows, cols] = vals
    for _ in range(n):
        block = apply_shift(s, block)
    return block


def _image_pair(
    s: TruncatedShift, n: int, m: int, basis: KernelBasis
) -> tuple[np.ndarray, np.ndarray]:
    """The n-th and m-th power images; the higher one is shifted on from the lower.

    S^m B = S^(m-n) S^n B multiplies the same weights in the same order,
    so both blocks are bitwise what ``_dense_images`` gives for each power.
    """
    low = _dense_images(s, min(n, m), basis)
    high = low
    for _ in range(abs(m - n)):
        high = apply_shift(s, high)
    return (low, high) if n <= m else (high, low)


def wold_gram(
    s: TruncatedShift, n: int, m: int, basis: KernelBasis, strict: bool = False
) -> GramResult:
    """Pairings <S^n g_i, S^m h_j> over the flattened kernel basis.

    A block whose support depth plus max(n, m) passes the horizon is
    mapped to exact zero by the truncated powers; entries against it are
    therefore exact zeros of the truncated operator but say nothing about
    the untruncated one. Such gram matrices are flagged, and rejected when
    strict=True.

    The basis block is built once, for the lower power; the higher
    power's image is shifted on from it.
    """
    if n < 0 or m < 0:
        raise ValueError("powers must be nonnegative")
    depths = basis.support_depths(s.tree)
    exceeds = any(d + max(n, m) > s.max_depth for d in depths)
    if strict and exceeds:
        raise HorizonError(
            f"gram orders ({n}, {m}) pass the horizon for a block at depth {max(depths)}"
        )
    a, b = _image_pair(s, n, m, basis)
    return GramResult(matrix=a.T @ np.conj(b), n=n, m=m, exceeds_horizon=exceeds)


def image_dim(s: TruncatedShift, n: int, basis: KernelBasis, tol: Optional[float] = None) -> int:
    """Numerical rank of S^n applied to the kernel-basis span."""
    a = _dense_images(s, n, basis)
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
    a, b = (scipy.linalg.orth(x) for x in _image_pair(s, n, m, basis))
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0
    cosines = scipy.linalg.svdvals(a.conj().T @ b)
    cosines = np.clip(cosines, 0.0, 1.0)
    return int(np.sum(cosines >= 1.0 - tol))
