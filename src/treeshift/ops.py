"""The weighted shift on a truncated tree as a sparse linear operator.

The shift sends the basis vector at a vertex u to the weighted sum of the
basis vectors at the children of u. ``TruncatedShift`` keeps the operator
as its tree's arrays (parent, first child and generation offsets, in
breadth-first id order) plus one array of its own, the weight on the
edge entering each vertex. Squared power-column norms are derived from
them lazily, one order at a time, so every structure held here is
O(vertices).

Truncation contract: applying the shift to mass sitting at the deepest
generation drops that mass (its image lives past the horizon). The dropped
input norm is available through ``boundary_mass``. Quantities whose exact
value would need vertices past the horizon raise ``HorizonError`` instead
of silently degrading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .tree import DirectedTree, VertexId

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-9


class HorizonError(ValueError):
    """The requested quantity would be contaminated by the truncation."""


def close(a: float, b: float, abs_tol: float = DEFAULT_ABS_TOL, rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """Combined absolute/relative comparison used across the package."""
    return abs(a - b) <= max(abs_tol, rel_tol * max(abs(a), abs(b)))


def _weight_array(
    tree: DirectedTree, weights: Union[Mapping[VertexId, float], Sequence[float], np.ndarray]
) -> np.ndarray:
    """Validate child weights against ``tree``; entry 0 (the root) is 0.

    ``weights`` maps each child id 1..N-1 to its weight, or lists the
    weights of vertices 1..N-1 in id order. A weight must be >= 0 with a
    finite square, since the power norms are built from the squares. The
    result is read-only.
    """
    n = tree.n_vertices
    if isinstance(weights, Mapping):
        missing = next((v for v in range(1, n) if v not in weights), None)
        if missing is not None:
            raise ValueError(f"missing weight for vertex {missing}")
        if len(weights) != n - 1:
            extra = set(weights) - set(range(1, n))
            raise ValueError(f"weights given for unknown vertices {sorted(extra)}")
        weights = [weights[v] for v in range(1, n)]
    vals = np.asarray(weights, dtype=float)
    if vals.shape != (n - 1,):
        raise ValueError(f"expected {n - 1} weights for vertices 1..{n - 1}, got shape {vals.shape}")
    with np.errstate(over="ignore"):
        bad = ~(vals >= 0) | ~np.isfinite(vals * vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"weight at vertex {i + 1} must be finite and >= 0 with a finite square, "
            f"got {float(vals[i])}"
        )
    lam = np.zeros(n)
    lam[1:] = vals
    lam.flags.writeable = False
    return lam


class TreeVector:
    """A sparse vector over the vertex set, coefficients complex.

    The vector is two arrays, the ids of its nonzero coefficients and
    their values, in the order ``coeffs`` lists them: insertion order for
    a mapping, ascending ids for ``from_dense``. Every method but
    ``to_dense`` and ``from_dense`` costs O(entries), up to a log factor.
    The arithmetic is CPython's complex arithmetic on split parts, bitwise
    equal to a per-vertex dict loop, so an overflow or a 0 * inf term
    gives inf or NaN without a warning.
    """

    __slots__ = ("tree", "_ids", "_vals")

    def __init__(self, tree: DirectedTree, coeffs: Optional[Mapping[VertexId, complex]] = None):
        coeffs = coeffs or {}
        for v in coeffs:
            tree.check_vertex(v)
        n = len(coeffs)
        ids = np.fromiter(coeffs, np.intp, n)
        self.tree, self._ids, self._vals = tree, *_nonzero(ids, np.fromiter(coeffs.values(), complex, n))

    @classmethod
    def _of(cls, tree: DirectedTree, ids: np.ndarray, vals: np.ndarray) -> "TreeVector":
        """A vector from valid ids and their values, in order; exact zeros are pruned."""
        out = cls.__new__(cls)
        out.tree, out._ids, out._vals = tree, *_nonzero(ids, vals)
        return out

    @property
    def coeffs(self) -> dict[VertexId, complex]:
        """{id: value} in entry order, a new dict on each read."""
        return dict(zip(self._ids.tolist(), self._vals.tolist()))

    @classmethod
    def zero(cls, tree: DirectedTree) -> "TreeVector":
        return cls(tree)

    @classmethod
    def basis(cls, tree: DirectedTree, u: VertexId) -> "TreeVector":
        return cls(tree, {u: 1.0})

    def get(self, v: VertexId) -> complex:
        """The value at ``v``, 0 off the support; a scan of the entries on
        each call, so bulk reads go through one ``items()`` or ``to_dense()``."""
        hit = np.flatnonzero(self._ids == v)
        return complex(self._vals[hit[0]]) if hit.size else 0j

    def items(self):
        return self.coeffs.items()

    @property
    def support(self) -> list[VertexId]:
        return np.sort(self._ids).tolist()

    def norm(self) -> float:
        return math.sqrt(_sum_sq(self._vals))

    def _find(self, ids: np.ndarray) -> np.ndarray:
        """Each of ``ids``' position among ``self``'s entries, -1 where it has none.

        A sorted search over ``self``'s ids, so nothing costs O(N).
        """
        own = self._ids
        if not own.size:
            return np.full(len(ids), -1)
        order = np.argsort(own)
        pos = order[np.minimum(np.searchsorted(own, ids, sorter=order), len(own) - 1)]
        return np.where(own[pos] == ids, pos, -1)

    def inner(self, other: "TreeVector") -> complex:
        """<self, other> = sum of self(v) * conj(other(v)).

        The sum runs from 0 over ``other``'s entries in insertion order,
        skipping the vertices outside ``self``'s support.
        """
        _same_tree(self, other)
        pos = self._find(other._ids)
        a, b = self._vals[pos[pos >= 0]], other._vals[pos >= 0]
        with _quiet():
            sums = _row_sums(np.stack(_cmul(a.real, a.imag, b.real, -b.imag)))
        return complex(*sums.tolist())

    def plus(self, other: "TreeVector") -> "TreeVector":
        """As a dict of self's entries adds other's in turn: a shared id keeps
        its place, a new one goes last as 0j + other(v)."""
        _same_tree(self, other)
        pos = self._find(other._ids)
        hit = pos >= 0
        out, new = self._vals.copy(), other._vals[~hit]
        with _quiet():
            out[pos[hit]] += other._vals[hit]
            new = _join(new.real + 0.0, new.imag + 0.0)
        ids = np.concatenate([self._ids, other._ids[~hit]])
        return TreeVector._of(self.tree, ids, np.concatenate([out, new]))

    def minus(self, other: "TreeVector") -> "TreeVector":
        return self.plus(other.scaled(-1.0))

    def scaled(self, c: complex) -> "TreeVector":
        """c * self(v) at every v, as CPython multiplies complex(c) by a complex."""
        c = complex(c)
        with _quiet():
            vals = _join(*_cmul(c.real, c.imag, self._vals.real, self._vals.imag))
        return TreeVector._of(self.tree, self._ids, vals)

    def restricted(self, vertices: Iterable[VertexId]) -> "TreeVector":
        keep = np.isin(self._ids, list(vertices))
        return TreeVector._of(self.tree, self._ids[keep], self._vals[keep])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.tree.n_vertices, dtype=complex)
        out[self._ids] = self._vals
        return out

    @classmethod
    def from_dense(cls, tree: DirectedTree, arr: np.ndarray) -> "TreeVector":
        """The nonzero entries of a complex (N,) array, in ascending id order."""
        dense = np.asarray(arr, dtype=complex)
        if dense.shape != (tree.n_vertices,):
            raise ValueError(f"expected shape ({tree.n_vertices},), got {dense.shape}")
        ids = np.flatnonzero(dense)
        return cls._of(tree, ids, dense[ids])

    def __repr__(self) -> str:
        return f"TreeVector(support={len(self._ids)}, norm={self.norm():.6g})"


def _nonzero(ids: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries whose value has a nonzero or NaN part, in order."""
    keep = vals != 0
    return (ids, vals) if keep.all() else (ids[keep], vals[keep])


def _quiet() -> np.errstate:
    """A fresh errstate under which overflow and 0 * inf pass silently, as in CPython."""
    return np.errstate(over="ignore", invalid="ignore")


def _sum_sq(values: np.ndarray) -> float:
    """sum((c * c.conjugate()).real for c in values), bit for bit.

    Each term is CPython's re * re - im * (-im), and the sum runs left to
    right from 0.0 as ``sum()`` does.
    """
    with _quiet():  # inf and nan pass through as in sum()
        sq = values.real * values.real - values.imag * -values.imag
        return float(_row_sums(sq[None])[0])


def _same_tree(a, b) -> None:
    ta = a.tree
    tb = b.tree
    if ta is not tb and ta != tb:
        raise ValueError("tree mismatch between operands")


class TruncatedShift:
    """The weighted shift operator attached to one tree and its weights.

    The operator is ``tree``, whose arrays give the parent of every vertex
    and the id ranges of every sibling set and generation, plus ``lam``,
    the read-only weight on the edge entering each vertex (0 at the root).

    Power-column norms obey the bottom-up recursion

        norm(S^n e_u)^2 = sum over children w of u of
                          lam(w)^2 * norm(S^(n-1) e_w)^2

    which ``power_norms_sq`` evaluates one order at a time with a single
    ``np.bincount`` over the parent array (on a ray, one product). Order 1
    is kept for the lifetime of the shift; a single cursor holds the most
    recent higher order and moves forward from it, or restarts from order
    1 when a lower order is asked for. Memory stays O(vertices) at any
    depth. An order with an entry that overflows float64 raises
    ``ValueError``, at construction for order 1 and in ``power_norms_sq``
    above it. The weights (a mapping from child id to weight, or the
    weights of vertices 1..N-1 in id order) are validated once, against
    this tree, when ``lam`` is filled.
    """

    def __init__(
        self,
        tree: DirectedTree,
        weights: Union[Mapping[VertexId, float], Sequence[float], np.ndarray],
        norm_attained_within_depth: Optional[int] = None,
    ):
        self.tree = tree
        self.lam = _weight_array(tree, weights)
        self.norm_attained_within_depth = norm_attained_within_depth
        self._lam2 = self.lam * self.lam
        self._safe_orders = 0.0
        self._order1 = self._next_order(np.ones(tree.n_vertices), 1)
        self._order1.flags.writeable = False
        self._cursor = (1, self._order1)
        interior = self._order1[: tree.gen_offsets[tree.max_depth]]
        self.column_bound = float(interior.max()) if interior.size else 0.0
        # Every entry of order n is at most column_bound ** n, which stays
        # below 1e300, far from overflow, up to order _safe_orders.
        self._safe_orders = math.inf if self.column_bound <= 1 else 300 / math.log10(self.column_bound)

    def _next_order(self, prev: np.ndarray, n: int) -> np.ndarray:
        """Order n from order n - 1, on the prefix with depth <= max_depth - n.

        Above ``_safe_orders``, an entry that overflows float64, in a
        product or in the sum over the children, raises ``ValueError``
        naming the first such vertex. Up to it, nothing can overflow and
        the check is skipped.
        """
        if n <= self._safe_orders:
            return self._child_sums(prev, n)
        with np.errstate(over="ignore"):
            out = self._child_sums(prev, n)
        bad = ~np.isfinite(out)
        if bad.any():
            v = int(np.argmax(bad))
            raise ValueError(f"norm(S^{n} e_{v})^2 overflows float64 (power norms of order {n})")
        return out

    def _child_sums(self, prev: np.ndarray, n: int) -> np.ndarray:
        """Each vertex's sum of lam(w)^2 * prev(w) over its children w (a ray's sums are the terms)."""
        tree = self.tree
        m = len(prev)
        terms = self._lam2[1:m] * prev[1:]
        if tree.n_vertices == tree.max_depth + 1:
            return terms  # a ray: each sum has one term, and 0.0 + x is x
        return np.bincount(tree.parent[1:m], terms, minlength=tree.gen_offsets.item(tree.max_depth - n + 1))

    def power_norms_sq(self, n: int) -> np.ndarray:
        """Read-only array of norm(S^n e_u)^2 for every u with depth(u) + n <= max_depth.

        Those vertices form a prefix of the breadth-first ids, so entry u
        belongs to vertex u.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        depth = self.tree.max_depth
        if n > depth:
            raise HorizonError(f"no column survives {n} shifts at depth {depth}")
        k, arr = self._cursor
        if n == k:
            return arr
        if n == 0:
            out = np.ones(self.tree.n_vertices)
            out.setflags(write=False)
            return out
        if n < k:
            k, arr = 1, self._order1
        while k < n:
            k += 1
            arr = self._next_order(arr, k)
            arr.setflags(write=False)
        self._cursor = (k, arr)
        return arr

    @property
    def max_depth(self) -> int:
        return self.tree.max_depth

    def horizon(self, u: VertexId) -> int:
        self.tree.check_vertex(u)
        return self.tree.max_depth - self.tree.depth.item(u)

    def ancestor_products(self, v: VertexId) -> tuple[tuple[VertexId, float], ...]:
        """Pairs (k-th ancestor of v, weight product down from it to v)."""
        self.tree.check_vertex(v)
        out = [(v, 1.0)]
        prod = 1.0
        x = v
        while x != 0:
            prod *= self.lam.item(x)
            x = self.tree.parent.item(x)
            out.append((x, prod))
        return tuple(out)

    def power_norm_sq(self, u: VertexId, n: int) -> float:
        self.tree.check_vertex(u)
        if self.tree.depth.item(u) + n > self.tree.max_depth:
            raise HorizonError(
                f"norm(S^{n} e_{u}) needs vertices past depth {self.tree.max_depth}"
            )
        return float(self.power_norms_sq(n)[u])


@dataclass(frozen=True)
class PowerNormEstimate:
    """Largest power-column norm visible within the truncation window."""

    value: float
    attained_at: VertexId
    may_grow_beyond_horizon: bool


@dataclass(frozen=True)
class InjectivityResult:
    interior_injective: bool
    witness: Optional[VertexId]
    min_column_norm: Optional[float]
    has_genuine_leaves: bool

    @property
    def injective(self) -> bool:
        """Injectivity of the full operator: a genuine leaf kills a column."""
        return self.interior_injective and not self.has_genuine_leaves


def lambda_path(s: TruncatedShift, u: VertexId, v: VertexId) -> float:
    """Product of edge weights along the unique path from u down to v.

    Equals 1 when u == v; raises when v does not lie below u. Ancestors
    have smaller breadth-first ids, so the walk up from v stops below u.
    """
    tree = s.tree
    tree.check_vertex(u)
    tree.check_vertex(v)
    prod = 1.0
    x = v
    while x > u:
        prod *= s.lam.item(x)
        x = tree.parent.item(x)
    if x != u:
        raise ValueError(f"vertex {v} is not a descendant of {u}")
    return prod


def _cmul(ar, ai, br, bi):
    """CPython's complex product (ar + ai i)(br + bi i), on split parts.

    numpy's complex multiply rounds differently, so every product that
    must match CPython's complex arithmetic bit for bit is spelled out
    here. A float x enters as the parts (x, 0.0), as CPython promotes it.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _join(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """One complex array from its real and imaginary parts."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _mixed_product(lam: np.ndarray, f: np.ndarray) -> np.ndarray:
    """lam * f as CPython multiplies a float by a complex.

    The parts are lam * re - 0.0 * im and lam * im + 0.0 * re: the same
    values as scaling each part by lam, except for the sign of a zero part.
    """
    return _join(*_cmul(lam, 0.0, f.real, f.imag))


def _row_sums(t: np.ndarray) -> np.ndarray:
    """Each row summed left to right from 0.0, as ``sum()`` does.

    A cumulative sum is sequential where ``np.sum`` is pairwise; adding
    0.0 turns an all-negative-zero row into sum()'s +0.0.
    """
    if not t.shape[1]:
        return np.zeros(len(t))
    return np.cumsum(t, axis=1)[:, -1] + 0.0


def _prefix(s: TruncatedShift, f: np.ndarray) -> int:
    """The length L of an array operand: N, or ``gen_offsets[d + 1]`` for a depth d."""
    offsets = s.tree.gen_offsets
    size = f.shape[0] if f.ndim in (1, 2) else 0
    ok = size == s.tree.n_vertices
    if not ok and size > 0:
        ok = offsets.item(min(int(np.searchsorted(offsets, size)), len(offsets) - 1)) == size
    if f.dtype != np.complex128 or not ok:
        raise ValueError(
            f"expected a complex (L,) vector or (L, k) block, L = {s.tree.n_vertices} or another "
            f"generation boundary, got {f.dtype} {f.shape}"
        )
    return size


def apply_shift(
    s: TruncatedShift, f: Union[TreeVector, np.ndarray]
) -> Union[TreeVector, np.ndarray]:
    """(S f)(v) = lam(v) * f(parent(v)), zero at the root.

    Input mass at the deepest generation has no representable image and is
    dropped; ``boundary_mass`` measures how much.

    ``f`` may also be a complex array indexed by breadth-first vertex id:
    a vector of shape (L,) or a block of shape (L, k), whose columns are
    shifted at once; a new array of the same shape is returned. L is N,
    or more generally ``gen_offsets[d + 1]`` for a depth d: the array is
    then the prefix of ids at depth <= d and the shift acts on that
    depth-d truncation, so its result is the full-size result cut to L.
    Both are one row gather through the parent array. A vector is then
    multiplied as CPython multiplies the float lam(v) by a complex, so it
    matches the ``TreeVector`` route bit for bit, signs of zero parts
    included. A block scales its real and imaginary parts by lam, which
    agrees with it except for the sign of a zero part and skips two
    products per entry. The ``TreeVector`` route lists the children of
    each entry of f in turn and costs O(support + children) per call.
    """
    if isinstance(f, np.ndarray):
        size = _prefix(s, f)
        out = f[s.tree.parent[:size]]
        if f.ndim == 1:
            out = _mixed_product(s.lam[:size], out)
        else:
            parts = out.view(np.float64)
            parts *= s.lam[:size, None]
        out[0] = 0
        return out
    _same_tree(s, f)
    first = s.tree.first_child
    starts, counts = first[f._ids], first[f._ids + 1] - first[f._ids]
    # The children of each entry in turn, as one run of ids per entry.
    ids = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    with _quiet():
        vals = _mixed_product(s.lam[ids], np.repeat(f._vals, counts))
    return TreeVector._of(s.tree, ids, vals)


def apply_adjoint(
    s: TruncatedShift, f: Union[TreeVector, np.ndarray]
) -> Union[TreeVector, np.ndarray]:
    """(S* f)(u) = sum over children v of u of lam(v) * f(v).

    Exact matrix adjoint of ``apply_shift`` on the truncated space; the
    weights are real so no conjugation appears.

    On a complex (L,) vector or (L, k) block, with L as in
    ``apply_shift``, the products are CPython's float-times-complex
    products and each parent's sum is one sequential ``np.bincount`` over
    ascending child ids, real and imaginary parts separately. The
    ``TreeVector`` route sums over f's entry order instead, so the two
    agree bit for bit whenever f lists each parent's children in ascending
    id order, as every input in ascending id order does; it lists each
    parent where its first child comes in f and costs O(support log
    support) per call. On a prefix the result is the full-size result of
    the zero-padded input, cut to L.
    """
    if isinstance(f, np.ndarray):
        size = _prefix(s, f)
        k = 1 if f.ndim == 1 else f.shape[1]
        lam = s.lam[1:size]
        terms = _mixed_product(lam if f.ndim == 1 else lam[:, None], f[1:])
        # Entry (v, column) of the block is accumulated in position parent(v) * k + column.
        slots = (s.tree.parent[1:size, None] * k + np.arange(k)).ravel()
        out = np.empty(f.shape, dtype=complex)
        out.real = np.bincount(slots, terms.real.ravel(), minlength=size * k).reshape(f.shape)
        out.imag = np.bincount(slots, terms.imag.ravel(), minlength=size * k).reshape(f.shape)
        return out
    _same_tree(s, f)
    below = f._ids > 0  # the root has no parent
    kids = f._ids[below]
    with _quiet():
        terms = _mixed_product(s.lam[kids], f._vals[below])
        parents, first, slot = np.unique(s.tree.parent[kids], return_index=True, return_inverse=True)
        sums = _join(*(np.bincount(slot, x, minlength=len(parents)) for x in (terms.real, terms.imag)))
    order = np.argsort(first)  # each parent where its first child comes in f
    return TreeVector._of(s.tree, parents[order], sums[order])


def boundary_mass(s: TruncatedShift, f: TreeVector) -> float:
    """Norm of the part of f sitting at the deepest generation."""
    _same_tree(s, f)
    deepest = s.tree.gen_offsets.item(-2)  # the first id at the deepest generation
    return math.sqrt(_sum_sq(f._vals[f._ids >= deepest]))


def power_norm(s: TruncatedShift, u: VertexId, n: int) -> float:
    """norm(S^n e_u), exact whenever depth(u) + n <= max_depth."""
    return math.sqrt(s.power_norm_sq(u, n))


def operator_norm_power(s: TruncatedShift, n: int) -> PowerNormEstimate:
    """sup of norm(S^n e_u) over the columns visible in the window.

    The shift's n-th power has pairwise disjoint column supports, so this
    sup is the exact operator norm of the truncated power. Whether columns
    past the horizon could be larger is reported via the flag; generator
    families that know where the sup is attained clear it.
    """
    col = s.power_norms_sq(n)
    best_u = int(col.argmax())  # the first maximum, as a strict scan in id order finds
    bound = s.norm_attained_within_depth
    may_grow = n > 0 and (bound is None or bound + n > s.tree.max_depth)
    return PowerNormEstimate(math.sqrt(col.item(best_u)), best_u, may_grow)


def spectral_radius_estimate(s: TruncatedShift, n: int) -> float:
    """The finite surrogate norm(S^n)^(1/n); an upper-envelope sequence
    whose limit (over the untruncated operator) is the spectral radius."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return operator_norm_power(s, n).value ** (1.0 / n)


def is_injective(s: TruncatedShift) -> InjectivityResult:
    """Scan interior columns for a vanishing norm.

    The scan cannot see boundary columns, but a genuine leaf anywhere
    already kills its column on the untruncated tree, so the combined
    ``injective`` property folds that flag in.
    """
    best: Optional[float] = None
    witness: Optional[VertexId] = None
    if s.max_depth > 0:
        col = np.sqrt(s.power_norms_sq(1)[: s.tree.gen_offsets[s.max_depth]])
        witness = int(np.argmin(col))
        best = float(col[witness])
    ok = best is None or best > 0.0
    return InjectivityResult(
        interior_injective=ok,
        witness=witness,
        min_column_norm=best,
        has_genuine_leaves=bool(s.tree.genuine_leaves),
    )
