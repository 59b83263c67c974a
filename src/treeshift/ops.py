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

    Exact-zero coefficients are pruned at construction so the stored
    support is the true support.
    """

    __slots__ = ("tree", "coeffs")

    def __init__(self, tree: DirectedTree, coeffs: Optional[Mapping[VertexId, complex]] = None):
        self.tree = tree
        clean: dict[VertexId, complex] = {}
        if coeffs:
            n = tree.n_vertices
            for v, c in coeffs.items():
                if not 0 <= v < n:
                    raise ValueError(f"invalid vertex id {v!r}")
                c = complex(c)
                if c != 0:
                    clean[v] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, tree: DirectedTree) -> "TreeVector":
        return cls(tree)

    @classmethod
    def basis(cls, tree: DirectedTree, u: VertexId) -> "TreeVector":
        tree.check_vertex(u)
        return cls(tree, {u: 1.0})

    def get(self, v: VertexId) -> complex:
        return self.coeffs.get(v, 0j)

    def items(self):
        return self.coeffs.items()

    @property
    def support(self) -> list[VertexId]:
        return sorted(self.coeffs)

    def norm(self) -> float:
        return math.sqrt(_sum_sq(np.fromiter(self.coeffs.values(), complex, len(self.coeffs))))

    def inner(self, other: "TreeVector") -> complex:
        """<self, other> = sum of self(v) * conj(other(v)).

        The sum runs from 0 over ``other``'s entries in insertion order,
        skipping the vertices outside ``self``'s support, so it costs
        O(len(other)) whatever the size of ``self``.
        """
        _same_tree(self, other)
        a = self.coeffs
        return sum(a[v] * c.conjugate() for v, c in other.coeffs.items() if v in a)

    @classmethod
    def _of(cls, tree: DirectedTree, coeffs: dict[VertexId, complex]) -> "TreeVector":
        """A vector from valid ids and Python complex values; zeros are pruned."""
        out = cls(tree)
        out.coeffs = {v: c for v, c in coeffs.items() if c}
        return out

    def plus(self, other: "TreeVector") -> "TreeVector":
        _same_tree(self, other)
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, 0j) + c
        return TreeVector._of(self.tree, out)

    def minus(self, other: "TreeVector") -> "TreeVector":
        """self.plus(other.scaled(-1.0))."""
        return self.plus(TreeVector._of(other.tree, {v: -1.0 * c for v, c in other.coeffs.items()}))

    def scaled(self, c: complex) -> "TreeVector":
        return TreeVector(self.tree, {v: c * x for v, x in self.coeffs.items()})

    def restricted(self, vertices: Iterable[VertexId]) -> "TreeVector":
        keep = set(vertices)
        return TreeVector(self.tree, {v: c for v, c in self.coeffs.items() if v in keep})

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.tree.n_vertices, dtype=complex)
        n = len(self.coeffs)
        out[np.fromiter(self.coeffs, np.intp, n)] = np.fromiter(self.coeffs.values(), complex, n)
        return out

    @classmethod
    def from_dense(cls, tree: DirectedTree, arr: np.ndarray) -> "TreeVector":
        """The nonzero entries of a complex (N,) array, in ascending id order."""
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != (tree.n_vertices,):
            raise ValueError(f"expected shape ({tree.n_vertices},), got {arr.shape}")
        nz = np.flatnonzero(arr)
        out = cls(tree)
        out.coeffs = dict(zip(nz.tolist(), arr[nz].tolist()))
        return out

    def __repr__(self) -> str:
        return f"TreeVector(support={len(self.coeffs)}, norm={self.norm():.6g})"


def _sum_sq(values: np.ndarray) -> float:
    """sum((c * c.conjugate()).real for c in values), bit for bit.

    Each term is CPython's re * re - im * (-im), and the sum runs left to
    right from 0.0 as ``sum()`` does.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass through as in sum()
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
    ``np.bincount`` over the parent array. Order 1 is kept for the
    lifetime of the shift; a single cursor holds the most recent higher
    order and moves forward from it, or restarts from order 1 when a
    lower order is asked for. Memory stays O(vertices) at any depth. An
    order with an entry that overflows float64 raises ``ValueError``, at
    construction for order 1 and in ``power_norms_sq`` above it. The
    weights (a mapping from child id to weight, or the weights of vertices
    1..N-1 in id order) are validated once, against this tree, when
    ``lam`` is filled.
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
        size = int(self.tree.gen_offsets[self.tree.max_depth - n + 1])
        m = len(prev)
        if n <= self._safe_orders:
            return np.bincount(self.tree.parent[1:m], self._lam2[1:m] * prev[1:], minlength=size)
        with np.errstate(over="ignore"):
            out = np.bincount(self.tree.parent[1:m], self._lam2[1:m] * prev[1:], minlength=size)
        bad = ~np.isfinite(out)
        if bad.any():
            v = int(np.argmax(bad))
            raise ValueError(f"norm(S^{n} e_{v})^2 overflows float64 (power norms of order {n})")
        return out

    def power_norms_sq(self, n: int) -> np.ndarray:
        """Read-only array of norm(S^n e_u)^2 for every u with depth(u) + n <= max_depth.

        Those vertices form a prefix of the breadth-first ids, so entry u
        belongs to vertex u.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n > self.max_depth:
            raise HorizonError(f"no column survives {n} shifts at depth {self.max_depth}")
        if n == 0:
            out = np.ones(self.tree.n_vertices)
            out.flags.writeable = False
            return out
        k, arr = self._cursor
        if n < k:
            k, arr = 1, self._order1
        while k < n:
            k += 1
            arr = self._next_order(arr, k)
            arr.flags.writeable = False
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
    must match the per-vertex ``TreeVector`` route bit for bit is spelled
    out here. A float x enters as the parts (x, 0.0), as CPython promotes it.
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
    products per entry. The ``TreeVector`` route costs O(support +
    children) per call.
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
    lam = s.lam
    first = s.tree.first_child
    out: dict[VertexId, complex] = {}
    for u, c in f.coeffs.items():
        for w in range(first.item(u), first.item(u + 1)):
            out[w] = lam.item(w) * c
    return TreeVector(s.tree, out)


def apply_adjoint(
    s: TruncatedShift, f: Union[TreeVector, np.ndarray]
) -> Union[TreeVector, np.ndarray]:
    """(S* f)(u) = sum over children v of u of lam(v) * f(v).

    Exact matrix adjoint of ``apply_shift`` on the truncated space; the
    weights are real so no conjugation appears.

    On a complex (L,) vector or (L, k) block, with L as in
    ``apply_shift``, the products are CPython's float-times-complex
    products and each parent's sum is one sequential ``np.bincount`` over
    ascending child ids, real and imaginary parts separately. That is the
    ``TreeVector`` route's arithmetic whenever its input lists each
    parent's children in ascending id order, as every input in ascending
    id order does. On a prefix the result is the full-size result of the
    zero-padded input, cut to L. The ``TreeVector`` route costs
    O(support) per call.
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
    lam = s.lam
    parent = s.tree.parent
    out: dict[VertexId, complex] = {}
    for v, c in f.coeffs.items():
        p = parent.item(v)
        if p >= 0:
            out[p] = out.get(p, 0j) + lam.item(v) * c
    return TreeVector(s.tree, out)


def boundary_mass(s: TruncatedShift, f: TreeVector) -> float:
    """Norm of the part of f sitting at the deepest generation."""
    _same_tree(s, f)
    deepest = s.tree.gen_offsets.item(-2)  # the first id at the deepest generation
    n = len(f.coeffs)
    ids = np.fromiter(f.coeffs, np.intp, n)
    return math.sqrt(_sum_sq(np.fromiter(f.coeffs.values(), complex, n)[ids >= deepest]))


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
    best_u = int(np.argmax(col))  # the first maximum, as a strict scan in id order finds
    best = col[best_u]
    bound = s.norm_attained_within_depth
    if n == 0:
        may_grow = False
    else:
        may_grow = bound is None or bound + n > s.max_depth
    return PowerNormEstimate(value=math.sqrt(best), attained_at=best_u, may_grow_beyond_horizon=may_grow)


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
