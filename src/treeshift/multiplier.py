"""Multiplication operators built from one-sided coefficient symbols.

A symbol assigns a complex coefficient to each shift order k >= 0. The
induced operator adds up, at every vertex v, contributions from all
ancestors u of v: the coefficient at order k multiplies the weight product
from the k-th ancestor down to v. Columns of the same operator walk the
descendant side instead; the two routes are kept independent so they can
check each other.

Rule-based symbols with infinite support are always paired with an
explicit truncation degree K and are materialized on [0, K] up front, so
the rule is never evaluated past its declared range. All results for such
symbols are understood at truncation level K.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .ops import TreeVector, TruncatedShift, _cmul, _join, _quiet, _row_sums, _same_tree
from .tree import TreeSpecError, VertexId, _at_most_maxsize, _coefficients, _integer, _real, _refuse_unknown


@dataclass(frozen=True)
class Symbol:
    """Coefficients phi(k) for k >= 0, zero past ``degree``.

    ``values`` holds the nonzero coefficients. For finite-support symbols
    ``degree`` is the largest stored order; for materialized rules it is
    the declared truncation bound K (coefficients past it read as zero).
    """

    values: Mapping[int, complex]
    degree: int
    rule_name: Optional[str] = None
    rule_params: tuple = ()

    def value(self, k: int) -> complex:
        if k < 0:
            raise ValueError("symbol orders are nonnegative")
        return self.values.get(k, 0j)

    def values_upto(self, k_max: int) -> list[complex]:
        return [self.value(k) for k in range(k_max + 1)]

    @classmethod
    def from_support(cls, entries) -> "Symbol":
        """Build from {k: value} or (k, value) pairs; a repeated order keeps its last value."""
        entries = entries if isinstance(entries, Mapping) else dict(entries)
        vals = _coefficients(entries, entries.__getitem__)
        if min(entries, default=0) < 0:
            raise ValueError("symbol orders are nonnegative")
        _at_most_maxsize("a symbol order", max(entries, default=0))
        return cls(values=vals, degree=max(vals) if vals else 0)

    @classmethod
    def from_rule(cls, fn: Callable[[int], complex], k_max: int, name: Optional[str] = None,
                  params: tuple = ()) -> "Symbol":
        if k_max < 0:
            raise ValueError("truncation degree must be nonnegative")
        _at_most_maxsize("the truncation degree K", k_max)
        vals = _coefficients(range(k_max + 1), fn)
        return cls(values=vals, degree=k_max, rule_name=name, rule_params=params)

    @classmethod
    def indicator(cls, k: int) -> "Symbol":
        if k < 0:
            raise ValueError("symbol orders are nonnegative")
        _at_most_maxsize("the indicator order k", k)
        return cls(values={k: 1.0 + 0j}, degree=k, rule_name="indicator", rule_params=(k,))

    @classmethod
    def ones(cls, k_max: int) -> "Symbol":
        return cls.from_rule(lambda k: 1.0, k_max, name="ones", params=(k_max,))

    @classmethod
    def power_law(cls, exponent: float, k_max: int) -> "Symbol":
        """phi(k) = k**exponent for k >= 1 and phi(0) = 0."""
        return cls.from_rule(
            lambda k: 0.0 if k == 0 else float(k) ** exponent,
            k_max,
            name="power_law",
            params=(float(exponent), k_max),
        )

    def to_json(self) -> dict:
        if self.rule_name in _RULES:
            names = [name for name, _ in _RULES[self.rule_name][1]]
            return {"rule": self.rule_name, **dict(zip(names, self.rule_params))}
        return {"support": [[k, self.values[k].real, self.values[k].imag] for k in sorted(self.values)]}

    @classmethod
    def from_json(cls, doc: Mapping) -> "Symbol":
        """Read {"coeffs": {"k": [re, im], ...}}, {"support": [[k, re, im], ...]}
        or {"rule": ...}, the last two as written by ``to_json``.

        Values are validated, not converted: an order is an int (a ``coeffs``
        key may also be an ASCII ``-?[0-9]+`` string), a part is
        an int or a float, a rule parameter has its ``_RULES`` type (an int
        or a float for a float), and none of them is a bool. Every refusal
        is a ``TreeSpecError`` that names the entry.
        """
        keys = set(doc)
        if "coeffs" in keys:
            _expect_keys(keys, {"coeffs"})
            coeffs = doc["coeffs"]
            if not isinstance(coeffs, Mapping):
                raise TreeSpecError("symbol 'coeffs' must map orders to [re, im] pairs")
            return cls.from_support((_coeffs_order(k), _re_im(c, k)) for k, c in coeffs.items())
        if "support" in keys:
            _refuse_unknown(keys, {"support"}, "symbol spec")
            support = doc["support"]
            if not isinstance(support, (list, tuple)):
                raise TreeSpecError(f"symbol 'support' must be a list of [k, re, im] triples, got {support!r}")
            return cls.from_support(_support_entry(i, e) for i, e in enumerate(support))
        if "rule" in keys:
            params = _rule(doc["rule"])[1]
            _expect_keys(keys, {"rule", *(name for name, _ in params)})
            values = [_READ[typ](f"symbol rule parameter {name!r}", doc[name]) for name, typ in params]
            return _rule_symbol(doc["rule"], values)
        raise TreeSpecError("symbol spec needs one of 'coeffs', 'support' or 'rule'")


# Named symbol rules: constructor and its (parameter name, type) list.
# ``to_json``/``from_json`` and the CLI's name:a:b grammar read this table.
_RULES: dict[str, tuple[Callable[..., Symbol], tuple[tuple[str, type], ...]]] = {
    "ones": (Symbol.ones, (("K", int),)),
    "indicator": (Symbol.indicator, (("k", int),)),
    "power_law": (Symbol.power_law, (("exponent", float), ("K", int))),
}
_READ = {int: _integer, float: _real}


def _rule(name) -> tuple:
    if not isinstance(name, str) or name not in _RULES:
        raise TreeSpecError(f"unknown symbol rule {name!r}")
    return _RULES[name]


def _rule_symbol(name, values: Sequence) -> Symbol:
    """Build the named rule from its parameter values, in ``_RULES`` order."""
    build, params = _rule(name)
    if len(values) != len(params):
        raise ValueError(f"symbol rule {name!r} takes {[p for p, _ in params]}, got {list(values)}")
    try:
        args = [typ(x) for x, (_, typ) in zip(values, params)]
    except (TypeError, ValueError):
        raise ValueError(f"bad parameters for symbol rule {name!r}: {list(values)}") from None
    return build(*args)


def _parts(what: str, re, im) -> complex:
    return complex(_real(f"the real part of {what}", re), _real(f"the imaginary part of {what}", im))


def _re_im(pair, k) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise TreeSpecError(f"coefficient at order {k} must be a [re, im] pair, got {pair!r}")
    return _parts(f"the coefficient at order {k}", *pair)


def _coeffs_order(key) -> int:
    """A 'coeffs' key: an int, or an order written as a string, as JSON object keys are.

    Only ASCII ``-?[0-9]+`` strings are read, so "1_0", " 3" and "+3" are
    refused, and so is a bool or a float key of a library mapping.
    """
    if isinstance(key, int) and not isinstance(key, bool):
        return key
    if isinstance(key, str) and re.fullmatch(r"-?[0-9]+", key):
        return int(key)
    raise TreeSpecError(f"symbol 'coeffs' key {key!r} is not an integer order")


def _support_entry(i: int, entry) -> tuple[int, complex]:
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise TreeSpecError(f"symbol support entry {i} must be a [k, re, im] triple, got {entry!r}")
    k = _integer(f"the order of symbol support entry {i}", entry[0])
    return k, _parts(f"symbol support entry {i}", *entry[1:])


def _expect_keys(keys: set, allowed: set) -> None:
    if keys != allowed:
        raise TreeSpecError(f"symbol spec keys {sorted(keys)} do not match {sorted(allowed)}")


@dataclass(frozen=True)
class TrigPoly:
    """A trigonometric polynomial sum of c_k w^k over k in [-degree, degree]."""

    coeffs: Mapping[int, complex]
    degree: int

    @classmethod
    def from_coeffs(cls, entries) -> "TrigPoly":
        entries = entries if isinstance(entries, Mapping) else dict(entries)
        vals = _coefficients(entries, entries.__getitem__)
        deg = max((abs(k) for k in vals), default=0)
        return cls(coeffs=vals, degree=deg)

    @classmethod
    def monomial(cls, k: int) -> "TrigPoly":
        return cls.from_coeffs({k: 1.0})

    def hat(self, k: int) -> complex:
        """Nonnegative-order coefficient extraction; zero off support."""
        if k < 0:
            raise ValueError("hat extraction is defined for k >= 0")
        return self.coeffs.get(k, 0j)

    def __call__(self, w: complex) -> complex:
        total = 0j
        for k, c in self.coeffs.items():
            total += c * w ** k
        return total

    def reflected(self) -> "TrigPoly":
        """The polynomial w -> p(conj(w)) on the unit circle (k -> -k)."""
        return TrigPoly.from_coeffs({-k: c for k, c in self.coeffs.items()})


def fejer_symbol(n: int) -> TrigPoly:
    """The degree-n Cesaro averaging kernel with hat(k) = 1 - |k|/(n+1).

    Nonnegative on the circle with unit mean.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return TrigPoly.from_coeffs({k: _fejer_hat(n, k) for k in range(-n, n + 1)})


def _fejer_hat(n: int, k: int) -> float:
    return 1.0 - abs(k) / (n + 1)


def hadamard(p: TrigPoly, phi: Symbol) -> Symbol:
    """Entrywise product of the hat coefficients: k -> p.hat(k) * phi(k)."""
    out = _coefficients(range(min(p.degree, phi.degree) + 1), lambda k: p.hat(k) * phi.value(k))
    return Symbol(values=out, degree=max(out) if out else 0)


def gamma_apply(s: TruncatedShift, phi: Symbol, f: TreeVector) -> TreeVector:
    """Apply the multiplication operator by its ancestor-sum formula.

    output(v) = sum over 0 <= k <= depth(v) of
                (weight product from the k-th ancestor of v down to v)
                * phi(k) * f(k-th ancestor of v).

    The output is 0 below depth d + min(K, D), with d the depth of f's
    deepest support vertex and K the symbol degree, so only the ids up to
    that depth (capped at D) are computed: f is scattered into a dense
    prefix of that length and the result holds its nonzero entries. The
    cost so follows the prefix f reaches, not the tree. This is a one-row
    batch of ``_gamma_rows``, the kernel the circle quadrature runs on a
    chunk of rotated symbols at once; within the prefix, orders past
    depth(v) add exact zeros at v. The result is bitwise that of the
    scalar formula summed over k in ascending order. The one difference
    from running the kernel on the whole tree is past the prefix: there a
    weight product that overflowed to inf meets f = 0 and gives NaN, which
    the prefix leaves out (the output is 0 there).
    """
    _same_tree(s, f)
    k_max = min(phi.degree, s.max_depth)
    p = np.array([phi.values_upto(k_max)], dtype=complex)
    top = int(s.tree.depth[f._ids].max(initial=0))
    x = np.zeros(int(s.tree.gen_offsets[min(top + k_max, s.max_depth) + 1]), dtype=complex)
    x[f._ids] = f._vals
    acc_re, acc_im = _gamma_rows(s, p.real, p.imag, x.real, x.imag)
    out = _join(acc_re[0], acc_im[0])
    ids = np.flatnonzero(out)
    return TreeVector._of(s.tree, ids, out[ids])


def _gamma_buffers(rows: int, n: int) -> tuple[np.ndarray, ...]:
    """Work arrays of ``_gamma_rows`` for up to ``rows`` symbols over n ids."""
    return (*(np.empty((rows, n)) for _ in range(6)), np.empty((3, n)), np.empty((3, n)))


def _gamma_rows(
    s: TruncatedShift,
    p_re: np.ndarray,
    p_im: np.ndarray,
    f_re: np.ndarray,
    f_im: np.ndarray,
    buffers: Optional[tuple[np.ndarray, ...]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ancestor sum of f for a batch of symbols, one per row of p.

    Row r of the result is the multiplier of the symbol with order-k
    coefficient p_re[r, k] + i p_im[r, k] applied to f, as dense real and
    imaginary arrays over the vertex ids. Complex values are kept as
    separate real and imaginary float64 arrays and every product is
    CPython's rounding. A row whose order-k coefficient is zero skips
    that order, as the scalar formula does: it is left out of that
    order's products, not computed and masked, so an inf weight product
    meets no 0 coefficient there.

    The rows cover the ids below n = len(f_re), a prefix of whole
    generations: every vertex's ancestors lie in it, and the full tree is
    n = N. Every order works on whole rows of n entries. The order-k weight
    products prod(v) = prod_{k-1}(parent v) * lam(v) and the gathered f
    values f(k-th ancestor of v) are length-n arrays, read from
    ``parent[lo:n]`` and ``lam[lo:n]``, shared by every row, with exact
    zeros on the ids above depth k (the head, ids below
    ``gen_offsets[k]`` = lo); two sets of them alternate between orders.
    The products of an order are written into four rows x n work buffers,
    and the sums are whole-array adds. ``buffers`` is a
    ``_gamma_buffers(r, n)`` set with r >= rows, which a caller running
    several batches passes to each; without it the call allocates its own.
    The returned arrays are views into the set, valid until its next use.

    Why the heads change no bit: with p finite, the head of
    (prod * p) * f is (0 * p) * 0, a zero of either sign. Each sum starts
    at +0.0, and a sum of two floats is -0.0 only if both are -0.0, so no
    sum ever holds -0.0, and adding a zero of either sign leaves any
    value, +0.0 included, unchanged. The same argument lets prod * p drop
    the 0.0 * p parts of (prod + 0j) * p: they can change only the sign
    of a zero product. A non-finite p (a rotated coefficient that
    overflowed) breaks both, since 0.0 * inf is nan; such a call keeps
    the 0.0 * p parts and clears the heads.
    """
    n = len(f_re)
    offsets = s.tree.gen_offsets.tolist()
    live = (p_re != 0) | (p_im != 0)
    n_live = live.sum(axis=0).tolist()
    finite = bool(np.isfinite(p_re).all() and np.isfinite(p_im).all())
    acc_re, acc_im, t_re, t_im, m_a, m_b, cur, nxt = buffers or _gamma_buffers(len(p_re), n)
    acc_re, acc_im = acc_re[: len(p_re)], acc_im[: len(p_re)]
    acc_re.fill(0.0)
    acc_im.fill(0.0)
    cur[0], cur[1], cur[2] = 1.0, f_re, f_im  # prod, f_re, f_im at order k
    for k in range(p_re.shape[1]):
        lo = offsets[k]
        if k:
            # Gather the order k - 1 arrays at each parent, on depth >= k
            # (every index is in range; "clip" writes to out unbuffered).
            nxt[:, :lo] = 0.0
            for src, dst in zip(cur, nxt):
                np.take(src, s.tree.parent[lo:n], out=dst[lo:], mode="clip")
            np.multiply(nxt[0, lo:], s.lam[lo:n], out=nxt[0, lo:])
            cur, nxt = nxt, cur
        rows = n_live[k]
        if not rows:
            continue
        pk_re, pk_im = p_re[:, k, None], p_im[:, k, None]
        if rows < len(p_re):
            pk_re, pk_im = pk_re[live[:, k]], pk_im[live[:, k]]
        prod, x_re, x_im = cur
        tr, ti, ma, mb = t_re[:rows], t_im[:rows], m_a[:rows], m_b[:rows]
        np.multiply(prod, pk_re, out=tr)
        np.multiply(prod, pk_im, out=ti)
        if not finite:
            np.subtract(tr, 0.0 * pk_im, out=tr)
            np.add(ti, 0.0 * pk_re, out=ti)
            tr[:, :lo] = 0.0
            ti[:, :lo] = 0.0
        # (t * f).re = t_re f_re - t_im f_im and (t * f).im = t_re f_im + t_im f_re
        np.multiply(tr, x_re, out=ma)
        np.multiply(ti, x_im, out=mb)
        _add_rows(acc_re, live[:, k], np.subtract(ma, mb, out=ma))
        np.multiply(tr, x_im, out=ma)
        np.multiply(ti, x_re, out=mb)
        _add_rows(acc_im, live[:, k], np.add(ma, mb, out=ma))
    return acc_re, acc_im


def _add_rows(acc: np.ndarray, live: np.ndarray, m: np.ndarray) -> None:
    """acc[live] += m, a whole-array add when every row is live."""
    if len(m) == len(acc):
        acc += m
    else:
        acc[live] += m


def mult_column(s: TruncatedShift, phi: Symbol, u: VertexId) -> TreeVector:
    """Column of the multiplication operator at the basis vector of u.

    Walks the descendant side: the coefficient at a vertex v exactly k
    generations below u is (weight product u down to v) * phi(k). Each
    generation below u is one id range, whose weight products extend
    those of the range above through the parent array. Kept independent
    of the ancestor-sum route on purpose.
    """
    s.tree.check_vertex(u)
    ids, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
    prods = np.ones(1)
    with _quiet():
        for k, level in enumerate(islice(s.tree.levels_below(u), min(phi.degree, s.max_depth) + 1)):
            lo, hi = level.start, level.stop
            if k:
                prods = prods[s.tree.parent[lo:hi] - lo_above] * s.lam[lo:hi]
            pk = phi.value(k)
            if pk != 0:
                ids.append(np.arange(lo, hi))
                vals.append(_join(*_cmul(prods, 0.0, pk.real, pk.imag)))
            lo_above = lo
    return TreeVector._of(s.tree, np.concatenate(ids), np.concatenate(vals))


def rotate_vector(f: TreeVector, w: complex) -> TreeVector:
    """Generation-graded rotation f(v) -> w**depth(v) * f(v), |w| = 1."""
    w = _check_unimodular(w)
    powers = np.array(_powers(w, f.tree.max_depth))[f.tree.depth[f._ids]]
    with _quiet():
        vals = _join(*_cmul(powers.real, powers.imag, f._vals.real, f._vals.imag))
    return TreeVector._of(f.tree, f._ids, vals)


def rotate_symbol(phi: Symbol, w: complex) -> Symbol:
    """Order-graded rotation phi(k) -> w**k * phi(k), |w| = 1."""
    w = _check_unimodular(w)
    powers = _powers(w, phi.degree)
    return Symbol(values={k: powers[k] * c for k, c in phi.values.items()}, degree=phi.degree)


def _check_unimodular(w: complex) -> complex:
    w = complex(w)
    if abs(abs(w) - 1.0) > 1e-12:
        raise ValueError(f"rotation parameter must lie on the unit circle, |w| = {abs(w)}")
    return w


def _powers(w: complex, k_max: int) -> list[complex]:
    out = [1.0 + 0j]
    for _ in range(k_max):
        out.append(out[-1] * w)
    return out


# Roots per chunk times vertices stays under this many float64 entries, so
# the quadrature's working memory does not grow with the number of roots
# (about 6 MB at this budget; larger budgets measured no faster).
_CHUNK_ENTRIES = 1 << 16


def circle_pair_integral(
    s: TruncatedShift,
    q: TrigPoly,
    phi: Symbol,
    f: TreeVector,
    g: TreeVector,
    n_points: Optional[int] = None,
) -> complex:
    """Mean over the unit circle of q(w) * <M_{rotated phi at w} f, g>.

    Evaluated by an N-point roots-of-unity rule. The integrand is a
    trigonometric polynomial with orders in [-deg q, deg q + min(K, D)],
    so any N past that band is exact; the default takes
    N = 2 * (deg q + K + D) + 1 with K the symbol degree and D the tree
    depth. A caller-supplied N below the safe band is rejected.

    The roots are processed in chunks of at most ``_CHUNK_ENTRIES`` //
    vertices. Each chunk materialises the rotated symbols as a roots x
    (K + 1) matrix, with ``rotate_symbol``'s rounding, and applies them
    all at once through ``_gamma_rows``, the kernel ``gamma_apply`` runs
    on one row, in one set of work buffers per call, sized for the largest
    chunk: every order works on full-width roots x N rows, whose
    entries above that order's depth add exact zeros that change no bit.
    Each row is paired with g by a sequential sum of the
    terms M f(v) * conj(g(v)) over g's entries in insertion order, as
    ``TreeVector.inner`` walks them (when those are every id in
    ascending order, the rows are paired as they are, with no gather),
    and q(w) times the pairing is accumulated over ascending roots, so
    the result is bitwise that of one ``gamma_apply`` and one ``inner``
    per root.
    """
    _same_tree(s, f)
    _same_tree(s, g)
    k_max = min(phi.degree, s.max_depth)
    needed = q.degree + k_max
    if n_points is None:
        n_points = 2 * (q.degree + phi.degree + s.max_depth) + 1
    if n_points <= needed:
        raise ValueError(
            f"quadrature with {n_points} points cannot integrate orders up to {needed}"
        )
    roots = [cmath.exp(2j * math.pi * j / n_points) for j in range(n_points)]
    x = f.to_dense()
    cols, gs = g._ids, g._vals
    gc_re, gc_im = gs.real, -gs.imag  # conj(g), in g's insertion order
    if len(cols) == len(x) and bool((cols == np.arange(len(x))).all()):
        cols = slice(None)  # g walks every id in ascending order: pair the rows as they are
    finite_g = bool(np.isfinite(gs).all())
    chunk = max(1, _CHUNK_ENTRIES // s.tree.n_vertices)
    # One chunk allocates its own set, freed before the pairing: a set kept
    # through it leaves the pairing's temporaries on top of the heap, which
    # glibc returns at each call's end (79 page faults per call at N = 255).
    buffers = _gamma_buffers(chunk, len(x)) if chunk < n_points else None
    total = 0j
    for lo in range(0, n_points, chunk):
        ws = roots[lo:lo + chunk]
        p_re, p_im = _rotated_rows(phi, ws, k_max)
        acc_re, acc_im = _gamma_rows(s, p_re, p_im, x.real, x.imag, buffers)
        a_re, a_im = acc_re[:, cols], acc_im[:, cols]
        t_re, t_im = _cmul(a_re, a_im, gc_re, gc_im)
        if not finite_g:
            # inner() skips vertices where M f vanishes; a zero term
            # leaves the running sum unchanged unless g(v) is not finite.
            live = (a_re != 0) | (a_im != 0)
            t_re = np.where(live, t_re, 0.0)
            t_im = np.where(live, t_im, 0.0)
        pair_re, pair_im = _row_sums(t_re), _row_sums(t_im)
        for w, re, im in zip(ws, pair_re.tolist(), pair_im.tolist()):
            total += q(w) * complex(re, im)
    return total / n_points


def _rotated_rows(phi: Symbol, ws: Sequence[complex], k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``rotate_symbol(phi, w)`` on orders
    0..k_max, one row per w, with the same repeated-multiplication powers
    and CPython complex rounding."""
    w_re = np.array([w.real for w in ws])
    w_im = np.array([w.imag for w in ws])
    pw_re = np.ones(len(ws))
    pw_im = np.zeros(len(ws))
    p_re = np.zeros((len(ws), k_max + 1))
    p_im = np.zeros((len(ws), k_max + 1))
    for k in range(k_max + 1):
        if k:
            pw_re, pw_im = _cmul(pw_re, pw_im, w_re, w_im)
        c = phi.values.get(k)
        if c is not None:
            p_re[:, k], p_im[:, k] = _cmul(pw_re, pw_im, c.real, c.imag)
    return p_re, p_im


@dataclass(frozen=True)
class SotRow:
    n: int
    probe_index: int
    error: float
    bound: float


@dataclass(frozen=True)
class SotProfile:
    rows: tuple[SotRow, ...]
    monotone: bool
    support_bound: int

    def errors_for_probe(self, probe_index: int) -> list[float]:
        return [r.error for r in self.rows if r.probe_index == probe_index]


def sot_error_profile(
    s: TruncatedShift,
    phi: Symbol,
    approximants: Sequence[int],
    probes: Sequence[TreeVector],
) -> SotProfile:
    """Cesaro approximation errors per kernel level and probe vector.

    error(n, f) is the norm of (M with hat coefficients damped by the
    level-n kernel minus M itself) applied to f. Each row also carries the
    a priori bound

        (K / (n + 1)) * sum over u in supp f of |f(u)| * norm(column at u)

    with K the symbol support bound; for a basis-vector probe this
    collapses to (K / (n + 1)) * norm(M e_u). The profile records whether
    every probe's error decays monotonically (1e-12 slack) in n.
    """
    levels = sorted(set(int(n) for n in approximants))
    if any(n < 0 for n in levels):
        raise ValueError("approximant levels must be nonnegative")
    k_bound = phi.degree
    rows = []
    monotone = True
    for i, f in enumerate(probes):
        _same_tree(s, f)
        reference = gamma_apply(s, phi, f)
        col_mass = sum(abs(c) * mult_column(s, phi, u).norm() for u, c in f.items())
        prev = None
        for n in levels:
            # hadamard(fejer_symbol(n), phi) reads only the kernel's orders
            # 0..min(n, K): build just those, not all 2n + 1.
            kernel = TrigPoly.from_coeffs({k: _fejer_hat(n, k) for k in range(min(n, k_bound) + 1)})
            damped = hadamard(kernel, phi)
            err = gamma_apply(s, damped, f).minus(reference).norm()
            if prev is not None and err > prev + 1e-12:
                monotone = False
            prev = err
            rows.append(SotRow(n=n, probe_index=i, error=err, bound=k_bound / (n + 1) * col_mass))
    return SotProfile(rows=tuple(rows), monotone=monotone, support_bound=k_bound)


def multiplier_norm_lower_bound(s: TruncatedShift, phi: Symbol) -> float:
    """Largest column norm; a certified lower bound for the operator norm."""
    return max(mult_column(s, phi, u).norm() for u in range(s.tree.n_vertices))


def kernel_l1_norm(p: TrigPoly, n_points: int = 4096) -> float:
    """Numerical circle mean of |p|; equals 1 for the Cesaro kernels.

    |p| is not a trigonometric polynomial, so this is a grid estimate,
    reported for user-supplied kernels whose averaging quality depends on
    this constant.
    """
    total = 0.0
    for j in range(n_points):
        w = cmath.exp(2j * math.pi * j / n_points)
        total += abs(p(w))
    return total / n_points
