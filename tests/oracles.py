"""Independent dense reference implementations for the test suite.

Everything here is built directly from parent pointers, edge weights, and
symbol coefficients, bypassing the package's caches, so agreement is a
two-route check rather than a tautology.
"""

import cmath
import csv
import io
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from treeshift import (
    KernelBlock,
    TreeVector,
    build_tree,
    gamma_apply,
    rotate_symbol,
)
from treeshift.ops import _cmul, _join, _row_sums


class DictVector:
    """The vector as one dict {vertex id: complex}, every operation a loop over it.

    This is the per-vertex route ``TreeVector`` reproduces bit for bit:
    CPython's complex arithmetic, sums from 0 in entry order, insertion
    order kept, exact zeros pruned. The ``loop_*`` oracles run on it.
    """

    def __init__(self, tree, coeffs=None):
        self.tree = tree
        self.coeffs = {}
        for v, c in (coeffs or {}).items():
            tree.check_vertex(v)
            c = complex(c)
            if c != 0:
                self.coeffs[v] = c

    @classmethod
    def of(cls, f):
        """The dict form of a ``TreeVector`` (or of another ``DictVector``)."""
        return cls(f.tree, f.coeffs)

    @classmethod
    def basis(cls, tree, u):
        return cls(tree, {u: 1.0})

    def get(self, v):
        return self.coeffs.get(v, 0j)

    def items(self):
        return self.coeffs.items()

    @property
    def support(self):
        return sorted(self.coeffs)

    def norm(self):
        return math.sqrt(sum((c * c.conjugate()).real for c in self.coeffs.values()))

    def inner(self, other):
        a = self.coeffs
        return sum(a[v] * c.conjugate() for v, c in other.coeffs.items() if v in a)

    def plus(self, other):
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, 0j) + c
        return DictVector(self.tree, out)

    def minus(self, other):
        return self.plus(other.scaled(-1.0))

    def scaled(self, c):
        return DictVector(self.tree, {v: c * x for v, x in self.coeffs.items()})

    def restricted(self, vertices):
        keep = set(vertices)
        return DictVector(self.tree, {v: c for v, c in self.coeffs.items() if v in keep})

    def to_dense(self):
        out = np.zeros(self.tree.n_vertices, dtype=complex)
        for v, c in self.coeffs.items():
            out[v] = c
        return out

    @classmethod
    def from_dense(cls, tree, arr):
        return cls(tree, {v: complex(c) for v, c in enumerate(np.asarray(arr, dtype=complex).tolist())})


def loop_apply_shift(s, f):
    """(S f)(w) = lam(w) * f(u) for each child w of each entry u, in turn."""
    out = {}
    for u, c in f.items():
        for w in s.tree.children[u]:
            out[w] = float(s.lam[w]) * c
    return DictVector(s.tree, out)


def loop_apply_adjoint(s, f):
    """(S* f)(p) accumulated over f's entries in order, from 0j."""
    out = {}
    for v, c in f.items():
        p = int(s.tree.parent[v])
        if p >= 0:
            out[p] = out.get(p, 0j) + float(s.lam[v]) * c
    return DictVector(s.tree, out)


def bincount_power_norms(s, top):
    """Orders 1..top of norm(S^n e_u)^2 by the recursion over the children,
    each one ``np.bincount`` over the parent array whatever the tree's
    shape, on the prefix with depth(u) + n <= max_depth. Unchecked: an
    order that overflows holds inf."""
    tree, lam2 = s.tree, s.lam * s.lam
    orders, prev = [], np.ones(tree.n_vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, top + 1):
            m = len(prev)
            size = tree.gen_offsets[tree.max_depth - n + 1]
            prev = np.bincount(tree.parent[1:m], lam2[1:m] * prev[1:], minlength=size)
            orders.append(prev)
    return orders


def dense_shift_matrix(s):
    """Matrix with lam(v) at (v, parent(v)); the operator's full matrix."""
    n = s.tree.n_vertices
    mat = np.zeros((n, n))
    for v in range(1, n):
        mat[v, s.tree.parent[v]] = s.lam[v]
    return mat


def dense_mult_matrix(s, phi):
    """Multiplication operator assembled by per-vertex ancestor walks."""
    n = s.tree.n_vertices
    out = np.zeros((n, n), dtype=complex)
    for v in range(n):
        u, prod, k = v, 1.0, 0
        while True:
            out[v, u] += prod * phi.value(k)
            p = s.tree.parent[u]
            if p < 0:
                break
            prod *= s.lam[u]
            u, k = p, k + 1
    return out


def children_n_brute(tree, u, n):
    """Depth filter plus ancestor walk, no frontier bookkeeping."""
    target = tree.depth[u] + n
    out = []
    for v in range(tree.n_vertices):
        if tree.depth[v] != target:
            continue
        x = v
        for _ in range(n):
            x = tree.parent[x]
        if x == u:
            out.append(v)
    return out


def random_vector(tree, rng, unit=False):
    re = rng.standard_normal(tree.n_vertices)
    im = rng.standard_normal(tree.n_vertices)
    f = TreeVector(tree, {v: complex(re[v], im[v]) for v in range(tree.n_vertices)})
    return f.scaled(1.0 / f.norm()) if unit else f


def vector_from_dense(tree, arr):
    return DictVector.from_dense(tree, arr)


def loop_gamma_apply(s, coeffs, f):
    """The ancestor sum of f in CPython complex arithmetic, one vertex at a time.

    ``coeffs[k]`` is the order-k coefficient; orders past the list read
    as zero. At each vertex v the orders run ascending up to depth(v),
    a zero coefficient skips its order, and the term is
    (complex(prod, 0.0) * coeffs[k]) * f(k-th ancestor), where prod
    multiplies the weights from the k-th ancestor's child down to v in
    that order. Returns the dense complex result over the vertex ids.
    """
    parent = s.tree.parent.tolist()
    lam = s.lam.tolist()
    out = np.zeros(s.tree.n_vertices, dtype=complex)
    for v in range(s.tree.n_vertices):
        chain = [v]  # chain[k] is the k-th ancestor of v
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        total = 0j
        for k in range(min(len(coeffs), len(chain))):
            if coeffs[k] == 0:
                continue
            prod = 1.0
            for u in reversed(chain[:k]):
                prod *= lam[u]
            total += (complex(prod, 0.0) * coeffs[k]) * f.get(chain[k])
        out[v] = total
    return out


def loop_circle_pair_integral(s, q, phi, f, g, n_points=None):
    """The circle quadrature as one rotated-symbol ``gamma_apply`` and one
    dict inner product per root of unity, summed in ascending root order."""
    if n_points is None:
        n_points = 2 * (q.degree + phi.degree + s.max_depth) + 1
    g = DictVector.of(g)
    total = 0j
    for j in range(n_points):
        w = cmath.exp(2j * math.pi * j / n_points)
        total += q(w) * DictVector.of(gamma_apply(s, rotate_symbol(phi, w), f)).inner(g)
    return total / n_points


def loop_dense_images(s, n, basis):
    """S^n of every basis vector, one ``DictVector`` shifted n times per
    column, densified and stacked side by side."""
    cols = []
    for b in map(DictVector.of, basis.vectors()):
        for _ in range(n):
            b = loop_apply_shift(s, b)
        cols.append(b.to_dense())
    if not cols:
        return np.zeros((s.tree.n_vertices, 0), dtype=complex)
    return np.column_stack(cols)


def _loop_sibling_block(s, u):
    """One parent's kernel block: modified Gram-Schmidt on DictVectors."""
    tree = s.tree
    kids = tree.children[u]
    if not kids:
        return None
    weights = s.lam[kids.start:kids.stop].tolist()
    if all(w == 0 for w in weights):
        return KernelBlock(parent=u, vectors=tuple(DictVector.basis(tree, v) for v in kids))
    pivot_pos = next(i for i, w in enumerate(weights) if w != 0)
    pivot = kids[pivot_pos]
    candidates = [
        DictVector(tree, {pivot: weights[i], v: -weights[pivot_pos]})
        for i, v in enumerate(kids)
        if i != pivot_pos
    ]
    vecs = []
    for work in candidates:
        for b in vecs:
            work = work.minus(b.scaled(work.inner(b)))
        nrm = work.norm()
        if nrm > 1e-14:
            vecs.append(work.scaled(1.0 / nrm))
    return KernelBlock(parent=u, vectors=tuple(vecs)) if vecs else None


def loop_kernel_basis(s, interior_only=True):
    """The kernel blocks one parent at a time, as a list in id order, root first."""
    tree = s.tree
    blocks = [KernelBlock(parent=None, vectors=(DictVector.basis(tree, 0),))]
    end = tree.gen_offsets.item(max(0, tree.max_depth - (1 if interior_only else 0)))
    for u in range(end):
        block = _loop_sibling_block(s, u)
        if block is not None:
            blocks.append(block)
    return blocks


def loop_project_kernel(s, f, blocks):
    """Sum over the basis vectors b of <f, b> b, accumulated in a dict."""
    f = DictVector.of(f)
    out = {}
    for block in blocks:
        for b in block.vectors:
            coeff = f.inner(b)
            if coeff == 0:
                continue
            for v, c in b.items():
                out[v] = out.get(v, 0j) + coeff * c
    return DictVector(s.tree, out)


def cumsum_project(basis, x, upto, complex_rule=False):
    """``wold._project`` with each sum as one ``np.cumsum``: the coefficient
    <x, b> read at b's last key of a cumulative sum over its keys in
    insertion order, the image a cumulative sum over the vectors.

    Each product meets one part of x, or of a coefficient, with one real
    basis value. With ``complex_rule`` the products are CPython's complex
    ones on split parts, x times conj(b + 0i) and coefficient times
    (b + 0i), the rule of a basis stored as complex numbers; on finite x
    the two rules differ only in the sign of zero terms, so they give the
    same bits.
    """
    out = np.zeros_like(x)
    for cls in basis.classes:
        m = int(np.searchsorted(cls.parents, upto))
        if not m:
            continue
        j, c = np.arange(len(cls.nkeys)), cls.order.shape[1]
        keyed = cls.vecs[:m, j[:, None], cls.order]
        rows = cls.first[:m, None] + np.arange(c)
        ids, last, b = rows[:, cls.order], j * c + cls.nkeys - 1, cls.vecs[:m]
        if complex_rule:
            tr, ti = _cmul(x.real[ids], x.imag[ids], keyed, -0.0)
        else:
            tr, ti = x.real[ids] * keyed, x.imag[ids] * keyed
        kr = np.cumsum(tr, axis=2).reshape(m, -1)[:, last, None] + 0.0
        ki = np.cumsum(ti, axis=2).reshape(m, -1)[:, last, None] + 0.0
        pr, pi = _cmul(kr, ki, b, 0.0) if complex_rule else (kr * b, ki * b)
        out.real[rows] = np.cumsum(pr, axis=1)[:, -1] + 0.0
        out.imag[rows] = np.cumsum(pi, axis=1)[:, -1] + 0.0
    return out


def complex_class_blocks(w):
    """``wold._class_blocks`` as it ran on complex numbers: every product
    CPython's on split parts (``_cmul``), a float entering as (x, 0.0),
    and the (P, c - 1, c) vectors returned complex.

    The mask marks parents holding an exact zero (both parts) or a short
    vector, or whose norm is not above 1e-14.
    """
    def has_zero(re, im):
        return ((re == 0) & (im == 0)).any(axis=-1)

    p, c = w.shape
    re = np.zeros((p, c - 1, c))
    im = np.zeros((p, c - 1, c))
    bad = np.zeros(p, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(c - 1):
            i = j + 1
            wr = np.zeros((p, i + 1))
            wi = np.zeros((p, i + 1))
            wr[:, 0] = w[:, i]
            wr[:, i] = -w[:, 0]
            for k in range(j):
                br, bi = re[:, k, : k + 2], im[:, k, : k + 2]
                tr, ti = _cmul(wr[:, : k + 1], wi[:, : k + 1], br[:, : k + 1], -bi[:, : k + 1])
                kr, ki = _row_sums(tr)[:, None], _row_sums(ti)[:, None]
                xr, xi = _cmul(kr, ki, br, bi)
                yr, yi = _cmul(-1.0, 0.0, xr, xi)
                wr[:, : k + 2] += yr
                wi[:, : k + 2] += yi
                bad |= ((kr == 0) & (ki == 0))[:, 0] | has_zero(xr, xi)
                bad |= has_zero(wr[:, : k + 2], wi[:, : k + 2])
            sq = (wr * wr - wi * -wi)[:, [0, i, *range(1, i)]]
            nrm = np.sqrt(_row_sums(sq))
            bad |= ~(nrm > 1e-14)
            re[:, j, : i + 1], im[:, j, : i + 1] = _cmul((1.0 / nrm)[:, None], 0.0, wr, wi)
            bad |= has_zero(re[:, j, : i + 1], im[:, j, : i + 1])
    return _join(re, im), bad


def _loop_left_invert(s, r):
    up = loop_apply_adjoint(s, r)
    col = s.power_norms_sq(1)
    return DictVector(s.tree, {u: c / float(col[u]) for u, c in up.items() if col[u] > 0})


def loop_peel(s, f, horizon):
    """(layers, residual) of the Wold peel on DictVectors, step by step."""
    f = DictVector.of(f)
    interior = loop_kernel_basis(s)
    parents = s.tree.generations[s.max_depth - 1] if s.max_depth else ()
    boundary = [b for b in map(lambda u: _loop_sibling_block(s, u), parents) if b is not None]
    boundary_part = loop_project_kernel(s, f, boundary)
    layer = loop_project_kernel(s, f, interior)
    layers = [layer]
    remainder = f.minus(layer).minus(boundary_part)
    for _ in range(horizon):
        lifted = _loop_left_invert(s, remainder)
        layer = loop_project_kernel(s, lifted, interior)
        layers.append(layer)
        remainder = lifted.minus(layer)
    tail = remainder
    for _ in range(horizon):
        if not tail.coeffs:
            break
        tail = loop_apply_shift(s, tail)
    return layers, boundary_part.plus(tail)


def loop_reconstruct(s, layers, residual):
    """Sum of S^k layers[k] plus the residual, Horner style."""
    acc = DictVector(s.tree)
    for layer in reversed(layers):
        acc = layer.plus(loop_apply_shift(s, acc)) if acc.coeffs else layer
    return acc.plus(residual)


def _assembled(labels, edges, genuine_labels=None):
    """One tree through the explicit vertices/edges route (BFS relabel)."""
    t = build_tree({"vertices": labels, "edges": [list(e) for e in edges]})
    if genuine_labels is not None:
        t = replace(t, genuine_leaves=frozenset(t.vertex_with_label(x) for x in genuine_labels))
    return t


def _random_edges(depth, seed, branching):
    rng = np.random.default_rng([int(seed), 0])
    labels, edges, frontier, count = ["0"], [], [0], 1
    for _ in range(depth):
        nxt = []
        counts = rng.choice(list(branching), size=len(frontier)).tolist()
        for u, n_children in zip(frontier, counts):
            for _ in range(n_children):
                labels.append(str(count))
                edges.append((u, count))
                nxt.append(count)
                count += 1
        frontier = nxt
    return labels, edges


def _arm_weights(weights, arms):
    vals = [1.0 / n for n in range(1, arms + 1)] if weights is None else [float(w) for w in weights]
    return {n: vals[n - 1] for n in range(1, arms + 1)}


def loop_family(family, depth=None, params=None):
    """A gallery family built vertex by vertex: labels and edges through the
    explicit route, weights as a per-vertex mapping, and the random_balanced
    weights drawn parent by parent. Returns (tree, lam) with lam listing the
    weights of vertices 1..N-1. Valid parameters only; no validation."""
    p = dict(params or {})
    if family in ("unilateral", "mad"):
        t = _assembled([str(i) for i in range(depth + 1)], [(i, i + 1) for i in range(depth)])
        if family == "unilateral":
            lam = {v: 1.0 for v in range(1, t.n_vertices)}
        else:
            lam = {v: 1.0 if v == 1 else v / (v - 1) for v in range(1, t.n_vertices)}
    elif family in ("broom", "broom_leaf"):
        arms = p.get("arms", 5)
        labels = ["0"] + [str(i) for i in range(1, arms + 1)]
        edges = [(0, i) for i in range(1, arms + 1)]
        lam = _arm_weights(p.get("weights"), arms)
        if family == "broom":
            t = _assembled(labels, edges, labels[1:])
        else:
            t = _assembled(labels + ["omega"], edges + [(1, arms + 1)], labels[2:] + ["omega"])
            lam[t.vertex_with_label("omega")] = float(p.get("omega_weight", 1.0))
    elif family in ("t2", "t2_zero"):
        labels, edges, idx = ["(0,0)"], [], {}
        for j in range(1, depth + 1):
            for i in (1, 2):
                labels.append(f"({i},{j})")
                idx[(i, j)] = len(labels) - 1
                edges.append((0 if j == 1 else idx[(i, j - 1)], len(labels) - 1))
        t = _assembled(labels, edges)
        ids = {label: v for v, label in enumerate(t.labels)}
        lam = {}
        for j in range(1, depth + 1):
            if family == "t2":
                lam[ids[f"(1,{j})"]] = 1.0
                lam[ids[f"(2,{j})"]] = float(p["alpha"])
            else:
                lam[ids[f"(1,{j})"]] = 0.0 if j == 2 else 1.0
                lam[ids[f"(2,{j})"]] = 0.0 if j == 2 else 2.0
    else:
        seed = p.get("seed", 0)
        t = _assembled(*_random_edges(depth, seed, p.get("branching", (1, 2))))
        n = t.n_vertices
        if family == "random":
            rng = np.random.default_rng([seed, 1])
            draws = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=n - 1))
            lam = dict(zip(range(1, n), draws.tolist()))
        else:
            norms = p.get("generation_norms") or [1.0] * max(depth, 1)
            rng = np.random.default_rng([seed, 2])
            lam = {}
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
    return t, [lam[v] for v in range(1, t.n_vertices)]


def closed_form_gram(s, n, m, vectors):
    """<S^n g_i, S^m h_j> over ``vectors`` from the diagonal of S*^k S^k.

    Distinct vertices have disjoint S^k-images, so S*^k S^k is diagonal,
    with entry norm(S^k e_v)^2 at v: the sum of squared weight products
    over the walks k steps up from every vertex that end at v. For n <= m
    the entry is the sum over v of that diagonal (k = n) times g(v) times
    conj((S^(m - n) h)(v)), where (S^j h)(v) is the weight product down
    from the j-th ancestor a of v times h(a), and 0 when v has no such
    ancestor. n > m is the conjugate of the swapped pair.
    """
    tree = s.tree

    def up(v, j):
        """(j-th ancestor of v, weight product down from it to v), or None."""
        prod = 1.0
        for _ in range(j):
            if v == 0:
                return None
            prod *= float(s.lam[v])
            v = int(tree.parent[v])
        return v, prod

    diag = np.zeros(tree.n_vertices)
    for w in range(tree.n_vertices):
        hit = up(w, min(n, m))
        if hit is not None:
            diag[hit[0]] += hit[1] ** 2

    def pairing(g, h, j):
        """<S^k g, S^(k + j) h> for k = min(n, m)."""
        total = 0j
        for v, c in g.items():
            hit = up(v, j)
            if hit is not None:
                a, prod = hit
                total += diag[v] * c * (prod * h.get(a)).conjugate()
        return total

    mat = np.zeros((len(vectors), len(vectors)), dtype=complex)
    for i, g in enumerate(vectors):
        for j, h in enumerate(vectors):
            mat[i, j] = pairing(g, h, m - n) if n <= m else pairing(h, g, n - m).conjugate()
    return mat


def exact_kernel_pairings(tree, lam, top):
    """The interior kernel vectors g_i of ``kernel_basis`` before normalising,
    and their pairings, in exact arithmetic.

    ``lam`` holds one ``Fraction`` per vertex, and every sibling set a
    positive one. The g_i are the root, then per parent at depth <=
    max_depth - 2 in id order the Gram-Schmidt pass over lam(v) e_pivot -
    lam(pivot) e_v, the pivot being the first child of positive weight.
    Returns the list of <g_i, g_i> and a dict (n, m) -> matrix of
    <S^n g_i, S^m g_j> for 0 <= n < m <= top.
    """
    parent = tree.parent.tolist()
    depth, kids = [0], {}
    for v in range(1, len(parent)):
        depth.append(depth[parent[v]] + 1)
        kids.setdefault(parent[v], []).append(v)

    def inner(f, g):
        return sum(x * g.get(k, 0) for k, x in f.items())

    vecs = [{0: Fraction(1)}]
    for u in range(len(parent)):
        if depth[u] > tree.max_depth - 2 or u not in kids:
            continue
        pivot = next(v for v in kids[u] if lam[v] > 0)
        block = []
        for v in kids[u]:
            if v != pivot:
                g = {pivot: lam[v], v: -lam[pivot]}
                for b in block:
                    c = inner(g, b) / inner(b, b)
                    g = {k: g.get(k, 0) - c * b.get(k, 0) for k in {**g, **b}}
                block.append(g)
        vecs += block
    ladder = [vecs]
    for _ in range(top):
        ladder.append([{v: x * lam[v] for u, x in f.items() for v in kids.get(u, ())}
                       for f in ladder[-1]])
    pairings = {(n, m): [[inner(a, b) for b in ladder[m]] for a in ladder[n]]
                for n in range(top + 1) for m in range(n + 1, top + 1)}
    return [inner(g, g) for g in vecs], pairings


def _fmt_cell(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def row_table(table):
    """A report table as report.json lists it: the cells, one sequence per
    column, rebuilt as one list per row."""
    return {"name": table["name"], "columns": table["columns"],
            "rows": [list(row) for row in zip(*table["cells"])]}


def loop_csv_text(table):
    """A report table in row form (``row_table``) as CSV text: the header,
    then one writerow per row of cells formatted one by one through an
    isinstance chain."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([c["name"] for c in table["columns"]])
    for row in table["rows"]:
        writer.writerow([_fmt_cell(x) for x in row])
    return fh.getvalue()


def loop_path_radii(s, tail_start):
    """The rows of ``treeshift radius`` by one walk per maximal path.

    This is the per-path route the one-pass ``gallery._tail_radii`` replaced:
    a chain from each childless vertex (ascending id) up to the root, then
    a walk down it multiplying the weights and taking the tail minimum of
    prod ** (1 / k) from depth max(min(tail_start, length), 1). It raises
    the runner's refusals, in the runner's order.
    """
    tree = s.tree
    parent = tree.parent.tolist()
    parents = set(parent[1:])
    rows = []
    for i, v in enumerate(u for u in range(tree.n_vertices) if u not in parents):
        chain = [v]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        chain.reverse()
        length = len(chain) - 1
        if length == 0:
            continue
        start = min(tail_start, length)
        if start < 0:
            raise ValueError("n must be nonnegative")
        best, prod = math.inf, 1.0
        for k, u in enumerate(chain[1:], start=1):
            prod *= s.lam.item(u)
            if not math.isfinite(prod):
                raise ValueError(f"the weight product from the root to vertex {u} overflows float64")
            if k >= max(start, 1):
                best = min(best, prod ** (1.0 / k))
        rows.append([i, tree.labels[v], length, v in tree.genuine_leaves, start, best])
    if not rows:
        raise ValueError("tree has no edges, no path to estimate along")
    return rows
