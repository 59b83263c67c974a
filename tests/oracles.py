"""Independent dense reference implementations for the test suite.

Everything here is built directly from parent pointers, edge weights, and
symbol coefficients, bypassing the package's caches, so agreement is a
two-route check rather than a tautology.
"""

import cmath
import math

import numpy as np

from treeshift import TreeVector, apply_shift, gamma_apply, rotate_symbol


def dense_shift_matrix(s):
    """Matrix with lam(v) at (v, parent(v)); the operator's full matrix."""
    n = s.tree.n_vertices
    mat = np.zeros((n, n))
    for v in range(1, n):
        mat[v, s.tree.parent[v]] = s.weights.lam[v]
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
            if p is None:
                break
            prod *= s.weights.lam[u]
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
    return TreeVector(tree, {v: complex(arr[v]) for v in range(tree.n_vertices)})


def loop_circle_pair_integral(s, q, phi, f, g, n_points=None):
    """The circle quadrature as one rotated-symbol ``gamma_apply`` and one
    ``TreeVector.inner`` per root of unity, summed in ascending root order."""
    if n_points is None:
        n_points = 2 * (q.degree + phi.degree + s.max_depth) + 1
    total = 0j
    for j in range(n_points):
        w = cmath.exp(2j * math.pi * j / n_points)
        total += q(w) * gamma_apply(s, rotate_symbol(phi, w), f).inner(g)
    return total / n_points


def loop_dense_images(s, n, basis):
    """S^n of every basis vector, one ``TreeVector`` shifted n times per
    column, densified and stacked side by side."""
    cols = []
    for b in basis.vectors():
        for _ in range(n):
            b = apply_shift(s, b)
        cols.append(b.to_dense())
    if not cols:
        return np.zeros((s.tree.n_vertices, 0), dtype=complex)
    return np.column_stack(cols)
