import math
import tracemalloc
import warnings

import numpy as np
import pytest

from treeshift import (
    GallerySpec,
    HorizonError,
    TreeVector,
    TruncatedShift,
    apply_adjoint,
    apply_shift,
    boundary_mass,
    build_tree,
    close,
    is_injective,
    lambda_path,
    make,
    operator_norm_power,
    power_norm,
    spectral_radius_estimate,
)

from oracles import dense_shift_matrix, random_vector, vector_from_dense

REL = 1e-12


def _random_shift(seed, depth=5, branching=(1, 2, 3)):
    return make(GallerySpec(
        family="random", depth=depth,
        params={"seed": seed, "branching": branching},
    ))


def test_tree_vector_basics():
    t = build_tree({"family": "t2", "depth": 3})
    f = TreeVector(t, {0: 1.0, 1: 0.0, 2: 2.0 - 1.0j})
    assert f.support == [0, 2]  # exact zeros pruned
    assert f.get(1) == 0
    assert abs(f.norm() - math.sqrt(1 + 5)) < 1e-15
    g = TreeVector.basis(t, 2)
    assert f.inner(g) == 2.0 - 1.0j
    assert g.inner(f) == 2.0 + 1.0j
    assert f.minus(f).support == []
    assert f.scaled(2.0).get(2) == 4.0 - 2.0j
    assert f.restricted([0]).support == [0]
    dense = f.to_dense()
    assert dense[2] == 2.0 - 1.0j and dense[3] == 0
    other = build_tree({"family": "unilateral", "depth": 3})
    with pytest.raises(ValueError):
        f.inner(TreeVector.basis(other, 0))
    with pytest.raises(ValueError):
        TreeVector(t, {99: 1.0})


def test_inner_walks_other_in_insertion_order():
    t = build_tree({"family": "unilateral", "depth": 3})
    f = TreeVector(t, {0: 1e16, 1: 1.0, 2: -1e16})
    g = TreeVector(t, {2: 1, 0: 1, 1: 1, 3: 1})
    want = 0
    for v, c in g.items():  # vertex 3 lies outside f's support and is skipped
        if v in f.coeffs:
            want += f.get(v) * c.conjugate()
    got = f.inner(g)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    # Walking f's entries instead would absorb the 1.0 into 1e16 and give 0j.
    assert got == 1 + 0j


def test_weight_with_overflowing_square_rejected():
    t = build_tree({"vertices": 3, "parents": [None, 0, 0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected without numpy's overflow warning
        with pytest.raises(ValueError, match="vertex 1 must be finite and >= 0 with a finite square"):
            TruncatedShift(t, [1e200, 1.0])
    assert TruncatedShift(t, [1e154, 1.0]).lam.tolist() == [0.0, 1e154, 1.0]


def test_power_norms_that_overflow_rejected():
    ray = build_tree({"vertices": 4, "parents": [None, 0, 1, 2]})
    star = build_tree({"vertices": 4, "parents": [None, 0, 0, 0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected without numpy's overflow warning
        s = TruncatedShift(ray, [1e100] * 3)
        assert np.isfinite(s.power_norms_sq(1)).all()
        with pytest.raises(ValueError, match=r"norm\(S\^2 e_0\)\^2 overflows .*order 2"):
            s.power_norms_sq(2)
        with pytest.raises(ValueError, match="order 2"):
            operator_norm_power(s, 2)
        # Each square is finite; their sum over the three children is not.
        with pytest.raises(ValueError, match=r"norm\(S\^1 e_0\)\^2 overflows .*order 1"):
            TruncatedShift(star, [1e154] * 3)
        # Orders 1-3 stay at most 1e240; order 4 would be 1e320.
        long_ray = TruncatedShift(build_tree({"vertices": 6, "parents": [None, 0, 1, 2, 3, 4]}), [1e40] * 5)
        assert np.isfinite(long_ray.power_norms_sq(3)).all()
        with pytest.raises(ValueError, match=r"norm\(S\^4 e_0\)\^2 overflows .*order 4"):
            long_ray.power_norms_sq(4)
    assert TruncatedShift(star, [1e154, 1.0, 1.0]).column_bound == 1e308


def test_weight_system_validation():
    t = build_tree({"family": "unilateral", "depth": 2})
    with pytest.raises(ValueError):
        TruncatedShift(t, {1: 1.0})
    with pytest.raises(ValueError):
        TruncatedShift(t, {1: 1.0, 2: -0.5})
    with pytest.raises(ValueError):
        TruncatedShift(t, {1: 1.0, 2: float("nan")})
    with pytest.raises(ValueError):
        TruncatedShift(t, {1: 1.0, 2: 1.0, 3: 1.0})
    assert TruncatedShift(t, {1: 1.0, 2: 0.0}).lam.tolist() == [0.0, 1.0, 0.0]


def test_lambda_path_products():
    s = make(GallerySpec(family="t2", depth=4, params={"alpha": 0.5}))
    t = s.tree
    low3 = t.vertex_with_label("(2,3)")
    assert abs(lambda_path(s, 0, low3) - 0.125) < 1e-15
    assert lambda_path(s, low3, low3) == 1.0
    up2 = t.vertex_with_label("(1,2)")
    assert lambda_path(s, t.vertex_with_label("(1,1)"), up2) == 1.0
    with pytest.raises(ValueError):
        lambda_path(s, up2, low3)


def test_shift_and_adjoint_on_broom():
    s = make(GallerySpec(family="broom", params={"arms": 4}))
    e0 = TreeVector.basis(s.tree, 0)
    image = apply_shift(s, e0)
    assert {v: c for v, c in image.items()} == {n: 1.0 / n for n in range(1, 5)}
    # Arm mass has no representable image: dropped, reported as boundary mass.
    f = TreeVector(s.tree, {1: 2.0, 3: -1.0})
    assert apply_shift(s, f).support == []
    assert abs(boundary_mass(s, f) - f.norm()) < 1e-15
    back = apply_adjoint(s, TreeVector(s.tree, {n: float(n) for n in range(1, 5)}))
    assert back.support == [0]
    assert abs(back.get(0) - 4.0) < 1e-15  # sum of lam(n) * n = 4 ones


def test_adjoint_identity_seeded():
    rng = np.random.default_rng([77, 0])
    for trial in range(30):
        s = _random_shift(int(rng.integers(10_000)), depth=int(rng.integers(2, 6)))
        f = random_vector(s.tree, rng)
        g = random_vector(s.tree, rng)
        lhs = apply_shift(s, f).inner(g)
        rhs = f.inner(apply_adjoint(s, g))
        assert abs(lhs - rhs) <= 1e-12 * f.norm() * g.norm(), trial


def test_power_norm_recursion_vs_iterated_apply():
    rng = np.random.default_rng([78, 0])
    for trial in range(15):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        for u in range(s.tree.n_vertices):
            img = TreeVector.basis(s.tree, u)
            for n in range(1, s.horizon(u) + 1):
                img = apply_shift(s, img)
                want = img.norm()
                got = power_norm(s, u, n)
                assert abs(got - want) <= 1e-13 * max(1.0, want), (trial, u, n)


def test_star_power_diagonal_matches_table():
    rng = np.random.default_rng([79, 0])
    for trial in range(8):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        mat = dense_shift_matrix(s)
        power = np.eye(s.tree.n_vertices)
        for n in range(1, 5):
            power = mat @ power
            gram = power.T @ power
            off = gram - np.diag(np.diag(gram))
            # Columns of distinct start vertices have disjoint supports.
            assert np.all(off == 0.0), (trial, n)
            for u in range(s.tree.n_vertices):
                if n <= s.horizon(u):
                    assert abs(gram[u, u] - s.power_norm_sq(u, n)) <= 1e-12 * max(1.0, gram[u, u])


def test_mad_closed_forms():
    s = make(GallerySpec(family="mad", depth=32))
    for l in range(33):
        for n in range(0, 33 - l):
            want = float(n) if l == 0 else (l + n) / l
            if l == 0 and n == 0:
                want = 1.0
            assert abs(power_norm(s, l, n) - want) <= REL * max(want, 1.0), (l, n)
    for n in range(1, 33):
        est = operator_norm_power(s, n)
        assert est.may_grow_beyond_horizon == (n + 1 > 32)
        if n < 32:
            assert abs(est.value - (n + 1)) <= REL * (n + 1)
            assert est.attained_at == 1
        else:
            # Only the root column fits the window; the sup is flagged.
            assert abs(est.value - 32.0) <= REL * 32
            assert est.attained_at == 0


def test_operator_norm_matches_dense_svd():
    rng = np.random.default_rng([80, 0])
    for trial in range(6):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        mat = dense_shift_matrix(s)
        power = np.eye(s.tree.n_vertices)
        for n in range(1, 4):
            power = mat @ power
            top = float(np.linalg.svd(power, compute_uv=False)[0])
            est = operator_norm_power(s, n)
            # Window cap: dense powers see boundary truncation the same way.
            assert abs(est.value - top) <= 1e-10 * max(1.0, top), (trial, n)


def test_horizon_refusals():
    s = make(GallerySpec(family="mad", depth=6))
    with pytest.raises(HorizonError):
        s.power_norm_sq(1, 6)
    with pytest.raises(HorizonError):
        operator_norm_power(s, 7)
    with pytest.raises(ValueError):
        s.power_norm_sq(1, -1)
    with pytest.raises(ValueError):
        spectral_radius_estimate(s, 0)
    assert power_norm(s, 1, 5) > 0


def test_spectral_surrogate_on_mad():
    s = make(GallerySpec(family="mad", depth=16))
    values = [spectral_radius_estimate(s, n) for n in range(1, 17)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert abs(values[0] - 2.0) < 1e-12
    assert abs(values[14] - 16.0 ** (1 / 15)) < 1e-12
    # Final order runs into the window: sup drops to the root column.
    assert abs(values[15] - 16.0 ** (1 / 16)) < 1e-12


def test_injectivity_diagnostics():
    mad = make(GallerySpec(family="mad", depth=8))
    res = is_injective(mad)
    assert res.injective and res.interior_injective
    assert res.min_column_norm == 1.0  # smallest ratio (n+1)/n at the seam is 9/8; root column is 1

    t2z = make(GallerySpec(family="t2_zero", depth=4))
    res = is_injective(t2z)
    assert not res.interior_injective and not res.injective
    assert res.min_column_norm == 0.0
    assert res.witness == t2z.tree.vertex_with_label("(1,1)")

    broom = make(GallerySpec(family="broom", params={"arms": 4}))
    res = is_injective(broom)
    assert res.interior_injective and res.has_genuine_leaves and not res.injective


def test_boundary_mass_splits_by_generation():
    s = _random_shift(5, depth=4)
    deep = [v for v in range(s.tree.n_vertices) if s.tree.depth[v] == 4]
    f = TreeVector(s.tree, {deep[0]: 3.0, 0: 4.0})
    assert abs(boundary_mass(s, f) - 3.0) < 1e-15
    assert boundary_mass(s, TreeVector.basis(s.tree, 0)) == 0.0


def test_apply_shift_vs_dense_seeded():
    rng = np.random.default_rng([81, 0])
    for trial in range(10):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        mat = dense_shift_matrix(s)
        f = random_vector(s.tree, rng)
        want = mat @ f.to_dense()
        got = apply_shift(s, f).to_dense()
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want)))), trial
        want_adj = mat.T @ f.to_dense()
        got_adj = apply_adjoint(s, f).to_dense()
        assert np.max(np.abs(got_adj - want_adj)) <= 1e-13 * max(1.0, float(np.max(np.abs(want_adj)))), trial


def test_apply_shift_block_matches_columns():
    rng = np.random.default_rng([82, 0])
    shifts = [_random_shift(int(rng.integers(10_000)), depth=4) for _ in range(4)]
    shifts.append(make(GallerySpec(family="t2_zero", depth=4)))
    for trial, s in enumerate(shifts):
        n = s.tree.n_vertices
        deep = [v for v in range(n) if s.tree.depth[v] == s.max_depth]
        block = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
        block[:, 0] = 0
        block[0, 0] = 2.0 - 1.0j  # mass at the root
        block[:, 1] = 0
        block[deep, 1] = 1.5j  # mass only at the deepest generation
        before = block.copy()
        got = apply_shift(s, block)
        want = np.column_stack([
            apply_shift(s, vector_from_dense(s.tree, block[:, j])).to_dense() for j in range(5)
        ])
        assert got.shape == (n, 5) and got.dtype == complex
        # Zero weights leave -0.0 where the sparse route prunes to +0.0.
        assert np.array_equal(got, want), trial
        if np.all(s.lam[1:] > 0):
            assert got.tobytes() == want.tobytes(), trial
        assert block.tobytes() == before.tobytes(), trial
        assert not np.any(got[:, 1]) and not np.any(got[0])
    with pytest.raises(ValueError, match="block"):
        apply_shift(s, np.zeros((n + 1, 2), dtype=complex))
    with pytest.raises(ValueError, match="block"):
        apply_shift(s, np.zeros(n + 1, dtype=complex))


def test_close_combines_scales():
    assert close(1.0, 1.0 + 1e-11)
    assert not close(1.0, 1.001)
    assert close(0.0, 5e-11)
    assert close(1e6, 1e6 * (1 + 1e-10))


def test_ancestor_products_align_with_lambda_path():
    s = _random_shift(12, depth=5)
    for v in range(s.tree.n_vertices):
        chain = s.ancestor_products(v)
        assert chain[0] == (v, 1.0)
        for u, prod in chain:
            assert abs(prod - lambda_path(s, u, v)) <= 1e-13 * max(1.0, prod)
        assert chain[-1][0] == 0


def test_shift_constructor_revalidates_weights():
    t = build_tree({"family": "unilateral", "depth": 3})
    with pytest.raises(ValueError):
        TruncatedShift(t, {1: 1.0, 2: 1.0})
    other = build_tree({"family": "unilateral", "depth": 4})
    with pytest.raises(ValueError):
        TruncatedShift(t, {v: 1.0 for v in range(1, other.n_vertices)})


def test_weight_sequence_and_mapping_share_validation():
    t = build_tree({"family": "random", "depth": 3, "params": {"seed": 2}})
    n = t.n_vertices
    lam = np.linspace(0.5, 2.0, n - 1)
    from_seq = TruncatedShift(t, lam.tolist())
    from_map = TruncatedShift(t, dict(zip(range(1, n), lam.tolist())))
    assert from_seq.lam.tobytes() == from_map.lam.tobytes() == np.concatenate(([0.0], lam)).tobytes()
    assert from_seq.lam.tolist() == from_map.lam.tolist()
    for bad, pos in ((-0.5, 3), (float("nan"), 5), (float("inf"), 2)):
        weights = lam.copy()
        weights[pos - 1] = bad
        weights[-1] = -1.0  # a later bad weight must not be the one named
        for form in (weights, weights.tolist(), dict(zip(range(1, n), weights.tolist()))):
            with pytest.raises(ValueError, match=f"vertex {pos} must be finite"):
                TruncatedShift(t, form)
    for short in (lam[:-1], lam.tolist() + [1.0], lam.reshape(1, -1)):
        with pytest.raises(ValueError, match=f"expected {n - 1} weights"):
            TruncatedShift(t, short)
    partial = dict(zip(range(1, n), lam.tolist()))
    del partial[4], partial[6]
    with pytest.raises(ValueError, match="missing weight for vertex 4"):
        TruncatedShift(t, partial)


def test_deep_ray_queries_stay_linear_in_memory():
    # An order-by-depth table for this ray would hold ~2e8 entries.
    tracemalloc.start()
    try:
        s = make(GallerySpec(family="mad", depth=20_000))
        assert abs(power_norm(s, 0, 5) - 5.0) <= REL * 5
        assert abs(operator_norm_power(s, 3).value - 4.0) <= REL * 4
        assert is_injective(s).injective
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def test_depth_1e5_ray_builds_and_matches_closed_forms():
    # Every per-vertex structure is O(N); the norms read one bincount per order.
    tracemalloc.start()
    try:
        s = make(GallerySpec(family="mad", depth=100_000))
        assert s.tree.n_vertices == 100_001 and s.max_depth == 100_000
        for n in range(1, 6):
            assert abs(power_norm(s, 0, n) - n) <= REL * n
            assert abs(operator_norm_power(s, n).value - (n + 1)) <= REL * (n + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, peak


def test_million_vertex_random_build_is_array_only():
    # A per-vertex tuple or dict of this tree would hold millions of Python objects.
    tracemalloc.start()
    try:
        s = make(GallerySpec(family="random", depth=19, params={"seed": 0, "branching": [2]}))
        assert s.tree.n_vertices == 2**20 - 1 and s.max_depth == 19
        for n in range(1, 6):
            # The root column of S^n sums the squared weight products down to generation n.
            paths = [s.ancestor_products(v)[n][1] for v in s.tree.generations[n]]
            want = sum(p * p for p in paths)
            assert abs(power_norm(s, 0, n) ** 2 - want) <= REL * want
            assert operator_norm_power(s, n).value >= power_norm(s, 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, peak


def _parts(x):
    """Entries whose both parts are zero set to +0, as a TreeVector prunes them."""
    x = x.copy()
    x[x == 0] = 0
    return x.tobytes()


def test_vector_forms_match_tree_vector_route_bitwise():
    # (N,) arrays multiply as CPython does, so even zero-part signs agree;
    # the adjoint's bincount adds each parent's terms in ascending id order.
    rng = np.random.default_rng([83, 0])
    shifts = [_random_shift(int(rng.integers(10_000)), depth=4) for _ in range(4)]
    shifts.append(make(GallerySpec(family="t2_zero", depth=4)))
    for trial, s in enumerate(shifts):
        n = s.tree.n_vertices
        complex_x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        real_x = rng.standard_normal(n) + 0j
        sparse_x = np.where(rng.random(n) < 0.3, complex_x, 0)
        for x in (complex_x, real_x, -real_x, sparse_x):
            f = TreeVector.from_dense(s.tree, x)
            assert _parts(apply_shift(s, x)) == _parts(apply_shift(s, f).to_dense()), trial
            assert _parts(apply_adjoint(s, x)) == _parts(apply_adjoint(s, f).to_dense()), trial
            block = np.column_stack([x, x[::-1]])
            adj = apply_adjoint(s, block)
            assert adj.shape == (n, 2)
            assert adj[:, 0].tobytes() == apply_adjoint(s, x).tobytes(), trial
            assert adj[:, 1].tobytes() == apply_adjoint(s, block[:, 1].copy()).tobytes(), trial
    with pytest.raises(ValueError, match="block"):
        apply_adjoint(s, np.zeros(n + 1, dtype=complex))
    with pytest.raises(ValueError, match="block"):
        apply_adjoint(s, np.zeros((n, 2)))


def test_sparse_shift_and_adjoint_cost_the_support():
    # Reading the weights per touched vertex, not as one list of all N.
    s = make(GallerySpec(family="random", depth=17, params={"seed": 1, "branching": [2]}))
    u = s.tree.gen_offsets.item(9) + 7
    f = TreeVector.basis(s.tree, u)
    tracemalloc.start()
    try:
        down = apply_shift(s, f)
        up = apply_adjoint(s, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    kids = range(s.tree.first_child.item(u), s.tree.first_child.item(u + 1))
    assert down.coeffs == {w: s.lam.item(w) * (1 + 0j) for w in kids}
    assert up.coeffs == {s.tree.parent.item(u): s.lam.item(u) * (1 + 0j)}


def test_prefix_shift_and_adjoint_equal_padded_full_call():
    # On the ids at depth <= d the operators act on the depth-d truncation:
    # the full-size call on the zero-padded input, cut to the prefix.
    rng = np.random.default_rng([36, 0])
    shifts = [
        _random_shift(3),
        make(GallerySpec(family="random_balanced", depth=4, params={"seed": 2, "branching": (3,)})),
        make(GallerySpec(family="mad", depth=7)),
        make(GallerySpec(family="t2", depth=5, params={"alpha": 0.5})),
    ]
    for case, s in enumerate(shifts):
        n, offsets = s.tree.n_vertices, s.tree.gen_offsets
        for d in range(s.max_depth + 1):
            size = offsets.item(d + 1)
            for shape in ((size,), (size, 3)):
                x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                padded = np.zeros((n,) + shape[1:], dtype=complex)
                padded[:size] = x
                for op in (apply_shift, apply_adjoint):
                    got = op(s, x)
                    assert got.shape == shape, (case, d, op.__name__)
                    assert got.tobytes() == op(s, padded)[:size].tobytes(), (case, d, op.__name__)
        wide = [size for size in range(n + 2) if size not in offsets[1:]]
        for size in wide:
            for op in (apply_shift, apply_adjoint):
                with pytest.raises(ValueError, match="generation boundary"):
                    op(s, np.zeros(size, dtype=complex))
        assert 0 in wide and n + 1 in wide
    # The t2 tree has two vertices per generation below the root.
    assert any(size not in (0, n + 1) for size in wide)
