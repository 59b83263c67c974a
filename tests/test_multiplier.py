import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    GallerySpec,
    Symbol,
    TreeVector,
    TreeSpecError,
    TrigPoly,
    TruncatedShift,
    apply_shift,
    circle_pair_integral,
    fejer_symbol,
    gamma_apply,
    hadamard,
    kernel_l1_norm,
    make,
    mult_column,
    multiplier_norm_lower_bound,
    rotate_symbol,
    rotate_vector,
    sot_error_profile,
)

from treeshift import multiplier
from treeshift.ops import _join
from oracles import dense_mult_matrix, loop_circle_pair_integral, loop_gamma_apply, random_vector
from test_wold import weighted_trees


def _random_shift(seed, depth=5, branching=(1, 2, 3)):
    return make(GallerySpec(
        family="random", depth=depth,
        params={"seed": seed, "branching": branching},
    ))


def _random_symbol(rng, k_max=8):
    return Symbol.from_support({
        k: complex(rng.standard_normal(), rng.standard_normal())
        for k in range(k_max + 1)
    })


def test_order_zero_symbol_is_identity():
    s = _random_shift(1)
    rng = np.random.default_rng([1, 9])
    f = random_vector(s.tree, rng)
    out = gamma_apply(s, Symbol.indicator(0), f)
    assert out.minus(f).norm() == 0.0


def test_order_one_symbol_is_the_shift():
    rng = np.random.default_rng([2, 9])
    for trial in range(10):
        s = _random_shift(int(rng.integers(10_000)))
        f = random_vector(s.tree, rng)
        diff = gamma_apply(s, Symbol.indicator(1), f).minus(apply_shift(s, f))
        assert diff.norm() <= 1e-14 * f.norm(), trial


def test_power_law_image_on_telescoping_ray():
    # Weight product to depth k is k, so k^(-3/2) maps the root to k^(-1/2).
    s = make(GallerySpec(family="mad", depth=12))
    image = gamma_apply(s, Symbol.power_law(-1.5, 12), TreeVector.basis(s.tree, 0))
    for k in range(1, 13):
        assert abs(image.get(k) - k ** -0.5) <= 1e-13, k
    assert image.get(0) == 0


def test_symbol_rules_materialized_up_front():
    phi = Symbol.power_law(-1.5, 5)
    assert phi.degree == 5
    assert phi.value(7) == 0  # never evaluates the rule past its bound
    assert phi.value(2) == 2.0 ** -1.5
    ones = Symbol.ones(3)
    assert ones.values_upto(5) == [1, 1, 1, 1, 0, 0]
    with pytest.raises(ValueError):
        phi.value(-1)
    with pytest.raises(ValueError):
        Symbol.indicator(-2)
    with pytest.raises(ValueError):
        Symbol.from_support({-1: 1.0})


def test_mult_column_vs_gamma_apply_routes():
    # Ancestor-sum and descendant-walk group the weight products in
    # opposite orders, so agreement is relative to entry magnitude.
    rng = np.random.default_rng([3, 9])
    for trial in range(10):
        s = _random_shift(int(rng.integers(10_000)))
        phi = _random_symbol(rng)
        for u in range(0, s.tree.n_vertices, 3):
            col = mult_column(s, phi, u)
            ref = gamma_apply(s, phi, TreeVector.basis(s.tree, u))
            for v in set(col.support) | set(ref.support):
                a, b = col.get(v), ref.get(v)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), (trial, u, v)


def test_routes_vs_dense_oracle():
    rng = np.random.default_rng([4, 9])
    for trial in range(8):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        phi = _random_symbol(rng, k_max=5)
        dense = dense_mult_matrix(s, phi)
        f = random_vector(s.tree, rng, unit=True)
        got = gamma_apply(s, phi, f).to_dense()
        want = dense @ f.to_dense()
        assert np.max(np.abs(got - want)) <= 1e-13, trial
        for u in (0, s.tree.n_vertices // 2):
            col = mult_column(s, phi, u).to_dense()
            assert np.max(np.abs(col - dense[:, u])) <= 1e-13, (trial, u)


symbols = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=7,
).map(lambda coeffs: Symbol.from_support(enumerate(coeffs)))


@settings(derandomize=True, deadline=None)
@given(weighted_trees(), symbols, st.integers(0, 2**32 - 1))
def test_gamma_apply_matches_dense_matrix(s, phi, seed):
    # The routes multiply each weight product in another order and the
    # matrix product sums in BLAS order, so the bound scales with the terms.
    n = s.tree.n_vertices
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x[rng.random(n) < 0.3] = 0
    dense = dense_mult_matrix(s, phi)
    got = gamma_apply(s, phi, TreeVector.from_dense(s.tree, x)).to_dense()
    scale = np.max(np.abs(dense) @ np.abs(x))
    assert np.max(np.abs(got - dense @ x)) <= 1e-13 * max(1.0, scale)


@settings(derandomize=True, deadline=None)
@given(weighted_trees(), symbols, st.data())
def test_mult_column_matches_dense_matrix(s, phi, data):
    u = data.draw(st.integers(0, s.tree.n_vertices - 1))
    col = dense_mult_matrix(s, phi)[:, u]
    got = mult_column(s, phi, u).to_dense()
    assert np.max(np.abs(got - col)) <= 1e-13 * max(1.0, np.max(np.abs(col)))


def test_rotation_preserves_norm():
    rng = np.random.default_rng([5, 9])
    for trial in range(50):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        f = random_vector(s.tree, rng)
        w = cmath.exp(2j * math.pi * rng.uniform())
        assert abs(rotate_vector(f, w).norm() - f.norm()) <= 1e-14 * f.norm(), trial


def test_rotation_conjugation_identity():
    # M with rotated symbol equals rotate, apply, rotate back.
    rng = np.random.default_rng([6, 9])
    for trial in range(50):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        phi = _random_symbol(rng)
        f = random_vector(s.tree, rng, unit=True)
        w = cmath.exp(2j * math.pi * rng.uniform())
        lhs = gamma_apply(s, rotate_symbol(phi, w), f)
        rhs = rotate_vector(gamma_apply(s, phi, rotate_vector(f, w.conjugate())), w)
        assert lhs.minus(rhs).norm() <= 1e-12, trial


def test_rotation_rejects_off_circle_parameters():
    s = _random_shift(7, depth=3)
    f = TreeVector.basis(s.tree, 0)
    with pytest.raises(ValueError):
        rotate_vector(f, 1.1)
    with pytest.raises(ValueError):
        rotate_symbol(Symbol.ones(2), 0.5 + 0.5j)
    phi = rotate_symbol(Symbol.ones(4), 1j)
    assert phi.degree == 4
    assert phi.value(2) == -1.0 + 0j


def test_fejer_kernel_coefficients():
    for n in (1, 4, 16, 64):
        ker = fejer_symbol(n)
        assert ker.degree == n
        for k in range(n + 1):
            want = 1.0 - k / (n + 1)
            assert ker.hat(k) == want
            # Damping deficit used by the error bound, tight to rounding.
            assert abs(abs(1.0 - ker.hat(k)) - k / (n + 1)) <= 2e-16
        assert ker.hat(n + 1) == 0
        assert ker.coeffs[-3 if n >= 3 else -1] == ker.coeffs[3 if n >= 3 else 1]


def test_fejer_kernel_nonnegative_with_unit_mean():
    for n in (2, 7, 33):
        ker = fejer_symbol(n)
        for j in range(257):
            w = cmath.exp(2j * math.pi * j / 257)
            assert ker(w).real >= -1e-12
            assert abs(ker(w).imag) <= 1e-12
        assert abs(kernel_l1_norm(ker, n_points=1024) - 1.0) <= 1e-12


def test_hadamard_damps_coefficients():
    phi = Symbol.from_support({0: 2.0, 3: 1.0 - 2.0j, 8: -0.5})
    for n in (8, 16, 32, 64):
        damped = hadamard(fejer_symbol(n), phi)
        for k in (0, 3, 8):
            want = (1.0 - k / (n + 1)) * phi.value(k)
            assert abs(damped.value(k) - want) <= 1e-15 * max(1.0, abs(want)), (n, k)
    # Order support is clipped to the kernel degree.
    assert hadamard(fejer_symbol(2), phi).value(3) == 0


def test_trig_poly_evaluation_and_reflection():
    p = TrigPoly.from_coeffs({-2: 1.0j, 0: 2.0, 1: -1.0})
    assert p.degree == 2
    w = cmath.exp(0.7j)
    assert abs(p(w) - (1.0j * w ** -2 + 2.0 - w)) <= 1e-15
    q = p.reflected()
    assert q.coeffs[2] == 1.0j and q.coeffs[-1] == -1.0
    assert abs(q(w) - p(w.conjugate())) <= 1e-15
    with pytest.raises(ValueError):
        p.hat(-1)


def test_analytic_monomials_average_to_zero():
    s = make(GallerySpec(family="t2", depth=6, params={"alpha": 0.5}))
    rng = np.random.default_rng([8, 9])
    phi = _random_symbol(rng, k_max=6)
    f = random_vector(s.tree, rng, unit=True)
    g = random_vector(s.tree, rng, unit=True)
    for k in range(1, 7):
        val = circle_pair_integral(s, TrigPoly.monomial(k), phi, f, g)
        assert abs(val) <= 1e-12, k


def test_circle_integral_matches_coefficientwise_product():
    rng = np.random.default_rng([9, 9])
    for trial in range(20):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        deg = int(rng.integers(0, 9))
        p = TrigPoly.from_coeffs({
            k: complex(rng.standard_normal(), rng.standard_normal())
            for k in range(-deg, deg + 1)
        })
        phi = _random_symbol(rng)
        f = random_vector(s.tree, rng, unit=True)
        g = random_vector(s.tree, rng, unit=True)
        quad = circle_pair_integral(s, p.reflected(), phi, f, g)
        direct = gamma_apply(s, hadamard(p, phi), f).inner(g)
        assert abs(quad - direct) <= 1e-10, trial


def _hex(c):
    return c.real.hex(), c.imag.hex()


def test_quadrature_bitwise_equals_per_root_loop(monkeypatch):
    rng = np.random.default_rng([12, 9])
    families = [("random", {"branching": (1, 2, 3)}), ("random_balanced", {"branching": (2, 3)}),
                ("mad", {}), ("t2", {"alpha": 0.5})]
    seen = set()
    for trial in range(20):
        family, params = families[trial % len(families)]
        if family.startswith("random"):
            params = {**params, "seed": int(rng.integers(10_000))}
        s = make(GallerySpec(family=family, depth=int(rng.integers(1, 6)), params=params))
        n = s.tree.n_vertices
        phi = _random_symbol(rng, k_max=int(rng.integers(0, 12)))
        deg = 0 if trial % 5 == 0 else int(rng.integers(1, 4))
        q = TrigPoly.from_coeffs({
            k: complex(rng.standard_normal(), rng.standard_normal())
            for k in range(-deg, deg + 1)
        })
        f_ids = [v for v in range(n) if trial % 3 or rng.random() < 0.4]
        g_ids = [v for v in range(n) if trial % 4 != 1 or rng.random() < 0.3]
        if trial % 2:
            g_ids.reverse()
        f = TreeVector(s.tree, {v: complex(*rng.standard_normal(2)) for v in f_ids})
        g = TreeVector(s.tree, {v: complex(*rng.standard_normal(2)) for v in g_ids})
        n_points = None
        if trial % 4 == 3:
            n_points = deg + min(phi.degree, s.max_depth) + 1 + int(rng.integers(0, 4))
        seen.update(kind for kind, hit in [
            ("sparse f", len(f_ids) < n), ("sparse g", len(g_ids) < n),
            ("descending g", trial % 2 and len(g_ids) > 1), ("every id of g, ascending", g_ids == list(range(n))),
            ("K > D", phi.degree > s.max_depth),
            ("deg q = 0", deg == 0), ("explicit n_points", n_points is not None),
        ] if hit)
        want = loop_circle_pair_integral(s, q, phi, f, g, n_points)
        # The default chunk budget, then one that cuts the roots into many chunks.
        for budget in (multiplier._CHUNK_ENTRIES, 3 * n):
            monkeypatch.setattr(multiplier, "_CHUNK_ENTRIES", budget)
            got = circle_pair_integral(s, q, phi, f, g, n_points)
            assert _hex(got) == _hex(want), (trial, budget)
    assert len(seen) == 7, seen
    # inner() never reaches a non-finite g(v) where the image vanishes.
    s = make(GallerySpec(family="t2", depth=3, params={"alpha": 0.5}))
    f = TreeVector.basis(s.tree, 0)
    g = TreeVector(s.tree, {4: math.inf, 0: 1.0 - 1.0j, 3: complex(math.nan, 1.0)})
    q = TrigPoly.from_coeffs({-1: 0.5, 0: 1.0j})
    want = loop_circle_pair_integral(s, q, Symbol.indicator(0), f, g)
    assert math.isfinite(abs(want))
    with np.errstate(invalid="ignore"):  # inf * 0 in the terms that inner() skips
        got = circle_pair_integral(s, q, Symbol.indicator(0), f, g)
    assert _hex(got) == _hex(want)


def _bits(a):
    """The bytes of a complex array, with every NaN in one canonical form."""
    a = np.array(a, dtype=complex)
    a.real[np.isnan(a.real)] = math.nan
    a.imag[np.isnan(a.imag)] = math.nan
    return a.tobytes()


def test_gamma_apply_bitwise_equals_scalar_loop():
    rng = np.random.default_rng([15, 9])
    seen = set()
    for trial in range(12):
        s = _random_shift(int(rng.integers(10_000)), depth=int(rng.integers(1, 6)))
        k_max = int(rng.integers(0, 9))
        phi = Symbol.from_support({
            k: complex(*rng.standard_normal(2)) for k in range(k_max + 1) if k == k_max or rng.random() < 0.7
        })
        ids = [v for v in range(s.tree.n_vertices) if trial % 2 or rng.random() < 0.5]
        f = TreeVector(s.tree, {v: complex(*rng.standard_normal(2)) for v in ids})
        seen.add(phi.degree > s.max_depth)
        want = loop_gamma_apply(s, phi.values_upto(phi.degree), f)
        assert _bits(gamma_apply(s, phi, f).to_dense()) == _bits(want), trial
    assert seen == {True, False}


def _rows_match_loop(s, p, x):
    """``_gamma_rows`` on the coefficient rows p, each row checked bitwise
    against ``loop_gamma_apply``; returns the rows as complex arrays."""
    acc_re, acc_im = multiplier._gamma_rows(s, p.real, p.imag, x.real, x.imag)
    f = TreeVector.from_dense(s.tree, x)
    rows = [_join(acc_re[r], acc_im[r]) for r in range(len(p))]
    for r, row in enumerate(rows):
        assert _bits(row) == _bits(loop_gamma_apply(s, p[r].tolist(), f)), r
    return rows


def test_gamma_rows_bitwise_equal_scalar_loop_per_row():
    rng = np.random.default_rng([16, 9])
    for trial in range(8):
        s = _random_shift(int(rng.integers(10_000)), depth=int(rng.integers(2, 6)))
        k_max = int(rng.integers(1, s.max_depth + 1))
        p = rng.standard_normal((5, k_max + 1)) + 1j * rng.standard_normal((5, k_max + 1))
        p[rng.random(p.shape) < 0.3] = 0
        p[0] = 0
        p[1].imag[::2] = 0
        p[2, k_max], p[3, k_max] = 0, 1.0 - 0.5j  # zero and nonzero rows at one order
        x = random_vector(s.tree, rng).to_dense()
        _rows_match_loop(s, p, x)


def test_gamma_rows_with_overflowing_weight_products():
    # Weights of 1e150 make every weight product of order 3 or more inf.
    tree = _random_shift(7, depth=5).tree
    s = TruncatedShift(tree, np.full(tree.n_vertices - 1, 1e150))
    x = random_vector(tree, np.random.default_rng([17, 9])).to_dense()
    p = np.array([[1.0, 0.5j, -2.0, 1.0 + 1.0j, 0.0, 3.0],
                  [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 2.0, 1.0j, 0.0, 0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _rows_match_loop(s, p, x)
    assert np.isnan(rows[0]).any()
    assert all(np.isfinite(row).all() for row in rows[1:])
    # Rows whose coefficient is zero at the inf orders are skipped there,
    # never computed and masked, so they raise no inf * 0 warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):  # the weight products themselves overflow
            multiplier._gamma_rows(s, p[1:].real, p[1:].imag, x.real, x.imag)


def test_gamma_rows_with_non_finite_coefficients():
    # A rotated coefficient can overflow. 0.0 * inf is nan, so such a call
    # keeps the 0.0 * p parts of CPython's product and leaves the heads out.
    s = _random_shift(11, depth=4)
    x = random_vector(s.tree, np.random.default_rng([18, 9])).to_dense()
    p = np.array([[1.0, complex(math.inf, 1.0), 0.5j, 0.0, 2.0],
                  [1.0, 1.0j, 0.0, complex(1.0, -math.inf), 0.0],
                  [0.5, 0.0, 1.0 - 1.0j, 0.0, 0.25j]])
    with np.errstate(invalid="ignore"):
        rows = _rows_match_loop(s, p, x)
    assert np.isfinite(rows[2]).all()
    assert np.isfinite(rows[1][s.tree.depth < 3]).all()
    # Rotating a finite coefficient near the float64 limit overflows; the
    # root, which order 1 never reaches, keeps a finite pairing.
    phi = Symbol.from_support({0: 1.0, 1: 1.5e308 + 1.5e308j})
    f = g = TreeVector.basis(s.tree, 0)
    q = TrigPoly.from_coeffs({0: 1.0})
    with np.errstate(over="ignore", invalid="ignore"):
        p_re, p_im = multiplier._rotated_rows(phi, [cmath.exp(0.25j * math.pi)], 1)
        assert math.isinf(p_im[0, 1])
        want = loop_circle_pair_integral(s, q, phi, f, g)
        got = circle_pair_integral(s, q, phi, f, g)
    assert math.isfinite(abs(want)) and _hex(got) == _hex(want)


def _full_width(s, phi, f):
    """gamma_apply as it ran before the prefix: ``_gamma_rows`` on f's
    dense array over all N vertices, its nonzero entries as a vector."""
    p = np.array([phi.values_upto(min(phi.degree, s.max_depth))], dtype=complex)
    x = f.to_dense()
    acc_re, acc_im = multiplier._gamma_rows(s, p.real, p.imag, x.real, x.imag)
    return TreeVector.from_dense(s.tree, _join(acc_re[0], acc_im[0]))


_finite_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(weighted_trees(weights=st.just(0.0) | st.floats(0.25, 4.0)), st.data())
def test_gamma_apply_on_its_prefix_bitwise_equals_full_width_rows(s, data):
    offsets = s.tree.gen_offsets.tolist()
    deepest = data.draw(st.integers(-1, s.max_depth), label="deepest")  # -1: the zero vector
    ids = set()
    if deepest >= 0:
        ids = data.draw(st.sets(st.integers(0, offsets[deepest + 1] - 1), max_size=5), label="ids")
        ids.add(data.draw(st.integers(offsets[deepest], offsets[deepest + 1] - 1), label="at deepest"))
    f = TreeVector(s.tree, {v: data.draw(_finite_complex) for v in sorted(ids)})
    coeffs = data.draw(st.lists(st.just(0j) | _finite_complex, min_size=1, max_size=s.max_depth + 3))
    phi = Symbol.from_rule(coeffs.__getitem__, len(coeffs) - 1)
    got, want = gamma_apply(s, phi, f), _full_width(s, phi, f)
    assert got._ids.tobytes() == want._ids.tobytes()
    assert got._vals.tobytes() == want._vals.tobytes()


def test_gamma_apply_leaves_out_the_nan_past_its_prefix():
    # Weights of 1e150 make every weight product of order 3 inf. On e_0 the
    # output is 0 below depth 3, where the full-width rows meet f = 0 with
    # an inf product and give NaN; the prefix never computes those ids.
    tree = _random_shift(7, depth=6, branching=(2,)).tree
    s = TruncatedShift(tree, np.full(tree.n_vertices - 1, 1e150))
    e0 = TreeVector.basis(tree, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        got, full = gamma_apply(s, Symbol.ones(3), e0), _full_width(s, Symbol.ones(3), e0)
    below = tree.depth[full._ids] > 3
    assert below.sum() == 112 and np.isnan(full._vals[below]).all()
    assert got._ids.tobytes() == full._ids[~below].tobytes()
    assert got._vals.tobytes() == full._vals[~below].tobytes()


def test_deep_ray_quadrature_memory_is_chunked():
    s = make(GallerySpec(family="mad", depth=2000))
    rng = np.random.default_rng([13, 9])
    phi = Symbol.from_support({0: 1.0, 1: 0.5j, 2: -0.25})
    f = random_vector(s.tree, rng, unit=True)
    g = random_vector(s.tree, rng, unit=True)
    tracemalloc.start()
    try:
        # Default rule: 2 * (1 + 2 + 2000) + 1 = 4007 roots over 2001 vertices.
        val = circle_pair_integral(s, TrigPoly.monomial(1), phi, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert abs(val) <= 1e-12


def test_quadrature_rejects_insufficient_points():
    s = make(GallerySpec(family="unilateral", depth=5))
    f = TreeVector.basis(s.tree, 0)
    phi = Symbol.ones(4)
    q = TrigPoly.monomial(3)
    with pytest.raises(ValueError):
        circle_pair_integral(s, q, phi, f, f, n_points=7)
    val = circle_pair_integral(s, q, phi, f, f, n_points=8)
    assert abs(val) <= 1e-13


def test_sot_profile_bound_and_monotonicity():
    s = make(GallerySpec(family="t2", depth=10, params={"alpha": 0.5}))
    phi = Symbol.ones(6)
    probes = [TreeVector.basis(s.tree, u) for u in range(s.tree.n_vertices)]
    profile = sot_error_profile(s, phi, [4, 8, 16, 32], probes)
    assert profile.support_bound == 6
    assert profile.monotone
    for row in profile.rows:
        assert row.error <= row.bound + 1e-12
    errs = profile.errors_for_probe(0)
    assert len(errs) == 4 and errs[0] >= errs[-1]
    with pytest.raises(ValueError):
        sot_error_profile(s, phi, [-1], probes[:1])


def test_sot_rows_equal_the_full_fejer_hadamard_product():
    # The profile damps phi on orders 0..min(n, K) only; each row must be
    # bitwise the one the full 2n + 1 kernel gives, for n below and above K.
    s = _random_shift(21, depth=6)
    rng = np.random.default_rng([19, 9])
    phi = Symbol.from_support({0: 1.0, 1: 0.5j, 3: -0.25 + 1.0j, 6: 2.0})
    probes = [TreeVector.basis(s.tree, 0), random_vector(s.tree, rng)]
    levels = [0, 1, 2, 3, 5, 6, 7, 12]
    profile = sot_error_profile(s, phi, levels, probes)
    want = []
    for f in probes:
        reference = gamma_apply(s, phi, f)
        for n in levels:
            damped = gamma_apply(s, hadamard(fejer_symbol(n), phi), f)
            want.append((n, damped.minus(reference).norm()))
    assert [(r.n, r.error.hex()) for r in profile.rows] == [(n, e.hex()) for n, e in want]


def test_sot_bound_uses_weighted_column_mass():
    s = make(GallerySpec(family="t2", depth=8, params={"alpha": 0.5}))
    phi = Symbol.ones(4)
    f = TreeVector(s.tree, {0: 2.0, 3: -1.0j})
    profile = sot_error_profile(s, phi, [8], [f])
    mass = 2.0 * mult_column(s, phi, 0).norm() + mult_column(s, phi, 3).norm()
    assert abs(profile.rows[0].bound - 4 / 9 * mass) <= 1e-13 * mass


def test_multiplier_norm_lower_bound_vs_dense():
    rng = np.random.default_rng([10, 9])
    for trial in range(6):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        phi = _random_symbol(rng, k_max=4)
        low = multiplier_norm_lower_bound(s, phi)
        top = float(np.linalg.svd(dense_mult_matrix(s, phi), compute_uv=False)[0])
        assert low <= top + 1e-12, trial
        assert low >= mult_column(s, phi, 0).norm() - 1e-15


def test_symbol_json_round_trips():
    for phi in (Symbol.ones(5), Symbol.indicator(3), Symbol.power_law(-1.5, 7)):
        again = Symbol.from_json(phi.to_json())
        assert again.values == phi.values and again.degree == phi.degree
    explicit = Symbol.from_support({0: 1.0, 2: 1.0 - 2.0j})
    doc = explicit.to_json()
    assert doc == {"support": [[0, 1.0, 0.0], [2, 1.0, -2.0]]}
    again = Symbol.from_json(doc)
    assert again.values == explicit.values
    with pytest.raises(ValueError):
        Symbol.from_json({"rule": "ones"})
    with pytest.raises(ValueError):
        Symbol.from_json({"rule": "mystery", "K": 2})
    with pytest.raises(ValueError):
        Symbol.from_json({"support": [[0, 1.0, 0.0]], "rule": "ones"})
    with pytest.raises(ValueError):
        Symbol.from_json({})


def test_symbol_rules_dispatch_through_one_table():
    assert set(multiplier._RULES) == {"ones", "indicator", "power_law"}
    assert Symbol.power_law(-1.5, 7).to_json() == {"rule": "power_law", "exponent": -1.5, "K": 7}
    assert multiplier._rule_symbol("power_law", ["-1.5", "7"]).values == Symbol.power_law(-1.5, 7).values
    for name, params in (("ones", ["8", "9"]), ("ones", []), ("ones", ["x"]), ("mystery", ["1"]),
                         (["ones"], ["3"]), ("indicator", [None])):
        with pytest.raises(ValueError):
            multiplier._rule_symbol(name, params)
    for bad in ({"rule": "ones", "K": None}, {"rule": ["ones"], "K": 3},
                {"rule": "power_law", "exponent": "x", "K": 3}):
        with pytest.raises(ValueError):
            Symbol.from_json(bad)


def test_symbol_json_coeffs_form():
    phi = Symbol.from_json({"coeffs": {"0": [1.0, 0.0], "2": [0.5, -0.25], "3": [0, 0]}})
    assert phi.values == {0: 1.0, 2: 0.5 - 0.25j} and phi.degree == 2
    for bad in ({"coeffs": {"1": [float("nan"), 0.0]}}, {"coeffs": {"0": [1.0]}},
                {"coeffs": {"0": [1.0, None]}}, {"coeffs": [[0, 1.0, 0.0]]},
                {"coeffs": {"-1": [1.0, 0.0]}}, {"coeffs": {"0": [1.0, 0.0]}, "rule": "ones"}):
        with pytest.raises(ValueError):
            Symbol.from_json(bad)
    # An order key is an int or an ASCII decimal string, never converted from anything else.
    assert Symbol.from_json({"coeffs": {2: [0.5, 0]}}).values == {2: 0.5}
    for key in ("1_0", " 3", "+3", "\u0663", 1.5, True):
        with pytest.raises(ValueError, match="is not an integer order"):
            Symbol.from_json({"coeffs": {key: [1.0, 0.0]}})


def test_non_finite_coefficients_rejected():
    for bad in (float("nan"), float("inf"), complex(0.0, float("-inf"))):
        with pytest.raises(ValueError, match="finite"):
            Symbol.from_support({0: 1.0, 3: bad})
        with pytest.raises(ValueError, match="finite"):
            Symbol.from_rule(lambda k: bad if k == 2 else 1.0, 4)
        with pytest.raises(ValueError, match="finite"):
            TrigPoly.from_coeffs({-1: bad})
    with pytest.raises(ValueError, match="finite"):
        Symbol.power_law(float("nan"), 4)


def test_library_orders_must_be_integers():
    # Orders are refused, not truncated: 1.5, True and 2.7 once read as 1, 1 and 2.
    for build, key in ((Symbol.from_support, 1.5), (Symbol.from_support, True), (TrigPoly.from_coeffs, 2.7)):
        with pytest.raises(TreeSpecError, match=f"^coefficient order must be an integer, got {key}$"):
            build({key: 1.0})
    phi = Symbol.from_support({np.int64(2): 1.0, np.uint8(0): 0.5})
    assert phi.values == {2: 1.0, 0: 0.5} and all(type(k) is int for k in phi.values)
    assert TrigPoly.from_coeffs([(np.int32(-3), 2.0)]).coeffs == {-3: 2.0}
    assert list(Symbol.from_support({3: 1.0, 0: 2.0, 1: 0.0}).values) == [3, 0]  # insertion order, no zeros


def test_rule_overflow_names_its_order():
    with pytest.raises(TreeSpecError, match=r"^coefficient at order 2 overflows float64$"):
        Symbol.power_law(2000, 3)
