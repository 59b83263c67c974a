"""Acceptance checks, one test per criterion, run at their stated
tolerances. Each test prints one bracketed PASS or FAIL line (visible
with -s; the -v status line mirrors it) and keeps its tolerances inline
so the numbers are auditable in one place."""

import cmath
import math
from contextlib import contextmanager

import numpy as np

from treeshift import (
    GallerySpec,
    Symbol,
    TreeVector,
    TrigPoly,
    apply_adjoint,
    apply_shift,
    circle_pair_integral,
    enumerate_paths,
    fejer_symbol,
    gamma_apply,
    hadamard,
    image_dim,
    image_intersection_dim,
    is_balanced,
    is_injective,
    is_locally_power_balanced,
    kernel_basis,
    mad_divergence_partial_sum,
    make,
    mult_column,
    operator_norm_power,
    path_radius_estimate,
    peel,
    power_norm,
    random_balanced,
    reconstruct,
    rotate_symbol,
    rotate_vector,
    sot_error_profile,
    spectral_radius_estimate,
    t2_expected_peel_coefficient,
    wold_gram,
)

from oracles import dense_mult_matrix, dense_shift_matrix, random_vector


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL {desc}")
        raise
    print(f"[criterion {num:02d}] PASS {desc}")


def _random_case(seed, depth, branching=(1, 2)):
    return make(GallerySpec(family="random", depth=depth,
                            params={"seed": seed, "branching": branching}))


def test_criterion_01_telescoping_ray_exact_norms():
    with criterion(1, "telescoping-ray power norms, operator norms, radius surrogate"):
        s = make(GallerySpec(family="mad", depth=64))
        for l in range(65):
            for n in range(0, 65 - l):
                want = 1.0 if n == 0 else (float(n) if l == 0 else (l + n) / l)
                got = power_norm(s, l, n)
                assert abs(got - want) <= 1e-12 * want, (l, n)
        for n in range(1, 64):
            est = operator_norm_power(s, n)
            assert not est.may_grow_beyond_horizon, n
            assert est.attained_at == 1, n
            assert abs(est.value - (n + 1)) <= 1e-12 * (n + 1), n
        last = operator_norm_power(s, 64)
        assert last.may_grow_beyond_horizon  # only the root column is visible
        surrogates = [spectral_radius_estimate(s, n) for n in range(1, 65)]
        assert all(a >= b - 1e-14 for a, b in zip(surrogates, surrogates[1:]))
        assert 1.0 < surrogates[-1] <= 1.07
        path = enumerate_paths(s.tree)[0]
        assert path_radius_estimate(s, path, 1) >= 1.0
        assert path_radius_estimate(s, path, 32) >= 1.0


def test_criterion_02_divergent_symbol_partial_sums():
    with criterion(2, "power-law image partial sums track harmonic numbers"):
        for k_max in (1, 10, 200):
            harmonic = sum(1.0 / k for k in range(1, k_max + 1))
            assert abs(mad_divergence_partial_sum(k_max) - harmonic) <= 1e-10, k_max
        assert mad_divergence_partial_sum(200) > 5.0


def test_criterion_03_cesaro_error_bound():
    with criterion(3, "averaging-kernel errors within the support/(n+1) bound"):
        s = make(GallerySpec(family="t2", depth=16, params={"alpha": 0.5}))
        phi = Symbol.from_support({k: 1.0 for k in range(9)})
        probes = [TreeVector.basis(s.tree, u) for u in range(s.tree.n_vertices)]
        levels = [8, 16, 32, 64]
        profile = sot_error_profile(s, phi, levels, probes)
        assert profile.support_bound == 8
        assert profile.monotone
        for row in profile.rows:
            col_norm = mult_column(s, phi, row.probe_index).norm()
            assert row.error <= 8.0 / (row.n + 1) * col_norm + 1e-12, (row.n, row.probe_index)
        for n in levels:
            damped = hadamard(fejer_symbol(n), phi)
            for k in range(9):
                want = (1.0 - k / (n + 1)) * phi.value(k)
                assert abs(damped.value(k) - want) <= 1e-15, (n, k)


def test_criterion_04_circle_quadrature_identity():
    with criterion(4, "circle quadrature equals the coefficientwise pairing"):
        rng = np.random.default_rng([2024, 4])
        for case in range(50):
            depth = int(rng.integers(3, 8))
            s = _random_case(int(rng.integers(100_000)), depth)
            assert s.tree.n_vertices <= 300
            deg = int(rng.integers(0, 9))
            p = TrigPoly.from_coeffs({
                k: complex(rng.standard_normal(), rng.standard_normal())
                for k in range(-deg, deg + 1)
            })
            phi = Symbol.from_support({
                k: complex(rng.standard_normal(), rng.standard_normal())
                for k in range(9)
            })
            f = random_vector(s.tree, rng, unit=True)
            g = random_vector(s.tree, rng, unit=True)
            quad = circle_pair_integral(s, p.reflected(), phi, f, g)
            direct = gamma_apply(s, hadamard(p, phi), f).inner(g)
            assert abs(quad - direct) <= 1e-10, case
        s = _random_case(7, 5)
        phi = Symbol.ones(8)
        f = random_vector(s.tree, rng, unit=True)
        g = random_vector(s.tree, rng, unit=True)
        for k in range(1, 9):
            assert abs(circle_pair_integral(s, TrigPoly.monomial(k), phi, f, g)) <= 1e-12, k


def test_criterion_05_rotation_isometry_and_conjugation():
    with criterion(5, "generation rotations are isometric and conjugate the symbol"):
        rng = np.random.default_rng([2024, 5])
        for case in range(50):
            s = _random_case(int(rng.integers(100_000)), int(rng.integers(3, 7)))
            f = random_vector(s.tree, rng, unit=True)
            w = cmath.exp(2j * math.pi * rng.uniform())
            assert abs(rotate_vector(f, w).norm() - 1.0) <= 1e-14, case
            phi = Symbol.from_support({
                k: complex(rng.standard_normal(), rng.standard_normal())
                for k in range(9)
            })
            lhs = gamma_apply(s, rotate_symbol(phi, w), f)
            rhs = rotate_vector(gamma_apply(s, phi, rotate_vector(f, w.conjugate())), w)
            assert lhs.minus(rhs).norm() <= 1e-12, case


def test_criterion_06_decomposition_roundtrip_and_uniqueness():
    with criterion(6, "peel and reconstruct invert each other on injective shifts"):
        rng = np.random.default_rng([2024, 6])
        for case in range(20):
            s = _random_case(int(rng.integers(100_000)), depth=10)
            assert is_injective(s).injective
            f = random_vector(s.tree, rng, unit=True)
            comp = peel(s, f, s.max_depth)
            assert reconstruct(s, comp).minus(f).norm() <= 1e-10, case

            interior = f.restricted(list(s.tree.interior_vertices()))
            comp_i = peel(s, interior, s.max_depth)
            assert comp_i.residual.norm() <= 1e-10, case

            basis = kernel_basis(s)
            depths = basis.support_depths()
            layers = []
            for k in range(s.max_depth + 1):
                layer = TreeVector.zero(s.tree)
                for block, d in zip(basis.blocks, depths):
                    if d + k > s.max_depth:
                        continue
                    for vec in block.vectors:
                        layer = layer.plus(vec.scaled(
                            complex(rng.standard_normal(), rng.standard_normal())))
                layers.append(layer)
            assembled = TreeVector.zero(s.tree)
            for k in reversed(range(s.max_depth + 1)):
                assembled = layers[k].plus(apply_shift(s, assembled))
            comp_a = peel(s, assembled, s.max_depth)
            for k, layer in enumerate(layers):
                assert comp_a.components[k].minus(layer).norm() <= 1e-10, (case, k)


def test_criterion_07_balanced_implies_orthogonal_images():
    with criterion(7, "balanced fixtures have orthogonal kernel power images"):
        rng = np.random.default_rng([2024, 7])
        for case in range(20):
            s = random_balanced(seed=int(rng.integers(100_000)), branching=(1, 2), depth=8)
            assert is_balanced(s).ok
            basis = kernel_basis(s)
            for n in range(0, 4):
                for m in range(n + 1, 5):
                    g = wold_gram(s, n, m, basis)
                    assert g.max_abs <= 1e-10, (case, n, m)


def test_criterion_08_unbalanced_pairing_value():
    with criterion(8, "two-ray cross pairing equals alpha - alpha^3 = 0.375"):
        alpha = 0.5
        s = make(GallerySpec(family="t2", depth=6, params={"alpha": alpha}))
        t = s.tree
        e00 = TreeVector.basis(t, 0)
        direction = TreeVector(t, {
            t.vertex_with_label("(1,1)"): alpha,
            t.vertex_with_label("(2,1)"): -1.0,
        })
        lhs = apply_shift(s, apply_shift(s, e00))
        rhs = apply_shift(s, direction)
        pairing = lhs.inner(rhs)
        assert abs(pairing - 0.375) <= 1e-12
        assert abs(pairing - (alpha - alpha ** 3)) <= 1e-12
        assert apply_adjoint(s, direction).norm() == 0.0


def test_criterion_09_counterexample_image_geometry():
    with criterion(9, "kernel image collapse on the broom, pendant overlap on its variant"):
        broom = make(GallerySpec(family="broom", params={"arms": 5}))
        kb = kernel_basis(broom)
        assert image_dim(broom, 1, kb) == 1
        assert image_dim(broom, 2, kb) == 0
        assert image_dim(broom, 3, kb) == 0
        variant = make(GallerySpec(family="broom_leaf", params={"arms": 5}))
        assert image_intersection_dim(variant, 1, 2, kernel_basis(variant)) == 1


def test_criterion_10_layer_coefficient_obstruction():
    with criterion(10, "peeled layer coefficients match the closed form and blow up"):
        alpha = 0.5
        s = make(GallerySpec(family="t2", depth=20, params={"alpha": alpha}))
        f = TreeVector(s.tree, {
            s.tree.vertex_with_label(f"(2,{j})"): 1.0 / j for j in range(1, 21)
        })
        comp = peel(s, f, 20)
        low = s.tree.vertex_with_label("(2,1)")
        for j in range(11):
            gamma = -comp.components[j].get(low).real
            assert abs(gamma - t2_expected_peel_coefficient(j, alpha)) <= 1e-10, j
        gamma16 = -comp.components[16].get(low).real
        assert abs(gamma16) * alpha > 1e3
        assert abs(t2_expected_peel_coefficient(16, alpha)) * alpha > 1e3


def test_criterion_11_balanced_power_norm_constancy():
    with criterion(11, "balanced fixtures have generation-constant power norms"):
        fixtures = [
            make(GallerySpec(family="unilateral", depth=8)),
            make(GallerySpec(family="mad", depth=8)),
            make(GallerySpec(family="broom", params={"arms": 5})),
            make(GallerySpec(family="broom_leaf", params={"arms": 5})),
            make(GallerySpec(family="t2", depth=8, params={"alpha": 0.5})),
            make(GallerySpec(family="t2_zero", depth=4)),
            make(GallerySpec(family="random", depth=6, params={"seed": 1})),
            random_balanced(seed=1, branching=(1, 2), depth=6),
        ]
        balanced_seen = 0
        for s in fixtures:
            if not is_balanced(s).ok:
                continue
            balanced_seen += 1
            for n in range(1, 5):
                for gen in s.tree.generations:
                    norms = [power_norm(s, u, n) for u in gen if s.horizon(u) >= n]
                    if len(norms) > 1:
                        ref = norms[0]
                        assert all(abs(x - ref) <= 1e-10 * max(1.0, ref) for x in norms), n
        assert balanced_seen >= 4  # chain fixtures, broom, and the balanced draw
        t2z = make(GallerySpec(family="t2_zero", depth=4))
        assert is_locally_power_balanced(t2z, 4).ok
        assert not is_balanced(t2z).ok


def test_criterion_12_dense_oracle_equivalence():
    with criterion(12, "sparse operator routes agree with dense definition matrices"):
        rng = np.random.default_rng([2024, 12])
        shifts = [
            make(GallerySpec(family="t2", depth=6, params={"alpha": 0.5})),
            make(GallerySpec(family="mad", depth=8)),
            make(GallerySpec(family="broom_leaf", params={"arms": 5})),
            make(GallerySpec(family="t2_zero", depth=4)),
        ]
        for _ in range(6):
            shifts.append(_random_case(int(rng.integers(100_000)), depth=4, branching=(1, 2, 3)))
        for s in shifts:
            assert s.tree.n_vertices <= 64
            mat = dense_shift_matrix(s)
            phi = Symbol.from_support({
                k: complex(rng.standard_normal(), rng.standard_normal())
                for k in range(7)
            })
            mult = dense_mult_matrix(s, phi)
            f = random_vector(s.tree, rng, unit=True)
            assert np.max(np.abs(apply_shift(s, f).to_dense() - mat @ f.to_dense())) <= 1e-13
            assert np.max(np.abs(apply_adjoint(s, f).to_dense() - mat.T @ f.to_dense())) <= 1e-13
            for u in range(s.tree.n_vertices):
                col = mult_column(s, phi, u).to_dense()
                assert np.max(np.abs(col - mult[:, u])) <= 1e-13, u
