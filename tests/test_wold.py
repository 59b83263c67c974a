import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    DirectedTree,
    GallerySpec,
    HorizonError,
    TreeVector,
    TruncatedShift,
    apply_adjoint,
    apply_shift,
    build_tree,
    image_dim,
    image_intersection_dim,
    is_balanced,
    is_locally_power_balanced,
    kernel_basis,
    make,
    peel,
    power_images,
    project_kernel,
    random_balanced,
    reconstruct,
    t2_expected_peel_coefficient,
    wold_gram,
)
from treeshift.wold import _project

from oracles import (
    closed_form_gram,
    cumsum_project,
    dense_shift_matrix,
    exact_kernel_pairings,
    loop_dense_images,
    loop_kernel_basis,
    loop_peel,
    loop_project_kernel,
    loop_reconstruct,
    random_vector,
)

ALPHA = 0.5


def _t2(depth=8):
    return make(GallerySpec(family="t2", depth=depth, params={"alpha": ALPHA}))


def _random_shift(seed, depth=6):
    return make(GallerySpec(family="random", depth=depth, params={"seed": seed, "branching": (1, 2)}))


def test_kernel_basis_shapes():
    chain = make(GallerySpec(family="unilateral", depth=6))
    kb = kernel_basis(chain)
    assert kb.total_dim == 1 and kb.blocks[0].parent is None

    t2 = _t2()
    kb = kernel_basis(t2)
    assert [b.dim for b in kb.blocks] == [1, 1]
    direction = kb.blocks[1].vectors[0]
    up = t2.tree.vertex_with_label("(1,1)")
    low = t2.tree.vertex_with_label("(2,1)")
    scale = math.sqrt(1 + ALPHA ** 2)
    assert abs(direction.get(up) - ALPHA / scale) <= 1e-15
    assert abs(direction.get(low) + 1.0 / scale) <= 1e-15

    broom = make(GallerySpec(family="broom", params={"arms": 5}))
    interior = kernel_basis(broom)
    assert interior.total_dim == 1  # boundary sibling block excluded
    full = kernel_basis(broom, interior_only=False)
    assert interior.interior_only and not full.interior_only
    assert full.total_dim == 1 + 4
    assert full.support_depths() == [0, 1]


def test_kernel_basis_zero_weight_blocks():
    s = make(GallerySpec(family="t2_zero", depth=4))
    kb = kernel_basis(s)
    dims = {(None if b.parent is None else s.tree.labels[b.parent]): b.dim for b in kb.blocks}
    # Vanishing child weights make the whole sibling span kernel.
    assert dims == {None: 1, "(0,0)": 1, "(1,1)": 1, "(2,1)": 1}
    assert kb.total_dim == 4


def test_kernel_vectors_annihilated():
    for s in (_t2(), make(GallerySpec(family="t2_zero", depth=4)), _random_shift(17)):
        for interior_only in (True, False):
            for b in kernel_basis(s, interior_only).vectors():
                assert apply_adjoint(s, b).norm() <= 1e-12
                assert abs(b.norm() - 1.0) <= 1e-13


def test_projection_idempotent_and_kills_range():
    rng = np.random.default_rng([30, 0])
    for trial in range(10):
        s = _random_shift(int(rng.integers(10_000)))
        f = random_vector(s.tree, rng, unit=True)
        pf = project_kernel(s, f)
        assert project_kernel(s, pf).minus(pf).norm() <= 1e-12, trial
        sg = apply_shift(s, f)
        assert project_kernel(s, sg).norm() <= 1e-12 * max(1.0, sg.norm()), trial


def test_projection_matches_dense_null_space():
    rng = np.random.default_rng([31, 0])
    for trial in range(6):
        s = _random_shift(int(rng.integers(10_000)), depth=4)
        adjoint = dense_shift_matrix(s).T
        basis = scipy.linalg.null_space(adjoint)
        f = random_vector(s.tree, rng)
        want = basis @ (basis.conj().T @ f.to_dense())
        got = project_kernel(s, f, kernel_basis(s, interior_only=False)).to_dense()
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, f.norm()), trial


def test_projection_coefficients_on_two_rays():
    s = _t2()
    low = s.tree.vertex_with_label("(2,1)")
    up = s.tree.vertex_with_label("(1,1)")
    p = project_kernel(s, TreeVector.basis(s.tree, low))
    assert abs(p.get(low) - 0.8) <= 1e-12
    assert abs(p.get(up) + 0.4) <= 1e-12


def test_peel_layer_coefficients_match_closed_form():
    s = _t2(depth=12)
    f = TreeVector(s.tree, {s.tree.vertex_with_label(f"(2,{j})"): 1.0 / j for j in range(1, 13)})
    comp = peel(s, f, 12)
    low = s.tree.vertex_with_label("(2,1)")
    for j in range(11):
        gamma = -comp.components[j].get(low).real
        assert abs(gamma - t2_expected_peel_coefficient(j, ALPHA)) <= 1e-10, j
    assert reconstruct(s, comp).minus(f).norm() <= 1e-10


def test_peel_roundtrip_and_interior_residual():
    rng = np.random.default_rng([32, 0])
    for trial in range(10):
        s = _random_shift(int(rng.integers(10_000)))
        f = random_vector(s.tree, rng, unit=True)
        comp = peel(s, f, s.max_depth)
        assert reconstruct(s, comp).minus(f).norm() <= 1e-10, trial
        interior = f.restricted(list(s.tree.interior_vertices()))
        comp2 = peel(s, interior, s.max_depth)
        assert comp2.residual.norm() <= 1e-10, trial
        assert reconstruct(s, comp2).minus(interior).norm() <= 1e-10, trial


def test_peel_inverts_assembled_components():
    # Build layers straight from kernel blocks, assemble, peel them back.
    rng = np.random.default_rng([33, 0])
    for trial in range(8):
        s = _random_shift(int(rng.integers(10_000)))
        basis = kernel_basis(s)
        depths = basis.support_depths()
        horizon = s.max_depth
        layers = []
        for k in range(horizon + 1):
            coeffs = TreeVector.zero(s.tree)
            for b, d in zip(basis.blocks, depths):
                if d + k > s.max_depth:
                    continue  # the image would fall off the window
                for vec in b.vectors:
                    coeffs = coeffs.plus(vec.scaled(complex(rng.standard_normal(), rng.standard_normal())))
            layers.append(coeffs)
        f = TreeVector.zero(s.tree)
        for k in reversed(range(horizon + 1)):
            f = layers[k].plus(apply_shift(s, f))
        comp = peel(s, f, horizon)
        assert comp.residual.norm() <= 1e-10, trial
        for k in range(horizon + 1):
            assert comp.components[k].minus(layers[k]).norm() <= 1e-10, (trial, k)


def test_peel_refusals():
    broom = make(GallerySpec(family="broom", params={"arms": 3}))
    with pytest.raises(ValueError, match="genuine leaves"):
        peel(broom, TreeVector.basis(broom.tree, 0), 1)
    t2z = make(GallerySpec(family="t2_zero", depth=4))
    with pytest.raises(ValueError, match="norm 0.0"):
        peel(t2z, TreeVector.basis(t2z.tree, 0), 2)
    s = _t2(depth=4)
    with pytest.raises(HorizonError):
        peel(s, TreeVector.basis(s.tree, 0), 5)
    with pytest.raises(HorizonError):
        peel(s, TreeVector.basis(s.tree, 0), -1)


def test_balance_witnesses():
    s = _t2()
    res = is_balanced(s)
    assert not res.ok
    assert {res.u, res.v} == {s.tree.vertex_with_label("(1,1)"), s.tree.vertex_with_label("(2,1)")}
    assert res.power == 1
    assert sorted((res.norm_u, res.norm_v)) == [ALPHA, 1.0]

    assert is_balanced(make(GallerySpec(family="unilateral", depth=5))).ok
    assert is_balanced(make(GallerySpec(family="mad", depth=5))).ok


def test_locally_power_balanced_split():
    t2z = make(GallerySpec(family="t2_zero", depth=5))
    assert is_locally_power_balanced(t2z, 4).ok
    assert not is_balanced(t2z).ok

    s = _t2()
    res = is_locally_power_balanced(s, 3)
    assert not res.ok and res.power == 1

    with pytest.raises(ValueError):
        is_locally_power_balanced(s, 0)


def test_locally_power_balanced_witness_order():
    # Root children 1, 2 agree at order 1 and differ at order 2; the
    # children 3, 4 of vertex 1 already differ at order 1. The witness is
    # ordered by parent first, so the root's pair at order 2 wins.
    t = build_tree({
        "vertices": [str(i) for i in range(9)],
        "edges": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [3, 6], [4, 7], [5, 8]],
    })
    s = TruncatedShift(t, {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: math.sqrt(2.0), 6: 1.0, 7: 2.0, 8: 1.0})
    res = is_locally_power_balanced(s, 2)
    assert (res.ok, res.u, res.v, res.power) == (False, 1, 2, 2)
    assert (res.norm_u, res.norm_v) == (math.sqrt(5.0), math.sqrt(2.0))
    res = is_locally_power_balanced(s, 1)
    assert (res.ok, res.u, res.v, res.power) == (False, 3, 4, 1)


def test_random_balanced_fixture_is_balanced():
    s = random_balanced(seed=11, branching=(1, 2, 3), depth=6)
    assert is_balanced(s).ok
    assert is_locally_power_balanced(s, 4).ok
    again = random_balanced(seed=11, branching=(1, 2, 3), depth=6)
    assert s.lam.tolist() == again.lam.tolist()


def test_gram_identity_at_zero_powers():
    s = _random_shift(21)
    basis = kernel_basis(s)
    g = wold_gram(s, 0, 0, basis)
    assert not g.exceeds_horizon
    assert np.max(np.abs(g.matrix - np.eye(basis.total_dim))) <= 1e-12


def test_gram_cross_pairing_on_two_rays():
    s = _t2(depth=6)
    basis = kernel_basis(s)
    g = wold_gram(s, 2, 1, basis)
    # Root-block image against the shifted kernel direction.
    want = (ALPHA - ALPHA ** 3) / math.sqrt(1 + ALPHA ** 2)
    assert abs(g.matrix[0, 1] - want) <= 1e-12
    assert abs(g.max_abs - want) <= 1e-12


def test_gram_orthogonality_for_balanced():
    s = random_balanced(seed=5, branching=(1, 2), depth=6)
    basis = kernel_basis(s)
    for n in range(0, 4):
        for m in range(n + 1, 5):
            g = wold_gram(s, n, m, basis)
            assert g.max_abs <= 1e-12, (n, m)


def _exact_gram_normalised(s, top):
    """The exact pairings of ``exact_kernel_pairings`` on the float weights,
    each divided by the float norms of its two vectors."""
    sq, pairings = exact_kernel_pairings(s.tree, [Fraction(w) for w in s.lam.tolist()], top)
    norms = [math.sqrt(x) for x in sq]
    return {nm: np.array([[float(x) / (a * b) for x, b in zip(row, norms)] for row, a in zip(mat, norms)])
            for nm, mat in pairings.items()}


def test_gram_matches_exact_arithmetic_oracle():
    for seed in range(6):
        s = make(GallerySpec(family="random", depth=4, params={"seed": seed, "branching": (1, 2, 3)}))
        basis = kernel_basis(s)
        for (n, m), want in _exact_gram_normalised(s, 4).items():
            got = wold_gram(s, n, m, basis).matrix
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), (seed, n, m)


def test_exact_gram_vanishes_on_pythagorean_binary_trees():
    # Sibling weights 3/5 and 4/5: every power column has norm 1, so the
    # shift is balanced, and each pairing of distinct powers is exactly 0.
    for seed in range(4):
        tree = random_balanced(seed=seed, branching=(2,), depth=5).tree
        swaps = np.random.default_rng(seed).integers(0, 2, tree.n_vertices // 2).tolist()
        pair = (Fraction(3, 5), Fraction(4, 5))
        lam = [Fraction(0)] + [w for swap in swaps for w in (pair[::-1] if swap else pair)]
        sq, pairings = exact_kernel_pairings(tree, lam, tree.max_depth)
        assert len(sq) == 16
        for nm, mat in pairings.items():
            assert all(x == 0 for row in mat for x in row), (seed, nm)


def test_exact_gram_on_near_balanced_example():
    # The README's example: a weight scaled by 1 + 1e-4 moves the largest
    # pairing from rounding level to 2.2e-5. No verdict is pinned here.
    base = random_balanced(seed=0, branching=(2, 3), depth=4)
    lam = base.lam[1:].copy()
    assert np.max(np.abs(list(_exact_gram_normalised(base, 4).values()))) <= 1e-15
    lam[4] *= 1 + 1e-4  # vertex 5
    largest = np.max(np.abs(list(_exact_gram_normalised(TruncatedShift(base.tree, lam), 4).values())))
    assert f"{largest:.9e}" == "2.180140196e-05"


def test_gram_horizon_flag_and_strict_mode():
    s = random_balanced(seed=6, branching=(2,), depth=3)
    basis = kernel_basis(s)
    flagged = wold_gram(s, 2, 3, basis)
    assert flagged.exceeds_horizon
    assert flagged.max_abs <= 1e-12
    with pytest.raises(HorizonError):
        wold_gram(s, 2, 3, basis, strict=True)
    fine = wold_gram(s, 0, 1, basis, strict=True)
    assert not fine.exceeds_horizon


def _oracle_intersection_dim(a, b, tol=1e-8):
    a, b = scipy.linalg.orth(a), scipy.linalg.orth(b)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0
    return int(np.sum(np.clip(scipy.linalg.svdvals(a.conj().T @ b), 0.0, 1.0) >= 1.0 - tol))


def _zero_set_shift():
    """Sibling sets of zero weights, and sets [w, 0, 0] whose pivot is in no kernel vector.

    One of each is interior (parents 1 and 2), one of each on the boundary
    (parents 5 and 6); the other sets are positive.
    """
    t = random_balanced(seed=1, branching=(3,), depth=3).tree
    lam = np.linspace(0.5, 2.0, t.n_vertices)
    for u, w in ((1, 0.0), (2, 1.5), (5, 0.0), (6, 0.7)):
        lam[t.children[u]] = [w, 0.0, 0.0]
    return TruncatedShift(t, lam[1:])


def _image_fixtures():
    return [
        make(GallerySpec(family="random", depth=5, params={"seed": 3, "branching": (1, 2, 3)})),
        random_balanced(seed=8, branching=(2, 3), depth=4),
        _t2(depth=5),
        make(GallerySpec(family="t2_zero", depth=5)),
        make(GallerySpec(family="broom_leaf", params={"arms": 4})),
        make(GallerySpec(family="mad", depth=6)),
        _zero_set_shift(),
    ]


def test_gram_and_images_bitwise_equal_per_vector_loop():
    for case, s in enumerate(_image_fixtures()):
        for interior_only in (True, False):
            kb = kernel_basis(s, interior_only)
            powers = range(s.max_depth + 2)
            images = [loop_dense_images(s, n, kb) for n in powers]
            for n in powers:
                a = images[n]
                assert image_dim(s, n, kb) == (np.linalg.matrix_rank(a) if a.size else 0), (case, n)
                for m in powers:
                    b = images[m]
                    got = wold_gram(s, n, m, kb).matrix
                    assert got.tobytes() == (a.T @ np.conj(b)).tobytes(), (case, n, m)
                    want = _oracle_intersection_dim(a, b)
                    assert image_intersection_dim(s, n, m, kb) == want, (case, n, m)


def _ladder_widths(s, basis, top):
    """width(k) for k = 0..top: the columns of the blocks at depth <= max_depth - k,
    counted from the block depths alone, raised to at least min(2, dim)."""
    depths = np.repeat(basis.support_depths(), [b.dim for b in basis.blocks])
    return [max(int(np.sum(depths <= s.max_depth - k)), min(2, basis.total_dim)) for k in range(top + 1)]


def _check_ladder(s, kb, ladder, case):
    """Each stored block is the first width(k) columns of the per-vector loop's
    S^k B, and every later column of the loop's is exactly zero."""
    for n, (block, width) in enumerate(zip(ladder, _ladder_widths(s, kb, len(ladder) - 1))):
        want = loop_dense_images(s, n, kb)
        # Equal entries; a zero part may differ in sign, as ``apply_shift``
        # documents for blocks.
        assert block.shape == (s.tree.n_vertices, width), (case, n)
        assert np.array_equal(block, want[:, :width]), (case, n)
        assert not np.any(want[:, width:]), (case, n)


def test_power_ladder_bitwise_equal_per_vector_loop():
    for case, s in enumerate(_image_fixtures()):
        for interior_only in (True, False):
            kb = kernel_basis(s, interior_only)
            top = s.max_depth + 1
            ladder = power_images(s, kb, top)
            assert len(ladder) == top + 1
            _check_ladder(s, kb, ladder, case)
            for n in range(top + 1):
                for m in range(top + 1):
                    got = wold_gram(s, n, m, kb, ladder=ladder)
                    alone = wold_gram(s, n, m, kb)
                    assert got.corner.tobytes() == alone.corner.tobytes(), (case, n, m)
                    assert got.matrix.shape == alone.matrix.shape, (case, n, m)
                    assert got.matrix.tobytes() == alone.matrix.tobytes(), (case, n, m)
                    assert got.exceeds_horizon == alone.exceeds_horizon, (case, n, m)


# Run in a child per OpenBLAS kernel: every (n, m) pair of the gram goldens
# and of a few seeded trees, against a ladder on all dim columns built in
# the child, with the live widths counted from the block depths alone.
# Prints one JSON line: pairs checked, failures, the pairs with a live
# width of 1 on a basis of dim > 1, and the dims seen.
_LIVE_GRAM_CHILD = """
import json, sys
import numpy as np
from treeshift import (GallerySpec, KernelBasis, apply_shift, kernel_basis, make, power_images, random_balanced,
                       wold_gram)
from treeshift.cli import _build_parser, _build_shift

def cases():
    for name, argv in json.loads(sys.argv[1]).items():
        args = _build_parser().parse_args(argv)
        s = _build_shift(args)[0]
        yield name, s, kernel_basis(s), min(args.max_power, s.max_depth)
    def random(depth, seed, branching):
        return make(GallerySpec(family="random", depth=depth, params={"seed": seed, "branching": branching}))
    t2 = make(GallerySpec(family="t2", depth=4, params={"alpha": 0.5}))
    for name, s, interior_only in (
        ("random2_d8", random(8, 0, (2,)), True),
        ("random12_d7", random(7, 5, (1, 2)), True),
        ("random3_d5", random(5, 2, (3,)), True),
        ("balanced2_d7", random_balanced(seed=4, branching=(2,), depth=7), True),
        ("random123_d5_full", random(5, 9, (1, 2, 3)), False),
        ("balanced23_d5_full", random_balanced(seed=3, branching=(2, 3), depth=5), False),
        ("unilateral_d4", make(GallerySpec(family="unilateral", depth=4)), True),
        ("t2_d4", t2, True),
    ):
        yield name, s, kernel_basis(s, interior_only), s.max_depth
    yield "t2_d4_empty", t2, KernelBasis(t2.tree, True, ()), t2.max_depth

pairs, bad, narrow, dims = 0, [], [], set()
for name, s, basis, top in cases():
    ladder = power_images(s, basis, top)
    # The same blocks on all dim columns, each shifted from the one before.
    wide = ladder[:1]
    for _ in range(top):
        wide.append(apply_shift(s, wide[-1]))
    dim = basis.total_dim
    dims.add(dim)
    depths = np.repeat(basis.support_depths(), [b.dim for b in basis.blocks])
    live = [int(np.sum(depths <= s.max_depth - k)) for k in range(top + 1)]
    for k, (block, full) in enumerate(zip(ladder, wide)):
        if np.any(full[:, live[k]:] != 0):
            bad.append([name, k, k, "dead column not zero"])
        if block.tobytes() != full[:, :max(live[k], min(2, dim))].tobytes():
            bad.append([name, k, k, "ladder block"])
    for n in range(top + 1):
        for m in range(top + 1):
            g = wold_gram(s, n, m, basis, ladder=ladder)
            full = wide[n].T @ np.conj(wide[m])
            h, w = max(live[n], min(2, dim)), max(live[m], min(2, dim))
            rest = g.matrix.copy()
            rest[:h, :w] = 0
            if g.corner.shape != (h, w) or g.matrix[:h, :w].tobytes() != full[:h, :w].tobytes():
                bad.append([name, n, m, "live block"])
            if wold_gram(s, n, m, basis, ladder=wide).corner.tobytes() != g.corner.tobytes():
                bad.append([name, n, m, "full-width ladder"])
            if np.any(rest != 0):
                bad.append([name, n, m, "rest not zero"])
            if g.max_abs != (float(np.max(np.abs(full))) if full.size else 0.0):
                bad.append([name, n, m, "max_abs"])
            if dim > 1 and min(live[n], live[m]) == 1:
                narrow.append([name, n, m])
            pairs += 1
print(json.dumps({"pairs": pairs, "bad": bad, "narrow": narrow, "dims": sorted(dims)}))
"""


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh if line.startswith("flags")), set())
    except OSError:
        return set()


# Each kernel with the CPU flag it needs (None: the kernel OpenBLAS picks):
# forcing a kernel whose instructions the CPU lacks kills the child, and a
# CPU without avx2 gets Sandybridge's or an older kernel. Sandybridge is
# left out: its kernel rounds the narrower product differently from the
# full one (144 of 1 286 pairs on random trees of depths 2-8), and the gram
# goldens already fail under it with the full product (ROADMAP, State).
@pytest.mark.parametrize("coretype, flag", [
    (None, "avx2"), ("Haswell", "avx2"), ("Zen", "avx2"), ("SkylakeX", "avx512f"),
])
def test_live_gram_bitwise_equals_full_product_per_blas_kernel(coretype, flag):
    from test_golden import CASES

    if flag not in _cpu_flags():
        pytest.skip(f"the CPU lacks {flag}, which the {coretype or 'native'} kernel needs here")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", **({"OPENBLAS_CORETYPE": coretype} if coretype else {}))
    golden = {name: argv for name, argv in CASES.items() if argv[0] == "gram"}
    assert len(golden) == 4
    proc = subprocess.run([sys.executable, "-c", _LIVE_GRAM_CHILD, json.dumps(golden)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["bad"] == []
    assert ["gram_random", 0, 4] in got["narrow"]
    assert {0, 1, 2} <= set(got["dims"])
    assert got["pairs"] == 516


def test_short_ladder_refused():
    s = _t2(depth=5)
    kb = kernel_basis(s)
    ladder = power_images(s, kb, 2)
    assert wold_gram(s, 1, 2, kb, ladder=ladder).matrix.shape == (kb.total_dim, kb.total_dim)
    with pytest.raises(ValueError, match="stops at power 2"):
        wold_gram(s, 1, 3, kb, ladder=ladder)
    with pytest.raises(ValueError, match="nonnegative"):
        power_images(s, kb, -1)


def test_image_dims_on_counterexample_fixtures():
    broom = make(GallerySpec(family="broom", params={"arms": 5}))
    kb = kernel_basis(broom)
    assert image_dim(broom, 1, kb) == 1
    assert image_dim(broom, 2, kb) == 0
    assert image_dim(broom, 3, kb) == 0

    bl = make(GallerySpec(family="broom_leaf", params={"arms": 5}))
    kb = kernel_basis(bl)
    assert image_intersection_dim(bl, 1, 2, kb) == 1

    t2 = _t2(depth=6)
    kb = kernel_basis(t2)
    assert image_intersection_dim(t2, 1, 2, kb) == 0


def test_basis_from_another_tree_refused():
    shallow = make(GallerySpec(family="random", depth=3))
    deep = make(GallerySpec(family="random", depth=5))
    for s, other in ((deep, shallow), (shallow, deep)):
        basis = kernel_basis(other)
        f = TreeVector.basis(s.tree, 0)
        calls = (
            lambda: wold_gram(s, 1, 2, basis),
            lambda: power_images(s, basis, 2),
            lambda: image_dim(s, 1, basis),
            lambda: image_intersection_dim(s, 1, 2, basis),
            lambda: project_kernel(s, f, basis),
        )
        for call in calls:
            with pytest.raises(ValueError, match="tree mismatch"):
                call()


def _bits(f):
    """Per-vertex bit patterns of a TreeVector's real and imaginary parts."""
    return {v: (c.real.hex(), c.imag.hex()) for v, c in f.items()}


def _zero_weight_shift():
    """Injective, with a zero weight inside two sibling sets of four."""
    t = random_balanced(seed=1, branching=(4,), depth=3).tree
    lam = np.linspace(0.5, 2.0, t.n_vertices - 1)
    lam[[1, 6]] = 0.0
    return TruncatedShift(t, lam)


def _basis_fixtures():
    broom = make(GallerySpec(family="broom", params={"arms": 4}))
    # Weights far apart: the scalar route prunes an exact zero for these sets.
    extreme = random_balanced(seed=2, branching=(3,), depth=3)
    lam = extreme.lam[1:].copy()
    lam[[0, 4, 12]] = [1e-9, 1e-300, 1e-200]
    return [
        random_balanced(seed=3, branching=(3,), depth=4),
        random_balanced(seed=4, branching=(1, 2, 3), depth=5),
        random_balanced(seed=5, branching=(2, 9), depth=3),
        TruncatedShift(extreme.tree, lam),
        _zero_weight_shift(),
        _random_shift(5, depth=5),
        make(GallerySpec(family="random", depth=5, params={"seed": 6, "branching": (2,)})),
        make(GallerySpec(family="random", depth=4, params={"seed": 7, "branching": (1, 4)})),
        make(GallerySpec(family="mad", depth=6)),
        _t2(depth=6),
        make(GallerySpec(family="t2_zero", depth=5)),
        TruncatedShift(broom.tree, [1.0, 0.0, 0.5, 2.0]),
        make(GallerySpec(family="broom_leaf", params={"arms": 4})),
        _zero_set_shift(),
    ]


def test_kernel_basis_bitwise_equals_scalar_route():
    for case, s in enumerate(_basis_fixtures()):
        for interior_only in (True, False):
            got = kernel_basis(s, interior_only)
            want = loop_kernel_basis(s, interior_only)
            assert [b.parent for b in got.blocks] == [b.parent for b in want], case
            assert got.total_dim == sum(b.dim for b in want), case
            for gb, wb in zip(got.blocks, want):
                assert len(gb.vectors) == len(wb.vectors), (case, gb.parent)
                for gv, wv in zip(gb.vectors, wb.vectors):
                    # Same keys in the same insertion order, same bits.
                    assert list(gv.items()) == list(wv.items()), (case, gb.parent)
                    assert _bits(gv) == _bits(wv), (case, gb.parent)


def test_kernel_basis_leaves_the_children_view_unbuilt():
    # One sibling set reads its bounds from first_child: the children view
    # holds a range per vertex, which the tree would keep.
    s = _zero_set_shift()
    s.tree.__dict__.pop("children", None)
    for interior_only in (True, False):
        kernel_basis(s, interior_only).vectors()
    assert "children" not in s.tree.__dict__


def test_projection_and_peel_bitwise_equal_scalar_route():
    shifts = [
        random_balanced(seed=3, branching=(3,), depth=5),
        random_balanced(seed=4, branching=(1, 2, 3), depth=5),
        random_balanced(seed=5, branching=(2, 9), depth=3),
        _zero_weight_shift(),
        make(GallerySpec(family="random", depth=5, params={"seed": 6, "branching": (2,)})),
        make(GallerySpec(family="random", depth=4, params={"seed": 7, "branching": (1, 4)})),
        make(GallerySpec(family="mad", depth=6)),
        _t2(depth=6),
    ]
    rng = np.random.default_rng([34, 0])
    for case, s in enumerate(shifts):
        tree = s.tree
        x = rng.standard_normal(tree.n_vertices) + 1j * rng.standard_normal(tree.n_vertices)
        inputs = {
            "unit": random_vector(tree, rng, unit=True),
            "real": TreeVector.from_dense(tree, x.real + 0j),
            "negated real, imaginary -0.0": TreeVector.from_dense(tree, np.conj(-x.real + 0j)),
            "root": TreeVector.basis(tree, 0),
            "siblings": TreeVector.from_dense(tree, np.where(tree.parent == 0, x, 0)),
            "generation": TreeVector.from_dense(tree, np.where(tree.depth == 2, x, 0)),
        }
        interior, full = loop_kernel_basis(s), loop_kernel_basis(s, False)
        for name, f in inputs.items():
            assert list(f.coeffs) == sorted(f.coeffs)
            assert _bits(project_kernel(s, f)) == _bits(loop_project_kernel(s, f, interior))
            assert _bits(project_kernel(s, f, kernel_basis(s, False))) == _bits(
                loop_project_kernel(s, f, full)
            ), (case, name)
            for horizon in sorted({0, 1, s.max_depth}):
                comp = peel(s, f, horizon)
                layers, residual = loop_peel(s, f, horizon)
                assert [_bits(c) for c in comp.components] == [_bits(c) for c in layers], (case, name)
                assert _bits(comp.residual) == _bits(residual), (case, name, horizon)
                assert _bits(reconstruct(s, comp)) == _bits(loop_reconstruct(s, layers, residual))
        # A sparse input in ascending order projects bitwise too.
        f = TreeVector.from_dense(tree, np.where(rng.random(tree.n_vertices) < 0.3, x, 0))
        assert _bits(project_kernel(s, f)) == _bits(loop_project_kernel(s, f, interior)), case
    # The root of random_balanced (3,) has three children: one sibling set of 3.
    assert len(shifts[0].tree.children[0]) == 3


def test_projection_bitwise_equal_scalar_route_in_any_order():
    # Every inner product walks the basis vector, so neither the input's
    # key order nor its size changes the bits. Inputs: a few entries of one
    # sibling set at far-apart scales, and dense ones, each in shuffled order.
    rng = np.random.default_rng([35, 0])
    for case, s in enumerate(_basis_fixtures()):
        n = s.tree.n_vertices
        blocks = loop_kernel_basis(s, False)
        basis = kernel_basis(s, False)
        sets = [kids for kids in s.tree.children if len(kids) >= 3]
        for trial in range(20):
            x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 9, n)
            if sets and trial % 2:
                kids = sets[rng.integers(len(sets))]
                x[np.setdiff1d(np.arange(n), rng.choice(kids, 3, replace=False))] = 0
            ids = rng.permutation(np.flatnonzero(x)).tolist()
            f = TreeVector(s.tree, {v: complex(x[v]) for v in ids})
            got = project_kernel(s, f, basis)
            assert _bits(got) == _bits(loop_project_kernel(s, f, blocks)), (case, trial)


def _part_bits(x):
    """The bit patterns of a complex array's parts; every NaN counts as one
    pattern, since the sign a NaN takes depends on the hardware loop."""
    parts = x.view(np.float64).copy()
    parts[np.isnan(parts)] = np.nan
    return parts.view(np.uint64).tolist()


def test_project_bitwise_equals_cumsum_oracle_at_every_generation_boundary():
    # Inputs at far-apart scales, with zero entries and zero parts of both
    # signs; the last trial adds infinities and NaNs, so a sum that ran on
    # past a vector's last key would meet inf * 0.
    rng = np.random.default_rng([36, 0])
    for case, s in enumerate(_basis_fixtures()):
        n = s.tree.n_vertices
        for trial in range(5):
            x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 9, n)
            x[rng.random(n) < 0.2] = 0
            x.real[rng.random(n) < 0.2] = -0.0
            x.imag[rng.random(n) < 0.2] = 0.0 if trial % 2 else -0.0
            if trial == 4:
                x.real[rng.random(n) < 0.1] = np.inf
                x.imag[rng.random(n) < 0.1] = np.nan
            for interior_only in (True, False):
                basis = kernel_basis(s, interior_only)
                for upto in s.tree.gen_offsets.tolist():
                    with np.errstate(invalid="ignore"):
                        got, want = _project(basis, x, upto), cumsum_project(basis, x, upto)
                    assert _part_bits(got) == _part_bits(want), (case, trial, interior_only, upto)


def test_peel_and_projection_reject_non_finite():
    s = _t2(depth=4)
    f = TreeVector(s.tree, {0: 1.0, 3: float("nan"), 5: complex(1.0, float("inf"))})
    with pytest.raises(ValueError, match="vertex 3"):
        peel(s, f, 2)
    with pytest.raises(ValueError, match="vertex 3"):
        project_kernel(s, f)
    g = TreeVector(s.tree, {2: complex(float("-inf"), 0.0)})
    with pytest.raises(ValueError, match="vertex 2 has"):
        peel(s, g, 2)


@st.composite
def weighted_trees(draw, min_children=0, weights=st.floats(0.25, 4.0)):
    """A shift on a BFS tree: each vertex above the deepest generation takes
    min_children to 3 children; child weights drawn from ``weights``."""
    depth = draw(st.integers(0, 4))
    parent, frontier = [-1], [0]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for _ in range(draw(st.integers(min_children, 3))):
                nxt.append(len(parent))
                parent.append(u)
        if not nxt:
            break
        frontier = nxt
    lam = draw(st.lists(weights, min_size=len(parent) - 1, max_size=len(parent) - 1))
    return TruncatedShift(DirectedTree.from_bfs_parents(parent), lam)


def _random_complex(n, seed, k=None):
    rng = np.random.default_rng(seed)
    shape = n if k is None else (n, k)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(derandomize=True, deadline=None)
@given(weighted_trees(min_children=1), st.integers(0, 2**32 - 1), st.integers(-2, 6))
def test_peel_properties(s, seed, horizon):
    f = TreeVector.from_dense(s.tree, _random_complex(s.tree.n_vertices, seed))
    if not 0 <= horizon <= s.max_depth:
        with pytest.raises(HorizonError):
            peel(s, f, horizon)
        return
    comp = peel(s, f, horizon)
    assert reconstruct(s, comp).minus(f).norm() <= 1e-10 * f.norm()


@settings(derandomize=True, deadline=None)
@given(weighted_trees(), st.integers(0, 2**32 - 1))
def test_kernel_and_adjoint_properties(s, seed):
    n = s.tree.n_vertices
    for b in kernel_basis(s, interior_only=False).vectors():
        assert apply_adjoint(s, b).norm() <= 1e-12
    x, y = _random_complex(n, seed), _random_complex(n, seed + 1)
    f, g = TreeVector.from_dense(s.tree, x), TreeVector.from_dense(s.tree, y)
    scale = max(1.0, f.norm() * g.norm())
    assert abs(apply_shift(s, f).inner(g) - f.inner(apply_adjoint(s, g))) <= 1e-12 * scale
    assert abs(np.vdot(y, apply_shift(s, x)) - np.vdot(apply_adjoint(s, y), x)) <= 1e-12 * scale
    a, b = _random_complex(n, seed, 2), _random_complex(n, seed + 1, 2)
    lhs = apply_shift(s, a).T @ b.conj()
    rhs = a.T @ apply_adjoint(s, b).conj()
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))


@settings(derandomize=True, deadline=None)
@given(weighted_trees(min_children=1), st.integers(0, 2**32 - 1))
def test_peel_layers_live_on_kernel_ids_and_match_scalar_route(s, seed):
    # Layer k is stored on the kernel ids at depth <= D - k, and every
    # horizon gives the scalar route's bits.
    tree, depth = s.tree, s.max_depth
    f = TreeVector.from_dense(tree, _random_complex(tree.n_vertices, seed))
    support = np.zeros(tree.n_vertices, dtype=bool)
    for b in kernel_basis(s, interior_only=False).vectors():
        support[list(b.coeffs)] = True
    for horizon in range(depth + 1):
        comp = peel(s, f, horizon)
        ids = comp.kernel_ids
        assert ids.tolist() == np.flatnonzero(support).tolist()
        assert not ids.flags.writeable
        assert len(comp.layers) == horizon + 1
        assert sum(map(len, comp.layers)) <= 2 * tree.n_vertices + depth + 1
        for k, (layer, vec) in enumerate(zip(comp.layers, comp.components)):
            assert layer.ndim == 1 and not layer.flags.writeable
            assert (tree.depth[ids[: len(layer)]] <= depth - k).all(), (horizon, k)
            assert all(support[v] and tree.depth[v] <= depth - k for v in vec.coeffs), (horizon, k)
        layers, residual = loop_peel(s, f, horizon)
        assert [_bits(c) for c in comp.components] == [_bits(c) for c in layers], horizon
        assert _bits(comp.residual) == _bits(residual), horizon
        assert _bits(reconstruct(s, comp)) == _bits(loop_reconstruct(s, layers, residual)), horizon


def test_deep_ray_peel_and_reconstruct_stay_linear_in_memory():
    # Dense layers here would take (D + 1)^2 complex entries, about 144 MB.
    s = make(GallerySpec(family="mad", depth=3000))
    f = TreeVector.from_dense(s.tree, _random_complex(s.tree.n_vertices, 3000))
    tracemalloc.start()
    try:
        comp = peel(s, f, s.max_depth)
        back = reconstruct(s, comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert back.minus(f).norm() <= 1e-10 * f.norm()


@settings(derandomize=True, deadline=None)
@given(weighted_trees(), st.booleans())
def test_gram_matches_closed_form_oracle(s, interior_only):
    basis = kernel_basis(s, interior_only)
    vectors = basis.vectors()
    mat = dense_shift_matrix(s)
    powers = range(s.max_depth + 2)
    op_norms = [np.linalg.norm(np.linalg.matrix_power(mat, k), 2) for k in powers]
    for n in powers:
        for m in powers:
            got = wold_gram(s, n, m, basis).matrix
            want = closed_form_gram(s, n, m, vectors)
            # Entry scale: |<S^n g, S^m h>| <= norm(S^n) norm(S^m) for unit g and h.
            err = np.max(np.abs(got - want), initial=0.0)
            assert err <= 1e-13 * op_norms[n] * op_norms[m], (n, m, err)


@settings(derandomize=True, deadline=None)
@given(weighted_trees(weights=st.just(0.0) | st.floats(0.25, 4.0)), st.integers(0, 2**32 - 1))
def test_basis_projection_and_images_with_zero_weights_match_scalar_route(s, seed):
    # Zero weights put sibling sets on the identity and per-parent classes.
    f = TreeVector.from_dense(s.tree, _random_complex(s.tree.n_vertices, seed))
    for interior_only in (True, False):
        got, want = kernel_basis(s, interior_only), loop_kernel_basis(s, interior_only)
        assert [b.parent for b in got.blocks] == [b.parent for b in want]
        assert got.total_dim == sum(b.dim for b in want)
        for gb, wb in zip(got.blocks, want):
            assert [list(v.items()) for v in gb.vectors] == [list(v.items()) for v in wb.vectors]
            assert [_bits(v) for v in gb.vectors] == [_bits(v) for v in wb.vectors]
        assert _bits(project_kernel(s, f, got)) == _bits(loop_project_kernel(s, f, want))
        _check_ladder(s, got, power_images(s, got, s.max_depth + 1), interior_only)


def test_peel_refuses_a_lift_that_underflows():
    tree = DirectedTree.from_bfs_parents([-1, 0, 1, 2])
    f = TreeVector.from_dense(tree, _random_complex(4, 7))
    ok = TruncatedShift(tree, [1e104] * 3)
    assert reconstruct(ok, peel(ok, f, 3)).minus(f).norm() <= 1e-10
    lost = TruncatedShift(tree, [1e150] * 3)
    with pytest.raises(ValueError, match="underflows at vertex 0"):
        peel(lost, f, 3)
