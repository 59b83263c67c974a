"""Horizon nesting: what the truncation does not flag, a deeper truncation keeps.

Every ``FAMILIES`` builder draws its tree generation by generation and
weighs the vertices in id order, so the depth-D build of a family is the
depth-(D + 1) build cut at depth D: the first N breadth-first ids carry
the same parents and bitwise the same weights. A quantity that carries
no horizon flag must then be bitwise equal on the deeper build. Checking
D against D + 1 for every D covers every deeper build by induction: an
unflagged value at depth D stays unflagged at D + 1.

The fixed-depth families (broom, broom_leaf) have no deeper build.
"""

import argparse

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import (
    GallerySpec,
    Symbol,
    TreeVector,
    is_balanced,
    is_locally_power_balanced,
    kernel_basis,
    make,
    operator_norm_power,
    peel,
    sot_error_profile,
)
from treeshift.cli import _run_radius
from treeshift.tree import FAMILIES

from oracles import row_table

NESTED = [name for name, fam in FAMILIES.items() if fam.fixed_depth is None]
# t2_zero has two vanishing columns, and peel refuses a non-injective shift.
PEELED = [name for name in NESTED if name != "t2_zero"]


@st.composite
def family_params(draw, family, depth):
    """Params of one build; the same dict serves depth D and D + 1."""
    if family == "t2":
        return {"alpha": draw(st.floats(0.05, 0.95))}
    if family.startswith("random"):
        params = {"seed": draw(st.integers(0, 2**16)),
                  "branching": draw(st.sampled_from([(1,), (2,), (1, 2), (1, 2, 3), (2, 3)]))}
        if family == "random_balanced" and draw(st.booleans()):
            # One norm per generation of the deeper build; the shallow one reads a prefix.
            params["generation_norms"] = draw(st.lists(st.floats(0.5, 2.0), min_size=depth + 1,
                                                       max_size=depth + 1))
        return params
    return {}


@st.composite
def nested_builds(draw, family):
    depth = draw(st.integers(max(FAMILIES[family].min_depth, 1), 5))
    params = draw(family_params(family, depth))
    return (make(GallerySpec(family=family, depth=depth, params=params)),
            make(GallerySpec(family=family, depth=depth + 1, params=params)))


@pytest.mark.parametrize("family", NESTED)
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_norms_nest_across_horizons(family, data):
    shallow, deep = data.draw(nested_builds(family))
    depth, n_vertices = shallow.max_depth, shallow.tree.n_vertices

    # The depth-D tree is the depth-(D + 1) tree cut at depth D.
    assert deep.tree.gen_offsets[depth + 1] == n_vertices
    assert deep.tree.parent[:n_vertices].tobytes() == shallow.tree.parent.tobytes()
    assert deep.lam[:n_vertices].tobytes() == shallow.lam.tobytes()

    for n in range(depth + 1):
        # norm(S^n e_u)^2 is tabulated for depth(u) + n <= D, where S^n e_u
        # lives on depth <= D, the same vertices and weights in both builds,
        # summed over children in the same ascending order.
        col = shallow.power_norms_sq(n)
        assert deep.power_norms_sq(n)[: len(col)].tobytes() == col.tobytes(), n

        # A cleared flag says no column past the horizon is larger, so the
        # deeper build's extra columns, all after every shallow id, leave
        # both the sup and its first maximiser unchanged.
        est = operator_norm_power(shallow, n)
        if not est.may_grow_beyond_horizon:
            other = operator_norm_power(deep, n)
            assert other.value.hex() == est.value.hex(), n
            assert other.attained_at == est.attained_at, n


def _bits(f):
    """Keys in insertion order with the bits of each coefficient."""
    return [(v, c.real.hex(), c.imag.hex()) for v, c in f.items()]


@pytest.mark.parametrize("family", NESTED)
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_kernel_basis_nests_across_horizons(family, data):
    shallow, deep = data.draw(nested_builds(family))
    # The interior basis at depth D has the root and a block per parent at
    # depth <= D - 2. Both builds share those parents' sibling sets, and
    # ``_class_blocks`` works row by row, so each block keeps its bits in
    # the deeper build; blocks run by ascending parent, so the deeper
    # build's further blocks come after them. The gram matrix is left out:
    # its matrix product may block differently on more rows.
    want = kernel_basis(shallow).vectors()
    got = kernel_basis(deep).vectors()[: len(want)]
    assert [_bits(f) for f in got] == [_bits(f) for f in want]


def _complex(rng, n):
    """n complex entries, about a third of them zero."""
    return np.where(rng.random(n) < 0.3, 0, rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("family", PEELED)
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_peel_layers_nest_across_horizons(family, data):
    shallow, deep = data.draw(nested_builds(family))
    depth, n_vertices = shallow.max_depth, shallow.tree.n_vertices
    # No depth condition on the input: the lift moves mass up exactly one
    # generation and each projection stays in one sibling set, so layer k
    # at depth e reads the input at depth e + k only. The shallow layer k
    # lives on depth <= D - k and reads depth <= D; the deep input's extra
    # generation D + 1 reaches only the deep layer's entries past that
    # prefix (and the shallow build's residual).
    x = _complex(np.random.default_rng(data.draw(st.integers(0, 2**16))), deep.tree.n_vertices)
    f, g = TreeVector.from_dense(shallow.tree, x[:n_vertices]), TreeVector.from_dense(deep.tree, x)
    for horizon in range(depth + 1):
        want, got = peel(shallow, f, horizon), peel(deep, g, horizon)
        ids = want.kernel_ids
        assert got.kernel_ids[: len(ids)].tobytes() == ids.tobytes()
        for k, layer in enumerate(want.layers):
            assert got.layers[k][: len(layer)].tobytes() == layer.tobytes(), (horizon, k)


@pytest.mark.parametrize("family", NESTED)
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_sot_rows_nest_across_horizons(family, data):
    shallow, deep = data.draw(nested_builds(family))
    depth = shallow.max_depth
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    k_bound = data.draw(st.integers(1, 3))
    phi = Symbol.from_support(dict(enumerate(_complex(rng, k_bound + 1).tolist())))
    levels = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    # M e_u lives on the K + 1 generations from u down, all within depth D
    # when depth(u) + K <= D: the same vertices, weights and products in
    # both builds, so the error and bound of that probe keep their bits.
    probes = np.flatnonzero(shallow.tree.depth + phi.degree <= depth).tolist()

    def rows(s):
        profile = sot_error_profile(s, phi, levels, [TreeVector.basis(s.tree, u) for u in probes])
        return [(r.n, r.probe_index, r.error.hex(), r.bound.hex()) for r in profile.rows]

    assert rows(deep) == rows(shallow)


def _witness(result):
    norms = [None if x is None else x.hex() for x in (result.norm_u, result.norm_v)]
    return (result.ok, result.u, result.v, result.power, *norms)


@pytest.mark.parametrize("family", NESTED)
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_balance_witnesses_nest_across_horizons(family, data):
    shallow, deep = data.draw(nested_builds(family))
    depth = shallow.max_depth
    max_n = data.draw(st.integers(1, depth + 1))
    # Both checks compare power-column norms only where depth(v) + power
    # <= D, values the deeper build keeps bitwise; it adds the comparisons
    # with depth(v) + power = D + 1 and no others. is_balanced reports the
    # mismatch of smallest id, and the added ones (generation D) come last.
    # The local check reports the smallest parent id first, so on some
    # hand-built tree an added mismatch at a smaller parent could come
    # first; in these families a sibling set either differs at order 1 or
    # agrees at every order, so a failure keeps its witness there too.
    for check in (is_balanced, lambda s: is_locally_power_balanced(s, max_n)):
        want, got = check(shallow), check(deep)
        if not want.ok:
            assert _witness(got) == _witness(want)
        elif not got.ok:
            assert deep.tree.depth[got.v] + got.power == depth + 1


def _radii(s, tail_start):
    """{terminal id: estimate} over the rows of the radius report."""
    table = row_table(_run_radius(argparse.Namespace(tail_start=tail_start), s, None)["tables"][0])
    ids = {label: v for v, label in enumerate(s.tree.labels)}
    return {ids[row[1]]: row[5] for row in table["rows"]}


@pytest.mark.parametrize("family", NESTED)
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_radius_estimates_only_fall_across_horizons(family, data):
    shallow, deep = data.draw(nested_builds(family))
    depth = shallow.max_depth
    tail_start = data.draw(st.integers(0, depth))
    want, got = _radii(shallow, tail_start), _radii(deep, tail_start)
    parent = deep.tree.parent
    # A terminal at depth <= D is one of both builds, its path and the
    # walk's products the same: the row is final. A terminal at depth
    # D + 1 extends its parent's row, and with the tail starting at
    # generation <= D its estimate is min(the parent's estimate, its own
    # term), so it can only fall. No flag in the report says so yet.
    for v, est in got.items():
        if v in want:
            assert est.hex() == want[v].hex(), v
        else:
            assert est <= want[parent.item(v)], v


def test_radius_estimates_can_rise_when_the_tail_starts_past_the_horizon():
    # The exception to the bound above: with tail_start > D a depth-(D + 1)
    # row's tail starts at or below its terminal, so its estimate is its
    # own term, which may exceed the parent's. Random (1,2,3) builds of
    # depth 3-7 all show such rows.
    params = {"seed": 0, "branching": (1, 2, 3)}
    shallow, deep = (make(GallerySpec(family="random", depth=d, params=params)) for d in (3, 4))
    want, got = _radii(shallow, 4), _radii(deep, 4)
    parent = deep.tree.parent
    assert any(est > want[parent.item(v)] for v, est in got.items() if v not in want)


# Per nested family, over depths 1-6 (from the family's least depth) and
# seeds 0-4 of the random families at their default branching, t2 at
# alpha 0.5: (flagged rows whose value differs on the depth-(D + 1) build,
# flagged rows). unilateral and t2 attain their norms at depth 0 and never
# set the flag.
_NORM_FLAG_WITNESSES = {
    "unilateral": (0, 0), "mad": (6, 6), "t2": (0, 0), "t2_zero": (4, 8),
    "random": (50, 105), "random_balanced": (5, 105),
}


@pytest.mark.parametrize("family", NESTED)
def test_operator_norm_flag_has_a_tightness_witness(family):
    # A flagged sup may grow past the horizon; for each family that sets the
    # flag, some depth-(D + 1) build shows a larger sup, so the flag is not
    # set where nothing could change.
    fam = FAMILIES[family]
    params = [{"seed": seed} for seed in range(5)] if family.startswith("random") else [{}]
    if family == "t2":
        params = [{"alpha": 0.5}]
    differ = flagged = 0
    for p in params:
        for depth in range(max(fam.min_depth, 1), 7):
            shallow, deep = (make(GallerySpec(family=family, depth=d, params=p)) for d in (depth, depth + 1))
            for n in range(1, depth + 1):
                est = operator_norm_power(shallow, n)
                if est.may_grow_beyond_horizon:
                    flagged += 1
                    differ += operator_norm_power(deep, n).value != est.value
    assert (differ, flagged) == _NORM_FLAG_WITNESSES[family]
    assert differ > 0 or flagged == 0
