"""Experiment runner emitting auditable JSON and CSV reports.

Each subcommand checks one statement of the paper. ``EXPERIMENTS`` holds
one record per subcommand: its help line and claim, the flags it reads,
its default verdict tolerance (the ``--tol`` default; experiments without
one take no ``--tol``), whether it builds a shift, and its runner. The
parser, ``treeshift list`` and ``--help`` all read these records.

An experiment that builds a shift takes it from --tree FILE or from
--family NAME with --depth/--alpha/--arms/--branching/--seed; ``gallery``
builds its own fixtures and takes only --seed and --out. A run writes
report.json plus one CSV per table under the output directory, prints a
one-line verdict, and returns exit code 0 on pass or evidence-only, 1 on
fail, 2 on usage errors, which include every input that would leave a
verdict resting on zero checks, and on a report holding a NaN or an
infinity, which is then not written (see the README's exit codes).
The TREESHIFT_OUT environment variable overrides --out. For fixed
arguments and seed the written bytes are identical across runs.

Report layout: {"schema": 1, "experiment", "inputs", "tolerances",
"verdict", "tables"}; each table column carries the operation that
produced it and the tolerance applied to it (null when the column is
informational). Floats in CSVs use 17 significant digits; report.json
holds Python's shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .gallery import GallerySpec, _tail_radii, load_shift, make, t2_expected_peel_coefficient
from .multiplier import (
    Symbol,
    TrigPoly,
    _rule_symbol,
    circle_pair_integral,
    gamma_apply,
    hadamard,
    sot_error_profile,
)
from .ops import (
    TreeVector,
    TruncatedShift,
    boundary_mass,
    is_injective,
    operator_norm_power,
)
from .report import write_report
from .tree import FAMILIES, _childless, _load_object, load_tree_file
from .wold import (
    BALANCE_ABS_TOL,
    BALANCE_REL_TOL,
    is_balanced,
    is_locally_power_balanced,
    kernel_basis,
    peel,
    power_images,
    reconstruct,
    wold_gram,
)

def _table(name: str, cells: Sequence[Sequence], *columns: tuple) -> dict:
    """columns: (name, op, tol or None) triples; cells: one sequence of Python
    scalars per triple, all of one length. The writer lays out the rows."""
    return {
        "name": name,
        "columns": [{"name": c[0], "op": c[1], "tol": c[2]} for c in columns],
        "cells": list(cells),
    }


def _body(inputs: dict, tolerances: dict, ok: Optional[bool], *tables: dict, **extra) -> dict:
    """A runner's report body. ok True reads "pass", False "fail" and None
    "evidence-only"; extra holds further top-level keys, such as "regime"."""
    verdict = "evidence-only" if ok is None else "pass" if ok else "fail"
    return {"inputs": inputs, "tolerances": tolerances, "verdict": verdict, "tables": list(tables), **extra}


def _needs_depth(s: TruncatedShift, what: str) -> None:
    """Refuse a depth-0 tree, which has no ``what`` to check."""
    if s.max_depth < 1:
        raise ValueError(f"a depth-0 tree has no {what}")


def _integers(text: str) -> tuple:
    """argparse type of --branching and --levels: comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None


def _parse_phi(text: str) -> Symbol:
    """Symbol grammar: ones:K | indicator:k | power_law:EXP:K | file:PATH."""
    if text.startswith("file:"):
        return Symbol.from_json(_load_object(text[5:], "symbol file"))
    name, *params = text.split(":")
    return _rule_symbol(name, params)


def _integer(text: str) -> int:
    """``int(text)``, refused with a message argparse prefixes with the option."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _count(text: str) -> int:
    """argparse type of case, probe and power counts: an integer >= 1."""
    n = _integer(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0, as numpy's generators take."""
    n = _integer(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _finite(text: str) -> float:
    """argparse type of --tol: any finite float. A negative one fails every
    check that reads it except approx's ``error <= bound + tol``, which a
    bound above -tol still passes; gram's non-balanced regime reads no --tol."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _build_shift(args) -> tuple[TruncatedShift, Optional[str], dict]:
    """Shift, family name when known, and the echoed input description.

    --tree and --family each give one tree-spec document. A --family
    document is its own echo (the report writes a tuple as a list)."""
    if args.tree:
        doc = load_tree_file(args.tree)
        echo = {"tree_file": args.tree, "tree_spec": doc}
    elif args.family:
        given = {"alpha": args.alpha, "arms": args.arms, "branching": args.branching}
        params = {k: v for k, v in given.items() if v is not None}
        if "seed" in FAMILIES[args.family].params:
            params["seed"] = args.seed
        doc = echo = {"family": args.family, "depth": args.depth, "params": params}
    else:
        raise ValueError("need either --tree FILE or --family NAME")
    return load_shift(doc), (str(doc["family"]) if "family" in doc else None), echo


def _unit_random_vector(tree, rng) -> TreeVector:
    n = tree.n_vertices
    f = TreeVector.from_dense(tree, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return f.scaled(1.0 / f.norm())


def _run_norms(args, s: TruncatedShift, family: Optional[str]) -> dict:
    _needs_depth(s, "power to tabulate")
    max_n = args.max_power if args.max_power is not None else s.max_depth
    if not 1 <= max_n <= s.max_depth:
        raise ValueError(f"max power must lie in [1, {s.max_depth}]")
    powers, roots, values, attained, flags = range(1, max_n + 1), [], [], [], []
    for n in powers:
        est = operator_norm_power(s, n)
        # power_norm(s, 0, n), read from the order-n array est was taken from.
        roots.append(math.sqrt(s.power_norms_sq(n).item(0)))
        values.append(est.value)
        attained.append(est.attained_at)
        flags.append(est.may_grow_beyond_horizon)
    tol = args.tol if family == "mad" else None
    # The flagged rows only see the window sup, not the true norm.
    ok = None if tol is None else not any(
        abs(e0 - n) > tol * n or not flagged and abs(value - (n + 1)) > tol * (n + 1)
        for n, e0, value, flagged in zip(powers, roots, values, flags))
    return _body(
        {"max_power": max_n}, {"closed_form_rel": tol}, ok,
        _table(
            "power_norms", [powers, roots, values, attained, flags,
                            [v ** (1.0 / n) for n, v in zip(powers, values)]],
            ("n", "row index", None),
            ("norm_root", "power_norm(shift, root, n)", tol),
            ("op_norm", "operator_norm_power(shift, n).value", tol),
            ("attained_at", "operator_norm_power(shift, n).attained_at", None),
            ("may_grow_beyond_horizon", "window flag", None),
            ("surrogate", "op_norm ** (1/n)", None),
        ),
    )


def _run_radius(args, s: TruncatedShift, family: Optional[str]) -> dict:
    tree, start = s.tree, args.tail_start
    if tree.n_vertices == 1:
        raise ValueError("tree has no edges, no path to estimate along")
    # Row i is path i of enumerate_paths.
    ends = _childless(tree.first_child)
    est = _tail_radii(tree.parent, tree.depth, s.lam, ends, start, range(tree.n_vertices))
    terminals, lengths = ends.tolist(), tree.depth[ends].tolist()
    cells = [range(len(terminals)), tree.labels_of(terminals), lengths,
             [v in tree.genuine_leaves for v in terminals], [min(start, d) for d in lengths],
             est.tolist()]
    return _body(
        {"tail_start": args.tail_start}, {}, None,
        _table(
            "path_radii", cells,
            ("path", "index into enumerate_paths", None),
            ("terminal", "label of the deepest path vertex", None),
            ("length", "edge count", None),
            ("leaf_terminated", "path ends at a genuine leaf", None),
            ("tail_start", "first generation entering the minimum", None),
            ("estimate", "path_radius_estimate(shift, path, tail_start)", None),
        ),
    )


def _run_approx(args, s: TruncatedShift, family: Optional[str]) -> dict:
    phi = _parse_phi(args.phi)
    levels = sorted(set(args.levels))
    n_probes = min(s.tree.n_vertices, args.probes)
    probes = [TreeVector.basis(s.tree, u) for u in range(n_probes)]
    profile = sot_error_profile(s, phi, levels, probes)
    labels = s.tree.labels_of(range(n_probes))
    rows = [
        [r.n, r.probe_index, labels[r.probe_index], r.error, r.bound, r.error <= r.bound + args.tol]
        for r in profile.rows
    ]
    return _body(
        {"phi": args.phi, "levels": levels, "probes": n_probes}, {"bound_slack_abs": args.tol},
        all(row[-1] for row in rows) and profile.monotone,
        _table(
            "cesaro_errors", zip(*rows),
            ("level", "averaging kernel order n", None),
            ("probe", "basis vertex id", None),
            ("probe_label", "vertex label", None),
            ("error", "norm((damped - full multiplier) probe)", args.tol),
            ("bound", "(support/(n+1)) * weighted column mass", None),
            ("within_bound", "error <= bound + tol", None),
        ),
        monotone=profile.monotone, support_bound=profile.support_bound,
    )


def _run_integral(args, s: TruncatedShift, family: Optional[str]) -> dict:
    mono_tol = 1e-12
    fixed_phi = _parse_phi(args.phi) if args.phi else None
    rng = np.random.default_rng([args.seed, 4])
    rows = []
    for case in range(args.cases):
        deg_p = int(rng.integers(0, 9))
        p = TrigPoly.from_coeffs(
            {
                k: complex(rng.standard_normal(), rng.standard_normal())
                for k in range(-deg_p, deg_p + 1)
            }
        )
        if fixed_phi is not None:
            phi = fixed_phi
        else:
            phi = Symbol.from_support(
                {
                    k: complex(rng.standard_normal(), rng.standard_normal())
                    for k in range(0, 9)
                }
            )
        f = _unit_random_vector(s.tree, rng)
        g = _unit_random_vector(s.tree, rng)
        quad = circle_pair_integral(s, p.reflected(), phi, f, g)
        direct = gamma_apply(s, hadamard(p, phi), f).inner(g)
        err = abs(quad - direct)
        k_mono = int(rng.integers(1, 9))
        mono = abs(circle_pair_integral(s, TrigPoly.monomial(k_mono), phi, f, g))
        rows.append([case, deg_p, phi.degree, err, k_mono, mono])
    return _body(
        {"cases": args.cases, "seed": args.seed, "phi": args.phi if args.phi else "random-support-8"},
        {"pairing_abs": args.tol, "monomial_abs": mono_tol},
        all(err <= args.tol and mono <= mono_tol for *_, err, _, mono in rows),
        _table(
            "circle_integrals", zip(*rows),
            ("case", "seeded case index", None),
            ("poly_degree", "degree of the circle polynomial", None),
            ("phi_degree", "symbol support bound", None),
            ("pairing_error", "|quadrature - coefficientwise pairing|", args.tol),
            ("monomial_order", "positive order averaged", None),
            ("monomial_abs", "|circle mean of w^k pairing|", mono_tol),
        ),
    )


def _run_wold(args, s: TruncatedShift, family: Optional[str]) -> dict:
    _needs_depth(s, "peel step to take")
    horizon = args.horizon if args.horizon is not None else s.max_depth
    if not 1 <= horizon <= s.max_depth:
        raise ValueError(f"wold horizon {horizon} must lie in [1, {s.max_depth}]")
    rng = np.random.default_rng([args.seed, 5])
    rows = []
    for case in range(args.cases):
        f = _unit_random_vector(s.tree, rng)
        comp = peel(s, f, horizon)
        err = reconstruct(s, comp).minus(f).norm()
        nonzero = sum(1 for layer in comp.layers if layer.any())
        rows.append([case, horizon, err, comp.residual.norm(), boundary_mass(s, f), nonzero])
    return _body(
        {"cases": args.cases, "seed": args.seed, "horizon": horizon}, {"roundtrip_abs": args.tol},
        all(row[2] <= args.tol for row in rows),
        _table(
            "roundtrips", zip(*rows),
            ("case", "seeded case index", None),
            ("horizon", "number of peel steps", None),
            ("roundtrip_error", "norm(reconstruct(peel(f)) - f)", args.tol),
            ("residual_norm", "norm of the undecomposed part", None),
            ("boundary_norm", "input mass at the deepest generation", None),
            ("nonzero_layers", "layers with support", None),
        ),
    )


def _run_balanced(args, s: TruncatedShift, family: Optional[str]) -> dict:
    max_n = args.max_power
    _needs_depth(s, "interior generation to compare")
    bal = is_balanced(s)
    loc = is_locally_power_balanced(s, max_n)
    norms = np.sqrt(s.power_norms_sq(1))  # power_norm(s, u, 1) of every interior u
    starts = s.tree.gen_offsets[:-2]  # first id of each interior generation; none is empty
    lo, hi = np.minimum.reduceat(norms, starts), np.maximum.reduceat(norms, starts)
    local_rows = [[
        max_n, loc.ok,
        -1 if loc.u is None else loc.u,
        -1 if loc.v is None else loc.v,
        0 if loc.power is None else loc.power,
    ]]
    return _body(
        {"max_power": max_n}, {"rel": BALANCE_REL_TOL, "abs": BALANCE_ABS_TOL},
        # Constant first norms force constant higher power norms, so a balanced
        # shift failing the sibling check would be an internal contradiction.
        loc.ok or not bal.ok,
        _table(
            "generation_norms", [range(s.max_depth), np.diff(s.tree.gen_offsets[:-1]).tolist(),
                                 lo.tolist(), hi.tolist(), (hi - lo).tolist()],
            ("generation", "depth", None),
            ("vertices", "generation size", None),
            ("min_norm", "min over u of norm(S e_u)", None),
            ("max_norm", "max over u of norm(S e_u)", None),
            ("spread", "max - min", None),
        ),
        _table(
            "sibling_power_check", zip(*local_rows),
            ("max_power", "orders compared, capped per sibling horizon", None),
            ("ok", "all sibling power norms agree", None),
            ("witness_u", "first mismatching vertex or -1", None),
            ("witness_v", "second mismatching vertex or -1", None),
            ("power", "mismatching order or 0", None),
        ),
        balanced=bal.ok, locally_power_balanced=loc.ok,
    )


def _run_gram(args, s: TruncatedShift, family: Optional[str]) -> dict:
    _needs_depth(s, "(n, m) power pair to compare")
    max_p = min(args.max_power, s.max_depth)
    basis = kernel_basis(s)
    bal = is_balanced(s)
    inj = is_injective(s)
    ladder = power_images(s, basis, max_p)
    rows = []
    overall_max = 0.0
    for n in range(0, max_p + 1):
        for m in range(n + 1, max_p + 1):
            g = wold_gram(s, n, m, basis, ladder=ladder)
            max_abs = g.max_abs
            overall_max = max(overall_max, max_abs)
            rows.append([n, m, max_abs, g.exceeds_horizon])
    if bal.ok:
        regime, ok = "orthogonal-factors", overall_max <= args.tol
    elif inj.injective:
        regime, ok = "expected-nonorthogonal", overall_max >= 1e-3
    else:
        regime, ok = "unclassified", None
    return _body(
        {"max_power": max_p}, {"orthogonality_abs": args.tol, "nonorthogonality_floor": 1e-3}, ok,
        _table(
            "gram_pairings", zip(*rows),
            ("n", "left power", None),
            ("m", "right power", None),
            ("max_abs", "max |<S^n g_i, S^m h_j>| over the kernel basis", args.tol),
            ("exceeds_horizon", "some block image leaves the window", None),
        ),
        regime=regime, balanced=bal.ok, injective=inj.injective, kernel_dim=basis.total_dim,
    )


def _run_gallery(args, s, family) -> dict:
    fixtures = [
        GallerySpec(family="unilateral", depth=8),
        GallerySpec(family="mad", depth=8),
        GallerySpec(family="broom", params={"arms": 5}),
        GallerySpec(family="broom_leaf", params={"arms": 5}),
        GallerySpec(family="t2", depth=8, params={"alpha": 0.5}),
        GallerySpec(family="t2_zero", depth=4),
        GallerySpec(family="random", depth=6, params={"seed": args.seed}),
        GallerySpec(family="random_balanced", depth=6, params={"seed": args.seed}),
    ]
    rows = []
    ok = True
    for spec in fixtures:
        s = make(spec)
        again = make(spec)
        deterministic = s.lam.tobytes() == again.lam.tobytes() and s.tree == again.tree
        bal = is_balanced(s).ok
        loc = is_locally_power_balanced(s, 4).ok
        inj = is_injective(s)
        rows.append([
            spec.family, s.max_depth, s.tree.n_vertices, len(s.tree.genuine_leaves),
            bal, loc, inj.interior_injective, inj.injective, math.sqrt(s.column_bound),
            deterministic,
        ])
        ok = ok and deterministic
        if spec.family == "t2_zero":
            ok = ok and loc and not bal
        if spec.family == "t2":
            ok = ok and not bal
        if spec.family == "random_balanced":
            ok = ok and bal
    return _body(
        {"seed": args.seed}, {}, ok,
        _table(
            "fixtures", zip(*rows),
            ("family", "gallery family name", None),
            ("depth", "truncation depth", None),
            ("vertices", "vertex count", None),
            ("genuine_leaves", "leaves of the untruncated object", None),
            ("balanced", "is_balanced(shift).ok", None),
            ("locally_power_balanced", "is_locally_power_balanced(shift, 4).ok", None),
            ("interior_injective", "no vanishing interior column", None),
            ("injective", "interior check and no genuine leaves", None),
            ("max_column_norm", "sqrt of the largest interior column norm squared", None),
            ("deterministic", "second build bitwise-identical", None),
        ),
    )


def _run_peel(args, s: TruncatedShift, family: Optional[str]) -> dict:
    if family != "t2":
        raise ValueError("the layer-coefficient experiment is defined for the t2 family")
    v21 = s.tree.vertex_with_label("(2,1)")
    alpha = s.lam.item(v21)
    depth = s.max_depth
    if depth < 3:
        raise ValueError("need depth >= 3 to see at least one exact layer")
    # The lower ray (2,1), (2,2), ...: one vertex on each level below (2,1).
    x = np.zeros(s.tree.n_vertices, dtype=complex)
    x[[level.start for level in s.tree.levels_below(v21)]] = 1.0 / np.arange(1, depth + 1)
    f = TreeVector.from_dense(s.tree, x)
    comp = peel(s, f, depth)
    k21 = int(np.searchsorted(comp.kernel_ids, v21))
    rows = []
    checked_up_to = min(10, depth - 2)
    for j in range(0, depth - 1):
        peeled = -comp.layers[j].item(k21).real
        closed = t2_expected_peel_coefficient(j, alpha)
        rows.append([j, peeled, closed, abs(peeled - closed), j <= checked_up_to])
    roundtrip = reconstruct(s, comp).minus(f).norm()
    return _body(
        {"profile": "f(lower ray, j) = 1/j"}, {"coefficient_abs": args.tol, "checked_up_to": checked_up_to},
        all(err <= args.tol for *_, err, checked in rows if checked) and roundtrip <= args.tol,
        _table(
            "layer_coefficients", zip(*rows),
            ("j", "layer index", None),
            ("gamma_peeled", "minus the layer coefficient at the first lower-ray vertex", args.tol),
            ("gamma_closed", "-1/((j+1) alpha^j (1+alpha^2))", None),
            ("abs_error", "|peeled - closed|", args.tol),
            ("in_verdict", "row participates in the verdict", None),
        ),
        roundtrip_error=roundtrip,
    )


class Experiment(NamedTuple):
    """One subcommand: the paper claim it checks and how to run it."""

    help: str
    claim: str
    # run(args, shift, family) returns a ``_body``, the report minus "schema"
    # and "experiment"; its "inputs" extend the shift's echo.
    run: Callable[..., dict]
    flags: tuple = ()  # (flag, add_argument keywords) pairs read by ``run``
    tol: Optional[float] = None  # default of --tol; None: no --tol
    builds_shift: bool = True


_SHIFT_FLAGS = (
    ("--tree", {"help": "path to a JSON tree spec"}),
    ("--family", {"choices": tuple(FAMILIES), "help": "gallery family"}),
    ("--depth", {"type": int, "help": "truncation depth for family builds"}),
    ("--alpha", {"type": float, "help": "lower-ray weight for the t2 family"}),
    ("--arms", {"type": int, "help": "arm count for the broom families"}),
    ("--branching", {"type": _integers, "help": "comma-separated child counts for random families"}),
)

_CASES = ("--cases", {"type": _count, "default": 10, "help": "seeded case count"})

EXPERIMENTS = {
    "norms": Experiment(
        "power norms, operator norms, radius surrogate",
        "power-column norms follow the bottom-up recursion; on the "
        "telescoping ray the n-th power norm at the root is n and the "
        "operator norm of the n-th power is n + 1",
        _run_norms,
        (("--max-power", {"type": _count, "help": "largest power tabulated (default: depth)"}),),
        tol=1e-12,
    ),
    "radius": Experiment(
        "path radius estimates along maximal paths",
        "tail minimum of k-th roots of root-to-vertex weight products "
        "along each maximal path, a finite stand-in for the "
        "path-induced radius",
        _run_radius,
        (("--tail-start", {"type": int, "default": 1, "help": "first generation in the tail minimum"}),),
    ),
    "approx": Experiment(
        "averaging-kernel approximation errors per probe",
        "damping the symbol by the level-n averaging kernel "
        "approximates the multiplication operator per probe within "
        "(support bound / (n + 1)) times the weighted column mass",
        _run_approx,
        (
            ("--phi", {"default": "ones:8",
                       "help": "symbol: ones:K | indicator:k | power_law:EXP:K | file:PATH"}),
            ("--levels", {"type": _integers, "default": "8,16,32,64",
                          "help": "comma-separated kernel orders"}),
            ("--probes", {"type": _count, "default": 64, "help": "cap on basis probes"}),
        ),
        tol=1e-12,
    ),
    "integral": Experiment(
        "circle quadrature against coefficientwise products",
        "the circle mean of q(w) times the rotated-symbol pairing "
        "equals the pairing of the coefficientwise-product operator; "
        "positive-order monomials average to zero",
        _run_integral,
        (
            ("--phi", {"help": "fixed symbol for every case (default: seeded random)"}),
            _CASES,
        ),
        tol=1e-10,
    ),
    "wold": Experiment(
        "peel and reconstruct round trips",
        "peel followed by reconstruct is the identity, and residuals "
        "vanish for inputs supported above the boundary generation",
        _run_wold,
        (_CASES, ("--horizon", {"type": int, "help": "peel steps (default: depth)"})),
        tol=1e-10,
    ),
    "balanced": Experiment(
        "generation norm spreads and sibling power checks",
        "column norms constant within each generation imply "
        "generation-constant power norms and sibling agreement",
        _run_balanced,
        (("--max-power", {"type": _count, "default": 4, "help": "sibling comparison order (default 4)"}),),
    ),
    "gram": Experiment(
        "kernel image pairings across powers",
        "balanced shifts have mutually orthogonal power images of the "
        "adjoint kernel; unbalanced injective fixtures exhibit a "
        "nonvanishing cross pairing",
        _run_gram,
        (("--max-power", {"type": _count, "default": 4, "help": "largest power paired (default 4)"}),),
        tol=1e-10,
    ),
    "gallery": Experiment(
        "build and diagnose every named fixture",
        "named fixtures build deterministically with their "
        "documented weight rules and diagnostic flags",
        _run_gallery,
        builds_shift=False,
    ),
    "peel": Experiment(
        "layer coefficients of the 1/j profile on t2",
        "layer coefficients of the 1/j profile on the two-ray fixture "
        "match -1 / ((j + 1) alpha^j (1 + alpha^2))",
        _run_peel,
        tol=1e-10,
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="treeshift", description="weighted-shift experiments on truncated trees"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, exp in EXPERIMENTS.items():
        p = subs.add_parser(name, help=exp.help, description=exp.claim)
        for flag, kwargs in _SHIFT_FLAGS if exp.builds_shift else ():
            p.add_argument(flag, **kwargs)
        p.add_argument("--seed", type=_seed, default=0, help="seed for structure, weights and case draws")
        p.add_argument("--out", default="out", help="report directory (TREESHIFT_OUT overrides)")
        if exp.tol is not None:
            p.add_argument("--tol", type=_finite, default=exp.tol,
                           help=f"verdict tolerance (default {exp.tol:g})")
        for flag, kwargs in exp.flags:
            p.add_argument(flag, **kwargs)
    subs.add_parser("list", help="print the experiment claim registry")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "list":
        for name, exp in EXPERIMENTS.items():
            print(f"{name}: {exp.claim}")
        return 0
    exp = EXPERIMENTS[args.command]
    try:
        # An overflow or NaN reaches the report, whose writer refuses it.
        with np.errstate(over="ignore", invalid="ignore"):
            s, family, inputs = _build_shift(args) if exp.builds_shift else (None, None, {})
            body = exp.run(args, s, family)
            report = {**body, "schema": 1, "experiment": args.command,
                      "inputs": {**inputs, **body["inputs"]}}
            path = write_report(os.environ.get("TREESHIFT_OUT") or args.out, report)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # a bare MemoryError() has no message
        print(f"error: out of memory running {args.command}{detail}", file=sys.stderr)
        return 2
    print(f"{args.command}: {report['verdict']} ({path})")
    return 0 if report["verdict"] in ("pass", "evidence-only") else 1


if __name__ == "__main__":
    sys.exit(main())
